"""Walk-corpus generation: uniform random walks and Metropolis-Hastings leap walks.

The leap walk proposes, at every step, a node sampled uniformly from the
set of nodes at directed distance exactly `hop` from the current node, and
accepts it with probability min(1, R) + alpha_min, where R is the usual
MH density ratio

    R(curr, v) = (p(v) + eps) * q(curr | v) / ((p(curr) + eps) * q(v | curr))

built from a per-node activity statistic p (smoothed by eps so inactive
nodes keep a finite ratio) and a distance-based proposal q. The forward
proposal always sees distance `hop`; the backward term uses the return
distance from v to curr, capped at `hop`, with a nominal fallback
probability when curr is not reachable from v within the cap (the graph
is directed, so returns are not guaranteed).

A rejected step consumes walk budget but appends nothing: repeated tokens
add no co-occurrence pairs and only inflate the corpus. Walks end early
when the candidate set is empty (sink regions).

Both modes share one loop that advances a block of walks in lockstep, as
numpy arrays, in the manner of KnightKing (Yang et al., SOSP 2019): step
s writes token s + 1 of every live walk, and each mode supplies only a
vectorised step from the current nodes to the next ones. The leap
sampler builds every row of its graph version once, when it is made: a
node's sorted capped frontier and, per slot, the acceptance threshold
min(1, R) + alpha_min. One breadth-first search from all nodes together
over (source, node) key arrays, over the out-edges, gives every frontier;
one over the in-edges gives every return distance. A leap step is then a
gather of the slot and one comparison; a rejected leap writes its node
again, and that repeat is dropped when the block ends. A node whose
frontier overflows the cap has no row but a guard entry; all of a step's
walks at such nodes take the guard path together, as arrays, and that
path is approximate and counted.

A sampler speaks token rows only: `walks(ids, rows, start)` returns the
int32 rows it stepped, and resumes walks from given rows. A corpus (and
its file, after one header line) is rows exactly l wide; it turns rows
into tuples for its `walks` view, and is the only code that does.

Every random draw is counter-keyed (Salmon et al., SC 2011): draw c of
walk w = u*n + i, the i-th walk from node u, is SplitMix64's output at
position w * 2**32 + c + 1 of the stream the seed starts. A uniform
walk's step s uses draw s; a leap walk's step s uses draws 2s (proposal)
and 2s + 1 (acceptance). Any draw can be computed without the ones
before it, so a walk resumed at step s on a newer graph draws exactly
what a walk generated from scratch there would.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, InputError, ParseError, read_header
from .graph import STAT_KINDS, TransactionGraph

MODE_UNIFORM = "uniform"
MODE_MH = "mh"
MODES = (MODE_UNIFORM, MODE_MH)

WALKS_MAGIC = "WALKFORGE-WALKS v2"

# explosion-guard fallback: retries of random h-step expansion per draw
_FALLBACK_TRIES = 16
# walks generated per lockstep block; bounds the walkers' scratch arrays
_BLOCK = 8192
# (source, node) keys one BFS level of a leap-row build gathers at once;
# bounds the builder's scratch arrays. A source whose own level is larger
# is expanded alone: at most one key per edge.
_KEYS = 1 << 20


@dataclass(frozen=True)
class WalkConfig:
    """Parameters for walk generation (both modes share n, l and the seed)."""

    num_walks: int = 10
    walk_length: int = 5
    hop: int = 2
    alpha_min: float = 0.5
    target_stat: str = "V_in"      # which node statistic the chain favors
    proposal: str = "S"            # "S" reciprocal distance, "E" exp decay
    decay: float = 0.5             # rate for the "E" proposal
    nominal_return: float = 0.1    # backward proposal when no return path
    stat_smoothing: float = 1.0    # eps added to p() on both sides
    seed: int = 0
    frontier_cap: int | None = None  # None -> 64 * hop

    def __post_init__(self):
        if self.num_walks < 1:
            raise ConfigError(f"num_walks must be >= 1, got {self.num_walks}")
        if self.walk_length < 2:
            raise ConfigError(f"walk_length must be >= 2, got {self.walk_length}")
        if self.hop < 1:
            raise ConfigError(f"hop must be >= 1, got {self.hop}")
        if not 0.0 <= self.alpha_min <= 1.0:
            raise ConfigError(f"alpha_min must be in [0,1], got {self.alpha_min}")
        if self.target_stat not in STAT_KINDS:
            raise ConfigError(f"target_stat must be one of {STAT_KINDS}, "
                              f"got {self.target_stat!r}")
        if self.proposal not in ("S", "E"):
            raise ConfigError(f"proposal must be 'S' or 'E', got {self.proposal!r}")
        if self.decay <= 0:
            raise ConfigError(f"decay must be positive, got {self.decay}")
        if not 0.0 < self.nominal_return <= 1.0:
            raise ConfigError(f"nominal_return must be in (0,1], got {self.nominal_return}")
        if self.stat_smoothing <= 0:
            raise ConfigError(f"stat_smoothing must be positive, got {self.stat_smoothing}")

    def with_seed(self, seed: int) -> "WalkConfig":
        return replace(self, seed=seed)


def check_mode(mode: str):
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")


# ---------------------------------------------------------------------------
# Counter-keyed draws
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)  # SplitMix64's stream increment
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S11, _S27, _S30, _S31, _S32 = (np.uint64(k) for k in (11, 27, 30, 31, 32))


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function over a uint64 array (arithmetic wraps)."""
    z = (z ^ (z >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    return z ^ (z >> _S31)


def keyed_uniforms(seed, walk_ids, counters) -> np.ndarray:
    """U[k, j] in [0, 1): draw number counters[j] of walk walk_ids[k].

    It is SplitMix64's output at position w * 2**32 + c + 1 of the stream
    that `seed` starts, so every (seed, walk, draw) has its own position
    and any draw can be computed without the ones before it. `seed` is an
    int, or an array of non-negative ones: seed[k] for row k.
    """
    seeds = np.asarray(seed & _MASK64 if np.ndim(seed) == 0 else seed, dtype=np.uint64)
    state = _mix(seeds.reshape(-1, 1))
    pos = ((np.asarray(walk_ids, dtype=np.uint64) << _S32)[:, None]
           + np.asarray(counters, dtype=np.uint64) + np.uint64(1))
    z = _mix(state + pos * _GAMMA)
    return (z >> _S11).astype(np.float64) * 2.0 ** -53


# ---------------------------------------------------------------------------
# Acceptance probability
# ---------------------------------------------------------------------------

def _q_value(cfg: WalkConfig, dist: int) -> float:
    if cfg.proposal == "S":
        return 1.0 / dist
    return math.exp(-cfg.decay * dist)


def _acceptance(g: TransactionGraph, cfg: WalkConfig, curr: int, v: int) -> float:
    p_curr = g.node_stat(curr, cfg.target_stat) + cfg.stat_smoothing
    p_v = g.node_stat(v, cfg.target_stat) + cfg.stat_smoothing
    back = g.shortest_hop(v, curr, cap=cfg.hop)
    q_back = cfg.nominal_return if back is None else _q_value(cfg, back)
    q_fwd = _q_value(cfg, cfg.hop)
    ratio = (p_v * q_back) / (p_curr * q_fwd)
    return ratio if ratio < 1.0 else 1.0


def mh_acceptance(g: TransactionGraph, curr: int, v: int, cfg: WalkConfig) -> float:
    """Acceptance probability for leaping from curr to v (v must be at
    directed distance exactly cfg.hop)."""
    if g.shortest_hop(curr, v, cap=cfg.hop) != cfg.hop:
        raise ConfigError(
            f"node {v} is not at distance {cfg.hop} from {curr}")
    return _acceptance(g, cfg, curr, v)


# ---------------------------------------------------------------------------
# Multi-source BFS over (source, node) keys
# ---------------------------------------------------------------------------

def _distinct(keys) -> np.ndarray:
    """The keys sorted, each once: a sort and a neighbour compare (a bare
    np.unique would import numpy.ma)."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _member(keys, table) -> np.ndarray:
    """Which keys occur in the sorted array `table`."""
    at = np.searchsorted(table, keys)
    hit = at < len(table)
    hit[hit] = table[at[hit]] == keys[hit]
    return hit


def _levels(csr, n, seeds, depth):
    """Breadth-first search from many sources at once over one direction
    of the adjacency, level by level (Then et al., *The More the Merrier*,
    PVLDB 8(4), 2014). Source k at node u is the key k * n + u of the
    sorted `seeds`; a level's keys are k * n + x for the nodes x at
    distance exactly d from source k. Yields, per chunk of consecutive
    sources, the depth + 1 levels as sorted key arrays.

    A level gathers the CSR rows of the previous one with np.repeat plus
    offsets, drops repeats with a sort and the keys of earlier levels with
    searchsorted. A chunk whose next level would gather more than _KEYS
    keys is split in two at a source boundary; its sorted levels split by
    searchsorted."""
    indptr, indices = csr.indptr, csr.indices
    chunks = [[seeds]] if len(seeds) else []
    while chunks:
        levels = chunks.pop()
        while len(levels) <= depth:
            level = levels[-1]
            x = level % n
            lo = indptr[x]
            deg = indptr[x + 1] - lo
            ends = np.cumsum(deg)
            total = int(ends[-1]) if len(ends) else 0
            if total > _KEYS and level[0] // n != level[-1] // n:
                k = level[np.searchsorted(ends, total // 2)] // n
                cut = max(k, level[0] // n + 1) * n
                at = [np.searchsorted(a, cut) for a in levels]
                chunks += [[a[i:] for a, i in zip(levels, at)],
                           [a[:i] for a, i in zip(levels, at)]]
                break
            keys = np.repeat(level - x, deg) + indices[
                np.repeat(lo - ends + deg, deg) + np.arange(total)]
            keys = _distinct(keys)
            for seen in levels:
                keys = keys[~_member(keys, seen)]
            levels.append(keys)
        else:
            yield levels


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

class _Sampler:
    """Shared state of both walk modes and their one lockstep loop: the
    graph version walked, the config, the candidate draws made, the leap
    steps that took the frontier-overflow guard path or exhausted its
    retries, and the leap rows built. A mode supplies `step` and the
    number of keyed uniforms it draws per walk and step
    (`draws_per_step`)."""

    draws_per_step = 1

    def __init__(self, g: TransactionGraph, cfg: WalkConfig):
        self.g = g
        self.cfg = cfg
        self.draws = 0
        self.overflows = 0
        self.exhausted = 0
        self.rows_built = 0

    def walks(self, walk_ids, rows=None, start=None) -> np.ndarray:
        """The walks with these corpus indices as int32 rows padded with -1.
        Walk w starts at node w // num_walks. With `rows` (int32, at least l
        wide), walk k instead resumes from token start[k] of rows[k]: the
        tokens after it are dropped, the walk is advanced in place, and
        `rows` is returned."""
        ids = np.asarray(walk_ids, dtype=np.intp)
        if rows is None:
            rows = np.full((len(ids), self.cfg.walk_length), -1, dtype=np.int32)
            rows[:, 0] = ids // self.cfg.num_walks
            start = np.zeros(len(ids), dtype=np.intp)
        else:
            rows[np.arange(rows.shape[1]) > start[:, None]] = -1
        for lo in range(0, len(ids), _BLOCK):
            self._block(ids[lo:lo + _BLOCK], rows[lo:lo + _BLOCK], start[lo:lo + _BLOCK])
        return rows

    def _block(self, ids, tok, start):
        """Advance the walks of `tok` in place: row k holds walk ids[k] up
        to its token start[k] and -1 after it. Step s draws the walk's
        keyed uniforms s * draws_per_step onwards and writes token s + 1 of
        every live walk; -1 from `step` ends the walk."""
        steps, d = self.cfg.walk_length - 1, self.draws_per_step
        unif = keyed_uniforms(self.cfg.seed, ids, range(d * steps)).reshape(len(ids), steps, d)
        by_start = np.argsort(start, kind="stable")
        cuts = np.searchsorted(start[by_start], np.arange(steps + 1)).tolist()
        act = by_start[:0]
        for s in range(steps):
            if cuts[s] < cuts[s + 1]:  # walks resumed at token s join here
                act = np.concatenate([act, by_start[cuts[s]:cuts[s + 1]]])
            nxt = self.step(tok[act, s], unif[act, s])
            tok[act, s + 1] = nxt
            live = nxt >= 0
            if not live.all():
                act = act[live]
            self.draws += len(act)


class UniformSampler(_Sampler):
    """Classic out-neighbor random walk; the baseline corpus generator.

    Step s of walk w moves to out-neighbour floor(U(w, s) * degree) of the
    sorted neighbour list in the graph's CSR view, or ends the walk at a
    sink.
    """

    mode = MODE_UNIFORM

    def __init__(self, g: TransactionGraph, cfg: WalkConfig):
        super().__init__(g, cfg)
        csr = g.out_csr()
        self._indptr, self._indices = csr.indptr, csr.indices

    def step(self, cur, unif) -> np.ndarray:
        """The next node of each walk at the nodes `cur`, on one uniform per
        walk (the rows of `unif`), or -1 at a sink."""
        lo = self._indptr[cur]
        deg = self._indptr[cur + 1] - lo
        pick = lo + (unif[:, 0] * deg).astype(np.intp)
        if deg.all():
            return self._indices[pick]
        nxt = np.full(len(cur), -1, dtype=self._indices.dtype)
        live = deg > 0
        nxt[live] = self._indices[pick[live]]
        return nxt


class LeapSampler(_Sampler):
    """MH leap walker over the rows of one graph version, all built when
    the sampler is made.

    The row of node u holds its sorted capped frontier and, per slot v,
    the threshold min(1, R(u, v)) + alpha_min. `_build` makes every row in
    one multi-source BFS (`_levels`) from all nodes over the out-edges, and
    takes their return distances from one over the in-edges; `rows_built`
    counts them, one per node. Step s of a walk at u picks slot
    floor(U(w, 2s) * |row|) and leaps there when U(w, 2s + 1) is below its
    threshold. A node whose frontier overflows the cap has a guard entry
    instead: its ball (the nodes closer than hop) and its upstream hop
    distances, as sorted keys u * n + x. All of a step's walks at such
    nodes take the guard path (`_guard`) together; those steps are counted
    in `overflows`, and the ones whose retries ran out in `exhausted`.
    """

    mode = MODE_MH
    draws_per_step = 2

    def __init__(self, g: TransactionGraph, cfg: WalkConfig):
        super().__init__(g, cfg)
        cap = cfg.frontier_cap
        self._cap = 64 * cfg.hop if cap is None else cap
        # q(d) for a return distance d (index 0: no return within hop)
        self._q = np.array([cfg.nominal_return]
                           + [_q_value(cfg, d) for d in range(1, cfg.hop + 1)])
        self._p = g.stat_array(cfg.target_stat) + cfg.stat_smoothing  # p(u) + eps
        self._build()

    def _thresholds(self, curr, v, back) -> np.ndarray:
        """min(1, R(curr, v)) + alpha_min per slot, with _acceptance's
        float operations in the same order; back[k] is the return distance
        from v[k] to curr[k], 0 when there is none within hop."""
        cfg = self.cfg
        ratio = (self._p[v] * self._q[back]) / (self._p[curr] * _q_value(cfg, cfg.hop))
        return np.minimum(ratio, 1.0) + cfg.alpha_min

    def _build(self):
        """Every row and guard entry, in node order. Source u of the BFS is
        the key u * n + u, so its level keys are u * n + x. Row u is slots
        start[u] .. start[u] + size[u] of fr (frontier node) and th
        (threshold); size -1 marks an overflow. Slot 0 is the start of every
        empty row: a walk that picks it takes -1 whatever its acceptance
        uniform, so it ends. Walks at an overflow node pick it too, and the
        guard path overwrites them. The guard entries are `_ball`, the keys
        of each overflow node's levels closer than hop, and `_up`, the keys
        of its upstream levels 1..hop with their distances `_up_d`; `_up`
        ends in the key n * n, which no lookup matches."""
        g, h, n = self.g, self.cfg.hop, self.g.num_nodes
        size = np.zeros(n, dtype=np.intp)
        none = np.empty(0, dtype=np.intp)
        fronts, ball = [none], [none]
        for levels in _levels(g.out_csr(), n, np.arange(n) * (n + 1), h):
            u = levels[0] // n  # the chunk's sources, consecutive nodes
            cnt = np.bincount(levels[h] // n - u[0], minlength=len(u))
            over = cnt > self._cap
            size[u] = np.where(over, -1, cnt)
            fronts.append(levels[h][~over[levels[h] // n - u[0]]])
            ball += [keys[over[keys // n - u[0]]] for keys in levels[:h]]
        front = np.concatenate(fronts)
        rows = size.clip(0)
        self._size = size
        self._start = np.where(rows > 0, np.cumsum(rows) - rows + 1, 0)
        # return distance of each frontier slot: its node's level in the
        # upstream BFS from the row's node, 0 beyond h
        back = np.zeros(len(front), dtype=np.intp)
        up, up_d = [none, np.array([n * n])], [none, np.zeros(1, dtype=np.intp)]
        for levels in _levels(g.in_csr(), n, np.flatnonzero(size) * (n + 1), h):
            lo, hi = np.searchsorted(front, [levels[0][0] // n * n, (levels[0][-1] // n + 1) * n])
            for d in range(1, h + 1):
                back[lo:hi][_member(front[lo:hi], levels[d])] = d
                keys = levels[d][size[levels[d] // n] < 0]
                up.append(keys)
                up_d.append(np.full(len(keys), d))
        v = front % n
        self._fr = np.concatenate([[-1], v])
        self._th = np.concatenate([[np.inf], self._thresholds(front // n, v, back)])
        self._ball = np.sort(np.concatenate(ball))
        up = np.concatenate(up)
        order = np.argsort(up)
        self._up, self._up_d = up[order], np.concatenate(up_d)[order]
        self.rows_built = n

    def _guard(self, u, u_prop) -> np.ndarray:
        """Guard path for oversized frontiers, for the walks at the overflow
        nodes `u` at once: up to _FALLBACK_TRIES random h-step forward
        expansions over the out-edges, in lockstep, rejecting landings in
        the node's ball, so any survivor is at distance exactly h. Returns
        each walk's survivor, or -1 when its retries ran out. Draws are
        approximate (path-multiplicity biased), which is the accepted trade
        for not materializing the frontier. A walk's expansion uniforms are
        seeded by its proposal uniform, so they too are a function of its
        keyed draws; each hop takes the walk's next one, so a try that ends
        at a sink on hop j has used j + 1."""
        h, n = self.cfg.hop, self.g.num_nodes
        csr = self.g.out_csr()
        us = keyed_uniforms((u_prop * 2.0 ** 53).astype(np.uint64),
                            np.zeros(len(u), dtype=np.intp), range(h * _FALLBACK_TRIES))
        used = np.zeros(len(u), dtype=np.intp)
        v = np.full(len(u), -1, dtype=np.intp)
        todo = np.arange(len(u))  # walks with no survivor yet
        for _ in range(_FALLBACK_TRIES):
            k, x = todo, u[todo]
            for _ in range(h):
                lo = csr.indptr[x]
                deg = csr.indptr[x + 1] - lo
                pick = lo + (us[k, used[k]] * deg).astype(np.intp)
                used[k] += 1
                live = deg > 0
                k, x = k[live], csr.indices[pick[live]]
            hit = ~_member(u[k] * n + x, self._ball)
            v[k[hit]] = x[hit]
            todo = todo[v[todo] < 0]
            if not len(todo):
                break
        return v

    def step(self, cur, unif) -> np.ndarray:
        """One chain step of each walk at the nodes `cur`, on two uniforms
        per walk (the rows of `unif`: proposal, acceptance). Returns the
        accepted candidate, cur itself on rejection, or -1 at an empty
        frontier (the walk ends). The walks at overflow nodes take the
        guard path; one whose retries ran out stays where it is."""
        size = self._size[cur]
        slot = self._start[cur] + (unif[:, 0] * size).astype(np.intp)
        nxt = np.where(unif[:, 1] < self._th[slot], self._fr[slot], cur)
        over = np.flatnonzero(size < 0)
        if len(over):
            u = cur[over].astype(np.intp)
            v = self._guard(u, unif[over, 0])
            out = v < 0
            self.overflows += len(over)
            self.exhausted += int(np.count_nonzero(out))
            v[out] = u[out]
            key = u * self.g.num_nodes + v
            at = np.searchsorted(self._up, key)
            back = np.where(self._up[at] == key, self._up_d[at], 0)
            nxt[over] = np.where(unif[over, 1] < self._thresholds(u, v, back), v, u)
        return nxt

    def _block(self, ids, tok, start):
        """The shared loop writes a rejected leap's node again. A leap never
        lands on its own node (a uniform step along a self-loop does), so
        every repeat after token start[k] is a rejection, and is dropped."""
        super()._block(ids, tok, start)
        cols = np.arange(tok.shape[1])
        keep = np.ones(tok.shape, dtype=bool)
        keep[:, 1:] = (tok[:, 1:] != tok[:, :-1]) | (cols[1:] <= start[:, None])
        kept = tok[keep]
        tok[...] = -1
        tok[cols < keep.sum(axis=1)[:, None]] = kept


def make_sampler(g: TransactionGraph, cfg: WalkConfig, mode: str):
    check_mode(mode)
    if mode == MODE_UNIFORM:
        return UniformSampler(g, cfg)
    return LeapSampler(g, cfg)


def leap_transition_matrix(g: TransactionGraph, cfg: WalkConfig) -> np.ndarray:
    """Exact one-step transition matrix of the leap chain.

    P[u, v] = (1 / |N_h(u)|) * min(1, acceptance + alpha_min) for v in the
    h-hop frontier of u, the rejection mass sits on the diagonal, and rows
    of frontier-less nodes are absorbing.
    """
    n = g.num_nodes
    P = np.zeros((n, n))
    for u in g.nodes():
        frontier, _ = g.capped_frontier(u, cfg.hop)
        if not frontier:
            P[u, u] = 1.0
            continue
        share = 1.0 / len(frontier)
        for v in frontier:
            P[u, v] = share * min(1.0, _acceptance(g, cfg, u, v) + cfg.alpha_min)
        P[u, u] = 1.0 - P[u].sum() + P[u, u]
    return P


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------

class WalkCorpus:
    """A set of walks as their token matrix.

    `tokens` is an int32 (walks, l) matrix whose row i is walk i padded
    with -1, and the only input a corpus takes. `walks` is a view of the
    same walks as tuples, which `_tuples` alone builds from token rows.
    This class is the only code that knows the matrix's layout.
    """

    def __init__(self, tokens, graph_version: int, n: int, l: int, mode: str,
                 num_nodes: int):
        check_mode(mode)
        if tokens.dtype != np.int32 or tokens.ndim != 2 or tokens.shape[1] != l:
            raise ConfigError(f"a corpus with l={l} takes an int32 (walks, {l}) "
                              f"token matrix, got {tokens.dtype} {tokens.shape}")
        self.graph_version = graph_version
        self.n = n
        self.l = l
        self.mode = mode
        self.num_nodes = num_nodes
        self.tokens = tokens
        self._ids = np.empty(0, dtype=object)  # node id u as one int object
        self.walks = self._tuples(tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def node_index(self) -> dict:
        """node -> indices of the walks through it, read off the matrix."""
        index = build_node_index(self.tokens.tolist())
        index.pop(-1, None)
        return index

    def first_visits(self, nodes) -> tuple:
        """(ids, first): the sorted indices of the walks that pass through
        any of the nodes, and the index of each one's first token among
        them, as intp arrays. One scan of the matrix through a node table;
        np.isin's sort path would import numpy.ma."""
        nodes = list(nodes)
        table = np.zeros(max(self.num_nodes, max(nodes, default=0) + 1) + 1, dtype=bool)
        table[nodes] = True  # the -1 padding reads the last entry
        hit = table[self.tokens]
        ids = np.flatnonzero(hit.any(axis=1))
        return ids, hit[ids].argmax(axis=1)

    def flat_tokens(self) -> tuple:
        """(every token as intp, length of each walk), in corpus order."""
        real = self.tokens >= 0
        return self.tokens[real].astype(np.intp), real.sum(axis=1)

    def copy(self) -> "WalkCorpus":
        """A copy with its own walk list and token matrix; it shares the
        walk tuples and `_ids`."""
        out = copy.copy(self)
        out.walks = list(self.walks)
        out.tokens = self.tokens.copy()
        return out

    def replace_walks(self, ids, rows):
        """Put the walks of these token rows at the indices `ids`."""
        for i, walk in zip(ids.tolist(), self._tuples(rows)):
            self.walks[i] = walk
        self.tokens[ids] = rows

    def append_walks(self, rows):
        """Append the walks of these token rows."""
        self.walks += self._tuples(rows)
        self.tokens = np.concatenate([self.tokens, rows])

    def _tuples(self, rows) -> list:
        """The walks of token rows as tuples, built _BLOCK rows at a time
        from `_ids`: one int object per node id, shared with the corpus's
        copies and extended to the rows' largest id, so a corpus carried
        across versions holds one object per node rather than one per
        token."""
        need = int(rows.max(initial=-1)) + 1
        if len(self._ids) < need:
            new = np.arange(len(self._ids), need).astype(object)
            self._ids = np.concatenate([self._ids, new])
        walks = []
        for lo in range(0, len(rows), _BLOCK):
            tok = rows[lo:lo + _BLOCK]
            ends = (tok >= 0).sum(axis=1).tolist()
            walks += [tuple(r[:e]) for r, e in zip(self._ids[tok].tolist(), ends)]
        return walks


def build_node_index(walks) -> dict:
    index = {}
    for i, w in enumerate(walks):
        for u in set(w):
            index.setdefault(u, set()).add(i)
    return index


def generate_corpus(g: TransactionGraph, cfg: WalkConfig, mode: str,
                    counter=None) -> WalkCorpus:
    """n walks per node, every node an origin (sinks yield length-1 walks).

    Walk w = u*n + i is the i-th walk from node u, and its draws are keyed
    by (seed, w), so the walks an update draws for a node are that node's
    walks in a corpus generated from scratch.
    """
    check_mode(mode)
    if g.num_nodes == 0:
        raise InputError("cannot generate walks on an empty graph")
    sampler = make_sampler(g, cfg, mode)
    corpus = WalkCorpus(sampler.walks(range(g.num_nodes * cfg.num_walks)), g.version,
                        cfg.num_walks, cfg.walk_length, mode, g.num_nodes)
    if counter is not None:
        counter.add(sampler)
    return corpus


def mean_defacto_length(corpus: WalkCorpus) -> float:
    """Mean realized walk length; sinks and rejections make it < l."""
    if not len(corpus):
        raise ValueError("corpus has no walks")
    return int(np.count_nonzero(corpus.tokens >= 0)) / len(corpus)


# ---------------------------------------------------------------------------
# Corpus file I/O
# ---------------------------------------------------------------------------

def save_corpus(corpus: WalkCorpus, path):
    """The header line, then the token matrix as little-endian int32."""
    with open(path, "wb") as fh:
        fh.write(f"{WALKS_MAGIC} graph_version={corpus.graph_version} n={corpus.n} "
                 f"l={corpus.l} mode={corpus.mode}\n".encode("ascii"))
        fh.write(corpus.tokens.astype("<i4", copy=False).tobytes())


def load_corpus(path) -> WalkCorpus:
    """Size the payload by the header's l before reading it, then validate
    the matrix with array checks that name the first bad walk."""
    with open(path, "rb") as fh:
        (version, n, l, mode), size = read_header(
            fh, path, WALKS_MAGIC, {"graph_version": int, "n": int, "l": int, "mode": str})
        if mode not in MODES:
            raise ParseError(f"{path}:1: unknown mode {mode!r}")
        if n < 1 or l < 2:
            raise ParseError(f"{path}:1: need n >= 1 and l >= 2, got n={n} l={l}")
        if size == 0 or size % (4 * l):
            raise ParseError(f"{path}: {size} bytes after the header are not "
                             f"one or more walks of l={l} int32 tokens")
        tokens = np.fromfile(fh, dtype="<i4").astype(np.int32, copy=False).reshape(-1, l)
    walks = len(tokens)
    if walks % n:
        raise ParseError(f"{path}: {walks} walks are not n={n} walks from each node")
    num_nodes = walks // n
    bad_id = (tokens < -1) | (tokens >= num_nodes)
    bad_start = tokens[:, 0] != np.arange(walks) // n
    gap = (tokens[:, :-1] < 0) & (tokens[:, 1:] >= 0)
    bad = bad_id.any(axis=1) | bad_start | gap.any(axis=1)
    if bad.any():
        k = int(bad.argmax())
        if bad_id[k].any():
            why = f"node id {tokens[k][bad_id[k]][0]} is not in 0..{num_nodes - 1}"
        elif bad_start[k]:
            why = f"starts at node {tokens[k, 0]}, not {k // n}"
        else:
            why = "a node id follows the -1 padding"
        raise ParseError(f"{path}: walk {k}: {why}")
    return WalkCorpus(tokens, version, n, l, mode, num_nodes)
