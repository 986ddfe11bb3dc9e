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
sampler builds a row for each node its walks reach, once per graph
version: the node's sorted capped frontier and, per slot, the acceptance
threshold min(1, R) + alpha_min, whose return distances all come from
one upstream BFS. A leap step is then a gather of the slot and one
comparison; a rejected leap writes its node again, and that repeat is
dropped when the block ends. A node whose frontier overflows the cap has
no row; walks there take the guard path inside the same step, which is
approximate and counted.

A sampler speaks token rows only: `walks(ids, rows, start)` returns the
int32 rows it stepped, and resumes walks from given rows. The corpus
turns rows into tuples, and is the only code that does.

Every random draw is counter-keyed (Salmon et al., SC 2011): draw c of
walk w = u*n + i, the i-th walk from node u, is SplitMix64's output at
position w * 2**32 + c + 1 of the stream the seed starts. A uniform
walk's step s uses draw s; a leap walk's step s uses draws 2s (proposal)
and 2s + 1 (acceptance). Any draw can be computed without the ones
before it, so a walk resumed at step s on a newer graph draws exactly
what a walk generated from scratch there would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain, islice

import numpy as np

from .errors import ConfigError, InputError, ParseError
from .graph import STAT_KINDS, TransactionGraph

MODE_UNIFORM = "uniform"
MODE_MH = "mh"
MODES = (MODE_UNIFORM, MODE_MH)

WALKS_MAGIC = "WALKFORGE-WALKS v1"

# explosion-guard fallback: retries of random h-step expansion per draw
_FALLBACK_TRIES = 16
# walks generated per lockstep block; bounds the walkers' scratch arrays
_BLOCK = 8192


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


def keyed_uniforms(seed: int, walk_ids, counters) -> np.ndarray:
    """U[k, j] in [0, 1): draw number counters[j] of walk walk_ids[k].

    It is SplitMix64's output at position w * 2**32 + c + 1 of the stream
    that `seed` starts, so every (seed, walk, draw) has its own position
    and any draw can be computed without the ones before it.
    """
    state = _mix(np.array([seed & _MASK64], dtype=np.uint64))
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
# Samplers
# ---------------------------------------------------------------------------

class _Sampler:
    """Shared state of both walk modes and their one lockstep loop: the
    graph version walked, the config, the candidate draws made, and the
    leap steps that took the frontier-overflow guard path or exhausted its
    retries. A mode supplies `step` and the number of keyed uniforms it
    draws per walk and step (`draws_per_step`)."""

    draws_per_step = 1

    def __init__(self, g: TransactionGraph, cfg: WalkConfig):
        self.g = g
        self.cfg = cfg
        self.draws = 0
        self.overflows = 0
        self.exhausted = 0

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
    """MH leap walker over per-node rows built lazily for this version.

    The row of node u holds its sorted capped frontier and, per slot v,
    the threshold min(1, R(u, v)) + alpha_min; all return distances of a
    row come from one upstream BFS from u. Step s of a walk at u picks slot
    floor(U(w, 2s) * |row|) and leaps there when U(w, 2s + 1) is below its
    threshold. A walk at a node whose frontier overflows the cap takes the
    guard path instead; those steps are counted in `overflows`, and the
    ones whose retries ran out in `exhausted`.
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
        self._p = None  # p(u) + eps of every node, read when rows are built
        # row of u: slots start[u] .. start[u] + size[u] of fr (frontier
        # node) and th (threshold); size -1 marks an overflow, -2 no row yet.
        # Slot 0 is the start of every empty row: a walk that picks it takes
        # -1 whatever its acceptance uniform, so it ends. Walks at an
        # overflow node pick it too, and the guard path overwrites them.
        self._start = np.zeros(g.num_nodes, dtype=np.intp)
        self._size = np.full(g.num_nodes, -2, dtype=np.intp)
        self._fr = np.array([-1], dtype=np.intp)
        self._th = np.array([np.inf])
        self._guards = {}  # overflow node u -> (<h ball, upstream hops)

    def _thresholds(self, curr, v, back) -> np.ndarray:
        """min(1, R(curr, v)) + alpha_min per slot, with _acceptance's
        float operations in the same order; back[k] is the return distance
        from v[k] to curr[k], 0 when there is none within hop."""
        cfg = self.cfg
        if self._p is None:
            self._p = self.g.stat_array(cfg.target_stat) + cfg.stat_smoothing
        ratio = (self._p[v] * self._q[back]) / (self._p[curr] * _q_value(cfg, cfg.hop))
        return np.minimum(ratio, 1.0) + cfg.alpha_min

    def _build(self, nodes):
        """Build the rows of the nodes that have none yet."""
        new = sorted(set(nodes[self._size[nodes] == -2].tolist()))
        if not new:
            return
        g, h = self.g, self.cfg.hop
        curr, slots, back = [], [], []
        for u in new:
            frontier, ball = g.capped_frontier(u, h, self._cap)
            if frontier is None:
                self._size[u] = -1
                self._guards[u] = (ball, g.upstream_hops(u, h))
                continue
            self._size[u] = len(frontier)
            if frontier:
                self._start[u] = len(self._fr) + len(slots)
                hops = g.upstream_hops(u, h)
                curr += [u] * len(frontier)
                slots += frontier
                back += [hops.get(v, 0) for v in frontier]
        slots = np.array(slots, dtype=np.intp)
        th = self._thresholds(np.array(curr, dtype=np.intp), slots,
                              np.array(back, dtype=np.intp))
        self._fr = np.concatenate([self._fr, slots])
        self._th = np.concatenate([self._th, th])

    def _draw_beyond_ball(self, curr: int, ball, u_prop: float) -> int | None:
        """Guard path for oversized frontiers: random h-step forward
        expansion, rejecting landings inside the <h ball. Any survivor is
        at distance exactly h. Draws are approximate (path-multiplicity
        biased), which is the accepted trade for not materializing the
        frontier. The expansion's uniforms are seeded by the step's proposal
        uniform, so they too are a function of the walk's keyed draws."""
        nbrs_of = self.g.out_neighbors
        h = self.cfg.hop
        us = iter(keyed_uniforms(int(u_prop * 2.0 ** 53), (0,),
                                 range(h * _FALLBACK_TRIES))[0].tolist())
        for _ in range(_FALLBACK_TRIES):
            x = curr
            for u in islice(us, h):
                nbrs = nbrs_of(x)
                if not nbrs:
                    x = None
                    break
                x = nbrs[int(u * len(nbrs))]
            if x is not None and x not in ball:
                return x
        return None

    def step(self, cur, unif) -> np.ndarray:
        """One chain step of each walk at the nodes `cur`, on two uniforms
        per walk (the rows of `unif`: proposal, acceptance). Returns the
        accepted candidate, cur itself on rejection, or -1 at an empty
        frontier (the walk ends). A walk at an overflow node takes the
        guard path."""
        self._build(cur)
        size = self._size[cur]
        slot = self._start[cur] + (unif[:, 0] * size).astype(np.intp)
        nxt = np.where(unif[:, 1] < self._th[slot], self._fr[slot], cur)
        for k in np.flatnonzero(size < 0).tolist():
            u = int(cur[k])
            u_prop, u_acc = unif[k].tolist()
            ball, hops = self._guards[u]
            v = self._draw_beyond_ball(u, ball, u_prop)
            self.overflows += 1
            if v is None:
                self.exhausted += 1
                nxt[k] = u  # retries exhausted; step consumed
            else:
                nxt[k] = v if u_acc < self._thresholds(u, v, hops.get(v, 0)) else u
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
    """A set of walks plus their token matrix.

    `tokens` is an int32 (walks, width) matrix whose row i is walk i padded
    with -1; width is l, or the longest walk if that is longer. `walks`
    holds the same walks as tuples, which `_tuples` alone builds from token
    rows. The matrix is the corpus's only derived structure, and this class
    the only code that knows its layout.
    """

    def __init__(self, walks, graph_version: int, n: int, l: int, mode: str,
                 num_nodes: int, tokens=None):
        check_mode(mode)
        self.walks = walks
        self.graph_version = graph_version
        self.n = n
        self.l = l
        self.mode = mode
        self.num_nodes = num_nodes
        self.tokens = _pad(walks, l) if tokens is None else tokens
        self._ids = np.empty(0, dtype=object)  # node id u as one int object

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def node_index(self) -> dict:
        """node -> indices of the walks through it, read off the matrix."""
        index = build_node_index(self.tokens.tolist())
        index.pop(-1, None)
        return index

    def walks_containing(self, nodes) -> list:
        """Sorted indices of the walks that pass through any of the nodes."""
        return np.flatnonzero(self._table(nodes)[self.tokens].any(axis=1)).tolist()

    def trim_rows(self, ids, nodes) -> tuple:
        """(rows, start): a copy of the token rows of the walks `ids`, and
        the index of each row's first token in `nodes` (0 if none is), the
        token a uniform walk resumes from when those nodes changed."""
        rows = self.tokens[np.asarray(ids, dtype=np.intp)]
        return rows, self._table(nodes)[rows].argmax(axis=1)

    def _table(self, nodes) -> np.ndarray:
        """table[u]: u is one of the nodes; the -1 padding reads the last
        entry. Indexing it with tokens scans the corpus by node without
        np.isin, whose sort path imports numpy.ma."""
        nodes = list(nodes)
        table = np.zeros(max(self.num_nodes, max(nodes, default=0) + 1) + 1, dtype=bool)
        table[nodes] = True
        return table

    def flat_tokens(self) -> tuple:
        """(every token as intp, length of each walk), in corpus order."""
        real = self.tokens >= 0
        return self.tokens[real].astype(np.intp), real.sum(axis=1)

    def copy(self) -> "WalkCorpus":
        out = WalkCorpus(list(self.walks), self.graph_version, self.n,
                         self.l, self.mode, self.num_nodes,
                         tokens=self.tokens.copy())
        out._ids = self._ids
        return out

    def replace_walks(self, ids, rows):
        """Put the walks of these token rows at the indices `ids`."""
        for i, walk in zip(ids, self._tuples(rows)):
            self.walks[i] = walk
        self.tokens[np.asarray(ids, dtype=np.intp)] = self._fit(rows)

    def append_walks(self, rows):
        """Append the walks of these token rows; an empty corpus takes the
        rows as its matrix."""
        rows = self._fit(rows)
        self.walks += self._tuples(rows)
        self.tokens = np.concatenate([self.tokens, rows]) if len(self.tokens) else rows

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

    def _fit(self, tokens) -> np.ndarray:
        """Token rows padded with -1 to the corpus width (a hand-built
        corpus can be wider than l)."""
        extra = self.tokens.shape[1] - tokens.shape[1]
        return np.pad(tokens, ((0, 0), (0, extra)), constant_values=-1) if extra else tokens


def _pad(walks, width: int) -> np.ndarray:
    """The walks as int32 rows padded with -1 to `width` or the longest walk."""
    lengths = np.fromiter(map(len, walks), dtype=np.intp, count=len(walks))
    out = np.full((len(walks), max(width, lengths.max(initial=0))), -1, dtype=np.int32)
    out[np.arange(out.shape[1]) < lengths[:, None]] = np.fromiter(
        chain.from_iterable(walks), dtype=np.int32, count=int(lengths.sum()))
    return out


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
    corpus = WalkCorpus([], g.version, cfg.num_walks, cfg.walk_length, mode, g.num_nodes)
    corpus.append_walks(sampler.walks(range(g.num_nodes * cfg.num_walks)))
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{WALKS_MAGIC} graph_version={corpus.graph_version} "
                 f"n={corpus.n} l={corpus.l} mode={corpus.mode}\n")
        for w in corpus.walks:
            fh.write(" ".join(map(str, w)))
            fh.write("\n")


def load_corpus(path) -> WalkCorpus:
    with open(path, encoding="utf-8") as fh:
        head = fh.readline().rstrip("\n")
        parts = head.split()
        if parts[:2] != WALKS_MAGIC.split() or len(parts) != 6:
            raise ParseError(f"{path}:1: not a {WALKS_MAGIC} file")
        try:
            kv = dict(p.split("=", 1) for p in parts[2:])
            version = int(kv["graph_version"])
            n = int(kv["n"])
            l = int(kv["l"])
            mode = kv["mode"]
        except (KeyError, ValueError):
            raise ParseError(f"{path}:1: malformed header {head!r}") from None
        if mode not in MODES:
            raise ParseError(f"{path}:1: unknown mode {mode!r}")
        if n < 1 or l < 2:
            raise ParseError(f"{path}:1: need n >= 1 and l >= 2, got n={n} l={l}")
        walks = []
        line_no = 1
        for line_no, line in enumerate(fh, start=2):
            fields = line.split()
            if not fields:
                continue
            try:
                walk = tuple(int(x) for x in fields)
            except ValueError:
                raise ParseError(f"{path}:{line_no}: non-integer node id") from None
            if min(walk) < 0:
                raise ParseError(f"{path}:{line_no}: negative node id {min(walk)}")
            if len(walk) > l:
                raise ParseError(f"{path}:{line_no}: walk of {len(walk)} nodes "
                                 f"is longer than l={l}")
            if walk[0] != len(walks) // n:
                raise ParseError(f"{path}:{line_no}: walk {len(walks)} starts at "
                                 f"node {walk[0]}, not {len(walks) // n}")
            walks.append(walk)
    num_nodes = 1 + max((max(w) for w in walks), default=-1)
    if len(walks) != n * num_nodes:
        raise ParseError(f"{path}:{line_no}: {len(walks)} walks, but n={n} "
                         f"walks from each of {num_nodes} nodes make {n * num_nodes}")
    return WalkCorpus(walks, version, n, l, mode, num_nodes)
