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
    """Shared state of both walk modes: the graph version walked, the
    config, and the candidate draws made."""

    def __init__(self, g: TransactionGraph, cfg: WalkConfig):
        self.g = g
        self.cfg = cfg
        self.draws = 0

    def walks(self, walk_ids, prefixes=None) -> list:
        """The walks with these corpus indices, in blocks. Walk w starts at
        node w // num_walks; with `prefixes`, walk k instead continues
        prefixes[k] from step len(prefixes[k]) - 1."""
        out = []
        for lo in range(0, len(walk_ids), _BLOCK):
            hi = lo + _BLOCK
            out += self._block(walk_ids[lo:hi],
                               None if prefixes is None else prefixes[lo:hi])
        return out


class UniformSampler(_Sampler):
    """Classic out-neighbor random walk; the baseline corpus generator.

    All walks of a block advance in lockstep over the graph's CSR view:
    step s of walk w moves to out-neighbour floor(U(w, s) * degree) of the
    sorted neighbour list, or ends the walk at a sink.
    """

    mode = MODE_UNIFORM

    def _block(self, walk_ids, prefixes) -> list:
        csr = self.g.out_csr()
        indptr, indices = csr.indptr, csr.indices
        l = self.cfg.walk_length
        ids = np.asarray(walk_ids, dtype=np.intp)
        m = len(ids)
        unif = keyed_uniforms(self.cfg.seed, ids, range(l - 1))
        tok = np.zeros((m, l), dtype=np.intp)  # tok[k, s]: node after s steps
        if prefixes is None:
            start = np.zeros(m, dtype=np.intp)
            tok[:, 0] = ids // self.cfg.num_walks
        else:
            start = np.fromiter(map(len, prefixes), dtype=np.intp, count=m) - 1
            tok[np.arange(m), start] = [p[-1] for p in prefixes]
        length = start + 1
        by_start = np.argsort(start, kind="stable")
        cuts = np.searchsorted(start[by_start], np.arange(l)).tolist()
        act = by_start[:cuts[1]]  # walks that take step 0
        for s in range(l - 1):
            if s and cuts[s + 1] > cuts[s]:  # walks resuming at step s
                act = np.concatenate([act, by_start[cuts[s]:cuts[s + 1]]])
            cur = tok[act, s]
            lo = indptr[cur]
            deg = indptr[cur + 1] - lo
            if not deg.all():  # walks at a sink end here
                live = np.flatnonzero(deg)
                act, lo, deg = act[live], lo[live], deg[live]
            tok[act, s + 1] = indices[lo + (unif[act, s] * deg).astype(np.intp)]
            length[act] = s + 2
            self.draws += len(act)
        rows = csr.tokens[tok].tolist()
        ends = length.tolist()
        if prefixes is None:
            return [tuple(r[:e]) for r, e in zip(rows, ends)]
        return [p + tuple(r[len(p):e]) for p, r, e in zip(prefixes, rows, ends)]


class LeapSampler(_Sampler):
    """MH leap walker with per-node frontier and per-pair acceptance caches.

    Caches are valid for one immutable graph version.
    """

    mode = MODE_MH

    def __init__(self, g: TransactionGraph, cfg: WalkConfig):
        super().__init__(g, cfg)
        cap = cfg.frontier_cap
        self._cap = 64 * cfg.hop if cap is None else cap
        self._frontiers = {}   # node -> g.capped_frontier(node, hop, cap)
        self._alpha = {}       # (curr, v) -> acceptance probability

    def _frontier(self, u: int) -> tuple:
        ent = self._frontiers.get(u)
        if ent is None:
            ent = self._frontiers[u] = self.g.capped_frontier(
                u, self.cfg.hop, self._cap)
        return ent

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

    def acceptance(self, curr: int, v: int) -> float:
        key = (curr, v)
        alpha = self._alpha.get(key)
        if alpha is None:
            alpha = _acceptance(self.g, self.cfg, curr, v)
            self._alpha[key] = alpha
        return alpha

    def step(self, curr: int, u_prop: float, u_acc: float) -> int | None:
        """One chain step on two uniforms in [0, 1): the accepted candidate,
        curr itself on rejection, or None when the frontier is empty (the
        walk must stop)."""
        frontier, ball = self._frontier(curr)
        if frontier is None:
            self.draws += 1
            v = self._draw_beyond_ball(curr, ball, u_prop)
            if v is None:
                return curr  # retries exhausted; step consumed
        else:
            if not frontier:
                return None
            self.draws += 1
            v = frontier[int(u_prop * len(frontier))]
        if u_acc < self.acceptance(curr, v) + self.cfg.alpha_min:
            return v
        return curr

    def _block(self, walk_ids, prefixes) -> list:
        n = self.cfg.num_walks
        steps = self.cfg.walk_length - 1
        draws = keyed_uniforms(self.cfg.seed, walk_ids, range(2 * steps)).tolist()
        out = []
        for k, (w, u) in enumerate(zip(walk_ids, draws)):
            walk = [w // n] if prefixes is None else list(prefixes[k])
            curr = walk[-1]
            for s in range(len(walk) - 1, steps):
                nxt = self.step(curr, u[2 * s], u[2 * s + 1])
                if nxt is None:
                    break
                if nxt != curr:
                    walk.append(nxt)
                    curr = nxt
            out.append(tuple(walk))
        return out


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
# Walk-level operations
# ---------------------------------------------------------------------------

def resume_walk(g: TransactionGraph, prefix, cfg: WalkConfig, mode: str,
                walk_index: int, sampler=None) -> tuple:
    """Extend a walk prefix on (a possibly newer) graph until walk_length
    or a sink, from step len(prefix) - 1 on, with the draws keyed by
    (cfg.seed, walk_index). The prefix itself is never modified."""
    if not prefix:
        raise ConfigError("cannot resume an empty walk")
    g._check(prefix[-1])
    if sampler is None:
        sampler = make_sampler(g, cfg, mode)
    return sampler.walks([walk_index], [tuple(prefix)])[0]


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------

class WalkCorpus:
    """A set of walks plus their token matrix.

    `tokens` is an int32 (walks, width) matrix whose row i is walk i padded
    with -1; width is l, or the longest walk if that is longer. `walks`
    holds the same walks as tuples. The matrix is the corpus's only derived
    structure, and this class the only code that knows its layout.
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

    def __len__(self) -> int:
        return len(self.walks)

    @property
    def node_index(self) -> dict:
        """node -> indices of the walks through it, read off the matrix."""
        index = build_node_index(self.tokens.tolist())
        index.pop(-1, None)
        return index

    def walks_containing(self, nodes) -> list:
        """Sorted indices of the walks that pass through any of the nodes."""
        nodes = np.fromiter(nodes, dtype=np.int32)
        return np.flatnonzero(np.isin(self.tokens, nodes).any(axis=1)).tolist()

    def flat_tokens(self) -> tuple:
        """(every token as intp, length of each walk), in corpus order."""
        real = self.tokens >= 0
        return self.tokens[real].astype(np.intp), real.sum(axis=1)

    def copy(self) -> "WalkCorpus":
        return WalkCorpus(list(self.walks), self.graph_version, self.n,
                          self.l, self.mode, self.num_nodes,
                          tokens=self.tokens.copy())

    def replace_walks(self, ids, walks):
        for i, walk in zip(ids, walks):
            self.walks[i] = walk
        self.tokens[np.asarray(ids, dtype=np.intp)] = _pad(walks, self.tokens.shape[1])

    def append_walks(self, walks):
        self.walks += walks
        self.tokens = np.concatenate([self.tokens, _pad(walks, self.tokens.shape[1])])


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
    walks = sampler.walks(range(g.num_nodes * cfg.num_walks))
    if counter is not None:
        counter.draws += sampler.draws
    return WalkCorpus(walks, g.version, cfg.num_walks, cfg.walk_length, mode,
                      g.num_nodes)


def mean_defacto_length(corpus: WalkCorpus) -> float:
    """Mean realized walk length; sinks and rejections make it < l."""
    if not corpus.walks:
        raise ValueError("corpus has no walks")
    return sum(len(w) for w in corpus.walks) / len(corpus.walks)


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
