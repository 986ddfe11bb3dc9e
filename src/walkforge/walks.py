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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, InputError, ParseError
from .graph import STAT_KINDS, TransactionGraph

MODE_UNIFORM = "uniform"
MODE_MH = "mh"
MODES = (MODE_UNIFORM, MODE_MH)

WALKS_MAGIC = "WALKFORGE-WALKS v1"

# explosion-guard fallback: retries of random h-step expansion per draw
_FALLBACK_TRIES = 16


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


def _walk_rng(seed: int, *key) -> np.random.Generator:
    """Independent substream for one walk; schedule-independent by design."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def fresh_walk_rng(cfg: WalkConfig, node: int, walk_i: int) -> np.random.Generator:
    """Stream for the walk_i-th walk originating at `node`."""
    return _walk_rng(cfg.seed, node, walk_i)


def resume_rng(cfg: WalkConfig, version: int, walk_index: int) -> np.random.Generator:
    """Stream for resampling corpus walk `walk_index` against graph `version`.

    The trailing constant keeps resume keys disjoint from fresh-walk keys.
    """
    return _walk_rng(cfg.seed, version, walk_index, 1)


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

class UniformSampler:
    """Classic out-neighbor random walk; the baseline corpus generator."""

    mode = MODE_UNIFORM

    def __init__(self, g: TransactionGraph, cfg: WalkConfig):
        self.g = g
        self.cfg = cfg
        self.draws = 0

    def extend(self, walk: list, rng: np.random.Generator) -> list:
        nbrs_of = self.g.out_neighbors
        target = self.cfg.walk_length
        while len(walk) < target:
            nbrs = nbrs_of(walk[-1])
            if not nbrs:
                break
            self.draws += 1
            walk.append(nbrs[rng.integers(len(nbrs))])
        return walk


class LeapSampler:
    """MH leap walker with per-node frontier and per-pair acceptance caches.

    Caches are valid for one immutable graph version.
    """

    mode = MODE_MH

    def __init__(self, g: TransactionGraph, cfg: WalkConfig):
        self.g = g
        self.cfg = cfg
        self.draws = 0
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

    def _draw_beyond_ball(self, curr: int, ball, rng) -> int | None:
        """Guard path for oversized frontiers: random h-step forward
        expansion, rejecting landings inside the <h ball. Any survivor is
        at distance exactly h. Draws are approximate (path-multiplicity
        biased), which is the accepted trade for not materializing the
        frontier."""
        nbrs_of = self.g.out_neighbors
        h = self.cfg.hop
        for _ in range(_FALLBACK_TRIES):
            x = curr
            for _ in range(h):
                nbrs = nbrs_of(x)
                if not nbrs:
                    x = None
                    break
                x = nbrs[rng.integers(len(nbrs))]
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

    def step(self, curr: int, rng: np.random.Generator) -> int | None:
        """One chain step: the accepted candidate, curr itself on rejection,
        or None when the frontier is empty (the walk must stop)."""
        frontier, ball = self._frontier(curr)
        if frontier is None:
            self.draws += 1
            v = self._draw_beyond_ball(curr, ball, rng)
            if v is None:
                return curr  # retries exhausted; step consumed
        else:
            if not frontier:
                return None
            self.draws += 1
            v = frontier[rng.integers(len(frontier))]
        if rng.random() < self.acceptance(curr, v) + self.cfg.alpha_min:
            return v
        return curr

    def extend(self, walk: list, rng: np.random.Generator) -> list:
        curr = walk[-1]
        for _ in range(self.cfg.walk_length - len(walk)):
            nxt = self.step(curr, rng)
            if nxt is None:
                break
            if nxt != curr:
                walk.append(nxt)
                curr = nxt
        return walk


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
                rng, sampler=None) -> tuple:
    """Extend a walk prefix on (a possibly newer) graph until walk_length
    or a sink. The prefix itself is never modified."""
    if not prefix:
        raise ConfigError("cannot resume an empty walk")
    g._check(prefix[-1])
    if sampler is None:
        sampler = make_sampler(g, cfg, mode)
    return tuple(sampler.extend(list(prefix), rng))


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------

class WalkCorpus:
    """A set of walks plus the inverted node -> walk-indices index.

    Copies share the index's per-node sets copy-on-write: a corpus copies a
    set the first time it writes to it, unless it already owns it. `copy`
    clears the owned set of both sides, so a set reachable from two corpora
    is never written in place.
    """

    def __init__(self, walks, graph_version: int, n: int, l: int, mode: str,
                 num_nodes: int, node_index=None):
        check_mode(mode)
        self.walks = walks
        self.graph_version = graph_version
        self.n = n
        self.l = l
        self.mode = mode
        self.num_nodes = num_nodes
        self.node_index = build_node_index(walks) if node_index is None else node_index
        self._owned = set()  # nodes whose index set no other corpus holds

    def __len__(self) -> int:
        return len(self.walks)

    def walks_containing(self, u: int) -> set:
        return self.node_index.get(u, set())

    def copy(self) -> "WalkCorpus":
        """O(#walks + #nodes): the walk list and the outer index dict are
        copied, the per-node sets are shared until first written."""
        self._owned = set()
        return WalkCorpus(list(self.walks), self.graph_version, self.n,
                          self.l, self.mode, self.num_nodes,
                          node_index=dict(self.node_index))

    def _writable(self, u: int) -> set:
        entry = self.node_index.get(u)
        if entry is None:
            entry = self.node_index[u] = set()
        elif u not in self._owned:
            entry = self.node_index[u] = set(entry)
        self._owned.add(u)
        return entry

    def replace_walk(self, i: int, new_walk: tuple):
        old_nodes = set(self.walks[i])
        new_nodes = set(new_walk)
        for u in old_nodes - new_nodes:
            entry = self._writable(u)
            entry.discard(i)
            if not entry:
                del self.node_index[u]
        for u in new_nodes - old_nodes:
            self._writable(u).add(i)
        self.walks[i] = new_walk

    def append_walk(self, walk: tuple):
        i = len(self.walks)
        self.walks.append(walk)
        for u in set(walk):
            self._writable(u).add(i)


def build_node_index(walks) -> dict:
    index = {}
    for i, w in enumerate(walks):
        for u in set(w):
            index.setdefault(u, set()).add(i)
    return index


def generate_corpus(g: TransactionGraph, cfg: WalkConfig, mode: str,
                    counter=None) -> WalkCorpus:
    """n walks per node, every node an origin (sinks yield length-1 walks).

    Each walk runs on its own rng substream keyed by (seed, node, walk
    index), so the fresh walks an update draws for a new node are that
    node's walks in a corpus generated from scratch.
    """
    check_mode(mode)
    if g.num_nodes == 0:
        raise InputError("cannot generate walks on an empty graph")
    sampler = make_sampler(g, cfg, mode)
    walks = [tuple(sampler.extend([u], fresh_walk_rng(cfg, u, i)))
             for u in g.nodes() for i in range(cfg.num_walks)]
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
        walks = []
        for line_no, line in enumerate(fh, start=2):
            fields = line.split()
            if not fields:
                continue
            try:
                walks.append(tuple(int(x) for x in fields))
            except ValueError:
                raise ParseError(f"{path}:{line_no}: non-integer node id") from None
    num_nodes = 1 + max((max(w) for w in walks), default=-1)
    return WalkCorpus(walks, version, n, l, mode, num_nodes)
