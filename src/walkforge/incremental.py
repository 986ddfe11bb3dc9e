"""Walk-corpus maintenance across graph versions.

Three strategies over the same interface:

* unbiased: resample every walk that touches an affected node on the new
  graph; generate fresh walks for new nodes. Untouched walks are reused
  as-is.
* naive: only generate walks for new nodes; stale walks are kept.
* scratch: regenerate the whole corpus with `generate_corpus` (the
  equivalence baseline).

The graph delta names every existing endpoint of a batch edge;
`plan_update` narrows that per walk mode to the nodes whose one-step law
may have changed. In uniform mode that is exact: a node's law is
1/out-degree over its out-neighbours, so only old nodes that gained an
out-neighbour count. Destinations and weight-only repeats do not. MH mode
keeps every touched endpoint, which still misses nodes whose leap
frontier or acceptance changed through edges further away.

Draws are keyed by (seed, walk index, step), so a resampled walk draws
what a walk generated from scratch on the new graph would. In uniform
mode a walk is trimmed at its first affected node and resumed at that
step index; its prefix ran through unchanged laws, so the updated corpus
is `generate_corpus(g_next)` byte for byte. A leap walk's rejected steps
leave no token, so a trimmed prefix does not say how many steps it took;
an affected MH walk is regenerated whole from its key instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ModeMismatchError, StateMismatchError, VersionMismatchError
from .graph import GraphDelta, TransactionGraph
from .walks import (
    MODE_UNIFORM,
    WalkConfig,
    WalkCorpus,
    make_sampler,
)


@dataclass
class DrawCounter:
    """Accumulates candidate draws, the work measure for update-vs-scratch,
    and the leap steps that took the approximate frontier-overflow guard
    path (`overflows`) or ran out of its retries (`exhausted`)."""

    draws: int = 0
    overflows: int = 0
    exhausted: int = 0

    def add(self, sampler):
        self.draws += sampler.draws
        self.overflows += sampler.overflows
        self.exhausted += sampler.exhausted


@dataclass(frozen=True)
class UpdatePlan:
    """Which walks must be resampled and which nodes need fresh walks."""

    affected_walks: frozenset
    new_nodes: frozenset
    affected_nodes: frozenset


def plan_update(corpus: WalkCorpus, delta: GraphDelta,
                g_next: TransactionGraph) -> UpdatePlan:
    """Resolve the delta against the corpus with one scan of its tokens.

    A uniform corpus is affected at the old sources of structurally new
    edges. A delta edge is new iff its count is the edge's whole count in
    g_next: every row has count >= 1, so an edge that existed before has
    a larger total. An MH corpus is affected at every touched endpoint.
    """
    _check_versions(corpus, g_next, delta)
    if corpus.mode == MODE_UNIFORM:
        src, dst, _, _, tally = (col.tolist() for col in delta.edge_columns)
        affected_nodes = frozenset(
            u for u, v, c in zip(src, dst, tally)
            if u not in delta.new_nodes and g_next.edge(u, v).count == c)
    else:
        affected_nodes = delta.affected_nodes
    return UpdatePlan(frozenset(corpus.walks_containing(affected_nodes)),
                      delta.new_nodes, affected_nodes)


def _check_versions(corpus, g_next, delta):
    if corpus.graph_version != delta.src_version:
        raise VersionMismatchError(
            f"corpus is at graph version {corpus.graph_version}, "
            f"delta starts at {delta.src_version}")
    if g_next.version != delta.dst_version:
        raise VersionMismatchError(
            f"graph is version {g_next.version} but delta targets "
            f"{delta.dst_version}")


def _check_update_args(corpus, g_next, delta, cfg, mode):
    if mode != corpus.mode:
        raise ModeMismatchError(
            f"corpus was generated in {corpus.mode!r} mode; updating in "
            f"{mode!r} would mix transition laws")
    if cfg.num_walks != corpus.n or cfg.walk_length != corpus.l:
        raise StateMismatchError(
            f"config (n={cfg.num_walks}, l={cfg.walk_length}) does not match "
            f"corpus (n={corpus.n}, l={corpus.l})")
    _check_versions(corpus, g_next, delta)


def unbiased_update(corpus: WalkCorpus, g_next: TransactionGraph,
                    delta: GraphDelta, cfg: WalkConfig, mode: str,
                    counter: DrawCounter | None = None,
                    plan: UpdatePlan | None = None) -> WalkCorpus:
    """Trim-and-resume update; returns a new corpus at g_next's version.

    Walks without affected nodes are carried over untouched (same tuple
    objects). Resampled walks reuse their own keys, so in uniform mode the
    result equals generate_corpus(g_next, cfg, mode).
    `plan`, if given, must be plan_update(corpus, delta, g_next); a caller
    that reports on the plan passes it so that it is computed once.
    """
    _check_update_args(corpus, g_next, delta, cfg, mode)
    if plan is None:
        plan = plan_update(corpus, delta, g_next)
    return _carry_forward(corpus, g_next, cfg, mode, plan, counter)


def naive_update(corpus: WalkCorpus, g_next: TransactionGraph,
                 delta: GraphDelta, cfg: WalkConfig, mode: str,
                 counter: DrawCounter | None = None) -> WalkCorpus:
    """Fresh walks for new nodes only; existing walks kept verbatim."""
    _check_update_args(corpus, g_next, delta, cfg, mode)
    plan = UpdatePlan(frozenset(), delta.new_nodes, frozenset())
    return _carry_forward(corpus, g_next, cfg, mode, plan, counter)


def _carry_forward(corpus, g_next, cfg, mode, plan, counter) -> WalkCorpus:
    """Copy the corpus to g_next's version: resample each affected walk
    (uniform: from its first affected node; MH: whole), then append fresh
    walks for new nodes, whose indices continue the corpus."""
    out = corpus.copy()
    sampler = make_sampler(g_next, cfg, mode)
    affected = sorted(plan.affected_walks)
    if mode == MODE_UNIFORM:
        resampled = sampler.walks(affected, *corpus.trim_rows(affected, plan.affected_nodes))
    else:
        resampled = sampler.walks(affected)
    out.replace_walks(affected, resampled)
    n = cfg.num_walks
    out.append_walks(sampler.walks([u * n + i for u in sorted(plan.new_nodes)
                                    for i in range(n)]))
    out.graph_version = g_next.version
    out.num_nodes = g_next.num_nodes
    if counter is not None:
        counter.add(sampler)
    return out
