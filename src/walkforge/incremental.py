"""Walk-corpus maintenance across graph versions.

Three strategies over the same interface:

* unbiased: resample every walk that touches an affected node on the new
  graph; generate fresh walks for new nodes. Untouched walks are reused
  as-is.
* naive: only generate walks for new nodes; stale walks are kept.
* scratch: regenerate the whole corpus with `generate_corpus` (the
  equivalence baseline).

The graph delta names every existing endpoint of a batch edge, and among
them the old nodes that gained an out-neighbour; `plan_update` picks per
walk mode the set of nodes whose one-step law may have changed. In
uniform mode that is exact: a node's law is 1/out-degree over its
out-neighbours, so only the grown nodes count. Destinations and
weight-only repeats do not. MH mode keeps every touched endpoint, which
still misses nodes whose leap frontier or acceptance changed through
edges further away.

The plan holds the walks through those nodes, from one scan of the token
matrix, and the token each one resumes from. Draws are keyed by (seed,
walk index, step), so a resumed walk draws what a walk generated from
scratch on the new graph would. A uniform walk resumes at its first
affected node; its prefix ran through unchanged laws, so the updated
corpus is `generate_corpus(g_next)` byte for byte. A leap walk's
rejected steps leave no token, so a prefix does not say how many steps
it took; an affected MH walk resumes at token 0 and replays from its key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModeMismatchError, StateMismatchError, VersionMismatchError
from .graph import GraphDelta, TransactionGraph
from .walks import (
    MODE_UNIFORM,
    WalkConfig,
    WalkCorpus,
    check_mode,
    make_sampler,
)


@dataclass
class DrawCounter:
    """Accumulates candidate draws, the work measure for update-vs-scratch,
    the leap steps that took the approximate frontier-overflow guard path
    (`overflows`) or ran out of its retries (`exhausted`), and the leap
    rows built (`rows_built`)."""

    draws: int = 0
    overflows: int = 0
    exhausted: int = 0
    rows_built: int = 0

    def add(self, sampler):
        self.draws += sampler.draws
        self.overflows += sampler.overflows
        self.exhausted += sampler.exhausted
        self.rows_built += sampler.rows_built


@dataclass(frozen=True, eq=False)
class UpdatePlan:
    """Which walks resume from which token (sorted walk indices and tokens,
    as intp arrays, so plans compare by identity) and which nodes need
    fresh walks."""

    affected_walks: np.ndarray
    resume: np.ndarray
    new_nodes: frozenset
    affected_nodes: frozenset


def plan_update(corpus: WalkCorpus, delta: GraphDelta,
                g_next: TransactionGraph) -> UpdatePlan:
    """Resolve the delta against the corpus with one scan of its tokens.

    A uniform corpus is affected at the delta's grown nodes and its walks
    resume at their first one; an MH corpus is affected at every touched
    endpoint and its walks resume at token 0.
    """
    _check_versions(corpus, g_next, delta)
    uniform = corpus.mode == MODE_UNIFORM
    nodes = delta.grown_nodes if uniform else delta.affected_nodes
    ids, first = corpus.first_visits(nodes)
    return UpdatePlan(ids, first if uniform else np.zeros_like(first),
                      delta.new_nodes, nodes)


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
    check_mode(mode)
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
    none = np.empty(0, dtype=np.intp)
    plan = UpdatePlan(none, none, delta.new_nodes, frozenset())
    return _carry_forward(corpus, g_next, cfg, mode, plan, counter)


def _carry_forward(corpus, g_next, cfg, mode, plan, counter) -> WalkCorpus:
    """Copy the corpus to g_next's version: resume each affected walk from
    its token in the plan, then append fresh walks for new nodes, whose
    indices continue the corpus."""
    out = corpus.copy()
    sampler = make_sampler(g_next, cfg, mode)
    ids = plan.affected_walks
    out.replace_walks(ids, sampler.walks(ids, corpus.tokens[ids], plan.resume))
    n = cfg.num_walks
    out.append_walks(sampler.walks([u * n + i for u in sorted(plan.new_nodes)
                                    for i in range(n)]))
    out.graph_version = g_next.version
    out.num_nodes = g_next.num_nodes
    if counter is not None:
        counter.add(sampler)
    return out
