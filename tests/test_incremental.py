from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import chisquare

from walkforge import (
    DrawCounter,
    ModeMismatchError,
    StateMismatchError,
    UpdatePlan,
    VersionMismatchError,
    WalkConfig,
    WalkCorpus,
    apply_batch,
    diff_graphs,
    generate_corpus,
    ingest_edges,
    naive_update,
    plan_update,
    unbiased_update,
)
from walkforge.walks import build_node_index
from conftest import pad_walks, random_rows, rows_from_edges


def build_pair(seed=0, nodes=30, edges=100):
    rows = random_rows(nodes, edges, seed=seed)
    g = ingest_edges(rows)
    batch = [(f"n{nodes + 1}", "n0", 1.0, 50_000),
             ("n1", f"n{nodes + 1}", 2.0, 50_001),
             ("n2", "n3", 1.0, 50_002)]
    g2, delta = apply_batch(g, batch)
    return g, g2, delta


def uniform_law_changed(g, g2) -> set:
    """Old nodes whose row of the 1/out-degree matrix differs between the
    versions (a sink's row is all zeros)."""
    n = g2.num_nodes

    def matrix(graph):
        adj = np.zeros((n, n))
        for e in graph.edges():
            adj[e.src, e.dst] = 1.0
        deg = adj.sum(axis=1, keepdims=True)
        return np.divide(adj, deg, out=np.zeros_like(adj), where=deg > 0)

    differs = (matrix(g) != matrix(g2)).any(axis=1)
    return {u for u in g.nodes() if differs[u]}


def walks_through(corpus, nodes) -> set:
    return {i for i, w in enumerate(corpus.walks) if set(w) & set(nodes)}


def assert_plan_resumes(plan, corpus):
    """The plan's walks and resume tokens against a Python scan of the walk
    tuples: uniform walks resume at their first affected node, MH walks
    at 0."""
    nodes = plan.affected_nodes
    oracle = {i: next(k for k, u in enumerate(w) if u in nodes)
              for i, w in enumerate(corpus.walks) if set(w) & nodes}
    assert plan.affected_walks.dtype == plan.resume.dtype == np.intp
    assert plan.affected_walks.tolist() == sorted(oracle)
    if corpus.mode == "uniform":
        assert plan.resume.tolist() == [oracle[i] for i in sorted(oracle)]
    else:
        assert not plan.resume.any()


def assert_rows_are_padded_walks(corpus):
    width = corpus.tokens.shape[1]
    assert corpus.tokens.dtype == np.int32
    assert corpus.tokens.shape == (len(corpus), width)
    for row, walk in zip(corpus.tokens.tolist(), corpus.walks):
        assert row == list(walk) + [-1] * (width - len(walk))


# ---------------------------------------------------------------------------
# planning and trimming
# ---------------------------------------------------------------------------

def test_plan_empty_delta():
    g = ingest_edges([("a", "b", 1.0, 0)])
    corpus = generate_corpus(g, WalkConfig(num_walks=1, walk_length=3), "uniform")
    g2, delta = apply_batch(g, [])
    plan = plan_update(corpus, delta, g2)
    assert not len(plan.affected_walks) and not plan.new_nodes


def test_plan_uses_node_index():
    g = ingest_edges(rows_from_edges([(0, 1), (1, 2), (2, 0), (3, 1)]))
    corpus = generate_corpus(g, WalkConfig(num_walks=1, walk_length=4, seed=0), "uniform")
    g2, delta = apply_batch(g, [("n1", "n3", 1.0, 9_000)])
    plan = plan_update(corpus, delta, g2)
    assert plan.affected_nodes == uniform_law_changed(g, g2) == {g.id_of("n1")}
    assert set(plan.affected_walks.tolist()) == walks_through(corpus, plan.affected_nodes)


def test_plan_version_mismatch():
    g = ingest_edges([("a", "b", 1.0, 0)])
    corpus = generate_corpus(g, WalkConfig(num_walks=1), "uniform")
    g2, _ = apply_batch(g, [("b", "c", 1.0, 5)])
    g3, delta2 = apply_batch(g2, [("c", "d", 1.0, 6)])
    with pytest.raises(VersionMismatchError):
        plan_update(corpus, delta2, g3)
    _, delta1 = apply_batch(g, [("b", "c", 1.0, 5)])
    with pytest.raises(VersionMismatchError):
        plan_update(corpus, delta1, g3)


def test_plan_matches_full_scan_oracle():
    rows = random_rows(200, 700, seed=3)
    g = ingest_edges(rows)
    cfg = WalkConfig(num_walks=2, walk_length=5, seed=4)
    corpus = generate_corpus(g, cfg, "uniform")
    batch = [(f"n{i}", f"n{(i * 7) % 210}", 1.0, 90_000 + i) for i in range(25)]
    g2, delta = apply_batch(g, batch)
    plan = plan_update(corpus, delta, g2)
    assert plan.affected_nodes == uniform_law_changed(g, g2)
    assert_plan_resumes(plan, corpus)
    assert plan.resume.any()  # some walk resumes past its origin
    mh = generate_corpus(g, cfg, "mh")
    mh_plan = plan_update(mh, delta, g2)
    assert len(mh_plan.affected_walks)
    assert_plan_resumes(mh_plan, mh)


@st.composite
def graph_and_batch(draw):
    """An old edge list on nodes 0..7 and a batch mixing every kind of
    row: fresh edges (new nodes are 8..10), self-loops, weight-only
    repeats of old edges and edges out of old sinks."""
    node = st.integers(0, 7)
    base = draw(st.lists(st.tuples(node, node), min_size=1, max_size=20))
    present = sorted({u for e in base for u in e})
    sources = {u for u, _ in base}
    sinks = [u for u in present if u not in sources]
    any_node = st.integers(0, 10)
    batch = draw(st.lists(st.tuples(any_node, any_node), max_size=8))
    batch += draw(st.lists(st.sampled_from(present).map(lambda u: (u, u)),
                           max_size=2))
    batch += draw(st.lists(st.sampled_from(base), max_size=3))
    if sinks:
        batch += draw(st.lists(st.tuples(st.sampled_from(sinks), any_node),
                               max_size=2))
    return base, draw(st.permutations(batch))


@given(graph_and_batch())
def test_uniform_plan_is_exactly_the_changed_laws(case):
    base, batch = case
    g = ingest_edges(rows_from_edges(base))
    g2, delta = apply_batch(g, [(f"n{u}", f"n{v}", 1.0, 10_000 + i)
                                for i, (u, v) in enumerate(batch)])
    changed = uniform_law_changed(g, g2)
    cfg = WalkConfig(num_walks=2, walk_length=4, seed=1)
    uniform = generate_corpus(g, cfg, "uniform")
    for d in (delta, diff_graphs(g, g2)):
        plan = plan_update(uniform, d, g2)
        assert plan.affected_nodes == changed
        assert set(plan.affected_walks.tolist()) == walks_through(uniform, changed)
        assert plan.new_nodes == delta.new_nodes
        assert_plan_resumes(plan, uniform)
    # MH keeps every touched endpoint, and resumes its walks at the origin
    mh = generate_corpus(g, cfg, "mh")
    plan = plan_update(mh, delta, g2)
    assert plan.affected_nodes == delta.affected_nodes
    assert_plan_resumes(plan, mh)


@given(graph_and_batch(), st.integers(0, 2**32))
def test_uniform_update_is_regeneration(case, seed):
    """Keyed draws make the uniform update exact: resampled walks draw
    what regeneration draws, so any gap in the plan is a byte diff."""
    base, batch = case
    g = ingest_edges(rows_from_edges(base))
    cfg = WalkConfig(num_walks=3, walk_length=6, seed=seed)
    corpus = generate_corpus(g, cfg, "uniform")
    g2, delta = apply_batch(g, [(f"n{u}", f"n{v}", 1.0, 10_000 + i)
                                for i, (u, v) in enumerate(batch)])
    scratch = generate_corpus(g2, cfg, "uniform")
    for d in (delta, diff_graphs(g, g2)):
        updated = unbiased_update(corpus, g2, d, cfg, "uniform")
        assert updated.walks == scratch.walks
        assert np.array_equal(updated.tokens, scratch.tokens)
        assert updated.node_index == scratch.node_index


def test_uniform_update_trims_token_rows_at_first_affected_node():
    """A hand-built corpus on 0 -> 1, 2 -> 3 -> 0. The batch 1 -> 2 closes
    the cycle 0 -> 1 -> 2 -> 3 -> 0, so node 1 is affected and every
    continuation is forced; 4 -> 0 adds a new node."""
    g = ingest_edges(rows_from_edges([(0, 1), (2, 3), (3, 0)]))
    cfg = WalkConfig(num_walks=2, walk_length=5, seed=3)
    walks = [(0, 1), (0, 2),          # last token; no affected node
             (1,), (1, 3, 1, 3, 0),   # origin; repeated
             (2, 3, 0, 3, 1),         # affected at token l - 1
             (2, 1, 3, 1),            # mid-walk, then repeated
             (3, 0, 1), (3, 0)]
    corpus = WalkCorpus(pad_walks(walks, 5), g.version, 2, 5, "uniform", g.num_nodes)
    g2, delta = apply_batch(g, [("n1", "n2", 1.0, 10), ("n4", "n0", 1.0, 11)])
    plan = plan_update(corpus, delta, g2)
    assert plan.affected_nodes == {1}
    assert plan.affected_walks.tolist() == [0, 2, 3, 4, 5, 6]
    assert plan.resume.tolist() == [1, 0, 0, 4, 1, 2]
    updated = unbiased_update(corpus, g2, delta, cfg, "uniform")
    assert updated.walks == [
        (0, 1, 2, 3, 0), (0, 2),
        (1, 2, 3, 0, 1), (1, 2, 3, 0, 1),
        (2, 3, 0, 3, 1),
        (2, 1, 2, 3, 0),
        (3, 0, 1, 2, 3), (3, 0),
        (4, 0, 1, 2, 3), (4, 0, 1, 2, 3)]
    assert updated.walks[1] is corpus.walks[1] and updated.walks[7] is corpus.walks[7]
    assert_rows_are_padded_walks(updated)
    assert updated.tokens.shape == (10, 5)
    assert corpus.walks == walks  # the parent corpus is untouched


# ---------------------------------------------------------------------------
# unbiased update
# ---------------------------------------------------------------------------

def test_unbiased_empty_delta_bumps_version_only():
    g = ingest_edges([("a", "b", 1.0, 0)])
    cfg = WalkConfig(num_walks=2, walk_length=3, seed=0)
    corpus = generate_corpus(g, cfg, "uniform")
    g2, delta = apply_batch(g, [])
    updated = unbiased_update(corpus, g2, delta, cfg, "uniform")
    assert updated.graph_version == 1
    assert updated.walks == corpus.walks
    assert corpus.graph_version == 0  # original untouched


def test_unbiased_new_isolated_node_gets_stub_walks():
    g = ingest_edges([("a", "b", 1.0, 0)])
    cfg = WalkConfig(num_walks=3, walk_length=4, seed=1)
    corpus = generate_corpus(g, cfg, "uniform")
    g2, delta = apply_batch(g, [("c", "c", 0.5, 7)])  # self-loop newcomer
    updated = unbiased_update(corpus, g2, delta, cfg, "uniform")
    assert len(updated) == len(corpus) + 3
    assert updated.walks[-3:] != [None] * 3


def test_unbiased_preserves_untouched_walks_identically():
    g, g2, delta = build_pair(seed=5)
    cfg = WalkConfig(num_walks=2, walk_length=5, seed=2)
    corpus = generate_corpus(g, cfg, "uniform")
    plan = plan_update(corpus, delta, g2)
    updated = unbiased_update(corpus, g2, delta, cfg, "uniform")
    for i, walk in enumerate(corpus.walks):
        if i not in plan.affected_walks:
            assert updated.walks[i] is walk  # same tuple object, not a copy


def test_unbiased_prefix_preservation_and_cardinality():
    g, g2, delta = build_pair(seed=6)
    cfg = WalkConfig(num_walks=2, walk_length=5, seed=3)
    corpus = generate_corpus(g, cfg, "uniform")
    plan = plan_update(corpus, delta, g2)
    updated = unbiased_update(corpus, g2, delta, cfg, "uniform")
    assert updated.node_index == build_node_index(updated.walks)
    assert len(updated) == len(corpus) + cfg.num_walks * len(delta.new_nodes)
    for i in plan.affected_walks:
        walk = corpus.walks[i]
        first = min(walk.index(u) for u in plan.affected_nodes if u in walk)
        assert updated.walks[i][:first + 1] == walk[:first + 1]


def test_unbiased_work_bound():
    g, g2, delta = build_pair(seed=7, nodes=60, edges=240)
    cfg = WalkConfig(num_walks=3, walk_length=5, seed=4)
    corpus = generate_corpus(g, cfg, "uniform")
    plan = plan_update(corpus, delta, g2)
    counter = DrawCounter()
    unbiased_update(corpus, g2, delta, cfg, "uniform", counter=counter)
    bound = (len(plan.affected_walks) + cfg.num_walks * len(delta.new_nodes)) \
        * (cfg.walk_length - 1)
    assert counter.draws <= bound


def test_unbiased_mode_and_config_guards():
    g, g2, delta = build_pair(seed=8)
    cfg = WalkConfig(num_walks=2, walk_length=5, seed=5)
    corpus = generate_corpus(g, cfg, "uniform")
    with pytest.raises(ModeMismatchError):
        unbiased_update(corpus, g2, delta, cfg, "mh")
    with pytest.raises(StateMismatchError):
        unbiased_update(corpus, g2, delta,
                        WalkConfig(num_walks=4, walk_length=5, seed=5), "uniform")
    stale_corpus = generate_corpus(g2, cfg, "uniform")
    with pytest.raises(VersionMismatchError):
        unbiased_update(stale_corpus, g2, delta, cfg, "uniform")


def test_unbiased_update_works_in_mh_mode():
    g, g2, delta = build_pair(seed=9)
    cfg = WalkConfig(num_walks=2, walk_length=5, hop=2, seed=6)
    corpus = generate_corpus(g, cfg, "mh")
    updated = unbiased_update(corpus, g2, delta, cfg, "mh")
    assert updated.node_index == build_node_index(updated.walks)
    for walk in updated.walks:
        for a, b in zip(walk, walk[1:]):
            assert g2.shortest_hop(a, b, cap=2) == 2 or g.shortest_hop(a, b, cap=2) == 2


def test_chained_mh_updates_keep_token_rows():
    """Three updates in a row, each replacing and appending walks, leave
    every row of the token matrix equal to its walk padded with -1."""
    g = ingest_edges(random_rows(40, 150, seed=21))
    cfg = WalkConfig(num_walks=2, walk_length=6, hop=2, seed=9)
    corpus = generate_corpus(g, cfg, "mh")
    assert_rows_are_padded_walks(corpus)
    for k in range(3):
        g2, delta = apply_batch(g, [(f"n{k}", f"n{60 + k}", 1.0, 70_000 + 2 * k),
                                    (f"n{60 + k}", f"n{k + 5}", 1.0, 70_001 + 2 * k)])
        updated = unbiased_update(corpus, g2, delta, cfg, "mh")
        assert len(plan_update(corpus, delta, g2).affected_walks)
        assert len(updated) == len(corpus) + cfg.num_walks
        assert_rows_are_padded_walks(updated)
        g, corpus = g2, updated


@pytest.mark.parametrize("mode", ["uniform", "mh"])
def test_resampling_on_unchanged_graph_keeps_corpus(mode):
    """Resampling walks whose laws did not change must change nothing. In
    MH mode a trimmed prefix hides its rejected steps, so a resumed walk
    got extra step budget (Bias B); regenerating it whole from its key
    replays it exactly."""
    g = ingest_edges(random_rows(300, 1200, seed=17))
    cfg = WalkConfig(num_walks=10, walk_length=10, hop=2, alpha_min=0.0, seed=3)
    corpus = generate_corpus(g, cfg, mode)
    g2, delta = apply_batch(g, [])
    marked = frozenset(range(0, g.num_nodes, 3))
    ids, first = corpus.first_visits(marked)
    resume = first if mode == "uniform" else np.zeros_like(first)
    plan = UpdatePlan(ids, resume, frozenset(), marked)
    assert len(plan.affected_walks)
    updated = unbiased_update(corpus, g2, delta, cfg, mode, plan=plan)
    assert updated.walks == corpus.walks


@pytest.mark.xfail(strict=True, reason=(
    "MH plan marks only batch endpoints: adding b->e widens a's 2-hop "
    "frontier to {c, d, e}, but leap walks from a never contain b, so none "
    "is resampled and e gets 0 first steps from a"))
def test_mh_update_first_steps_match_new_frontier():
    g = ingest_edges([("a", "b", 1.0, 0), ("b", "c", 1.0, 1), ("b", "d", 1.0, 2),
                      ("c", "a", 1.0, 3), ("d", "a", 1.0, 4)])
    cfg = WalkConfig(num_walks=3000, walk_length=2, hop=2, alpha_min=1.0, seed=13)
    corpus = generate_corpus(g, cfg, "mh")
    g2, delta = apply_batch(g, [("b", "e", 1.0, 5)])
    updated = unbiased_update(corpus, g2, delta, cfg, "mh")
    a = g2.id_of("a")
    frontier = sorted(g2.h_hop_frontier(a, 2))
    assert len(frontier) == 3
    # alpha_min = 1 accepts every proposal, so first steps are uniform
    first = Counter(w[1] for w in updated.walks if w[0] == a)
    assert chisquare([first[v] for v in frontier]).pvalue > 0.01


def test_copy_on_write_keeps_parent_and_siblings_apart():
    g = ingest_edges(random_rows(40, 150, seed=14))
    cfg = WalkConfig(num_walks=3, walk_length=5, seed=12)
    parent = generate_corpus(g, cfg, "uniform")
    assert_rows_are_padded_walks(parent)
    walks_before = list(parent.walks)
    tokens_before = parent.tokens.copy()
    g_a, delta_a = apply_batch(g, [("n1", "n50", 1.0, 90_000),
                                   ("n2", "n3", 1.0, 90_001)])
    g_b, delta_b = apply_batch(g, [("n4", "n51", 1.0, 90_000),
                                   ("n5", "n6", 1.0, 90_001),
                                   ("n52", "n7", 1.0, 90_002)])
    assert len(plan_update(parent, delta_a, g_a).affected_walks)
    assert len(plan_update(parent, delta_b, g_b).affected_walks)
    child_a = unbiased_update(parent, g_a, delta_a, cfg, "uniform")
    child_b = unbiased_update(parent, g_b, delta_b, cfg, "uniform")
    naive = naive_update(parent, g_a, delta_a, cfg, "uniform")
    g_c, delta_c = apply_batch(g_a, [("n8", "n53", 1.0, 90_010)])
    grandchild = unbiased_update(child_a, g_c, delta_c, cfg, "uniform")
    for c in (child_a, child_b, naive, grandchild):
        assert c.node_index == build_node_index(c.walks)
        assert_rows_are_padded_walks(c)
    assert parent.walks == walks_before
    assert np.array_equal(parent.tokens, tokens_before)
    assert parent.node_index == build_node_index(parent.walks)


# ---------------------------------------------------------------------------
# naive update and scratch
# ---------------------------------------------------------------------------

def test_naive_keeps_old_walks_even_when_affected():
    g, g2, delta = build_pair(seed=10)
    cfg = WalkConfig(num_walks=2, walk_length=5, seed=7)
    corpus = generate_corpus(g, cfg, "uniform")
    updated = naive_update(corpus, g2, delta, cfg, "uniform")
    assert updated.walks[:len(corpus)] == corpus.walks
    assert len(updated) == len(corpus) + cfg.num_walks * len(delta.new_nodes)
    assert updated.graph_version == g2.version


def test_naive_no_new_nodes_is_pure_version_bump():
    g = ingest_edges(rows_from_edges([(0, 1), (1, 2)]))
    cfg = WalkConfig(num_walks=2, walk_length=4, seed=8)
    corpus = generate_corpus(g, cfg, "uniform")
    g2, delta = apply_batch(g, [("n0", "n2", 1.0, 9_000)])
    updated = naive_update(corpus, g2, delta, cfg, "uniform")
    assert updated.walks == corpus.walks


def test_new_node_walks_match_scratch_substreams():
    # fresh walks for newcomers reuse the (seed, node, i) streams, so a
    # node's walks agree between an update and a from-scratch corpus
    g, g2, delta = build_pair(seed=12)
    cfg = WalkConfig(num_walks=2, walk_length=5, seed=10)
    corpus = generate_corpus(g, cfg, "uniform")
    scratch = generate_corpus(g2, cfg, "uniform")
    for update in (unbiased_update, naive_update):
        updated = update(corpus, g2, delta, cfg, "uniform")
        for u in delta.new_nodes:
            from_scratch_walks = scratch.walks[u * cfg.num_walks:(u + 1) * cfg.num_walks]
            appended = [w for w in updated.walks[len(corpus):] if w[0] == u]
            assert appended == from_scratch_walks


def test_resumed_suffixes_statistically_match_fresh_walks():
    """Unbiasedness at the corpus level: per-edge transition frequencies of
    an updated corpus stay close to a regenerated one."""
    rows = random_rows(120, 500, seed=13)
    g = ingest_edges(rows)
    cfg = WalkConfig(num_walks=10, walk_length=5, seed=11)
    corpus = generate_corpus(g, cfg, "uniform")
    batch = [(f"n{i}", f"n{(i * 3 + 1) % 121}", 1.0, 80_000 + i) for i in range(10)]
    g2, delta = apply_batch(g, batch)
    updated = unbiased_update(corpus, g2, delta, cfg, "uniform")
    scratch = generate_corpus(g2, cfg, "uniform")

    def edge_freqs(c):
        counts, totals = {}, {}
        for w in c.walks:
            for a, b in zip(w, w[1:]):
                counts[(a, b)] = counts.get((a, b), 0) + 1
                totals[a] = totals.get(a, 0) + 1
        return {k: v / totals[k[0]] for k, v in counts.items()}

    fu, fs = edge_freqs(updated), edge_freqs(scratch)
    gaps = [abs(fu.get(k, 0.0) - fs.get(k, 0.0)) for k in set(fu) | set(fs)]
    assert np.mean(gaps) < 0.04
