import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import chi2_contingency

from walkforge import (
    ConfigError,
    ParseError,
    WalkConfig,
    generate_corpus,
    ingest_edges,
    leap_transition_matrix,
    load_corpus,
    load_graph,
    mean_defacto_length,
    mh_acceptance,
    save_corpus,
)
from walkforge.graph import STAT_KINDS
from walkforge.incremental import DrawCounter
from walkforge.synth import sbm_stream
from walkforge.walks import LeapSampler, build_node_index, keyed_uniforms, make_sampler
from conftest import random_rows, resumed, rows_from_edges, uniform_walk


def rng_(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# uniform walks
# ---------------------------------------------------------------------------

def test_uniform_walk_stops_at_sink():
    g = ingest_edges([("a", "b", 1.0, 0)])
    assert uniform_walk(g, g.id_of("b"), 5, rng_()) == (g.id_of("b"),)


def test_uniform_walk_forced_path():
    g = ingest_edges(rows_from_edges([(0, 1), (1, 2)]))
    assert uniform_walk(g, 0, 5, rng_()) == (0, 1, 2)


def test_uniform_walk_leaf_frequencies_binomial():
    """Star-out center: each leaf hit ~Binomial(n, 1/deg), checked at 3 sigma."""
    deg = 5
    g = ingest_edges(rows_from_edges([(0, i + 1) for i in range(deg)]))
    n = 100_000
    rng = rng_(123)
    counts = Counter(uniform_walk(g, 0, 2, rng)[1] for _ in range(n))
    p = 1.0 / deg
    sigma = math.sqrt(n * p * (1 - p))
    for leaf in range(1, deg + 1):
        assert abs(counts[leaf] - n * p) <= 3 * sigma


# ---------------------------------------------------------------------------
# acceptance probability
# ---------------------------------------------------------------------------

def test_acceptance_symmetric_case_is_one():
    # two-node mutual edges with equal stats: R = 1
    g = ingest_edges([("a", "b", 2.0, 0), ("b", "a", 2.0, 1)])
    cfg = WalkConfig(hop=1, target_stat="V_in")
    assert mh_acceptance(g, 0, 1, cfg) == 1.0


def test_acceptance_hand_computed_ratio():
    # q_S, h=2, smoothed stats 4 vs 2, return distance 2 -> alpha = 0.5
    rows = [("u", "x", 3.0, 1), ("x", "v", 1.0, 2), ("v", "y", 1.0, 3),
            ("y", "u", 1.0, 4)]
    g = ingest_edges(rows)
    cfg = WalkConfig(hop=2, target_stat="V_out", stat_smoothing=1.0)
    assert mh_acceptance(g, g.id_of("u"), g.id_of("v"), cfg) == pytest.approx(0.5)


def test_acceptance_unreachable_uses_nominal_return():
    # v cannot return to u within the cap: q_back = 0.1
    rows = [("u", "x", 3.0, 1), ("x", "v", 1.0, 2)]
    g = ingest_edges(rows)
    cfg = WalkConfig(hop=2, target_stat="V_out", stat_smoothing=1.0)
    # R = (p_v * 0.1) / (p_u * 0.5) = (1 * 0.1) / (4 * 0.5)
    assert mh_acceptance(g, g.id_of("u"), g.id_of("v"), cfg) == pytest.approx(0.05)


def test_acceptance_exponential_decay_proposal():
    rows = [("u", "x", 3.0, 1), ("x", "v", 1.0, 2), ("v", "y", 1.0, 3),
            ("y", "u", 1.0, 4)]
    g = ingest_edges(rows)
    cfg = WalkConfig(hop=2, target_stat="V_out", proposal="E", decay=0.7)
    # forward and return distance are both 2, so the decay terms cancel
    assert mh_acceptance(g, g.id_of("u"), g.id_of("v"), cfg) == pytest.approx(0.5)
    # unreachable return: nominal 0.1 over exp(-decay * hop)
    g2 = ingest_edges(rows[:2])
    expected = min(1.0, (1.0 * 0.1) / (4.0 * math.exp(-0.7 * 2)))
    assert mh_acceptance(g2, g2.id_of("u"), g2.id_of("v"), cfg) == pytest.approx(expected)


def test_acceptance_requires_exact_hop_distance():
    g = ingest_edges(rows_from_edges([(0, 1), (1, 2)]))
    cfg = WalkConfig(hop=2)
    with pytest.raises(ConfigError):
        mh_acceptance(g, 0, 1, cfg)  # distance 1, not 2


@given(st.integers(0, 2**31), st.integers(1, 2))
def test_acceptance_bounds_and_saturation(seed, hop):
    rows = random_rows(12, 50, seed=seed % 1000)
    g = ingest_edges(rows)
    cfg = WalkConfig(hop=hop, target_stat="V_in", seed=seed)
    smooth = cfg.stat_smoothing
    for u in g.nodes():
        for v in g.h_hop_frontier(u, hop):
            alpha = mh_acceptance(g, u, v, cfg)
            assert 0.0 <= alpha <= 1.0
            back = g.shortest_hop(v, u, cap=hop)
            q_back = cfg.nominal_return if back is None else 1.0 / back
            num = (g.node_stat(v, "V_in") + smooth) * q_back
            den = (g.node_stat(u, "V_in") + smooth) * (1.0 / hop)
            if num >= den:
                assert alpha == 1.0


# ---------------------------------------------------------------------------
# leap walks
# ---------------------------------------------------------------------------

def test_mh_walk_alpha_floor_one_accepts_everything():
    rows = random_rows(15, 60, seed=2)
    g = ingest_edges(rows)
    cfg = WalkConfig(walk_length=5, hop=2, alpha_min=1.0, seed=3)
    nodes = list(g.nodes())[:5]
    for walk in resumed(LeapSampler(g, cfg), [(u,) for u in nodes], nodes):
        # accepted every step: full length unless a frontier emptied
        if len(walk) < 5:
            assert not g.h_hop_frontier(walk[-1], 2)


def test_mh_walk_sink_chain():
    g = ingest_edges([("a", "b", 1.0, 0)])
    cfg = WalkConfig(walk_length=5, hop=1, alpha_min=1.0)
    assert resumed(LeapSampler(g, cfg), [(g.id_of("a"),)], [0]) == [(0, 1)]


def test_mh_walk_consecutive_pairs_at_exact_hop():
    rows = random_rows(40, 200, seed=4)
    g = ingest_edges(rows)
    for hop in (1, 2):
        cfg = WalkConfig(walk_length=6, hop=hop, alpha_min=0.5, seed=5)
        corpus = generate_corpus(g, cfg, "mh")
        for walk in corpus.walks:
            for a, b in zip(walk, walk[1:]):
                assert g.shortest_hop(a, b, cap=hop) == hop


def test_mh_walk_step_budget():
    rows = random_rows(20, 80, seed=6)
    g = ingest_edges(rows)
    cfg = WalkConfig(walk_length=5, hop=1, alpha_min=0.0, seed=7)
    sampler = LeapSampler(g, cfg)
    for u in g.nodes():
        before = sampler.draws
        resumed(sampler, [(u,)], [u])
        assert sampler.draws - before <= cfg.walk_length - 1


def test_chain_step_frequencies_match_exact_matrix_small():
    # lighter version of the acceptance-level check: 6 nodes, 1e5 steps
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (2, 5)]
    g = ingest_edges(rows_from_edges(edges, value=2.0))
    cfg = WalkConfig(hop=1, alpha_min=0.0, target_stat="V_in", seed=0)
    P = leap_transition_matrix(g, cfg)
    sampler = LeapSampler(g, cfg)
    rng = rng_(11)
    counts = np.zeros(36)
    curr = np.zeros(100, dtype=np.intp)  # 100 chains from node 0
    for _ in range(1000):
        nxt = sampler.step(curr, rng.random((len(curr), 2)))
        counts += np.bincount(curr * 6 + nxt, minlength=36)
        curr = nxt
    counts = counts.reshape(6, 6)
    emp = counts / counts.sum(axis=1, keepdims=True)
    assert np.abs(emp - P).max() < 0.03


def test_transition_matrix_rows_are_stochastic():
    rows = random_rows(25, 100, seed=8)
    g = ingest_edges(rows)
    for hop in (1, 2):
        P = leap_transition_matrix(g, WalkConfig(hop=hop, alpha_min=0.3))
        assert np.allclose(P.sum(axis=1), 1.0)
        assert (P >= 0).all()


def test_frontier_guard_samples_exact_distance():
    # hub with a frontier larger than the cap exercises the expansion path
    edges = [(0, i) for i in range(1, 41)] + [(i, 41) for i in range(1, 41)]
    g = ingest_edges(rows_from_edges(edges))
    cfg = WalkConfig(hop=1, alpha_min=1.0, frontier_cap=8, seed=0)
    sampler = LeapSampler(g, cfg)
    rng = rng_(9)
    nxt = sampler.step(np.zeros(300, dtype=np.intp), rng.random((300, 2))).tolist()
    assert sampler.overflows == 300 and sampler.exhausted == 0
    for v in nxt:
        assert v >= 0 and v != 0
        assert g.shortest_hop(0, v, cap=1) == 1
    assert len(set(nxt)) > 10  # spread across the hub's targets


# ---------------------------------------------------------------------------
# lockstep leap walker
# ---------------------------------------------------------------------------

def chained_steps(g, cfg, ids, prefixes):
    """Oracle: each walk chained one step at a time over its keyed draws,
    from the capped frontier and mh_acceptance, with the guard expansion
    (`_draw_beyond_ball`) at overflow nodes; and the (draws, overflows,
    exhausted) counts that makes."""
    guard = LeapSampler(g, cfg)
    cap = 64 * cfg.hop if cfg.frontier_cap is None else cfg.frontier_cap
    l = cfg.walk_length
    draws = keyed_uniforms(cfg.seed, ids, range(2 * (l - 1))).tolist()
    counts = [0, 0, 0]
    out = []
    for k, (w, u) in enumerate(zip(ids, draws)):
        walk = [w // cfg.num_walks] if prefixes is None else list(prefixes[k])
        for s in range(len(walk) - 1, l - 1):
            curr, u_prop, u_acc = walk[-1], u[2 * s], u[2 * s + 1]
            frontier, ball = g.capped_frontier(curr, cfg.hop, cap)
            if frontier == ():
                break
            counts[0] += 1
            if frontier is None:
                counts[1] += 1
                v = guard._draw_beyond_ball(curr, ball, u_prop)
                if v is None:
                    counts[2] += 1
                    continue
            else:
                v = frontier[int(u_prop * len(frontier))]
            if u_acc < mh_acceptance(g, curr, v, cfg) + cfg.alpha_min:
                walk.append(v)
        out.append(tuple(walk))
    return out, tuple(counts)


@given(edges=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11),
                                st.floats(0.1, 5.0)), min_size=1, max_size=50),
       hop=st.integers(1, 3), cap=st.sampled_from([None, 1, 4]),
       proposal=st.sampled_from("SE"), stat=st.sampled_from(STAT_KINDS),
       prefixed=st.booleans(), seed=st.integers(0, 2**32))
def test_lockstep_leap_walks_equal_chained_steps(edges, hop, cap, proposal, stat,
                                                prefixed, seed):
    g = ingest_edges(rows_from_edges(edges))
    cfg = WalkConfig(num_walks=3, walk_length=6, hop=hop, alpha_min=0.3,
                     target_stat=stat, proposal=proposal, frontier_cap=cap,
                     seed=seed)
    ids = list(range(g.num_nodes * cfg.num_walks))
    sampler = LeapSampler(g, cfg)
    prefixes = None
    if prefixed:  # up to l + 1 nodes: a prefix may already be complete
        rng = rng_(seed)
        prefixes = [tuple(rng.integers(g.num_nodes, size=rng.integers(1, 8)).tolist())
                    for _ in ids]
        rows = np.full((len(ids), 8), 7, dtype=np.int32)  # stale tokens to drop
        for row, p in zip(rows, prefixes):
            row[:len(p)] = p
        start = np.array([len(p) - 1 for p in prefixes])
        tokens = sampler.walks(ids, rows, start)
        assert tokens is rows
    else:
        tokens = sampler.walks(ids)
    expected, counts = chained_steps(g, cfg, ids, prefixes)
    assert tokens.dtype == np.int32
    assert tokens.tolist() == [list(w) + [-1] * (tokens.shape[1] - len(w)) for w in expected]
    assert (sampler.draws, sampler.overflows, sampler.exhausted) == counts
    # every row built holds the capped frontier and, slot by slot, the
    # oracle's acceptance plus alpha_min; an overflow node has size -1
    for u in np.flatnonzero(sampler._size > -2).tolist():
        frontier, _ = g.capped_frontier(u, hop, sampler._cap)
        size = sampler._size[u]
        if frontier is None:
            assert size == -1
            continue
        lo = sampler._start[u]
        assert sampler._fr[lo:lo + size].tolist() == list(frontier)
        assert sampler._th[lo:lo + size].tolist() == [
            mh_acceptance(g, u, v, cfg) + cfg.alpha_min for v in frontier]


def test_overflow_and_exhausted_steps_are_counted():
    rows, _ = sbm_stream((30, 30), p_in=0.2, p_out=0.02, seed=3)
    cfg = WalkConfig(num_walks=5, walk_length=8, hop=2, seed=4)
    counter = DrawCounter()
    generate_corpus(ingest_edges(rows), cfg, "mh", counter=counter)
    assert counter.draws > 0
    assert counter.overflows == counter.exhausted == 0
    # hub 0 <-> 1..20; its 2-hop frontier {21, 22} overflows a cap of 1, and
    # most guard expansions from it land back on the hub
    edges = ([(0, i) for i in range(1, 21)] + [(i, 0) for i in range(1, 21)]
             + [(1, 21), (2, 22)])
    counter = DrawCounter()
    generate_corpus(ingest_edges(rows_from_edges(edges)),
                    WalkConfig(num_walks=5, walk_length=8, hop=2, frontier_cap=1,
                               seed=4), "mh", counter=counter)
    assert counter.overflows > counter.exhausted > 0


# ---------------------------------------------------------------------------
# corpus generation
# ---------------------------------------------------------------------------

def test_corpus_counts_and_origins():
    g = ingest_edges(rows_from_edges([(0, 1), (1, 2), (2, 0)]))
    corpus = generate_corpus(g, WalkConfig(num_walks=2, walk_length=4, seed=1), "uniform")
    assert len(corpus) == 6
    assert [w[0] for w in corpus.walks] == [0, 0, 1, 1, 2, 2]
    for u in g.nodes():
        assert corpus.walks_containing([u])


def test_corpus_seed_determinism():
    rows = random_rows(30, 120, seed=10)
    g = ingest_edges(rows)
    cfg = WalkConfig(num_walks=3, walk_length=5, hop=2, seed=42)
    for mode in ("uniform", "mh"):
        a = generate_corpus(g, cfg, mode)
        b = generate_corpus(g, cfg, mode)
        assert a.walks == b.walks


def test_node_index_matches_rebuild_oracle():
    rows = random_rows(500, 1500, seed=14)
    g = ingest_edges(rows)
    corpus = generate_corpus(g, WalkConfig(num_walks=2, walk_length=5, seed=0), "uniform")
    oracle = {}
    for i, walk in enumerate(corpus.walks):
        for u in walk:
            oracle.setdefault(u, set()).add(i)
    assert corpus.node_index == oracle
    assert build_node_index(corpus.walks) == oracle


def test_edgeless_dump_gives_length_one_walks(tmp_path):
    path = tmp_path / "nodes.wfg"
    path.write_text("WALKFORGE-GRAPH v1 nodes=3 edges=0\nversion 0\nmaxts none\n"
                    "node 0 a\nnode 1 b\nnode 2 c\n")
    g = load_graph(path)
    for mode, hop in (("uniform", 1), ("mh", 1), ("mh", 2)):
        counter = DrawCounter()
        corpus = generate_corpus(g, WalkConfig(num_walks=2, hop=hop), mode, counter=counter)
        assert corpus.walks == [(0,), (0,), (1,), (1,), (2,), (2,)]
        assert counter.draws == 0


def test_empty_graph_rejected():
    g = ingest_edges([])
    with pytest.raises(Exception):
        generate_corpus(g, WalkConfig(), "uniform")


# ---------------------------------------------------------------------------
# resume
# ---------------------------------------------------------------------------

def test_resume_full_prefix_unchanged():
    g = ingest_edges(rows_from_edges([(0, 1), (1, 2)]))
    sampler = make_sampler(g, WalkConfig(walk_length=3), "uniform")
    assert resumed(sampler, [(0, 1, 2)], [0]) == [(0, 1, 2)]


def test_resume_forced_path():
    g = ingest_edges(rows_from_edges([(0, 1), (1, 2)]))
    sampler = make_sampler(g, WalkConfig(walk_length=3), "uniform")
    assert resumed(sampler, [(0,)], [0]) == [(0, 1, 2)]


def chi2_two_sample(counts_a, counts_b, min_expected=5.0):
    cats = sorted(set(counts_a) | set(counts_b))
    if len(cats) < 2:
        return 1.0
    a = np.array([counts_a.get(c, 0) for c in cats], dtype=float)
    b = np.array([counts_b.get(c, 0) for c in cats], dtype=float)
    keep = (a + b) >= 2 * min_expected
    a = np.append(a[keep], a[~keep].sum())
    b = np.append(b[keep], b[~keep].sum())
    if a[-1] + b[-1] == 0:
        a, b = a[:-1], b[:-1]
    if len(a) < 2:
        return 1.0
    return chi2_contingency(np.vstack([a, b]))[1]


def test_resumed_suffix_distribution_matches_truncated_fresh_walks():
    """Uniform stepping is memoryless: the continuation after a 2-node
    prefix must look like a fresh walk from the resume point, shortened by
    the prefix it carries."""
    edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 0), (2, 3), (3, 4), (3, 0)]
    g = ingest_edges(rows_from_edges(edges))
    cfg = WalkConfig(num_walks=1, walk_length=5, seed=0)
    sampler = make_sampler(g, cfg, "uniform")
    x = 1
    budget = cfg.walk_length - 2  # two-node prefix
    samples = 8_000
    suffixes = Counter(w[1:] for w in resumed(sampler, [(0, x)] * samples, range(samples)))
    fresh = Counter(uniform_walk(g, x, budget + 1, rng_(2 * i + 1)) for i in range(samples))
    assert chi2_two_sample(suffixes, fresh) > 0.01


# ---------------------------------------------------------------------------
# lengths and io
# ---------------------------------------------------------------------------

def test_mean_defacto_length():
    g = ingest_edges(rows_from_edges([(0, 1), (1, 2), (2, 3), (3, 4)]))
    corpus = generate_corpus(g, WalkConfig(num_walks=1, walk_length=5, seed=0), "uniform")
    # walks from the path: lengths 5,4,3,2,1
    assert mean_defacto_length(corpus) == 3.0


def test_corpus_round_trip(tmp_path):
    rows = random_rows(20, 80, seed=15)
    g = ingest_edges(rows)
    cfg = WalkConfig(num_walks=2, walk_length=5, hop=2, seed=6)
    corpus = generate_corpus(g, cfg, "mh")
    path = tmp_path / "c.wfw"
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    assert loaded.walks == corpus.walks
    assert (loaded.graph_version, loaded.n, loaded.l, loaded.mode) == \
           (corpus.graph_version, corpus.n, corpus.l, corpus.mode)
    assert loaded.node_index == corpus.node_index
    head = path.read_text().splitlines()[0]
    assert head == "WALKFORGE-WALKS v1 graph_version=0 n=2 l=5 mode=mh"


def test_corpus_bad_header(tmp_path):
    path = tmp_path / "bad.wfw"
    path.write_text("WALKFORGE-WALKS v1 graph_version=0 n=2 l=5 mode=warp\n0 1\n")
    with pytest.raises(ParseError):
        load_corpus(path)


def test_config_validation():
    with pytest.raises(ConfigError):
        WalkConfig(num_walks=0)
    with pytest.raises(ConfigError):
        WalkConfig(walk_length=1)
    with pytest.raises(ConfigError):
        WalkConfig(alpha_min=1.5)
    with pytest.raises(ConfigError):
        WalkConfig(target_stat="pagerank")
    with pytest.raises(ConfigError):
        WalkConfig(nominal_return=0.0)
