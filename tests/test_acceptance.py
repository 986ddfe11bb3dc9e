"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The segment experiment backing criteria 1, 2 and 8
is computed once per session.
"""

import time
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from walkforge import (
    WalkConfig,
    SkipGramConfig,
    apply_batch,
    classify_eval,
    delta_mae,
    empirical_transitions,
    generate_corpus,
    ingest_edges,
    leap_transition_matrix,
    mean_defacto_length,
    theoretical_transitions,
    train,
)
from walkforge.cli import main
from walkforge.graph import segment_sizes
from walkforge.incremental import DrawCounter, naive_update, unbiased_update
from walkforge.synth import preferential_attachment_stream, sbm_stream, sink_heavy_stream
from walkforge.walks import LeapSampler, make_sampler
from conftest import resumed, rows_from_edges, uniform_walk


def verdict(num, name, passed, detail=""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


# ---------------------------------------------------------------------------
# shared segment experiment (criteria 1, 2, 8)
# ---------------------------------------------------------------------------

SCRATCH_SEED = 11
CALIBRATION_SEEDS = (11, 77, 23)


@pytest.fixture(scope="module")
def segment_experiment():
    rows = preferential_attachment_stream(1000, seed=4)
    sizes = segment_sizes(len(rows), 0.5, 0.05)
    assert len(sizes) == 11
    base = WalkConfig(num_walks=10, walk_length=5)
    cfg = {s: base.with_seed(s) for s in CALIBRATION_SEEDS}

    def mae(corpus, g):
        return delta_mae(empirical_transitions(corpus), theoretical_transitions(g))

    t0 = time.perf_counter()
    g = ingest_edges(rows[:sizes[0]])
    unbiased = generate_corpus(g, cfg[SCRATCH_SEED], "uniform")
    naive = generate_corpus(g, cfg[SCRATCH_SEED], "uniform")
    devs, seed_diffs, ratios, naive_gaps = [], [], [], []
    for lo, hi in zip(sizes, sizes[1:]):
        g_next, delta = apply_batch(g, rows[lo:hi])
        update_work, scratch_work = DrawCounter(), DrawCounter()
        unbiased = unbiased_update(unbiased, g_next, delta, cfg[SCRATCH_SEED],
                                   "uniform", counter=update_work)
        naive = naive_update(naive, g_next, delta, cfg[SCRATCH_SEED],
                             "uniform")
        scratch = {s: generate_corpus(
            g_next, cfg[s], "uniform",
            counter=scratch_work if s == SCRATCH_SEED else None)
            for s in CALIBRATION_SEEDS}
        d = {s: mae(scratch[s], g_next) for s in CALIBRATION_SEEDS}
        devs.append(abs(mae(unbiased, g_next) - d[SCRATCH_SEED]))
        a, b, c = (d[s] for s in CALIBRATION_SEEDS)
        seed_diffs += [abs(a - b), abs(a - c), abs(b - c)]
        ratios.append(update_work.draws / scratch_work.draws)
        naive_gaps.append(mae(naive, g_next) - d[SCRATCH_SEED])
        g = g_next
    return {
        "devs": devs,
        "spread": float(np.mean(seed_diffs)),
        "ratios": ratios,
        "naive_gaps": naive_gaps,
        "runtime": time.perf_counter() - t0,
        "num_nodes": g.num_nodes,
    }


def test_criterion_01_unbiased_update_equivalence(segment_experiment):
    exp = segment_experiment
    tolerance = 0.005
    per_segment_ok = max(exp["devs"]) <= tolerance
    calibrated = tolerance >= 3 * exp["spread"]
    fast_enough = exp["runtime"] < 120
    verdict(1, "unbiased-update equivalence", per_segment_ok and calibrated
            and fast_enough,
            f"max|d_unb-d_scr|={max(exp['devs']):.4f} "
            f"3x seed spread={3 * exp['spread']:.4f} "
            f"runtime={exp['runtime']:.1f}s nodes={exp['num_nodes']}")


def test_criterion_02_naive_inferiority(segment_experiment):
    exp = segment_experiment
    positives = sum(1 for gap in exp["naive_gaps"] if gap > 0)
    mean_naive = float(np.mean(exp["naive_gaps"]))
    mean_unbiased = float(np.mean(exp["devs"]))
    verdict(2, "naive-update inferiority",
            mean_naive > mean_unbiased and positives >= 9,
            f"mean naive gap={mean_naive:.4f} vs unbiased={mean_unbiased:.4f}, "
            f"positive in {positives}/10 segments")


def test_criterion_08_incremental_work_savings(segment_experiment):
    exp = segment_experiment
    verdict(8, "incremental work savings",
            max(exp["ratios"]) <= 0.30,
            f"max draws ratio={max(exp['ratios']):.3f} over 10 increments")


# ---------------------------------------------------------------------------
# criterion 3: chain exactness
# ---------------------------------------------------------------------------

CHAIN_FIXTURES = {
    "cycle5_chords": [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (2, 4), (3, 1)],
    "mixed6": [(0, 2), (0, 3), (1, 4), (2, 1), (3, 0), (4, 2), (4, 3)],
    "two_rings8": [(i, (i + 1) % 8) for i in range(8)] + [(0, 4), (4, 0),
                                                          (2, 6), (6, 2)],
}


def _strongly_connected_support(P):
    reach = (P > 0) | np.eye(len(P), dtype=bool)
    for _ in range(len(P)):
        reach = reach | (reach @ reach)
    return bool(reach.all())


def test_criterion_03_mh_chain_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(0)
    for name, edges in CHAIN_FIXTURES.items():
        g = ingest_edges(rows_from_edges(edges, value=2.0))
        assert all(g.shortest_hop(u, v, cap=8) is not None
                   for u in g.nodes() for v in g.nodes())  # strongly connected
        for hop in (1, 2):
            cfg = WalkConfig(hop=hop, alpha_min=0.0, target_stat="V_in", seed=0)
            P = leap_transition_matrix(g, cfg)
            # the leap chain itself must be irreducible or rows would go
            # unsampled however long the simulation runs
            assert _strongly_connected_support(P - np.diag(np.diag(P)))
            n = g.num_nodes
            counts = np.zeros(n * n)
            sampler = LeapSampler(g, cfg)
            curr = np.zeros(1000, dtype=np.intp)  # 1000 chains from node 0
            for _ in range(1000):
                nxt = sampler.step(curr, rng.random((len(curr), 2)))
                counts += np.bincount(curr * n + nxt, minlength=n * n)
                curr = nxt
            counts = counts.reshape(n, n)
            empirical = counts / counts.sum(axis=1, keepdims=True)
            assert np.isfinite(empirical).all()
            worst = max(worst, float(np.abs(empirical - P).max()))
    runtime = time.perf_counter() - t0
    verdict(3, "MH chain exactness", worst <= 0.01 and runtime < 30,
            f"worst entrywise gap={worst:.4f} runtime={runtime:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: detailed balance in the symmetric regime
# ---------------------------------------------------------------------------

BALANCE_FIXTURES = {
    ("two_cycle", 1): [(0, 1), (1, 0)],
    ("four_cycle", 2): [(0, 1), (1, 2), (2, 3), (3, 0)],
    ("bidirected_hexagon", 1): [(i, (i + 1) % 6) for i in range(6)]
                               + [((i + 1) % 6, i) for i in range(6)],
    ("complete_k4", 1): [(u, v) for u in range(4) for v in range(4) if u != v],
}


def test_criterion_04_detailed_balance():
    rng = np.random.default_rng(5)
    worst = 0.0
    for (name, hop), edges in BALANCE_FIXTURES.items():
        rows = [(f"n{u}", f"n{v}", round(float(rng.uniform(0.5, 4.0)), 3), ts)
                for ts, (u, v) in enumerate(edges)]
        g = ingest_edges(rows)
        sizes = {len(g.h_hop_frontier(u, hop)) for u in g.nodes()}
        assert len(sizes) == 1  # constant frontier size, per the regime
        for stat in ("V_in", "F", "D_in"):
            cfg = WalkConfig(hop=hop, alpha_min=0.0, target_stat=stat,
                             proposal="S", seed=0)
            P = leap_transition_matrix(g, cfg)
            target = np.array([g.node_stat(u, stat) + cfg.stat_smoothing
                               for u in g.nodes()])
            flux = target[:, None] * P
            off_diag = ~np.eye(g.num_nodes, dtype=bool)
            worst = max(worst, float(np.abs(flux - flux.T)[off_diag].max()))
    verdict(4, "detailed balance (symmetric regime)", worst <= 1e-9,
            f"max |p(u)P(u,v) - p(v)P(v,u)| = {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 5: skip-gram gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_05_gradient_correctness():
    from walkforge.embedding import sgns_loss_grads, softmax_loss_grads

    def worst_error(loss_fn, inp, out, step=1e-4):
        _, d_inp, d_out = loss_fn(inp, out)
        worst = 0.0
        for mat, grad in ((inp, d_inp), (out, d_out)):
            flat, gflat = mat.ravel(), grad.ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + step
                up = loss_fn(inp, out)[0]
                flat[idx] = orig - step
                down = loss_fn(inp, out)[0]
                flat[idx] = orig
                numeric = (up - down) / (2 * step)
                scale = max(abs(numeric), abs(gflat[idx]), 1e-8)
                worst = max(worst, abs(numeric - gflat[idx]) / scale)
        return worst

    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(20):
        inp = rng.normal(scale=0.8, size=(10, 4))
        out = rng.normal(scale=0.8, size=(10, 4))
        centers = rng.integers(10, size=12)
        contexts = rng.integers(10, size=12)
        negatives = rng.integers(10, size=(12, 3))
        worst = max(worst, worst_error(
            lambda i, o: softmax_loss_grads(i, o, centers, contexts), inp, out))
        worst = max(worst, worst_error(
            lambda i, o: sgns_loss_grads(i, o, centers, contexts, negatives),
            inp, out))
    verdict(5, "skip-gram gradient correctness", worst <= 1e-4,
            f"worst relative error={worst:.2e} over 20 draws x 2 objectives")


# ---------------------------------------------------------------------------
# criterion 6: end-to-end classification on the planted SBM
# ---------------------------------------------------------------------------

def test_criterion_06_sbm_classification():
    rows, labels = sbm_stream(sizes=(30, 30), p_in=0.3, p_out=0.01, seed=100)
    g = ingest_edges(rows)
    assert g.num_nodes == 60
    positives = {u for u in g.nodes() if labels[g.address_of(u)] == 0}
    scores = {"mh": [], "uniform": []}
    for mode in scores:
        for seed in range(5):
            wc = WalkConfig(num_walks=3, walk_length=5, hop=2, alpha_min=0.5,
                            target_stat="D_in", proposal="S", seed=seed)
            corpus = generate_corpus(g, wc, mode)
            emb = train(corpus, SkipGramConfig(dim=64, window=5, epochs=5,
                                               negatives=5, seed=seed))
            scores[mode].append(classify_eval(emb, positives, split=0.8,
                                              repeats=5, seed=seed).f1)
    mh_hits = sum(1 for f1 in scores["mh"] if f1 >= 0.85)
    uni_hits = sum(1 for f1 in scores["uniform"] if f1 >= 0.80)
    verdict(6, "end-to-end SBM classification",
            mh_hits >= 4 and uni_hits >= 4,
            f"MH F1>=0.85 in {mh_hits}/5 seeds "
            f"(vals={[round(x, 3) for x in scores['mh']]}), "
            f"uniform F1>=0.80 in {uni_hits}/5")


# ---------------------------------------------------------------------------
# criterion 7: de-facto walk length ordering
# ---------------------------------------------------------------------------

def test_criterion_07_defacto_length_ordering():
    wins = 0
    lengths = []
    for seed in range(5):
        rows = sink_heavy_stream(200, sink_frac=0.3, seed=seed + 50)
        g = ingest_edges(rows)
        sinks = sum(1 for u in g.nodes() if not g.out_neighbors(u))
        assert sinks == 60  # 30% of the family is dead ends
        wc = WalkConfig(num_walks=5, walk_length=5, hop=2, alpha_min=0.5,
                        target_stat="D_out", seed=seed)
        mh_len = mean_defacto_length(generate_corpus(g, wc, "mh"))
        uni_len = mean_defacto_length(generate_corpus(g, wc, "uniform"))
        lengths.append((round(mh_len, 2), round(uni_len, 2)))
        wins += mh_len >= uni_len
    verdict(7, "de-facto length ordering", wins >= 4,
            f"MH vs uniform mean lengths {lengths}, MH >= uniform in {wins}/5")


# ---------------------------------------------------------------------------
# criterion 9: CLI determinism
# ---------------------------------------------------------------------------

def test_criterion_09_cli_determinism(tmp_path, capsys):
    import csv as csv_mod
    rows = preferential_attachment_stream(120, core=10, seed=3)
    edges = tmp_path / "edges.csv"
    with open(edges, "w", newline="") as fh:
        writer = csv_mod.writer(fh)
        writer.writerow(["src", "dst", "value", "timestamp"])
        writer.writerows(rows)
    labels = tmp_path / "labels.csv"
    with open(labels, "w", newline="") as fh:
        writer = csv_mod.writer(fh)
        writer.writerow(["address", "label"])
        for i in range(0, 40, 2):
            writer.writerow([f"a{i:05d}", 1])

    def pipeline(tag):
        d = tmp_path / tag
        d.mkdir()
        out = {}
        main(["ingest", str(edges), "--out", str(d / "g.wfg"),
              "--strict-deterministic"])
        main(["segment", str(edges), "--outdir", str(d / "segs"),
              "--initial", "0.5", "--step", "0.25", "--strict-deterministic"])
        main(["walk", str(d / "segs" / "segment_000.wfg"), "--mode", "mh",
              "--h", "2", "--alpha-min", "0.5", "--n", "3", "--l", "5",
              "--seed", "5", "--strict-deterministic", "--out", str(d / "c0.wfw")])
        capsys.readouterr()
        main(["update", "--corpus", str(d / "c0.wfw"),
              "--graph-prev", str(d / "segs" / "segment_000.wfg"),
              "--graph-next", str(d / "segs" / "segment_001.wfg"),
              "--strategy", "unbiased", "--mode", "mh", "--h", "2",
              "--alpha-min", "0.5", "--n", "3", "--l", "5", "--seed", "5",
              "--strict-deterministic", "--out", str(d / "c1.wfw")])
        out["update_report"] = capsys.readouterr().out
        main(["train", str(d / "c1.wfw"), "--graph",
              str(d / "segs" / "segment_001.wfg"), "--dim", "16", "--epochs", "3",
              "--seed", "5", "--strict-deterministic", "--out", str(d / "emb.txt")])
        main(["walk", str(d / "segs" / "segment_001.wfg"), "--mode", "uniform",
              "--n", "3", "--seed", "5", "--strict-deterministic",
              "--out", str(d / "u1.wfw")])
        main(["eval", "mae", "--corpus", str(d / "u1.wfw"),
              "--graph", str(d / "segs" / "segment_001.wfg"),
              "--strict-deterministic", "--out", str(d / "mae.json")])
        main(["eval", "classify", "--embeddings", str(d / "emb.txt"),
              "--labels", str(labels), "--repeats", "3", "--seed", "5",
              "--strict-deterministic", "--out", str(d / "cls.json")])
        for name in ("g.wfg", "segs/manifest.json", "segs/segment_000.wfg",
                     "segs/segment_001.wfg", "c0.wfw", "c1.wfw", "emb.txt",
                     "u1.wfw", "mae.json", "cls.json"):
            out[name] = (d / name).read_bytes()
        capsys.readouterr()
        return out

    first = pipeline("run1")
    second = pipeline("run2")
    mismatched = [k for k in first if first[k] != second[k]]
    verdict(9, "CLI determinism", not mismatched,
            f"{len(first)} artifacts compared"
            + (f", mismatched: {mismatched}" if mismatched else ""))


# ---------------------------------------------------------------------------
# criterion 10: suffix distribution unbiasedness
# ---------------------------------------------------------------------------

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


def test_criterion_10_suffix_unbiasedness():
    edges = [(0, 1), (0, 2), (1, 2), (1, 3), (1, 0), (2, 0), (2, 3), (3, 0),
             (3, 4), (3, 2)]
    g = ingest_edges(rows_from_edges(edges))
    cfg = WalkConfig(num_walks=1, walk_length=5, seed=0)
    sampler = make_sampler(g, cfg, "uniform")
    samples = 10_000
    # walk node * samples + i is the i-th resumed from node, in one call
    walks = resumed(sampler, [(node,) for node in g.nodes() for _ in range(samples)],
                    range(g.num_nodes * samples))
    p_values = []
    for node in g.nodes():
        fresh = Counter()
        for i in range(samples):
            rng = np.random.default_rng(np.random.SeedSequence(71, spawn_key=(node, i)))
            fresh[uniform_walk(g, node, cfg.walk_length, rng)] += 1
        resumes = Counter(walks[node * samples:(node + 1) * samples])
        p_values.append(float(chi2_two_sample(fresh, resumes)))
    accepted = sum(1 for p in p_values if p > 0.01)
    verdict(10, "suffix distribution unbiasedness", accepted >= 4,
            f"chi-square p-values={[round(p, 3) for p in p_values]}, "
            f"accepted {accepted}/5 nodes at p=0.01")
