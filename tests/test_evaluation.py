import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from walkforge import (
    EmbeddingMatrix,
    InputError,
    LogRegConfig,
    ModeMismatchError,
    WalkConfig,
    accuracy_f1,
    balanced_sets,
    classify_eval,
    delta_mae,
    empirical_transitions,
    generate_corpus,
    ingest_edges,
    theoretical_transitions,
    train_logreg,
)
from walkforge.evaluation import _logreg_gradient
from walkforge.walks import WalkCorpus
from conftest import random_rows, rows_from_edges


def corpus_of(walks, num_nodes, mode="uniform"):
    return WalkCorpus([tuple(w) for w in walks], 0, 1, 5, mode, num_nodes)


# ---------------------------------------------------------------------------
# transition tables
# ---------------------------------------------------------------------------

def test_empirical_counts_single_walk():
    table = empirical_transitions(corpus_of([(0, 1, 2)], 3))
    assert table.counts == {(0, 1): 1, (1, 2): 1}
    assert table.row_totals == {0: 1, 1: 1}
    assert table.prob(0, 1) == 1.0 and table.prob(2, 0) == 0.0


def test_empirical_stub_walks_empty_table():
    table = empirical_transitions(corpus_of([(0,), (1,), (2,)], 3))
    assert not table.counts and not table.row_totals


def test_empirical_matches_pairwise_scan_oracle():
    rng = np.random.default_rng(0)
    walks = [tuple(int(x) for x in rng.integers(0, 15, size=rng.integers(1, 6)))
             for _ in range(200)]
    table = empirical_transitions(corpus_of(walks, 15))
    oracle, totals = {}, {}
    for w in walks:
        for i in range(len(w) - 1):
            oracle[(w[i], w[i + 1])] = oracle.get((w[i], w[i + 1]), 0) + 1
            totals[w[i]] = totals.get(w[i], 0) + 1
    assert table.counts == oracle
    assert table.row_totals == totals


def test_empirical_rows_normalize():
    rng = np.random.default_rng(1)
    walks = [tuple(int(x) for x in rng.integers(0, 10, size=5)) for _ in range(50)]
    table = empirical_transitions(corpus_of(walks, 10))
    for u in table.row_totals:
        total = sum(v / table.row_totals[u]
                    for (a, _), v in table.counts.items() if a == u)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_theoretical_is_inverse_out_degree():
    g = ingest_edges(rows_from_edges([(0, 1), (0, 2), (0, 3), (0, 4), (4, 0)]))
    theo = theoretical_transitions(g)
    assert theo[(0, 1)] == pytest.approx(0.25)
    assert theo[(4, 0)] == 1.0
    assert not any(src == 1 for src, _ in theo)  # sink contributes no rows
    rows = {}
    for (u, _), p in theo.items():
        rows[u] = rows.get(u, 0.0) + p
    assert all(abs(total - 1.0) < 1e-12 for total in rows.values())
    g = ingest_edges(random_rows(30, 120, seed=4))
    expected = {(u, v): 1.0 / len(g.out_neighbors(u))
                for u in g.nodes() for v in g.out_neighbors(u)}
    theo = theoretical_transitions(g)
    assert list(theo.items()) == list(expected.items())  # same keys, order, floats


def test_delta_mae_zero_for_exact_corpus():
    g = ingest_edges(rows_from_edges([(0, 1)]))
    table = empirical_transitions(corpus_of([(0, 1)] * 7, 2))
    assert delta_mae(table, theoretical_transitions(g)) == 0.0


def test_delta_mae_counts_unvisited_edges():
    g = ingest_edges(rows_from_edges([(0, 1), (0, 2)]))
    table = empirical_transitions(corpus_of([(0, 1)] * 4, 3))
    # P_hat(0,1)=1 vs 0.5 and P_hat(0,2)=0 vs 0.5
    assert delta_mae(table, theoretical_transitions(g)) == pytest.approx(0.5)


def test_delta_mae_rejects_mh_corpus():
    g = ingest_edges(rows_from_edges([(0, 1)]))
    table = empirical_transitions(corpus_of([(0, 1)], 2, mode="mh"))
    with pytest.raises(ModeMismatchError):
        delta_mae(table, theoretical_transitions(g))


def test_delta_mae_invariant_to_walk_order():
    g = ingest_edges(rows_from_edges([(0, 1), (1, 2), (2, 0), (0, 2)]))
    corpus = generate_corpus(g, WalkConfig(num_walks=20, walk_length=5, seed=2),
                             "uniform")
    theo = theoretical_transitions(g)
    base = delta_mae(empirical_transitions(corpus), theo)
    reversed_corpus = corpus_of(list(reversed(corpus.walks)), 3)
    assert delta_mae(empirical_transitions(reversed_corpus), theo) == base


def test_delta_mae_decreases_with_corpus_size():
    g = ingest_edges(rows_from_edges([(0, 1), (1, 2), (2, 0), (0, 2), (2, 1)]))
    theo = theoretical_transitions(g)
    medians = []
    for n in (100, 1000, 10000):
        deltas = []
        for seed in range(5):
            c = generate_corpus(g, WalkConfig(num_walks=n, walk_length=5, seed=seed),
                                "uniform")
            deltas.append(delta_mae(empirical_transitions(c), theo))
        medians.append(np.median(deltas))
    assert medians[0] > medians[1] > medians[2]


# ---------------------------------------------------------------------------
# logistic regression
# ---------------------------------------------------------------------------

def blobs(n, seed, gap=3.0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(-gap / 2, 1.0, size=(n, 2)),
                   rng.normal(gap / 2, 1.0, size=(n, 2))])
    y = np.concatenate([np.zeros(n), np.ones(n)])
    return X, y


def test_logreg_separable_blobs_perfect_train_accuracy():
    X, y = blobs(40, seed=3, gap=8.0)
    model = train_logreg(X, y, LogRegConfig(l2=1e-4))
    assert (model.predict(X) == y).mean() == 1.0


def test_logreg_identical_features_predict_prior():
    X = np.ones((30, 3))
    y = np.concatenate([np.zeros(10), np.ones(20)])
    model = train_logreg(X, y)
    assert np.abs(model.weights[:-1]).max() < 1e-3
    assert model.predict_proba(X[:1])[0] == pytest.approx(2 / 3, abs=0.01)


def test_logreg_reaches_stationarity():
    X, y = blobs(50, seed=4, gap=2.0)
    cfg = LogRegConfig()
    model = train_logreg(X, y, cfg)
    grad = _logreg_gradient(model.weights, X, y, cfg.l2)
    assert np.linalg.norm(grad) < 1e-5


def test_logreg_single_class_rejected():
    X = np.zeros((5, 2))
    with pytest.raises(InputError):
        train_logreg(X, np.ones(5))


# ---------------------------------------------------------------------------
# balanced protocol
# ---------------------------------------------------------------------------

def make_emb(n=40, d=6, seed=5):
    rng = np.random.default_rng(seed)
    return EmbeddingMatrix(rng.normal(size=(n, d)), np.zeros((n, d)))


def test_balanced_sets_sizes_and_disjointness():
    emb = make_emb()
    positives = set(range(10))
    sets = balanced_sets(emb, positives, repeats=3, seed=0)
    assert len(sets) == 3
    for ids, labels in sets:
        assert len(ids) == 20 and labels.sum() == 10
        negatives = set(ids[labels == 0].tolist())
        assert not negatives & positives
        assert len(negatives) == 10  # without replacement


def test_balanced_sets_reproducible():
    emb = make_emb()
    a = balanced_sets(emb, set(range(10)), repeats=3, seed=7)
    b = balanced_sets(emb, set(range(10)), repeats=3, seed=7)
    for (ia, la), (ib, lb) in zip(a, b):
        assert np.array_equal(ia, ib) and np.array_equal(la, lb)


def test_balanced_sets_insufficient_negatives():
    emb = make_emb(n=12)
    with pytest.raises(InputError):
        balanced_sets(emb, set(range(10)), repeats=1, seed=0)


def test_accuracy_f1_against_definitions():
    y_true = np.array([1, 1, 0, 0, 1, 0, 1, 0])
    y_pred = np.array([1, 0, 0, 1, 1, 0, 0, 0])
    acc, f1 = accuracy_f1(y_true, y_pred)
    tp, fp, fn = 2, 1, 2
    precision, recall = tp / (tp + fp), tp / (tp + fn)
    assert acc == pytest.approx(5 / 8)
    assert f1 == pytest.approx(2 * precision * recall / (precision + recall))


def test_classify_eval_perfectly_separable():
    d = 4
    inp = np.vstack([np.ones((12, d)), -np.ones((24, d))])
    emb = EmbeddingMatrix(inp, np.zeros_like(inp))
    report = classify_eval(emb, set(range(12)), repeats=4, seed=1)
    assert report.accuracy == 1.0 and report.f1 == 1.0
    assert len(report.per_repeat) == 4


def test_classify_eval_noise_is_chance_level():
    emb = make_emb(n=60, d=16, seed=6)
    report = classify_eval(emb, set(range(30)), repeats=10, seed=2)
    assert abs(report.accuracy - 0.5) <= 0.15


def test_classify_eval_self_consistent_metrics():
    emb = make_emb(n=50, d=8, seed=8)
    report = classify_eval(emb, set(range(15)), repeats=6, seed=3)
    assert report.accuracy == pytest.approx(
        np.mean([r["accuracy"] for r in report.per_repeat]))
    assert report.f1 == pytest.approx(np.mean([r["f1"] for r in report.per_repeat]))
    assert 0.0 <= report.f1 <= 1.0 and 0.0 <= report.accuracy <= 1.0


def test_classify_eval_stratified_split_sizes():
    emb = make_emb(n=40, d=4, seed=9)
    report = classify_eval(emb, set(range(10)), split=0.8, repeats=2, seed=4)
    for rec in report.per_repeat:
        assert rec["train_size"] == 16 and rec["test_size"] == 4


MH_PIPELINE = """
import sys
from walkforge import (SkipGramConfig, WalkConfig, apply_batch, classify_eval,
                       generate_corpus, ingest_edges, train, unbiased_update)
from walkforge.synth import sbm_stream
rows, labels = sbm_stream((20, 20), p_in=0.3, p_out=0.02, seed=1)
cut = len(rows) * 3 // 4
g = ingest_edges(rows[:cut])
cfg = WalkConfig(num_walks=4, walk_length=6, hop=2, seed=1)
corpus = generate_corpus(g, cfg, "mh")
g2, delta = apply_batch(g, rows[cut:])
corpus = unbiased_update(corpus, g2, delta, cfg, "mh")
emb = train(corpus, SkipGramConfig(dim=8, seed=1))
classify_eval(emb, {g2.id_of(a) for a, b in labels.items() if b == 0}, repeats=2)
print("numpy.ma" in sys.modules)
"""


def test_mh_pipeline_leaves_numpy_ma_unimported():
    """numpy.ma costs about 1 MB and 10-20 ms to import; np.unique without
    optional outputs imports it, and so does np.isin when it sorts."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", MH_PIPELINE], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"
