import math

import numpy as np
import pytest
from scipy.cluster.vq import kmeans2

from walkforge import (
    ConfigError,
    EmbeddingMatrix,
    ParseError,
    SkipGramConfig,
    WalkConfig,
    context_pairs,
    decode_prob,
    export_embeddings,
    generate_corpus,
    import_embeddings,
    ingest_edges,
    nll_loss,
    train,
    warm_retrain,
)
from walkforge.embedding import (
    _ROW_HITS,
    _minibatch_sgd,
    _noise_cdf,
    sgns_loss_grads,
    softmax_loss_grads,
)
from walkforge.synth import preferential_attachment_stream, sbm_stream
from walkforge.walks import WalkCorpus
from conftest import rows_from_edges


def corpus_of(walks, num_nodes, l=5):
    return WalkCorpus([tuple(w) for w in walks], 0, 1, l, "uniform", num_nodes)


# ---------------------------------------------------------------------------
# pair extraction
# ---------------------------------------------------------------------------

def test_context_pairs_window_one():
    c = corpus_of([(0, 1, 2)], 3)
    assert context_pairs(c, 1).tolist() == [[0, 1], [1, 0], [1, 2], [2, 1]]


def test_context_pairs_skip_stubs():
    assert context_pairs(corpus_of([(4,)], 5), 3).tolist() == []


def test_context_pairs_match_double_loop_oracle():
    rng = np.random.default_rng(0)
    walks = [tuple(int(x) for x in rng.integers(0, 20, size=rng.integers(1, 8)))
             for _ in range(100)]
    c = corpus_of(walks, 20)
    window = 3
    oracle = []
    for w in walks:
        for i in range(len(w)):
            for j in range(len(w)):
                if i != j and abs(i - j) <= window:
                    oracle.append((w[i], w[j]))
    assert sorted(map(tuple, context_pairs(c, window).tolist())) == sorted(oracle)


def corpus_order_oracle(walks, window, min_count=1):
    """Nested loops over the walks after dropping rare nodes."""
    freq = {}
    for w in walks:
        for u in w:
            freq[u] = freq.get(u, 0) + 1
    pairs = []
    for w in walks:
        w = [u for u in w if freq[u] >= min_count]
        for i in range(len(w)):
            for j in range(max(0, i - window), min(len(w), i + window + 1)):
                if j != i:
                    pairs.append([w[i], w[j]])
    return pairs


@pytest.mark.parametrize("window,min_count", [(1, 1), (3, 1), (2, 2), (4, 3)])
def test_context_pairs_corpus_order_matches_loop_oracle(window, min_count):
    rng = np.random.default_rng(window * 10 + min_count)
    walks = [tuple(int(x) for x in rng.integers(0, 20, size=rng.integers(1, 8)))
             for _ in range(100)]
    # length-1 walks give no pairs; 20 and 21 occur once and 22 twice, so
    # min_count closes the gap in (3, 20, 21, 4) and can empty a walk
    walks += [(5,), (19,), (3, 20, 21, 4), (22, 7), (22,)]
    pairs = context_pairs(corpus_of(walks, 23), window, min_count)
    assert pairs.dtype == np.intp and pairs.shape[1] == 2
    assert pairs.tolist() == corpus_order_oracle(walks, window, min_count)


# ---------------------------------------------------------------------------
# decoder
# ---------------------------------------------------------------------------

def test_decode_prob_uniform_for_zero_vectors():
    emb = EmbeddingMatrix(np.zeros((4, 2)), np.zeros((4, 2)))
    assert decode_prob(emb, 0, 1) == pytest.approx(0.25)


def test_decode_prob_rows_normalize():
    rng = np.random.default_rng(1)
    emb = EmbeddingMatrix(rng.normal(size=(7, 3)), rng.normal(size=(7, 3)))
    for u in range(7):
        total = sum(decode_prob(emb, u, v) for v in range(7))
        assert total == pytest.approx(1.0, abs=1e-9)


def test_decode_prob_hand_computed():
    inp = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    out = np.array([[0.2, -0.1], [0.3, 0.4], [-0.2, 0.1]])
    scores = [math.exp(np.dot(inp[0], out[k])) for k in range(3)]
    expected = scores[1] / sum(scores)
    emb = EmbeddingMatrix(inp, out)
    assert decode_prob(emb, 0, 1) == pytest.approx(expected, rel=1e-12)


def test_nll_loss_uniform_is_log_vocab():
    emb = EmbeddingMatrix(np.zeros((4, 2)), np.zeros((4, 2)))
    pairs = [(0, 1), (2, 3), (1, 0)]
    assert nll_loss(emb, pairs) == pytest.approx(math.log(4))
    assert nll_loss(emb, np.array(pairs)) == pytest.approx(math.log(4))


def test_nll_loss_order_invariant():
    rng = np.random.default_rng(2)
    emb = EmbeddingMatrix(rng.normal(size=(6, 4)), rng.normal(size=(6, 4)))
    pairs = [(int(a), int(b)) for a, b in rng.integers(0, 6, size=(30, 2))]
    shuffled = list(pairs)
    rng.shuffle(shuffled)
    assert nll_loss(emb, pairs) == pytest.approx(nll_loss(emb, shuffled))
    assert nll_loss(emb, np.array(pairs)) == nll_loss(emb, pairs)


# ---------------------------------------------------------------------------
# gradients vs central finite differences
# ---------------------------------------------------------------------------

def finite_difference_worst_error(loss_fn, inp, out, step=1e-4):
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


def test_softmax_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    inp = rng.normal(scale=0.8, size=(10, 4))
    out = rng.normal(scale=0.8, size=(10, 4))
    centers = rng.integers(10, size=15)
    contexts = rng.integers(10, size=15)
    err = finite_difference_worst_error(
        lambda i, o: softmax_loss_grads(i, o, centers, contexts), inp, out)
    assert err <= 1e-4


def test_sgns_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    inp = rng.normal(scale=0.8, size=(10, 4))
    out = rng.normal(scale=0.8, size=(10, 4))
    centers = rng.integers(10, size=15)
    contexts = rng.integers(10, size=15)
    negatives = rng.integers(10, size=(15, 3))
    err = finite_difference_worst_error(
        lambda i, o: sgns_loss_grads(i, o, centers, contexts, negatives), inp, out)
    assert err <= 1e-4


# ---------------------------------------------------------------------------
# one trainer step is one step along the checked gradients
# ---------------------------------------------------------------------------

def one_batch_problem(seed):
    """12 pairs over 20 nodes: a single batch, since the batch is >= 16."""
    rng = np.random.default_rng(seed)
    inp = rng.normal(scale=0.3, size=(20, 4))
    out = rng.normal(scale=0.3, size=(20, 4))
    pairs = rng.integers(20, size=(12, 2))
    return inp, out, pairs


def test_trainer_step_is_sgns_gradient_step():
    inp, out, pairs = one_batch_problem(5)
    cfg = SkipGramConfig(dim=4, learning_rate=0.1, epochs=1, negatives=3)
    noise_cdf = _noise_cdf(np.arange(1, 21))
    # the trainer's draw, from the same stream
    negatives = np.searchsorted(noise_cdf, np.random.default_rng(6).random((12, 3)))
    assert np.bincount(np.concatenate([pairs.ravel(), negatives.ravel()])).max() <= _ROW_HITS
    _, d_inp, d_out = sgns_loss_grads(inp, out, pairs[:, 0], pairs[:, 1], negatives)
    want_inp = inp - 0.1 * 12 * d_inp
    want_out = out - 0.1 * 12 * d_out
    _minibatch_sgd(inp, out, pairs, cfg, noise_cdf, np.random.default_rng(6))
    assert np.allclose(inp, want_inp, rtol=0, atol=1e-12)
    assert np.allclose(out, want_out, rtol=0, atol=1e-12)


def test_trainer_step_caps_row_hits():
    inp, out, pairs = one_batch_problem(9)
    pairs[:, 0] = 0  # input row 0 is hit 12 times, above the cap
    cfg = SkipGramConfig(dim=4, learning_rate=0.1, epochs=1, negatives=3)
    noise_cdf = _noise_cdf(np.arange(1, 21))
    negatives = np.searchsorted(noise_cdf, np.random.default_rng(6).random((12, 3)))
    _, d_inp, _ = sgns_loss_grads(inp, out, pairs[:, 0], pairs[:, 1], negatives)
    want = inp - 0.1 * 12 * d_inp * (_ROW_HITS / 12)
    _minibatch_sgd(inp, out, pairs, cfg, noise_cdf, np.random.default_rng(6))
    assert np.allclose(inp, want, rtol=0, atol=1e-12)


def test_trainer_step_is_softmax_gradient_step():
    inp, out, pairs = one_batch_problem(7)
    cfg = SkipGramConfig(dim=4, learning_rate=0.1, epochs=1, negatives=0)
    _, d_inp, d_out = softmax_loss_grads(inp, out, pairs[:, 0], pairs[:, 1])
    want_inp = inp - 0.1 * 12 * d_inp
    want_out = out - 0.1 * 12 * d_out
    _minibatch_sgd(inp, out, pairs, cfg, None, np.random.default_rng(8))
    assert np.allclose(inp, want_inp, rtol=0, atol=1e-12)
    assert np.allclose(out, want_out, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def two_clique_graph():
    rows = []
    ts = 0
    for base in (0, 5):
        for u in range(5):
            for v in range(5):
                if u != v:
                    rows.append((f"c{base + u}", f"c{base + v}", 1.0, ts))
                    ts += 1
    return ingest_edges(rows)


def test_training_separates_disconnected_cliques():
    g = two_clique_graph()
    block = np.array([0] * 5 + [1] * 5)
    for seed in range(5):
        corpus = generate_corpus(
            g, WalkConfig(num_walks=10, walk_length=5, seed=seed), "uniform")
        emb = train(corpus, SkipGramConfig(dim=16, window=5, epochs=5,
                                           negatives=5, seed=seed))
        V = emb.input_vectors
        V = V / np.linalg.norm(V, axis=1, keepdims=True)
        cos = V @ V.T
        intra = cos[(block[:, None] == block) & ~np.eye(10, dtype=bool)].mean()
        inter = cos[block[:, None] != block].mean()
        assert intra - inter >= 0.2


def test_training_is_deterministic():
    g = two_clique_graph()
    corpus = generate_corpus(g, WalkConfig(num_walks=4, walk_length=5, seed=1), "uniform")
    cfg = SkipGramConfig(dim=8, window=3, epochs=2, negatives=5, seed=9)
    a = train(corpus, cfg)
    b = train(corpus, cfg)
    assert np.array_equal(a.input_vectors, b.input_vectors)
    assert np.array_equal(a.output_vectors, b.output_vectors)


def test_full_softmax_loss_decreases():
    g = ingest_edges(rows_from_edges([(0, 1), (1, 2), (2, 0), (0, 2)]))
    corpus = generate_corpus(g, WalkConfig(num_walks=5, walk_length=5, seed=0), "uniform")
    pairs = context_pairs(corpus, 5)
    before = train(corpus, SkipGramConfig(dim=8, window=5, epochs=0, negatives=0, seed=1))
    after = train(corpus, SkipGramConfig(dim=8, window=5, epochs=5, negatives=0, seed=1))
    assert nll_loss(after, pairs) < nll_loss(before, pairs)


def test_training_output_is_finite():
    g = two_clique_graph()
    corpus = generate_corpus(g, WalkConfig(num_walks=6, walk_length=5, seed=2), "uniform")
    emb = train(corpus, SkipGramConfig(dim=32, window=5, learning_rate=0.05,
                                       epochs=10, negatives=5, seed=2))
    assert np.isfinite(emb.input_vectors).all()
    assert np.isfinite(emb.output_vectors).all()


def test_hub_heavy_training_is_stable():
    # the merchant core of a preferential-attachment stream is the context
    # or a negative of most pairs; uncapped summed steps diverge here
    g = ingest_edges(preferential_attachment_stream(200, seed=3))
    corpus = generate_corpus(g, WalkConfig(num_walks=5, walk_length=10, seed=3), "uniform")
    pairs = context_pairs(corpus, 5)
    before = train(corpus, SkipGramConfig(epochs=0))
    after = train(corpus, SkipGramConfig())
    assert np.isfinite(after.input_vectors).all()
    assert np.isfinite(after.output_vectors).all()
    assert nll_loss(after, pairs) < nll_loss(before, pairs) - 0.5


def test_sbm_block_recovery_ari():
    rows, labels = sbm_stream(sizes=(30, 30), p_in=0.3, p_out=0.01, seed=100)
    g = ingest_edges(rows)
    truth = np.array([labels[g.address_of(u)] for u in g.nodes()])

    def ari(a, b):
        from math import comb
        pairs = {}
        for x, y in zip(a, b):
            pairs[(x, y)] = pairs.get((x, y), 0) + 1
        index = sum(comb(c, 2) for c in pairs.values())
        aa = sum(comb(int(np.sum(a == x)), 2) for x in set(a))
        bb = sum(comb(int(np.sum(b == y)), 2) for y in set(b))
        expected = aa * bb / comb(len(a), 2)
        return (index - expected) / ((aa + bb) / 2 - expected)

    hits = 0
    for seed in range(5):
        corpus = generate_corpus(
            g, WalkConfig(num_walks=3, walk_length=5, hop=2, alpha_min=0.5,
                          target_stat="D_in", seed=seed), "mh")
        emb = train(corpus, SkipGramConfig(dim=64, window=5, epochs=5,
                                           negatives=5, seed=seed))
        _, assign = kmeans2(emb.input_vectors, 2, minit="++", seed=seed)
        hits += ari(truth, assign) >= 0.8
    assert hits >= 4


# ---------------------------------------------------------------------------
# warm retrain
# ---------------------------------------------------------------------------

def test_warm_retrain_zero_epochs_is_identity_for_old_rows():
    g = two_clique_graph()
    corpus = generate_corpus(g, WalkConfig(num_walks=3, walk_length=5, seed=3), "uniform")
    cfg = SkipGramConfig(dim=8, window=3, epochs=1, negatives=5, seed=4)
    prev = train(corpus, cfg)
    frozen = warm_retrain(prev, corpus, SkipGramConfig(dim=8, window=3, epochs=0,
                                                       negatives=5, seed=4))
    assert np.array_equal(frozen.input_vectors, prev.input_vectors)


def test_warm_retrain_initializes_new_rows():
    g = two_clique_graph()
    cfg = SkipGramConfig(dim=8, window=3, epochs=1, negatives=5, seed=5)
    corpus = generate_corpus(g, WalkConfig(num_walks=3, walk_length=5, seed=5), "uniform")
    prev = train(corpus, cfg)
    bigger = WalkCorpus(corpus.walks + [(10,), (10,)], 1, 3, 5, "uniform", 11)
    warm = warm_retrain(prev, bigger, SkipGramConfig(dim=8, window=3, epochs=0,
                                                     negatives=5, seed=5))
    assert warm.num_nodes == 11
    assert np.array_equal(warm.input_vectors[:10], prev.input_vectors)
    assert np.abs(warm.input_vectors[10]).max() <= 0.5 / 8


def test_warm_retrain_f1_close_to_cold():
    rows, labels = sbm_stream(sizes=(30, 30), p_in=0.3, p_out=0.01, seed=100)
    g = ingest_edges(rows)
    positives = {u for u in g.nodes() if labels[g.address_of(u)] == 0}
    from walkforge import classify_eval
    diffs = []
    for seed in range(5):
        corpus = generate_corpus(
            g, WalkConfig(num_walks=3, walk_length=5, hop=2, alpha_min=0.5,
                          target_stat="D_in", seed=seed), "mh")
        cfg = SkipGramConfig(dim=64, window=5, epochs=5, negatives=5, seed=seed)
        cold = train(corpus, cfg)
        warm = warm_retrain(cold, corpus, cfg)
        f1_cold = classify_eval(cold, positives, repeats=5, seed=seed).f1
        f1_warm = classify_eval(warm, positives, repeats=5, seed=seed).f1
        diffs.append(abs(f1_cold - f1_warm))
    assert np.mean(diffs) <= 0.05


def test_warm_retrain_dim_mismatch():
    emb = EmbeddingMatrix(np.zeros((3, 4)), np.zeros((3, 4)))
    corpus = corpus_of([(0, 1), (1, 2)], 3)
    with pytest.raises(ConfigError):
        warm_retrain(emb, corpus, SkipGramConfig(dim=8))


# ---------------------------------------------------------------------------
# file io
# ---------------------------------------------------------------------------

def test_export_import_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    emb = EmbeddingMatrix(rng.normal(size=(9, 5)), np.zeros((9, 5)),
                          names=[f"addr{i}" for i in range(9)])
    path = tmp_path / "emb.txt"
    export_embeddings(emb, path)
    loaded = import_embeddings(path)
    assert loaded.names == emb.names
    assert np.abs(loaded.input_vectors - emb.input_vectors).max() < 1e-9
    assert np.array_equal(loaded.input_vectors, emb.input_vectors)  # exact


def test_export_line_count(tmp_path):
    emb = EmbeddingMatrix(np.zeros((100, 64)), np.zeros((100, 64)))
    path = tmp_path / "emb.txt"
    export_embeddings(emb, path)
    assert len(path.read_text().splitlines()) == 101


def test_import_header_mismatch(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("3 2\na 0.0 0.0\nb 0.0 0.0\n")
    with pytest.raises(ParseError):
        import_embeddings(path)
    path.write_text("1 2\na 0.0\n")
    with pytest.raises(ParseError):
        import_embeddings(path)


def test_min_count_drops_rare_nodes_from_pairs():
    walks = [(0, 1, 0, 1), (0, 1), (2,)] * 2 + [(3, 0)]
    c = corpus_of(walks, 4)
    pairs = context_pairs(c, 2, min_count=2)
    used = set(pairs.ravel().tolist())
    assert 3 not in used  # appears once, below min_count
    assert {0, 1} <= used
