"""Skip-gram node embeddings trained on walk corpora.

Two training objectives over the same (input, output) vector pair per
node: the exact softmax co-occurrence likelihood (only viable at test
scale) and its negative-sampling approximation with the usual 3/4-power
unigram noise distribution. Training takes minibatch SGD steps along the
pair stream in corpus order, with a linearly decaying learning rate, using
the same loss and gradient functions the gradient check verifies; it is
bit-for-bit reproducible for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParseError, UnknownNodeError
from .walks import WalkCorpus


@dataclass(frozen=True)
class SkipGramConfig:
    dim: int = 64
    window: int = 5
    learning_rate: float = 0.1
    epochs: int = 1
    negatives: int = 5        # 0 selects the exact-softmax path
    min_count: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.negatives < 0:
            raise ConfigError(f"negatives must be >= 0, got {self.negatives}")
        if self.min_count < 1:
            raise ConfigError(f"min_count must be >= 1, got {self.min_count}")


@dataclass
class EmbeddingMatrix:
    """Per-node input vectors (the embeddings) and output-side decoder rows."""

    input_vectors: np.ndarray
    output_vectors: np.ndarray
    names: list | None = None

    @property
    def num_nodes(self) -> int:
        return self.input_vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.input_vectors.shape[1]

    def name_of(self, u: int) -> str:
        return self.names[u] if self.names is not None else str(u)

    def _check(self, u: int):
        if not 0 <= u < self.num_nodes:
            raise UnknownNodeError(f"node {u} has no embedding row")


def context_pairs(corpus: WalkCorpus, window: int, min_count: int = 1) -> np.ndarray:
    """All (center, context) pairs within the window, in corpus order.

    Returns an (m, 2) intp array: centers in walk order, and for each center
    its contexts from left to right. Nodes seen fewer than min_count times
    in the corpus are first dropped from the walks, closing the gaps.
    """
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    tokens, lengths = corpus.flat_tokens()
    if min_count > 1:
        keep = (np.bincount(tokens, minlength=corpus.num_nodes) >= min_count)[tokens]
        walk_of = np.repeat(np.arange(len(lengths)), lengths)
        lengths = np.bincount(walk_of[keep], minlength=len(lengths))
        tokens = tokens[keep]
    starts = np.cumsum(lengths) - lengths
    pos = np.arange(len(tokens)) - np.repeat(starts, lengths)  # index within its walk
    offsets = np.concatenate([np.arange(-window, 0), np.arange(1, window + 1)])
    target = pos[:, None] + offsets
    valid = (target >= 0) & (target < np.repeat(lengths, lengths)[:, None])
    rows, cols = np.nonzero(valid)  # row-major: corpus order
    return np.column_stack([tokens[rows], tokens[rows + offsets[cols]]])


# ---------------------------------------------------------------------------
# Decoder and losses
# ---------------------------------------------------------------------------

def _log_softmax_rows(inp, out, centers):
    scores = inp[centers] @ out.T
    scores -= scores.max(axis=1, keepdims=True)
    return scores - np.log(np.exp(scores).sum(axis=1, keepdims=True))


def decode_prob(emb: EmbeddingMatrix, u: int, v: int) -> float:
    """Softmax co-occurrence probability of v given u (max-shifted)."""
    emb._check(u)
    emb._check(v)
    logp = _log_softmax_rows(emb.input_vectors, emb.output_vectors, np.array([u]))
    return float(np.exp(logp[0, v]))


def nll_loss(emb: EmbeddingMatrix, pairs) -> float:
    """Mean negative log-likelihood of the pairs under the softmax decoder.

    pairs is an (m, 2) array, as context_pairs returns, or a sequence of
    (center, context) tuples."""
    if not len(pairs):
        raise ValueError("no pairs to score")
    centers, contexts = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
    logp = _log_softmax_rows(emb.input_vectors, emb.output_vectors, centers)
    return float(-logp[np.arange(len(centers)), contexts].mean())


def softmax_loss_grads(inp, out, centers, contexts):
    """Mean softmax NLL and its gradients w.r.t. both matrices."""
    m = len(centers)
    logp = _log_softmax_rows(inp, out, centers)
    loss = float(-logp[np.arange(m), contexts].mean())
    grad_scores = np.exp(logp) / m
    grad_scores[np.arange(m), contexts] -= 1.0 / m
    d_inp = np.zeros_like(inp)
    _scatter_add(d_inp, centers, grad_scores @ out)
    d_out = grad_scores.T @ inp[centers]
    return loss, d_inp, d_out


def _sgns_terms(inp, out, centers, contexts, negatives):
    """Summed negative-sampling loss and its per-pair gradients.

    Returns (loss, rows, g_centers, g_rows): rows is the (m, k+1) matrix
    of output rows each pair touches (context first, then negatives);
    g_centers (m, d) and g_rows (m, k+1, d) are the loss gradients w.r.t.
    inp[centers] and out[rows], neither scattered nor divided by m.
    """
    k = negatives.shape[1]
    rows = np.concatenate([contexts[:, None], negatives], axis=1)
    sign = np.full(k + 1, -1.0)
    sign[0] = 1.0
    w_in = inp[centers]
    w_out = out[rows]
    sig = _sigmoid(sign * (w_out @ w_in[:, :, None])[:, :, 0])
    loss = float(-np.log(np.clip(sig, 1e-300, None)).sum())
    coeff = -sign * (1.0 - sig)                # d loss / d score
    g_centers = (coeff[:, None, :] @ w_out)[:, 0]
    g_rows = np.einsum("mk,md->mkd", coeff, w_in)
    return loss, rows, g_centers, g_rows


def sgns_loss_grads(inp, out, centers, contexts, negatives):
    """Mean negative-sampling loss and gradients, for fixed negative draws.

    negatives has shape (len(centers), k). Loss per pair is
    -log sigmoid(s_pos) - sum_j log sigmoid(-s_neg_j).
    """
    m = len(centers)
    loss, rows, g_centers, g_rows = _sgns_terms(inp, out, centers, contexts, negatives)
    d_inp = np.zeros_like(inp)
    _scatter_add(d_inp, centers, g_centers, 1.0 / m)
    d_out = np.zeros_like(out)
    _scatter_add(d_out, rows.ravel(), g_rows.reshape(-1, out.shape[1]), 1.0 / m)
    return loss / m, d_inp, d_out


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _scatter_add(mat, idx, vals, scale=1.0, max_hits=None):
    """mat[idx] += scale * vals, summing the vals of repeated indices.

    Same result as np.add.at up to summation order; one stable sort and
    np.add.reduceat over the runs is several times faster. With max_hits,
    a row repeated h > max_hits times takes max_hits / h of its sum.
    """
    order = np.argsort(idx, kind="stable")
    idx = idx[order]
    bounds = np.flatnonzero(np.concatenate([[True], idx[1:] != idx[:-1], [True]]))
    starts = bounds[:-1]
    sums = np.add.reduceat(vals[order], starts, axis=0)
    sums *= scale
    if max_hits is not None:
        sums *= np.minimum(1.0, max_hits / (bounds[1:] - starts))[:, None]
    mat[idx[starts]] += sums


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _node_frequencies(corpus: WalkCorpus) -> np.ndarray:
    return np.bincount(corpus.flat_tokens()[0], minlength=corpus.num_nodes)


def _noise_cdf(freq: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(freq.astype(np.float64) ** 0.75)
    if cdf[-1] <= 0:
        raise ConfigError("corpus has no usable nodes for negative sampling")
    return cdf / cdf[-1]  # ends at exactly 1.0, so every draw in [0, 1) lands on a node


def _init_matrices(num_nodes, dim, rng):
    inp = (rng.random((num_nodes, dim)) - 0.5) / dim
    out = np.zeros((num_nodes, dim))
    return inp, out


# Most summed updates one row takes in one step. One center occurrence at
# the default window of 5 gives its row 10 updates, which stay whole.
_ROW_HITS = 10


def _minibatch_sgd(inp, out, pairs, cfg: SkipGramConfig, noise_cdf, rng):
    """In-place skip-gram training on consecutive minibatches of the pairs.

    Each epoch walks the pairs in corpus order. A batch of m pairs takes one
    step of lr * m times the batch-mean gradients of sgns_loss_grads (or
    softmax_loss_grads when negatives == 0), all taken at the pre-step
    matrices, which matches m serial SGD steps to first order. lr decays
    linearly with the number of pairs already trained on.

    A summed step moves a row once per hit, and the first-order match fails
    when one row takes many hits: a hub that is the context or a negative
    of hundreds of pairs in one batch diverges. So a row hit h > _ROW_HITS
    times in a batch takes _ROW_HITS / h of its summed SGNS gradient. A
    batch is the vocabulary size clipped to [16, 1024] pairs, which keeps
    most rows of a small vocabulary under the cap.
    """
    total = cfg.epochs * len(pairs)
    batch = int(np.clip(inp.shape[0], 16, 1024))
    t = 0
    for _ in range(cfg.epochs):
        for lo in range(0, len(pairs), batch):
            centers, contexts = pairs[lo:lo + batch].T
            lr = cfg.learning_rate * max(1e-4, 1.0 - t / total)
            t += len(centers)
            if cfg.negatives:
                negs = np.searchsorted(noise_cdf, rng.random((len(centers), cfg.negatives)))
                _, rows, g_centers, g_rows = _sgns_terms(inp, out, centers, contexts, negs)
                _scatter_add(inp, centers, g_centers, -lr, _ROW_HITS)
                _scatter_add(out, rows.ravel(), g_rows.reshape(-1, out.shape[1]), -lr, _ROW_HITS)
            else:
                _, d_inp, d_out = softmax_loss_grads(inp, out, centers, contexts)
                inp -= lr * len(centers) * d_inp
                out -= lr * len(centers) * d_out


def train(corpus: WalkCorpus, cfg: SkipGramConfig,
          names: list | None = None) -> EmbeddingMatrix:
    """Train embeddings from scratch on the corpus.

    Every graph node gets a row (walk origins cover all nodes); nodes below
    min_count or trapped in length-1 walks simply receive no updates.
    """
    if not len(corpus):
        raise ValueError("corpus has no walks")
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(1,)))
    inp, out = _init_matrices(corpus.num_nodes, cfg.dim, rng)
    _run_training(inp, out, corpus, cfg)
    return EmbeddingMatrix(inp, out, names=names)


def warm_retrain(prev: EmbeddingMatrix, corpus_next: WalkCorpus,
                 cfg: SkipGramConfig, names: list | None = None) -> EmbeddingMatrix:
    """Continue training after a graph update: persisting nodes start from
    their previous vectors, new nodes from fresh initialization."""
    if cfg.dim != prev.dim:
        raise ConfigError(f"dim {cfg.dim} does not match previous model ({prev.dim})")
    if corpus_next.num_nodes < prev.num_nodes:
        raise ConfigError("corpus covers fewer nodes than the previous model")
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(1,)))
    inp, out = _init_matrices(corpus_next.num_nodes, cfg.dim, rng)
    inp[:prev.num_nodes] = prev.input_vectors
    out[:prev.num_nodes] = prev.output_vectors
    _run_training(inp, out, corpus_next, cfg)
    return EmbeddingMatrix(inp, out, names=names)


def _run_training(inp, out, corpus, cfg):
    pairs = context_pairs(corpus, cfg.window, cfg.min_count)
    if not len(pairs):
        return
    noise_cdf = _noise_cdf(_node_frequencies(corpus)) if cfg.negatives else None
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(2,)))
    _minibatch_sgd(inp, out, pairs, cfg, noise_cdf, rng)


# ---------------------------------------------------------------------------
# File I/O (word2vec text convention)
# ---------------------------------------------------------------------------

def export_embeddings(emb: EmbeddingMatrix, path):
    """`<count> <dim>` header then one `name f1 .. fd` row per node.

    repr() floats round-trip exactly; only input vectors are exported."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{emb.num_nodes} {emb.dim}\n")
        for u in range(emb.num_nodes):
            vec = " ".join(repr(float(x)) for x in emb.input_vectors[u])
            fh.write(f"{emb.name_of(u)} {vec}\n")


def import_embeddings(path) -> EmbeddingMatrix:
    with open(path, encoding="utf-8") as fh:
        head = fh.readline().split()
        if len(head) != 2:
            raise ParseError(f"{path}:1: expected '<count> <dim>' header")
        try:
            count, dim = int(head[0]), int(head[1])
        except ValueError:
            raise ParseError(f"{path}:1: expected '<count> <dim>' header") from None
        names = []
        vectors = np.empty((count, dim))
        row = 0
        for line_no, line in enumerate(fh, start=2):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != dim + 1:
                raise ParseError(f"{path}:{line_no}: expected {dim + 1} fields, "
                                 f"got {len(fields)}")
            if row >= count:
                raise ParseError(f"{path}:{line_no}: more rows than the header declares")
            names.append(fields[0])
            try:
                vectors[row] = [float(x) for x in fields[1:]]
            except ValueError:
                raise ParseError(f"{path}:{line_no}: non-numeric vector entry") from None
            row += 1
    if row != count:
        raise ParseError(f"{path}: header declares {count} rows, found {row}")
    return EmbeddingMatrix(vectors, np.zeros_like(vectors), names=names)
