"""Measurement protocols: transition-probability MAE and balanced node
classification.

The MAE protocol compares, per directed edge, the frequency with which a
uniform walk corpus traversed the edge against the 1/out-degree reference,
averaging the absolute gap over every edge of the graph; edges the corpus
never visited count with their full reference probability. The reference
only makes sense for uniform stepping, so MH corpora are rejected.

Classification trains an L2-regularized logistic regression on balanced
positive/negative embedding sets with stratified 80/20 splits, repeated
over independently drawn negative samples.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError, ModeMismatchError
from .graph import TransactionGraph
from .walks import MODE_UNIFORM, WalkCorpus
from .embedding import EmbeddingMatrix


@dataclass
class TransitionTable:
    """Consecutive-pair counts of a walk corpus."""

    counts: dict            # (src, dst) -> int
    row_totals: dict        # src -> int
    mode: str

    def prob(self, u: int, v: int) -> float:
        total = self.row_totals.get(u)
        if not total:
            return 0.0
        return self.counts.get((u, v), 0) / total


def empirical_transitions(corpus: WalkCorpus) -> TransitionTable:
    if not len(corpus):
        raise ValueError("corpus has no walks")
    tokens, lengths = corpus.flat_tokens()
    width = int(tokens.max()) + 1
    has_next = np.ones(len(tokens) - 1, dtype=bool)
    has_next[np.cumsum(lengths[:-1]) - 1] = False  # a walk's last token
    codes = tokens[:-1][has_next] * width  # pair (u, v) as u * width + v
    codes += tokens[1:][has_next]
    del tokens, has_next  # freed before np.unique sorts a copy of codes
    codes, counts = np.unique(codes, return_counts=True)
    src, dst = np.divmod(codes, width)
    sources, first = np.unique(src, return_index=True)
    return TransitionTable(
        dict(zip(zip(src.tolist(), dst.tolist()), counts.tolist())),
        dict(zip(sources.tolist(), np.add.reduceat(counts, first).tolist())),
        corpus.mode)


def theoretical_transitions(g: TransactionGraph) -> dict:
    """Per directed edge, the uniform-walk probability 1/out_degree."""
    csr = g.out_csr()
    deg = np.diff(csr.indptr)
    src = np.repeat(np.arange(len(deg)), deg)
    return dict(zip(zip(src.tolist(), csr.indices.tolist()),
                    (1.0 / deg[src]).tolist()))


def delta_mae(emp: TransitionTable, theo: dict) -> float:
    """Mean |empirical - theoretical| over all directed edges of the graph."""
    if emp.mode != MODE_UNIFORM:
        raise ModeMismatchError(
            "transition MAE is defined against the 1/out-degree reference, "
            f"which only uniform corpora follow (corpus mode: {emp.mode!r})")
    if not theo:
        raise ValueError("graph has no edges")
    return sum(abs(emp.prob(u, v) - p) for (u, v), p in theo.items()) / len(theo)


# ---------------------------------------------------------------------------
# Logistic regression (plain full-batch gradient descent)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogRegConfig:
    lr: float | None = None     # None -> 1/L from a Lipschitz bound
    epochs: int = 20000
    l2: float = 0.01
    tol: float = 1e-6

    def __post_init__(self):
        if self.lr is not None and self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.l2 < 0:
            raise ConfigError(f"l2 must be >= 0, got {self.l2}")


@dataclass
class LogRegModel:
    weights: np.ndarray  # d feature weights then the bias

    def decision(self, X) -> np.ndarray:
        return X @ self.weights[:-1] + self.weights[-1]

    def predict_proba(self, X) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-self.decision(X)))

    def predict(self, X) -> np.ndarray:
        return (self.decision(X) >= 0.0).astype(np.int64)


def _logreg_gradient(w, X, y, l2):
    p = 1.0 / (1.0 + np.exp(-(X @ w[:-1] + w[-1])))
    err = (p - y) / len(y)
    grad = np.empty_like(w)
    grad[:-1] = X.T @ err + l2 * w[:-1]  # bias not regularized
    grad[-1] = err.sum()
    return grad


def train_logreg(X, y, cfg: LogRegConfig | None = None) -> LogRegModel:
    """Full-batch gradient descent until the gradient norm drops below tol."""
    cfg = cfg or LogRegConfig()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(X) != len(y) or len(y) < 2:
        raise InputError("need a 2-D feature matrix with one label per row")
    if y.min() == y.max():
        raise InputError("labels are a single class; nothing to separate")
    if cfg.lr is not None:
        step = cfg.lr
    else:
        # logistic-loss curvature is at most (1/4n) X'X + l2 I
        lipschitz = (np.square(X).sum() + len(y)) / (4.0 * len(y)) + cfg.l2
        step = 1.0 / lipschitz
    w = np.zeros(X.shape[1] + 1)
    for _ in range(cfg.epochs):
        grad = _logreg_gradient(w, X, y, cfg.l2)
        if np.linalg.norm(grad) < cfg.tol:
            break
        w -= step * grad
    return LogRegModel(w)


# ---------------------------------------------------------------------------
# Balanced classification protocol
# ---------------------------------------------------------------------------

def balanced_sets(emb: EmbeddingMatrix, positives, repeats: int, seed: int) -> list:
    """One labeled dataset per repeat: all positives plus an equal-size
    negative sample drawn without replacement from the remaining nodes."""
    positives = sorted(set(positives))
    if not positives:
        raise InputError("no positive nodes given")
    for u in positives:
        emb._check(u)
    pos_set = set(positives)
    pool = np.array([u for u in range(emb.num_nodes) if u not in pos_set])
    need = len(positives)
    if len(pool) < need:
        raise InputError(f"need {need} negative candidates, only {len(pool)} "
                         "unlabeled nodes available")
    datasets = []
    pos = np.array(positives)
    for r in range(repeats):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
        negs = rng.choice(pool, size=need, replace=False)
        ids = np.concatenate([pos, negs])
        labels = np.concatenate([np.ones(len(pos), dtype=np.int64),
                                 np.zeros(need, dtype=np.int64)])
        datasets.append((ids, labels))
    return datasets


def _stratified_split(ids, labels, frac, rng):
    train_idx, test_idx = [], []
    for cls in (0, 1):
        members = np.flatnonzero(labels == cls)
        rng.shuffle(members)
        cut = int(frac * len(members) + 0.5)
        cut = min(max(cut, 1), len(members) - 1)  # both folds see both classes
        train_idx.extend(members[:cut])
        test_idx.extend(members[cut:])
    return np.array(sorted(train_idx)), np.array(sorted(test_idx))


def accuracy_f1(y_true, y_pred) -> tuple:
    """(accuracy, F1 of the positive class) from the confusion counts."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    tp = int(np.sum((y_true == 1) & (y_pred == 1)))
    fp = int(np.sum((y_true == 0) & (y_pred == 1)))
    fn = int(np.sum((y_true == 1) & (y_pred == 0)))
    acc = float(np.mean(y_true == y_pred))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return acc, f1


@dataclass
class EvalReport:
    accuracy: float | None = None
    f1: float | None = None
    split_seed: int | None = None
    repeats: int | None = None
    per_repeat: list = field(default_factory=list)
    config: dict = field(default_factory=dict)
    wall_time_s: float | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}


def classify_eval(emb: EmbeddingMatrix, positives, split: float = 0.8,
                  repeats: int = 10, seed: int = 0) -> EvalReport:
    """Balanced datasets -> stratified split -> logistic regression,
    reporting mean accuracy and positive-class F1 over the repeats."""
    if not 0.0 < split < 1.0:
        raise ConfigError(f"split must be in (0,1), got {split}")
    t0 = time.perf_counter()
    per_repeat = []
    for r, (ids, labels) in enumerate(balanced_sets(emb, positives, repeats, seed)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r, 1)))
        train_idx, test_idx = _stratified_split(ids, labels, split, rng)
        X = emb.input_vectors[ids]
        model = train_logreg(X[train_idx], labels[train_idx])
        acc, f1 = accuracy_f1(labels[test_idx], model.predict(X[test_idx]))
        per_repeat.append({"repeat": r, "accuracy": acc, "f1": f1,
                           "train_size": int(len(train_idx)),
                           "test_size": int(len(test_idx))})
    return EvalReport(
        accuracy=float(np.mean([m["accuracy"] for m in per_repeat])),
        f1=float(np.mean([m["f1"] for m in per_repeat])),
        split_seed=seed,
        repeats=repeats,
        per_repeat=per_repeat,
        config={"split": split, "repeats": repeats, "seed": seed},
        wall_time_s=time.perf_counter() - t0,
    )
