"""The three closed-loop workloads, their output checks and their counters.

A run of a workload is a sequence of passes. A pass replays the whole
pipeline from the workload's input files, one operation at a time: one
client, closed loop, so the next batch is fed only after the previous
refresh has returned. Only calls into walkforge are timed; the output
checks run between operations, on the first pass in full and as a
same-output comparison on every later pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from walkforge import embedding, evaluation, graph, incremental, walks
from walkforge.incremental import DrawCounter
from walkforge.walks import WalkConfig, build_node_index

# Random embeddings score F1 ~0.5; at this graph size and one epoch, seeds
# range over ~0.83-0.97, so the floor flags a broken trainer, not drift.
F1_FLOOR = 0.7
MAE_SLACK = 1.25      # updated corpus MAE may exceed a fresh corpus' by 25%
NLL_SAMPLE = 2000     # fixed pair sample for embedding.nll


class OperationFailed(Exception):
    """An operation raised; the pass it belongs to is abandoned."""


class Ledger:
    """Counts operations and failed ones, and sums the time spent in
    walkforge calls. An operation fails when it raises or when a check on
    its output does not hold."""

    def __init__(self, tracer=None):
        self.attempted = 0
        self.failed: set[int] = set()
        self.errors: list[str] = []
        self.tracer = tracer
        self.timed_s = 0.0

    @contextmanager
    def operation(self, name: str):
        self.attempted += 1
        op = self.attempted
        span = self.tracer.begin(f"bench.{name}", "bench", op) if self.tracer else None
        try:
            yield op
        except Exception as exc:
            self.failed.add(op)
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            raise OperationFailed(name) from exc
        finally:
            if span is not None:
                self.tracer.end(span)

    def timed(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        self.timed_s += dt
        return result, dt

    def check(self, op: int, predicate, what: str):
        try:
            ok = bool(predicate())
        except Exception as exc:  # a check that crashes is a failed check
            ok = False
            what = f"{what} ({type(exc).__name__}: {exc})"
        if not ok:
            self.failed.add(op)
            self.errors.append(what)


class Inputs:
    """One workload's generated files, read back by every pass."""

    def __init__(self, seed: int, directory):
        self.seed = seed
        self.dir = Path(directory)
        with open(self.dir / "meta.json", encoding="utf-8") as fh:
            self.meta = json.load(fh)

    def path(self, name: str) -> Path:
        return self.dir / name


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _same_graph(a, b) -> bool:
    return (a.num_nodes == b.num_nodes and a.num_edges == b.num_edges
            and all(a.address_of(u) == b.address_of(u)
                    and a.node_stats(u) == b.node_stats(u) for u in a.nodes()))


def _uniform_walks_valid(g, corpus_walks, length) -> bool:
    """Every step is an edge of g, and a short walk ends at a sink."""
    edges = {(e.src, e.dst) for e in g.edges()}
    for w in corpus_walks:
        if not all(step in edges for step in zip(w, w[1:])):
            return False
        if len(w) < length and g.out_neighbors(w[-1]):
            return False
    return True


def _leap_walks_valid(g, corpus_walks, hop) -> bool:
    """Every accepted leap lands at directed hop distance exactly `hop`."""
    frontiers = {}
    for w in corpus_walks:
        for u, v in zip(w, w[1:]):
            f = frontiers.get(u)
            if f is None:
                f = frontiers[u] = g.h_hop_frontier(u, hop)
            if v not in f:
                return False
    return True


def _check_corpus(L: Ledger, op: int, corpus, g, cfg: WalkConfig, where: str):
    n = cfg.num_walks
    L.check(op, lambda: corpus.graph_version == g.version
            and corpus.num_nodes == g.num_nodes,
            f"{where}: corpus is not at the graph's version")
    L.check(op, lambda: len(corpus.walks) == n * g.num_nodes and all(
        w[0] == i // n for i, w in enumerate(corpus.walks)),
        f"{where}: corpus does not hold n walks from every node")
    L.check(op, lambda: corpus.node_index == build_node_index(corpus.walks),
            f"{where}: node index differs from a rebuild")
    if corpus.mode == walks.MODE_UNIFORM:
        L.check(op, lambda: _uniform_walks_valid(g, corpus.walks, cfg.walk_length),
                f"{where}: a uniform walk leaves the graph or stops early")
    else:
        L.check(op, lambda: _leap_walks_valid(g, corpus.walks, cfg.hop),
                f"{where}: a leap does not land at hop distance {cfg.hop}")


def _fingerprint(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Stages shared by the workloads
# ---------------------------------------------------------------------------

def _ingest(inp: Inputs, L: Ledger, st: dict, name: str, check: bool):
    with L.operation("ingest") as op:
        rows, st["read_csv_s"] = L.timed(graph.read_edge_csv, inp.path(name))
        g, st["ingest_s"] = L.timed(graph.ingest_edges, rows)
    st["ingest_rows"] = len(rows)
    if check:
        exp = inp.meta["files"][name]
        L.check(op, lambda: (len(rows), g.num_nodes, g.num_edges, g.version) == (
            exp["rows"], exp["nodes"], exp["edges"], 0),
            f"ingest: {name} rows or graph counts differ from the generator's")
    return rows, g


def _roundtrip(inp: Inputs, L: Ledger, st: dict, g, check: bool):
    path = inp.path("graph.wfg")
    with L.operation("roundtrip") as op:
        _, st["save_s"] = L.timed(graph.save_graph, g, path)
        g2, st["load_s"] = L.timed(graph.load_graph, path)
    st["roundtrip_s"] = st["save_s"] + st["load_s"]
    # Only edges are compared: load_graph re-sums V_in/V_out in edge order,
    # which can differ from the ingest order in the last bits.
    if check:
        L.check(op, lambda: (g2.version, g2.max_timestamp, g2.num_nodes) == (
            g.version, g.max_timestamp, g.num_nodes)
            and all(g.address_of(u) == g2.address_of(u) for u in g.nodes())
            and list(g2.edges()) == list(g.edges()),
            "roundtrip: loaded graph differs from the saved one")


def _base_corpus(L: Ledger, st: dict, g, cfg: WalkConfig, mode: str, check: bool):
    counter = DrawCounter()
    with L.operation("corpus") as op:
        corpus, st["corpus_s"] = L.timed(walks.generate_corpus, g, cfg, mode,
                                         counter=counter)
    tokens = sum(len(w) for w in corpus.walks)
    st["walks"] = len(corpus.walks)
    st["walk_draws"] = counter.draws
    st["mean_length"] = tokens / len(corpus.walks)
    st["accept_ratio"] = (tokens - len(corpus.walks)) / max(counter.draws, 1)
    if check:
        _check_corpus(L, op, corpus, g, cfg, "corpus")
    return corpus


def _refresh_chain(inp: Inputs, L: Ledger, st: dict, g, corpus,
                   cfg: WalkConfig, mode: str, check: bool):
    """Feed the batches through apply_batch + unbiased_update, one at a time.

    With `check`, also returns a corpus generated from scratch on the last
    graph (untimed): the reference for draw_fraction and the MAE check."""
    with L.operation("read-batches") as op:
        rows, read_s = L.timed(graph.read_edge_csv, inp.path("batches.csv"))
    if check:
        L.check(op, lambda: len(rows) == inp.meta["files"]["batches.csv"]["rows"],
                "read-batches: row count differs from the generator's")
    apply_s = []
    refresh_ms = []
    affected_nodes = affected_walks = new_walks = carried = sizes = draws = 0
    lo = 0
    for hi in inp.meta["batch_ends"]:
        batch = rows[lo:hi]
        lo = hi
        counter = DrawCounter()
        with L.operation("batch") as op:
            (g_next, delta), t_apply = L.timed(graph.apply_batch, g, batch)
            nxt, t_update = L.timed(incremental.unbiased_update, corpus, g_next,
                                    delta, cfg, mode, counter=counter)
        apply_s.append(t_apply)
        refresh_ms.append(1e3 * (t_apply + t_update))
        kept = sum(1 for a, b in zip(corpus.walks, nxt.walks) if a is b)
        affected_nodes += len(delta.affected_nodes)
        affected_walks += len(corpus.walks) - kept
        new_walks += len(nxt.walks) - len(corpus.walks)
        carried += kept
        sizes += len(nxt.walks)
        draws += counter.draws
        if check:
            _check_corpus(L, op, nxt, g_next, cfg, f"batch {len(refresh_ms)}")
        g, corpus = g_next, nxt
    fresh = None
    if check:
        exp = inp.meta["expected"]
        L.check(op, lambda: (g.num_nodes, g.num_edges) == (exp["nodes"], exp["edges"]),
                "refresh: final graph counts differ from the generator's")
        scratch = DrawCounter()
        with L.operation("scratch-corpus"):  # untimed reference
            fresh = walks.generate_corpus(g, cfg, mode, counter=scratch)
        st["scratch_draws"] = scratch.draws
    st["segment_s"] = read_s + sum(apply_s)
    st["refresh_ms"] = refresh_ms
    st["refresh_s"] = sum(refresh_ms) / 1e3
    st["affected_nodes"] = affected_nodes
    st["affected_walks"] = affected_walks
    st["new_walks"] = new_walks
    st["reuse_ratio"] = carried / sizes
    st["update_draws"] = draws
    st["last_batch_draws"] = counter.draws
    return g, corpus, fresh


def _finish(st: dict, g, corpus, *outputs):
    st["nodes"] = g.num_nodes
    st["edges"] = g.num_edges
    st["fingerprint"] = _fingerprint(g.num_nodes, g.num_edges,
                                     None if corpus is None else corpus.walks,
                                     *outputs)
    return st


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def ingest_gnm(inp: Inputs, L: Ledger, check: bool) -> dict:
    """CSV -> graph, the segment schedule, and a dump round trip."""
    st = {}
    rows, g = _ingest(inp, L, st, "edges.csv", check)
    with L.operation("segment") as op:
        versions, st["segment_s"] = L.timed(graph.segment_schedule, rows, 0.5, 0.1)
    if check:
        L.check(op, lambda: _same_graph(versions[-1], g),
                "segment: last version differs from a direct ingest of all rows")
    _roundtrip(inp, L, st, versions[-1], check)
    return _finish(st, g, None)


def _mae(corpus, g):
    return evaluation.delta_mae(evaluation.empirical_transitions(corpus),
                                evaluation.theoretical_transitions(g))


def refresh_pa(inp: Inputs, L: Ledger, check: bool) -> dict:
    """Uniform corpus carried through 50 small batches (high reuse)."""
    st = {}
    cfg = WalkConfig(num_walks=10, walk_length=10, seed=inp.seed)
    _, g = _ingest(inp, L, st, "history.csv", check)
    corpus = _base_corpus(L, st, g, cfg, walks.MODE_UNIFORM, check)
    g, corpus, fresh = _refresh_chain(inp, L, st, g, corpus, cfg,
                                      walks.MODE_UNIFORM, check)
    with L.operation("mae") as op:
        mae, st["mae_s"] = L.timed(_mae, corpus, g)
    st["updated_mae"] = mae
    if check:
        L.check(op, lambda: mae <= MAE_SLACK * _mae(fresh, g),
                f"mae: updated corpus' {mae:.5f} exceeds {MAE_SLACK} x a fresh corpus'")
    _roundtrip(inp, L, st, g, check)
    return _finish(st, g, corpus, mae)


def _sample_pairs(corpus, window, count, seed):
    """A fixed sample of (center, context) pairs for embedding.nll."""
    rng = np.random.default_rng(seed)
    long_walks = [w for w in corpus.walks if len(w) > 1]
    pairs = []
    while len(pairs) < count:
        w = long_walks[rng.integers(len(long_walks))]
        i = int(rng.integers(len(w)))
        j = int(rng.integers(max(0, i - window), min(len(w), i + window + 1)))
        if j != i:
            pairs.append((w[i], w[j]))
    return pairs


def pipeline_sbm(inp: Inputs, L: Ledger, check: bool) -> dict:
    """MH leap corpus, five large batches (low reuse), SGNS, classification."""
    st = {}
    cfg = WalkConfig(num_walks=5, walk_length=10, hop=2, alpha_min=0.5,
                     target_stat="D_in", seed=inp.seed)
    sgns = embedding.SkipGramConfig(dim=64, window=5, epochs=1, seed=inp.seed)
    _, g = _ingest(inp, L, st, "history.csv", check)
    corpus = _base_corpus(L, st, g, cfg, walks.MODE_MH, check)
    g, corpus, _ = _refresh_chain(inp, L, st, g, corpus, cfg, walks.MODE_MH, check)
    with L.operation("train") as op:
        emb, st["embed_s"] = L.timed(embedding.train, corpus, sgns)
        if check:  # untimed
            st["nll"] = embedding.nll_loss(
                emb, _sample_pairs(corpus, sgns.window, NLL_SAMPLE, inp.seed))
    if check:
        L.check(op, lambda: bool(np.isfinite(emb.input_vectors).all()),
                "train: embeddings are not finite")
    with L.operation("classify") as op:
        positives = [g.id_of(a) for a in inp.meta["positives"]]
        report, st["classify_s"] = L.timed(evaluation.classify_eval, emb,
                                           positives, repeats=5, seed=inp.seed)
    st["f1"] = report.f1
    st["accuracy"] = report.accuracy
    if check:
        L.check(op, lambda: report.f1 >= F1_FLOOR and math.isfinite(report.accuracy),
                f"classify: F1 {report.f1:.3f} below {F1_FLOOR}")
    _roundtrip(inp, L, st, g, check)
    return _finish(st, g, corpus, report.f1, report.accuracy,
                   emb.input_vectors.tobytes())


WORKLOADS = {
    "ingest-gnm": ingest_gnm,
    "refresh-pa": refresh_pa,
    "pipeline-sbm": pipeline_sbm,
}
