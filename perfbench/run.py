#!/usr/bin/env python3
"""walkforge benchmark: one workload, one seed, one single-threaded process.

    python3 perfbench/run.py --workload refresh-pa --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; walkforge is imported from ./src.
The workload's input stream is synthesized from --seed in a child process
(never timed). The run then replays the workload's pipeline in passes until
the time spent inside walkforge calls reaches --seconds. The last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1. See perfbench/README.md for what each
workload and metric is for.
"""

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 7
# Process start to the first possible walkforge call.
SETUP_PROGRAM = "import sys; sys.path.insert(0, 'src'); import walkforge"
WALL_LIMIT_S = 150  # stop starting passes after this long, whatever --seconds says


def load_program():
    """Import walkforge from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import walkforge
    except ImportError as exc:
        raise SystemExit(f"cannot import walkforge from {src}: {exc}")
    if Path(walkforge.__file__).resolve().parent != (src / "walkforge").resolve():
        raise SystemExit(f"walkforge was imported from {walkforge.__file__}, "
                         f"not from {src}")
    sys.path.insert(0, str(BENCH_DIR))


def measure_setup() -> float:
    """Median wall time of fresh interpreters importing walkforge."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROGRAM], cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def make_inputs(workload: str, seed: int, workdir: Path):
    subprocess.run([sys.executable, str(BENCH_DIR / "streams.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--out", str(workdir)], cwd=ROOT, check=True)


def reference_work() -> int:
    """Fixed pure-Python work (dict build and scan, ~0.05 s) timed before
    every pass. The host's speed drifts by up to 40% over minutes, and this
    routine slows with it; dividing a pass's time by it cancels much of
    that drift (see README.md, "Noise")."""
    total = 0
    for _ in range(10):  # small tables keep its memory out of peak_rss_mb
        table = {}
        for i in range(20_000):
            table[i] = (i, str(i))
        for v in table.values():
            total += v[0]
    return total


def run_passes(workload: str, inputs, seconds: float, trace: bool):
    """Replay the workload until `seconds` of walkforge time are measured.

    Pass 0 is untraced and fully checked. With tracing, later passes
    alternate traced / untraced so the overhead can be read off."""
    from spans import Tracer
    from workloads import WORKLOADS, Ledger, OperationFailed

    fn = WORKLOADS[workload]
    ledger = Ledger()
    tracer = Tracer() if trace else None
    passes = []  # (stats, traced)
    started = time.monotonic()
    while True:
        k = len(passes)
        traced = trace and k % 2 == 1
        if traced:
            tracer.install()
            ledger.tracer = tracer
        first_span = len(tracer.spans) if tracer else 0
        before = ledger.timed_s
        gc.collect()
        t0 = time.perf_counter()
        reference_work()
        reference_s = time.perf_counter() - t0
        try:
            st = fn(inputs, ledger, check=k == 0)
        except OperationFailed:
            break
        finally:
            if traced:
                tracer.uninstall()
                ledger.tracer = None
        st["wall_s"] = ledger.timed_s - before
        st["reference_s"] = reference_s
        st["spans"] = tracer.spans[first_span:] if traced else []
        st["span_base"] = first_span
        if passes:
            ledger.check(ledger.attempted,
                         lambda: st["fingerprint"] == passes[0][0]["fingerprint"],
                         f"pass {k}: outputs differ from pass 0")
        passes.append((st, traced))
        print(f"pass {k}{' traced' if traced else ''}: {st['wall_s']:.3f} s in walkforge",
              file=sys.stderr)
        enough = ledger.timed_s >= seconds and len(passes) >= (2 if trace else 1)
        if enough or time.monotonic() - started > WALL_LIMIT_S:
            break
    return passes, ledger, tracer


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _p80(values) -> float:
    """Nearest-rank 80th percentile."""
    values = sorted(values)
    return float(values[math.ceil(0.8 * len(values)) - 1]) if values else 0.0


def _wall_ref(plain) -> float:
    return (_median(st["wall_s"] for st in plain)
            / _median(st["reference_s"] for st in plain))


def end_to_end(passes, ledger, setup_s: float) -> dict:
    plain = [st for st, traced in passes if not traced]
    return {
        "setup_s": setup_s,
        "wall_ref": _wall_ref(plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_rate": (ledger.attempted - len(ledger.failed)) / ledger.attempted,
    }


def _spans_by_name(spans) -> dict:
    out = {}
    for s in spans:
        out.setdefault(s.name, []).append(s)
    return out


def per_layer(passes) -> dict:
    """Layer metrics from the traced passes; exact counts from pass 0;
    the pipeline's stage timings from the untraced passes."""
    from spans import self_times

    first = passes[0][0]
    plain = [st for st, traced in passes if not traced]
    traced = [st for st, t in passes if t]
    by_name = [_spans_by_name(st["spans"]) for st in traced]
    selfs = [self_times(st["spans"], st["span_base"]) for st in traced]

    def total(name, pass_spans):
        return sum(s.end - s.start for s in pass_spans.get(name, ()))

    def size(name, pass_spans):
        return sum(s.size or 0 for s in pass_spans.get(name, ()))

    def per_pass(fn):
        return _median(fn(b) for b in by_name)

    def durations_ms(name):
        return [1e3 * (s.end - s.start) for b in by_name for s in b.get(name, ())]

    def ratio(num, den):
        return num / den if den else 0.0

    gen_s = per_pass(lambda b: total("walks.generate_corpus", b))
    train_s = per_pass(lambda b: total("embedding.train", b))
    pairs_s = per_pass(lambda b: total("embedding.context_pairs", b))
    pairs = size("embedding.context_pairs", by_name[0])
    refresh_ms = [x for st in plain for x in st.get("refresh_ms", ())]
    untraced_wall = _median(st["wall_s"] for st in plain)
    m = {
        "graph.read_csv_s": per_pass(lambda b: total("graph.read_edge_csv", b)),
        "graph.ingest_us_per_edge": per_pass(lambda b: 1e6 * ratio(
            total("graph.ingest_edges", b), size("graph.ingest_edges", b))),
        "graph.apply_batch_ms": _median(durations_ms("graph.apply_batch")),
        "graph.save_s": per_pass(lambda b: total("graph.save_graph", b)),
        "graph.load_s": per_pass(lambda b: total("graph.load_graph", b)),
        "graph.nodes": first["nodes"],
        "graph.edges": first["edges"],
        "walks.generate_s": gen_s,
        "walks.us_per_walk": 1e6 * ratio(gen_s, first.get("walks", 0)),
        "walks.draws": first.get("walk_draws", 0),
        "walks.us_per_draw": 1e6 * ratio(gen_s, first.get("walk_draws", 0)),
        "walks.mean_length": first.get("mean_length", 0.0),
        "walks.accept_ratio": first.get("accept_ratio", 0.0),
        "incremental.update_ms": _median(durations_ms("incremental.unbiased_update")),
        "incremental.copy_ms": _median(durations_ms("walks.WalkCorpus.copy")),
        "incremental.plan_ms": _median(durations_ms("incremental.plan_update")),
        "incremental.affected_nodes": first.get("affected_nodes", 0),
        "incremental.affected_walks": first.get("affected_walks", 0),
        "incremental.new_walks": first.get("new_walks", 0),
        "incremental.reuse_ratio": first.get("reuse_ratio", 0.0),
        "incremental.draws": first.get("update_draws", 0),
        "incremental.draw_fraction": ratio(first.get("last_batch_draws", 0),
                                           first.get("scratch_draws", 0)),
        "embedding.pairs": pairs,
        "embedding.pairs_s": pairs_s,
        "embedding.train_s": train_s,
        "embedding.us_per_pair": 1e6 * ratio(train_s - pairs_s, pairs),
        "embedding.nll": first.get("nll", 0.0),
        "evaluation.mae_s": per_pass(lambda b: sum(total(f"evaluation.{f}", b) for f in (
            "empirical_transitions", "theoretical_transitions", "delta_mae"))),
        "evaluation.classify_s": per_pass(lambda b: total("evaluation.classify_eval", b)),
        "evaluation.accuracy": first.get("accuracy", 0.0),
        "wall_s": untraced_wall,
        "reference_s": _median(st["reference_s"] for st in plain),
        "ingest_edges_per_s": _median(st["ingest_rows"] / (st["read_csv_s"] + st["ingest_s"])
                                      for st in plain),
        "segment_s": _median(st["segment_s"] for st in plain),
        "roundtrip_s": _median(st["roundtrip_s"] for st in plain),
        "corpus_s": _median(st.get("corpus_s", 0.0) for st in plain),
        "refresh_s": _median(st.get("refresh_s", 0.0) for st in plain),
        "refresh_ms.p50": _median(refresh_ms),
        "refresh_ms.p80": _p80(refresh_ms),
        "refresh_ms.samples": len(refresh_ms),
        "updated_mae": first.get("updated_mae", 0.0),
        "embed_s": _median(st.get("embed_s", 0.0) for st in plain),
        "f1": first.get("f1", 0.0),
        "trace.overhead_pct": 100 * ratio(_median(st["wall_s"] for st in traced)
                                          - untraced_wall, untraced_wall),
        "trace.spans": len(traced[0]["spans"]),
    }
    for layer in ("bench", "graph", "walks", "incremental", "embedding", "evaluation"):
        m[f"{layer}.self_s"] = _median(s.get(layer, 0.0) for s in selfs)
    return m


def report(metrics: dict, specs: list) -> dict:
    missing = [s["name"] for s in specs if s["name"] not in metrics]
    if missing:
        raise SystemExit(f"benchmark produced no value for {missing}")
    return {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in specs}


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # One core per run: keep numpy's BLAS from starting worker threads. This
    # must happen before numpy is first imported, here or in a child.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    load_program()
    setup_s = measure_setup()
    from workloads import Inputs

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        make_inputs(args.workload, args.seed, workdir)
        inputs = Inputs(args.seed, workdir)
        passes, ledger, tracer = run_passes(args.workload, inputs, args.seconds,
                                            bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for err in ledger.errors:
        print(f"FAILED {err}", file=sys.stderr)
    if not passes or (args.trace and not any(t for _, t in passes)):
        raise SystemExit("no pass of the workload completed")
    if args.trace:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"trace-{args.workload}-seed{args.seed}.json")
        metrics = report(per_layer(passes), spec["per_layer"])
    else:
        metrics = report(end_to_end(passes, ledger, setup_s), spec["end_to_end"])
    print(f"{args.workload} seed={args.seed}: {len(passes)} passes, "
          f"{ledger.attempted} operations, {len(ledger.failed)} failed")
    print(json.dumps({"correct": not ledger.failed, "attempted": ledger.attempted,
                      "failed": len(ledger.failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
