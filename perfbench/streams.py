"""Load generator: writes one workload's input files from a seed.

Stream synthesis is never timed. run.py runs this file in a child process,
so neither its time nor its memory reaches the measured process:

    python3 perfbench/streams.py --workload refresh-pa --seed 3 --out DIR

The child writes the CSV files the workload reads plus `meta.json`, which
holds the batch boundaries and the counts the output checks expect.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Sizes of the three workloads; the exact-count self-test passes smaller ones.
SIZES = {
    "ingest-gnm": {"nodes": 10_000, "edges": 40_000},
    "refresh-pa": {"nodes": 2_000, "initial": 0.5, "step": 0.01},
    "pipeline-sbm": {"block": 150, "in_degree": 10.0, "out_degree": 0.25,
                     "initial": 0.5, "step": 0.1},
}


def _write_csv(out: Path, name: str, rows, meta: dict):
    with open(out / name, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst", "value", "timestamp"])
        writer.writerows(rows)
    meta.setdefault("files", {})[name] = _expected(rows)


def _expected(rows) -> dict:
    return {"nodes": len({r[0] for r in rows} | {r[1] for r in rows}),
            "edges": len({(r[0], r[1]) for r in rows}),
            "rows": len(rows)}


def _split(rows, out: Path, initial: float, step: float, meta: dict):
    """history.csv holds the first segment, batches.csv the rest of the
    stream; meta["batch_ends"] cuts batches.csv into the arriving batches."""
    from walkforge.graph import segment_sizes

    sizes = segment_sizes(len(rows), initial, step)
    _write_csv(out, "history.csv", rows[:sizes[0]], meta)
    _write_csv(out, "batches.csv", rows[sizes[0]:], meta)
    meta["batch_ends"] = [s - sizes[0] for s in sizes[1:]]


def write_inputs(workload: str, seed: int, out, sizes: dict | None = None) -> dict:
    """Synthesize the workload's stream into `out`; returns the meta dict."""
    from walkforge import synth

    sz = dict(SIZES[workload], **(sizes or {}))
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    meta = {}
    if workload == "ingest-gnm":
        rows = synth.gnm_digraph_stream(sz["nodes"], sz["edges"], seed=seed)
        _write_csv(out, "edges.csv", rows, meta)
    elif workload == "refresh-pa":
        rows = synth.preferential_attachment_stream(sz["nodes"], seed=seed)
        _split(rows, out, sz["initial"], sz["step"], meta)
    elif workload == "pipeline-sbm":
        b = sz["block"]
        rows, labels = synth.sbm_stream((b, b), p_in=sz["in_degree"] / b,
                                        p_out=sz["out_degree"] / b, seed=seed)
        _split(rows, out, sz["initial"], sz["step"], meta)
        meta["positives"] = sorted(a for a, block in labels.items() if block == 0)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    meta["expected"] = _expected(rows)
    with open(out / "meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    return meta


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    write_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
