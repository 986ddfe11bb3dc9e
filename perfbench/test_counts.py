"""Exact-count self-check of the benchmark, on small versions of its workloads.

Two runs with one seed must agree exactly on the counts below, so later
changes may cite them as counts; another seed must change them.

    python3 -m pytest -q perfbench/test_counts.py
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import streams  # noqa: E402
from spans import Span, self_times  # noqa: E402
from workloads import Inputs  # noqa: E402

COUNTS = ("graph.nodes", "graph.edges", "walks.draws", "walks.mean_length",
          "incremental.affected_walks", "incremental.draws", "embedding.pairs",
          "updated_mae", "f1")
SMALL = {
    "ingest-gnm": {"nodes": 2_000, "edges": 4_000},
    "refresh-pa": {"nodes": 400},
    "pipeline-sbm": {"block": 40},
}


def counts(workload, seed, directory):
    streams.write_inputs(workload, seed, directory, SMALL[workload])
    passes, ledger, _ = run.run_passes(workload, Inputs(seed, directory),
                                       seconds=0, trace=True)
    assert not ledger.failed, ledger.errors
    metrics = run.per_layer(passes)
    return {name: metrics[name] for name in COUNTS}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_counts_repeat_for_a_seed_and_change_with_it(workload, tmp_path):
    first = counts(workload, 1, tmp_path / "a")
    assert counts(workload, 1, tmp_path / "b") == first
    other = counts(workload, 2, tmp_path / "c")
    assert other != first
    if workload != "ingest-gnm":
        assert other["walks.draws"] != first["walks.draws"]
        assert other["incremental.draws"] != first["incremental.draws"]


def test_self_times_of_a_later_pass():
    # parent indices point into the whole span list, not into the slice
    spans = [Span("bench.a", "bench", 0.0, 1.0, None, 1, None),
             Span("bench.b", "bench", 1.0, 4.0, None, 2, None),
             Span("graph.apply_batch", "graph", 1.5, 2.5, 1, 2, 10)]
    assert self_times(spans[1:], base=1) == {"bench": 2.0, "graph": 1.0}
