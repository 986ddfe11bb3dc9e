#!/usr/bin/env python3
"""Segment-grid comparison of corpus-update strategies.

Builds a growing synthetic transaction graph (or reads an edge CSV),
splits it into cumulative time segments, and reports the transition-MAE
of from-scratch, unbiased-update and naive-update corpora per segment,
plus the candidate-draw work of the incremental update relative to
regeneration.

    python scripts/run_update_experiment.py --nodes 1000 --seed 4
"""

import argparse
import sys
import time

from walkforge import WalkConfig, apply_batch, generate_corpus, ingest_edges, read_edge_csv
from walkforge.evaluation import delta_mae, empirical_transitions, theoretical_transitions
from walkforge.graph import segment_sizes
from walkforge.incremental import DrawCounter, naive_update, unbiased_update
from walkforge.synth import preferential_attachment_stream


def mae(corpus, g):
    return delta_mae(empirical_transitions(corpus), theoretical_transitions(g))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--edges", help="edge CSV; omitted -> synthetic stream")
    ap.add_argument("--nodes", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=4, help="stream seed")
    ap.add_argument("--walk-seed", type=int, default=11)
    ap.add_argument("--n", type=int, default=10, help="walks per node")
    ap.add_argument("--l", type=int, default=5, help="walk length")
    ap.add_argument("--initial", type=float, default=0.5)
    ap.add_argument("--step", type=float, default=0.05)
    args = ap.parse_args()

    if args.edges:
        rows = sorted(read_edge_csv(args.edges), key=lambda r: int(r[3]))
    else:
        rows = preferential_attachment_stream(args.nodes, seed=args.seed)
    sizes = segment_sizes(len(rows), args.initial, args.step)
    cfg = WalkConfig(num_walks=args.n, walk_length=args.l, seed=args.walk_seed)

    t0 = time.time()
    g = ingest_edges(rows[:sizes[0]])
    unbiased = generate_corpus(g, cfg, "uniform")
    naive = generate_corpus(g, cfg, "uniform")
    records = []
    for lo, hi in zip(sizes, sizes[1:]):
        g_next, delta = apply_batch(g, rows[lo:hi])
        work_upd, work_scr = DrawCounter(), DrawCounter()
        unbiased = unbiased_update(unbiased, g_next, delta, cfg, "uniform",
                                   counter=work_upd)
        naive = naive_update(naive, g_next, delta, cfg, "uniform")
        scratch = generate_corpus(g_next, cfg, "uniform", counter=work_scr)
        records.append({
            "rows": hi,
            "scratch": mae(scratch, g_next),
            "unbiased": mae(unbiased, g_next),
            "naive": mae(naive, g_next),
            "work": work_upd.draws / work_scr.draws,
        })
        g = g_next

    cols = [f"{int(100 * hi / sizes[-1])}%" for hi in sizes[1:]]
    width = 9
    print(f"nodes={g.num_nodes} edges={g.num_edges} rows={len(rows)} "
          f"segments={len(sizes)} wall={time.time() - t0:.1f}s")
    print(f"{'method':<22}" + "".join(f"{c:>{width}}" for c in cols))
    for label, key in (("From scratch", "scratch"), ("Unbiased update", "unbiased"),
                       ("Naive update", "naive")):
        print(f"{label:<22}" + "".join(f"{r[key]:>{width}.4f}" for r in records))
    print(f"{'diff scratch/unbiased':<22}" + "".join(
        f"{abs(r['unbiased'] - r['scratch']):>{width}.4f}" for r in records))
    print(f"{'diff scratch/naive':<22}" + "".join(
        f"{r['naive'] - r['scratch']:>{width}.4f}" for r in records))
    print(f"{'update work fraction':<22}" + "".join(
        f"{r['work']:>{width}.3f}" for r in records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
