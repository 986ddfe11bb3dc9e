"""Command-line pipeline: ingest -> segment -> walk -> update -> train -> eval.

Every command is reproducible: identical inputs, seed and config produce
byte-identical primary outputs (in --strict-deterministic mode, which also
zeroes wall-time fields in reports). Exit codes: 0 success, 2 bad
input/config, 3 artifact state/mode mismatch, 1 internal error.

Flag defaults can come from an INI config file (key = value sections named
after the commands); explicit flags always win.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import json
import os
import sys
import time

from . import __version__
from .errors import ConfigError, InputError, ParseError, StateMismatchError, WalkforgeError
from .graph import (
    STAT_KINDS,
    diff_graphs,
    ingest_edges,
    load_graph,
    read_edge_csv,
    save_graph,
    segment_schedule,
    segment_sizes,
)
from .incremental import DrawCounter, naive_update, plan_update, unbiased_update
from .walks import (
    MODES,
    WalkConfig,
    generate_corpus,
    load_corpus,
    mean_defacto_length,
    save_corpus,
)
from .embedding import SkipGramConfig, export_embeddings, import_embeddings, train
from .evaluation import classify_eval, delta_mae, empirical_transitions, theoretical_transitions


# ---------------------------------------------------------------------------
# Config file + helpers
# ---------------------------------------------------------------------------

class _Settings:
    """Flag values backed by an optional INI section."""

    def __init__(self, args, section: str):
        self.args = args
        self.cfg = configparser.ConfigParser()
        path = getattr(args, "config", None)
        if path:
            if not os.path.exists(path):
                raise InputError(f"config file not found: {path}")
            self.cfg.read(path)
        self.section = section

    def get(self, name: str, default, cast=str):
        flag = getattr(self.args, name.replace("-", "_"), None)
        if flag is not None:
            return flag
        for section in (self.section, "global"):
            if self.cfg.has_option(section, name):
                raw = self.cfg.get(section, name)
                try:
                    if cast is bool:
                        return self.cfg.getboolean(section, name)
                    return cast(raw)
                except ValueError:
                    raise ConfigError(
                        f"config [{section}] {name} = {raw!r} is not a {cast.__name__}")
        return default


def _walk_config(s: _Settings, d: WalkConfig = WalkConfig()) -> WalkConfig:
    return WalkConfig(
        num_walks=s.get("n", d.num_walks, int),
        walk_length=s.get("l", d.walk_length, int),
        hop=s.get("h", d.hop, int),
        alpha_min=s.get("alpha-min", d.alpha_min, float),
        target_stat=s.get("p", d.target_stat),
        proposal=s.get("q", d.proposal),
        decay=s.get("lambda", d.decay, float),
        nominal_return=s.get("nominal-return", d.nominal_return, float),
        stat_smoothing=s.get("smoothing", d.stat_smoothing, float),
        seed=s.get("seed", d.seed, int),
    )


def _skipgram_config(s: _Settings) -> SkipGramConfig:
    d = SkipGramConfig()
    return SkipGramConfig(
        dim=s.get("dim", d.dim, int),
        window=s.get("window", d.window, int),
        learning_rate=s.get("lr", d.learning_rate, float),
        epochs=s.get("epochs", d.epochs, int),
        negatives=s.get("negatives", d.negatives, int),
        min_count=s.get("min-count", d.min_count, int),
        seed=s.get("seed", d.seed, int),
    )


def _atomic_write(path, write_fn):
    """Write via a sibling temp file so failures leave no partial output."""
    tmp = f"{path}.tmp"
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


@contextlib.contextmanager
def _workdir_lock(directory):
    """Advisory lock: concurrent commands must not share a workdir."""
    lock = os.path.join(directory, ".walkforge.lock")
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise StateMismatchError(
            f"workdir {directory} is locked by another invocation "
            f"(stale? remove {lock})") from None
    try:
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        yield
    finally:
        with contextlib.suppress(OSError):
            os.remove(lock)


def _emit_report(report: dict, args, to_file: bool = True) -> None:
    if getattr(args, "strict_deterministic", False):
        for key in ("wall_time_s",):
            if key in report:
                report[key] = 0.0
    fmt = getattr(args, "format", None) or "json"
    if fmt == "table":
        text = _render_table(report)
    else:
        text = json.dumps(report, indent=2, sort_keys=True)
    out = getattr(args, "out", None) if to_file else None
    if out:
        _atomic_write(out, lambda p: _write_text(p, text + "\n"))
    else:
        print(text)


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _render_table(report: dict) -> str:
    rows = []
    per_repeat = report.get("per_repeat")
    scalar = {k: v for k, v in sorted(report.items()) if k != "per_repeat"}
    width = max(len(k) for k in scalar)
    for k, v in scalar.items():
        val = f"{v:.6f}" if isinstance(v, float) else str(v)
        rows.append(f"{k:<{width}}  {val}")
    if per_repeat:
        cols = list(per_repeat[0])
        rows.append("")
        rows.append("  ".join(f"{c:>10}" for c in cols))
        for rec in per_repeat:
            rows.append("  ".join(
                f"{rec[c]:>10.4f}" if isinstance(rec[c], float) else f"{rec[c]:>10}"
                for c in cols))
    return "\n".join(rows)


def _check_corpus_graph(corpus, g, what: str):
    """A corpus belongs to the graph version it was walked on, and every
    node of that graph is an origin, so the node counts agree too."""
    if corpus.graph_version != g.version:
        raise StateMismatchError(
            f"corpus is for graph version {corpus.graph_version}, "
            f"{what} is version {g.version}")
    if corpus.num_nodes != g.num_nodes:
        raise StateMismatchError(
            f"corpus walks {corpus.num_nodes} nodes, {what} has "
            f"{g.num_nodes}; not the graph it was walked on")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_ingest(args) -> int:
    rows = read_edge_csv(args.edges)
    rejects = []
    g = ingest_edges(rows, rejects=rejects)
    _atomic_write(args.out, lambda p: save_graph(g, p))
    print(f"nodes={g.num_nodes} edges={g.num_edges} rejected={len(rejects)}")
    return 0


def cmd_segment(args) -> int:
    s = _Settings(args, "segment")
    initial = s.get("initial", 0.5, float)
    step = s.get("step", 0.05, float)
    rows = read_edge_csv(args.edges)
    sizes = segment_sizes(len(rows), initial, step)
    graphs = segment_schedule(rows, initial, step)
    os.makedirs(args.outdir, exist_ok=True)
    manifest = {"source": str(args.edges), "initial_frac": initial,
                "step_frac": step, "segments": []}
    with _workdir_lock(args.outdir):
        for g, size in zip(graphs, sizes):
            name = f"segment_{g.version:03d}.wfg"
            _atomic_write(os.path.join(args.outdir, name),
                          lambda p, g=g: save_graph(g, p))
            manifest["segments"].append({
                "path": name, "version": g.version, "rows": size,
                "nodes": g.num_nodes, "edges": g.num_edges})
        _atomic_write(os.path.join(args.outdir, "manifest.json"),
                      lambda p: _write_text(p, json.dumps(manifest, indent=2,
                                                          sort_keys=True) + "\n"))
    print(f"segments={len(graphs)} outdir={args.outdir}")
    return 0


def cmd_walk(args) -> int:
    s = _Settings(args, "walk")
    mode = s.get("mode", "uniform")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    cfg = _walk_config(s)
    g = load_graph(args.graph)
    corpus = generate_corpus(g, cfg, mode)
    _atomic_write(args.out, lambda p: save_corpus(corpus, p))
    print(f"walks={len(corpus)} mode={mode} mean_length="
          f"{mean_defacto_length(corpus):.4f}")
    return 0


def cmd_update(args) -> int:
    s = _Settings(args, "walk")
    corpus = load_corpus(args.corpus)
    g_prev = load_graph(args.graph_prev)
    g_next = load_graph(args.graph_next)
    _check_corpus_graph(corpus, g_prev, "predecessor graph")
    mode = s.get("mode", corpus.mode)
    cfg = _walk_config(s, WalkConfig(num_walks=corpus.n, walk_length=corpus.l))
    delta = diff_graphs(g_prev, g_next)
    plan = plan_update(corpus, delta, g_next)
    counter = DrawCounter()
    t0 = time.perf_counter()
    if args.strategy == "scratch":
        updated = generate_corpus(g_next, cfg, mode, counter=counter)
    elif args.strategy == "naive":
        updated = naive_update(corpus, g_next, delta, cfg, mode, counter=counter)
    else:
        updated = unbiased_update(corpus, g_next, delta, cfg, mode,
                                  counter=counter, plan=plan)
    report = {
        "strategy": args.strategy,
        "graph_version": g_next.version,
        "new_nodes": len(delta.new_nodes),
        "affected_nodes": len(plan.affected_nodes),
        "affected_walks": len(plan.affected_walks),
        "candidate_draws": counter.draws,
        "frontier_overflows": counter.overflows,
        "fallback_exhausted": counter.exhausted,
        "corpus_walks": len(updated),
        "wall_time_s": time.perf_counter() - t0,
    }
    _atomic_write(args.out, lambda p: save_corpus(updated, p))
    _emit_report(report, args, to_file=False)  # --out holds the corpus
    return 0


def cmd_train(args) -> int:
    s = _Settings(args, "train")
    corpus = load_corpus(args.corpus)
    cfg = _skipgram_config(s)
    names = None
    if args.graph:
        g = load_graph(args.graph)
        if g.num_nodes < corpus.num_nodes:
            raise StateMismatchError(
                f"graph has {g.num_nodes} nodes but corpus references "
                f"{corpus.num_nodes}")
        names = [g.address_of(u) for u in range(corpus.num_nodes)]
    emb = train(corpus, cfg, names=names)
    _atomic_write(args.out, lambda p: export_embeddings(emb, p))
    print(f"vectors={emb.num_nodes} dim={emb.dim} pairs_window={cfg.window}")
    return 0


def cmd_eval_mae(args) -> int:
    corpus = load_corpus(args.corpus)
    g = load_graph(args.graph)
    _check_corpus_graph(corpus, g, "graph")
    value = delta_mae(empirical_transitions(corpus), theoretical_transitions(g))
    report = {
        "delta_mae": value,
        "mean_defacto_length": mean_defacto_length(corpus),
        "mode": corpus.mode,
        "graph_version": g.version,
        "walks": len(corpus),
    }
    _emit_report(report, args)
    return 0


def cmd_eval_classify(args) -> int:
    s = _Settings(args, "eval")
    emb = import_embeddings(args.embeddings)
    by_name = {name: i for i, name in enumerate(emb.names)}
    positives, unmatched = _read_labels(args.labels, by_name)
    if not positives:
        raise InputError(f"{args.labels}: no labeled address matches the embeddings")
    report_obj = classify_eval(
        emb, positives,
        split=s.get("split", 0.8, float),
        repeats=s.get("repeats", 10, int),
        seed=s.get("seed", 0, int),
    )
    report = report_obj.to_dict()
    report["positives"] = len(positives)
    report["unmatched_labels"] = unmatched
    _emit_report(report, args)
    return 0


def _read_labels(path, by_name: dict) -> tuple:
    positives = set()
    unmatched = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header[:2]] != ["address", "label"]:
            raise ParseError(f"{path}:1: expected header address,label")
        for line_no, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) < 2:
                raise ParseError(f"{path}:{line_no}: expected address,label")
            if rec[1].strip() != "1":
                raise ParseError(f"{path}:{line_no}: label must be 1 "
                                 f"(absent addresses are the negatives)")
            node = by_name.get(rec[0].strip())
            if node is None:
                unmatched += 1
            else:
                positives.add(node)
    return positives, unmatched


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walkforge",
        description="Incremental random-walk node embeddings for evolving "
                    "transaction graphs.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_walk_flags=False, with_format=False):
        p.add_argument("--config", help="INI file with per-command default sections")
        p.add_argument("--seed", type=int, help="rng seed (default 0)")
        p.add_argument("--strict-deterministic", action="store_true",
                       help="zero wall-time fields in reports")
        if with_walk_flags:
            d = WalkConfig()
            p.add_argument("--mode", choices=MODES, help="walk mode (default uniform)")
            p.add_argument("--n", type=int, help="walks per node")
            p.add_argument("--l", type=int,
                           help=f"max walk length (default {d.walk_length})")
            p.add_argument("--h", type=int, help=f"leap hop distance (default {d.hop})")
            p.add_argument("--alpha-min", type=float,
                           help="acceptance floor added to the MH ratio "
                                f"(default {d.alpha_min})")
            p.add_argument("--p", choices=STAT_KINDS,
                           help=f"target node statistic (default {d.target_stat})")
            p.add_argument("--q", choices=("S", "E"),
                           help="proposal: reciprocal distance or exp decay "
                                f"(default {d.proposal})")
            p.add_argument("--lambda", dest="lambda_", type=float, metavar="RATE",
                           help=f"decay rate for -q E (default {d.decay})")
            p.add_argument("--nominal-return", type=float,
                           help="backward proposal when unreturnable "
                                f"(default {d.nominal_return})")
            p.add_argument("--smoothing", type=float,
                           help="additive smoothing of the target statistic "
                                f"(default {d.stat_smoothing:g})")
        if with_format:
            p.add_argument("--format", choices=("json", "table"), help="report format")
            p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("ingest", help="aggregate a CSV edge list into a graph dump")
    p.add_argument("edges")
    p.add_argument("--out", required=True)
    add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("segment", help="cumulative time-ordered graph segments")
    p.add_argument("edges")
    p.add_argument("--outdir", required=True)
    p.add_argument("--initial", type=float, help="first cumulative fraction (default 0.5)")
    p.add_argument("--step", type=float, help="fraction step (default 0.05)")
    add_common(p)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("walk", help="generate a walk corpus")
    p.add_argument("graph")
    p.add_argument("--out", required=True)
    add_common(p, with_walk_flags=True)
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("update", help="carry a corpus to the next graph version")
    p.add_argument("--corpus", required=True)
    p.add_argument("--graph-prev", required=True)
    p.add_argument("--graph-next", required=True)
    p.add_argument("--strategy", choices=("unbiased", "naive", "scratch"),
                   default="unbiased")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("json", "table"))
    add_common(p, with_walk_flags=True)
    p.set_defaults(func=cmd_update)

    p = sub.add_parser("train", help="train skip-gram embeddings on a corpus")
    p.add_argument("corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--graph", help="graph dump for address-keyed embedding rows")
    p.add_argument("--dim", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--negatives", type=int)
    p.add_argument("--min-count", type=int)
    add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="measurement protocols")
    esub = p.add_subparsers(dest="protocol", required=True)

    pm = esub.add_parser("mae", help="transition-probability MAE of a uniform corpus")
    pm.add_argument("--corpus", required=True)
    pm.add_argument("--graph", required=True)
    add_common(pm, with_format=True)
    pm.set_defaults(func=cmd_eval_mae)

    pc = esub.add_parser("classify", help="balanced logistic-regression protocol")
    pc.add_argument("--embeddings", required=True)
    pc.add_argument("--labels", required=True)
    pc.add_argument("--repeats", type=int)
    pc.add_argument("--split", type=float)
    add_common(pc, with_format=True)
    pc.set_defaults(func=cmd_eval_classify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # argparse reserves the lambda_ dest; settings look it up as "lambda"
    if hasattr(args, "lambda_"):
        setattr(args, "lambda", args.lambda_)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StateMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except WalkforgeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
