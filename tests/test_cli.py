import csv
import json

import pytest

from walkforge import (
    WalkConfig,
    diff_graphs,
    generate_corpus,
    load_corpus,
    load_graph,
    plan_update,
)
from walkforge.cli import main
from walkforge.synth import sbm_stream
from conftest import random_rows


def write_edges(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst", "value", "timestamp"])
        writer.writerows(rows)


@pytest.fixture
def edges_csv(tmp_path):
    path = tmp_path / "edges.csv"
    write_edges(path, random_rows(20, 70, seed=1))
    return path


@pytest.fixture
def graph_file(tmp_path, edges_csv):
    out = tmp_path / "g.wfg"
    assert main(["ingest", str(edges_csv), "--out", str(out)]) == 0
    return out


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def test_ingest_summary(tmp_path, capsys):
    path = tmp_path / "edges.csv"
    write_edges(path, [("a", "b", 1.0, 0), ("a", "b", 2.0, 1), ("b", "c", 5.0, 2)])
    out = tmp_path / "g.wfg"
    assert main(["ingest", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "nodes=3 edges=2 rejected=0"


def test_ingest_missing_file(tmp_path, capsys):
    code = main(["ingest", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "g.wfg")])
    assert code == 2
    assert "nope.csv" in capsys.readouterr().err


def test_ingest_is_idempotent(tmp_path, edges_csv):
    a, b = tmp_path / "a.wfg", tmp_path / "b.wfg"
    main(["ingest", str(edges_csv), "--out", str(a)])
    main(["ingest", str(edges_csv), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_ingest_parse_failure_leaves_no_output(tmp_path, capsys):
    path = tmp_path / "edges.csv"
    path.write_text("src,dst,value,timestamp\na,b,abc,0\n")
    out = tmp_path / "g.wfg"
    assert main(["ingest", str(path), "--out", str(out)]) == 2
    assert not out.exists()


# ---------------------------------------------------------------------------
# segment
# ---------------------------------------------------------------------------

def test_segment_manifest(tmp_path, edges_csv):
    outdir = tmp_path / "segs"
    assert main(["segment", str(edges_csv), "--outdir", str(outdir),
                 "--initial", "0.5", "--step", "0.25"]) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert [s["version"] for s in manifest["segments"]] == [0, 1, 2]
    for seg in manifest["segments"]:
        assert (outdir / seg["path"]).exists()
    sizes = [s["rows"] for s in manifest["segments"]]
    assert sizes == sorted(sizes) and sizes[-1] == 70


def test_segment_invalid_fraction(tmp_path, edges_csv):
    assert main(["segment", str(edges_csv), "--outdir", str(tmp_path / "s"),
                 "--initial", "1.5", "--step", "0.1"]) == 2


def test_segment_bad_timestamp_exits_2_with_location(tmp_path, capsys):
    path = tmp_path / "edges.csv"
    path.write_text("src,dst,value,timestamp\na,b,1.0,0\nb,c,1.0,xyz\n")
    outdir = tmp_path / "segs"
    assert main(["segment", str(path), "--outdir", str(outdir)]) == 2
    assert "record 2: timestamp 'xyz' is not an integer" in capsys.readouterr().err
    assert not outdir.exists()


def test_segment_names_bad_rows_by_input_record(tmp_path, capsys):
    path = tmp_path / "edges.csv"
    # the bad row sorts first, by its timestamp
    path.write_text("src,dst,value,timestamp\na,b,1.0,5\nb,c,abc,0\n")
    assert main(["segment", str(path), "--outdir", str(tmp_path / "s1")]) == 2
    assert "record 2: value 'abc' is not a number" in capsys.readouterr().err
    assert main(["ingest", str(path), "--out", str(tmp_path / "g.wfg")]) == 2
    assert "record 2: value 'abc' is not a number" in capsys.readouterr().err
    # the bad row is the second row of the second segment's batch
    path.write_text("src,dst,value,timestamp\na,b,1.0,0\nb,c,1.0,1\n"
                    "c,d,1.0,2\nd,e,abc,3\n")
    assert main(["segment", str(path), "--outdir", str(tmp_path / "s2"),
                 "--initial", "0.5", "--step", "0.5"]) == 2
    assert "record 4: value 'abc' is not a number" in capsys.readouterr().err


def test_segment_respects_workdir_lock(tmp_path, edges_csv):
    outdir = tmp_path / "segs"
    outdir.mkdir()
    (outdir / ".walkforge.lock").write_text("held")
    assert main(["segment", str(edges_csv), "--outdir", str(outdir)]) == 3


# ---------------------------------------------------------------------------
# walk / update
# ---------------------------------------------------------------------------

def test_walk_deterministic_output(tmp_path, graph_file):
    a, b = tmp_path / "a.wfw", tmp_path / "b.wfw"
    args = ["walk", str(graph_file), "--mode", "mh", "--h", "2",
            "--alpha-min", "0.5", "--n", "3", "--l", "5", "--seed", "9",
            "--strict-deterministic"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_walk_defaults_are_walk_config_defaults(tmp_path, graph_file):
    out = tmp_path / "c.wfw"
    assert main(["walk", str(graph_file), "--out", str(out)]) == 0
    expected = generate_corpus(load_graph(graph_file), WalkConfig(), "uniform")
    assert load_corpus(out).walks == expected.walks


@pytest.fixture
def segment_pair(tmp_path, edges_csv):
    outdir = tmp_path / "segs"
    main(["segment", str(edges_csv), "--outdir", str(outdir),
          "--initial", "0.5", "--step", "0.5"])
    return outdir / "segment_000.wfg", outdir / "segment_001.wfg"


def test_update_scratch_equals_walk(tmp_path, segment_pair):
    g0, g1 = segment_pair
    corpus0 = tmp_path / "c0.wfw"
    main(["walk", str(g0), "--mode", "uniform", "--n", "2", "--seed", "3",
          "--out", str(corpus0)])
    via_update = tmp_path / "scratch.wfw"
    assert main(["update", "--corpus", str(corpus0), "--graph-prev", str(g0),
                 "--graph-next", str(g1), "--strategy", "scratch", "--n", "2",
                 "--seed", "3", "--out", str(via_update),
                 "--strict-deterministic"]) == 0
    direct = tmp_path / "direct.wfw"
    main(["walk", str(g1), "--mode", "uniform", "--n", "2", "--seed", "3",
          "--out", str(direct)])
    assert via_update.read_bytes() == direct.read_bytes()


def test_update_naive_keeps_old_lines(tmp_path, segment_pair, capsys):
    g0, g1 = segment_pair
    corpus0 = tmp_path / "c0.wfw"
    main(["walk", str(g0), "--mode", "uniform", "--n", "2", "--seed", "3",
          "--out", str(corpus0)])
    updated = tmp_path / "naive.wfw"
    capsys.readouterr()
    assert main(["update", "--corpus", str(corpus0), "--graph-prev", str(g0),
                 "--graph-next", str(g1), "--strategy", "naive", "--n", "2",
                 "--seed", "3", "--out", str(updated)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["strategy"] == "naive"
    assert {"new_nodes", "affected_nodes", "affected_walks", "candidate_draws",
            "wall_time_s"} <= set(report)
    old_lines = corpus0.read_text().splitlines()[1:]
    new_lines = updated.read_text().splitlines()[1:]
    assert new_lines[:len(old_lines)] == old_lines


def test_update_reports_mode_aware_plan(tmp_path, segment_pair, capsys):
    g0, g1 = segment_pair
    corpus0 = tmp_path / "c0.wfw"
    main(["walk", str(g0), "--mode", "uniform", "--n", "2", "--seed", "3",
          "--out", str(corpus0)])
    capsys.readouterr()
    assert main(["update", "--corpus", str(corpus0), "--graph-prev", str(g0),
                 "--graph-next", str(g1), "--n", "2", "--seed", "3",
                 "--out", str(tmp_path / "c1.wfw")]) == 0
    report = json.loads(capsys.readouterr().out)
    g_next = load_graph(g1)
    delta = diff_graphs(load_graph(g0), g_next)
    plan = plan_update(load_corpus(corpus0), delta, g_next)
    # uniform: only sources of new edges, not every touched endpoint
    assert report["affected_nodes"] == len(plan.affected_nodes) \
        < len(delta.affected_nodes)
    assert report["affected_walks"] == len(plan.affected_walks)


def test_update_reports_frontier_overflows(tmp_path, segment_pair, capsys):
    """The report counts the leap steps that took the approximate guard
    path: none on the fixture stream, some once a hub's frontier outgrows
    the default cap of 64 * h."""
    write_edges(tmp_path / "hub.csv",
                [("hub", f"x{i}", 1.0, i) for i in range(70)]
                + [(f"x{i}", "hub", 1.0, 70 + i) for i in range(70)])
    main(["segment", str(tmp_path / "hub.csv"), "--outdir", str(tmp_path / "hub"),
          "--initial", "0.5", "--step", "0.5"])
    hub_pair = tmp_path / "hub" / "segment_000.wfg", tmp_path / "hub" / "segment_001.wfg"
    for (g0, g1), overflowed in ((segment_pair, False), (hub_pair, True)):
        corpus0 = tmp_path / "c0.wfw"
        flags = ["--h", "1", "--n", "2", "--seed", "3"]
        assert main(["walk", str(g0), "--mode", "mh", "--out", str(corpus0)] + flags) == 0
        capsys.readouterr()
        assert main(["update", "--corpus", str(corpus0), "--graph-prev", str(g0),
                     "--graph-next", str(g1), "--out", str(tmp_path / "c1.wfw")]
                    + flags) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["affected_walks"] > 0
        assert (report["frontier_overflows"] > 0) == overflowed
        assert report["fallback_exhausted"] == 0


def test_update_rejects_wrong_predecessor(tmp_path, segment_pair):
    g0, g1 = segment_pair
    corpus1 = tmp_path / "c1.wfw"
    main(["walk", str(g1), "--mode", "uniform", "--n", "2", "--seed", "3",
          "--out", str(corpus1)])
    code = main(["update", "--corpus", str(corpus1), "--graph-prev", str(g0),
                 "--graph-next", str(g1), "--n", "2", "--seed", "3",
                 "--out", str(tmp_path / "x.wfw")])
    assert code == 3


def test_update_rejects_corpus_of_another_graph(tmp_path, segment_pair):
    # both pairs are versions 0 -> 1, but their node sets differ
    rows, _ = sbm_stream(sizes=(15, 15), p_in=0.3, p_out=0.02, seed=5)
    edges = tmp_path / "other.csv"
    write_edges(edges, rows)
    outdir = tmp_path / "other"
    main(["segment", str(edges), "--outdir", str(outdir),
          "--initial", "0.5", "--step", "0.5"])
    other_pair = outdir / "segment_000.wfg", outdir / "segment_001.wfg"
    assert load_graph(other_pair[0]).num_nodes != load_graph(segment_pair[0]).num_nodes
    for walked, (prev, nxt) in ((segment_pair[0], other_pair),
                                (other_pair[0], segment_pair)):
        corpus = tmp_path / "c.wfw"
        main(["walk", str(walked), "--n", "2", "--out", str(corpus)])
        code = main(["update", "--corpus", str(corpus), "--graph-prev", str(prev),
                     "--graph-next", str(nxt), "--n", "2",
                     "--out", str(tmp_path / "x.wfw")])
        assert code == 3
        assert main(["eval", "mae", "--corpus", str(corpus),
                     "--graph", str(prev)]) == 3


def test_update_rejects_mode_mismatch(tmp_path, segment_pair):
    g0, g1 = segment_pair
    corpus0 = tmp_path / "c0.wfw"
    main(["walk", str(g0), "--mode", "uniform", "--n", "2", "--seed", "3",
          "--out", str(corpus0)])
    code = main(["update", "--corpus", str(corpus0), "--graph-prev", str(g0),
                 "--graph-next", str(g1), "--mode", "mh", "--n", "2",
                 "--seed", "3", "--out", str(tmp_path / "x.wfw")])
    assert code == 3


# ---------------------------------------------------------------------------
# train / eval
# ---------------------------------------------------------------------------

@pytest.fixture
def sbm_workdir(tmp_path):
    rows, labels = sbm_stream(sizes=(12, 12), p_in=0.4, p_out=0.02, seed=5)
    edges = tmp_path / "edges.csv"
    write_edges(edges, rows)
    labels_csv = tmp_path / "labels.csv"
    with open(labels_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["address", "label"])
        for addr, block in sorted(labels.items()):
            if block == 0:
                writer.writerow([addr, 1])
    graph = tmp_path / "g.wfg"
    main(["ingest", str(edges), "--out", str(graph)])
    return tmp_path, graph, labels_csv


def test_train_and_classify(sbm_workdir, capsys):
    tmp_path, graph, labels_csv = sbm_workdir
    corpus = tmp_path / "c.wfw"
    main(["walk", str(graph), "--mode", "mh", "--n", "3", "--seed", "2",
          "--out", str(corpus)])
    emb = tmp_path / "emb.txt"
    assert main(["train", str(corpus), "--graph", str(graph), "--dim", "16",
                 "--epochs", "5", "--seed", "2", "--out", str(emb)]) == 0
    capsys.readouterr()
    assert main(["eval", "classify", "--embeddings", str(emb), "--labels",
                 str(labels_csv), "--repeats", "4", "--seed", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["repeats"] == 4 and len(report["per_repeat"]) == 4
    assert report["positives"] == 12
    assert 0.0 <= report["f1"] <= 1.0


def test_eval_mae_exact_toy(tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    write_edges(edges, [("a", "b", 1.0, 0)])
    graph = tmp_path / "g.wfg"
    main(["ingest", str(edges), "--out", str(graph)])
    corpus = tmp_path / "c.wfw"
    main(["walk", str(graph), "--mode", "uniform", "--n", "5", "--out", str(corpus)])
    capsys.readouterr()
    assert main(["eval", "mae", "--corpus", str(corpus), "--graph", str(graph)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["delta_mae"] == 0.0


def test_eval_mae_rejects_mh_corpus(tmp_path, graph_file):
    corpus = tmp_path / "c.wfw"
    main(["walk", str(graph_file), "--mode", "mh", "--n", "2", "--out", str(corpus)])
    assert main(["eval", "mae", "--corpus", str(corpus),
                 "--graph", str(graph_file)]) == 3


def test_corpus_file_validation_exits_2_with_location(tmp_path, capsys):
    """A corpus file must hold n walks of at most l nodes from each node, in
    node order; walk i is keyed as the (i % n)-th walk from node i // n."""
    edges = tmp_path / "edges.csv"
    write_edges(edges, [("a", "b", 1.0, 0), ("b", "a", 1.0, 1)])
    graph = tmp_path / "g.wfg"
    main(["ingest", str(edges), "--out", str(graph)])
    head = "WALKFORGE-WALKS v1 graph_version=0 n=2 l=3 mode=uniform"
    good = ["0 1 0", "0 1 0", "1 0 1", "1 0 1"]
    cases = [
        ("n=0", [head.replace("n=2", "n=0")] + good, 1),
        ("l=1", [head.replace("l=3", "l=1")] + good, 1),
        ("negative origin", [head, "-1 0 1"] + good[1:], 2),
        ("negative id", [head, good[0], "0 -1 0"] + good[2:], 3),
        ("too long", [head, good[0], "0 1 0 1"] + good[2:], 3),
        ("walk deleted", [head] + good[1:], 3),
        ("walks reordered", [head, good[0], good[2], good[1], good[3]], 3),
        ("short count", [head] + good[:3], 4),
        ("node without walks", [head] + good[:3] + ["1 0 2"], 5),
    ]
    corpus = tmp_path / "c.wfw"
    out = tmp_path / "emb.txt"
    corpus.write_text("\n".join([head] + good) + "\n")
    assert main(["eval", "mae", "--corpus", str(corpus), "--graph", str(graph)]) == 0
    for name, lines, line_no in cases:
        corpus.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["train", str(corpus), "--out", str(out)]) == 2, name
        assert f"c.wfw:{line_no}:" in capsys.readouterr().err, name
        assert not out.exists()
        assert main(["eval", "mae", "--corpus", str(corpus),
                     "--graph", str(graph)]) == 2, name


def test_eval_classify_missing_labels(tmp_path, sbm_workdir):
    _, graph, _ = sbm_workdir
    corpus = tmp_path / "c.wfw"
    main(["walk", str(graph), "--mode", "uniform", "--n", "2", "--out", str(corpus)])
    emb = tmp_path / "emb.txt"
    main(["train", str(corpus), "--dim", "8", "--out", str(emb)])
    assert main(["eval", "classify", "--embeddings", str(emb),
                 "--labels", str(tmp_path / "missing.csv")]) == 2


def test_eval_table_format(sbm_workdir, capsys):
    tmp_path, graph, labels_csv = sbm_workdir
    corpus = tmp_path / "c.wfw"
    main(["walk", str(graph), "--mode", "uniform", "--n", "2", "--seed", "1",
          "--out", str(corpus)])
    capsys.readouterr()
    assert main(["eval", "mae", "--corpus", str(corpus), "--graph", str(graph),
                 "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "delta_mae" in out and "{" not in out


def test_config_file_defaults_and_flag_override(tmp_path, graph_file, capsys):
    cfg = tmp_path / "pipeline.ini"
    cfg.write_text("[walk]\nmode = mh\nn = 4\nl = 5\nh = 1\n\n[global]\nseed = 8\n")
    a = tmp_path / "a.wfw"
    assert main(["walk", str(graph_file), "--config", str(cfg), "--out", str(a)]) == 0
    header = a.read_text().splitlines()[0]
    assert "n=4" in header and "mode=mh" in header
    # explicit flag beats the config value
    b = tmp_path / "b.wfw"
    assert main(["walk", str(graph_file), "--config", str(cfg), "--n", "2",
                 "--out", str(b)]) == 0
    assert "n=2" in b.read_text().splitlines()[0]


def test_unknown_config_file(tmp_path, graph_file):
    assert main(["walk", str(graph_file), "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "c.wfw")]) == 2
