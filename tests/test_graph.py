import os
import warnings

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from walkforge import (
    AppendOrderError,
    ConfigError,
    ParseError,
    UnknownNodeError,
    WalkConfig,
    WalkforgeError,
    apply_batch,
    diff_graphs,
    generate_corpus,
    ingest_edges,
    load_graph,
    read_edge_csv,
    save_graph,
    segment_schedule,
    segment_sizes,
    unbiased_update,
)
from walkforge.graph import STAT_KINDS, _coerce_record
from conftest import random_rows, rows_from_edges


def to_nx(g):
    G = nx.DiGraph()
    G.add_nodes_from(g.nodes())
    for e in g.edges():
        G.add_edge(e.src, e.dst)
    return G


# ---------------------------------------------------------------------------
# ingest + aggregation
# ---------------------------------------------------------------------------

def test_ingest_aggregates_repeated_pairs():
    g = ingest_edges([("a", "b", 1.0, 10), ("a", "b", 2.0, 11), ("b", "c", 5.0, 12)])
    assert g.num_nodes == 3 and g.num_edges == 2
    e = g.edge(g.id_of("a"), g.id_of("b"))
    assert e.weight == 3.0 and e.count == 2 and e.timestamp == 10


def test_ingest_empty():
    g = ingest_edges([])
    assert g.num_nodes == 0 and g.num_edges == 0


def test_ingest_first_appearance_ids():
    g = ingest_edges([("x", "y", 1.0, 0), ("z", "x", 1.0, 1)])
    assert [g.address_of(u) for u in g.nodes()] == ["x", "y", "z"]


def test_ingest_rejects_negative_value_rows():
    rejects = []
    g = ingest_edges([("a", "b", 1.0, 0), ("a", "c", -2.0, 1)], rejects=rejects)
    assert g.num_edges == 1
    assert rejects == [(2, "negative value -2.0")]


@pytest.mark.parametrize("row", [
    ("a", "b", "oops", 0),
    ("a", "b", 1.0),
    ("a", "b", 1.0, "later"),
    ("a", "b", 1.0, 0, 0),
    ("a", "", 1.0, 0),
])
def test_ingest_malformed_rows_raise_with_location(row):
    with pytest.raises(ParseError, match="record 2"):
        ingest_edges([("a", "b", 1.0, 0), row])


# ---------------------------------------------------------------------------
# apply_batch
# ---------------------------------------------------------------------------

def test_batch_new_node_and_affected():
    g = ingest_edges([("a", "b", 1.0, 0)])
    g2, delta = apply_batch(g, [("b", "c", 1.0, 5)])
    assert {g2.address_of(u) for u in delta.new_nodes} == {"c"}
    assert {g2.address_of(u) for u in delta.affected_nodes} == {"b"}
    assert g2.version == 1 and g.version == 0


def test_batch_reweight_marks_both_endpoints():
    g = ingest_edges([("a", "b", 1.0, 0)])
    g2, delta = apply_batch(g, [("a", "b", 2.0, 5)])
    assert not delta.new_nodes
    assert {g2.address_of(u) for u in delta.affected_nodes} == {"a", "b"}
    e = g2.edge(0, 1)
    assert e.weight == 3.0 and e.count == 2 and e.timestamp == 0


def test_batch_empty_is_identity():
    g = ingest_edges([("a", "b", 1.0, 0)])
    g2, delta = apply_batch(g, [])
    assert delta.empty
    assert g2.version == 1
    assert list(g2.edges()) == list(g.edges())


def test_batch_out_of_order_timestamp_rejected():
    g = ingest_edges([("a", "b", 1.0, 100)])
    with pytest.raises(AppendOrderError):
        apply_batch(g, [("b", "c", 1.0, 99)])


def test_batch_delta_matches_adjacency_diff_oracle():
    rows = random_rows(30, 120, seed=1)
    g = ingest_edges(rows)
    batch = [("n5", "n31", 1.0, 10_000), ("n31", "n2", 2.0, 10_001),
             ("n5", "n2", 0.5, 10_002)]
    g2, delta = apply_batch(g, batch)
    # oracle: compare full adjacency maps of both versions
    def adjacency(graph):
        return {(e.src, e.dst): (e.weight, e.count) for e in graph.edges()}
    before, after = adjacency(g), adjacency(g2)
    changed = set()
    for key in after:
        if before.get(key) != after[key]:
            changed.update(key)
    assert delta.new_nodes == {u for u in changed if u >= g.num_nodes}
    assert delta.affected_nodes == {u for u in changed if u < g.num_nodes}


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def test_node_stat_star():
    rows = rows_from_edges([(1, 0, 2.0), (2, 0, 2.0), (3, 0, 2.0)])
    g = ingest_edges(rows)
    center = g.id_of("n0")
    assert g.node_stat(center, "V_in") == 6.0
    assert g.node_stat(center, "D_in") == 3
    assert g.node_stat(center, "V_out") == 0.0


def test_node_stat_unknown_node_and_kind():
    g = ingest_edges([("a", "b", 1.0, 0)])
    with pytest.raises(UnknownNodeError):
        g.node_stat(7, "V_in")
    with pytest.raises(ConfigError):
        g.node_stat(0, "degree")


def brute_force_stats(g, u):
    edges = list(g.edges())
    ins = [e for e in edges if e.dst == u]
    outs = [e for e in edges if e.src == u]
    freq = sum(e.count for e in ins) + sum(e.count for e in outs)
    freq -= sum(e.count for e in outs if e.src == e.dst)  # self-loop counted once
    return {
        "V_in": sum(e.weight for e in ins),
        "V_out": sum(e.weight for e in outs),
        "F": float(freq),
        "D_in": float(len(ins)),
        "D_out": float(len(outs)),
    }


def test_stats_match_brute_force_on_random_graph():
    rows = random_rows(50, 300, seed=7) + [("n3", "n3", 1.5, 10_000)]
    g = ingest_edges(rows)
    for u in g.nodes():
        expected = brute_force_stats(g, u)
        for kind, val in expected.items():
            assert g.node_stat(u, kind) == pytest.approx(val)


def test_self_loop_counts_once_in_frequency():
    g = ingest_edges([("a", "a", 3.0, 0), ("a", "b", 1.0, 1)])
    a = g.id_of("a")
    assert g.node_stat(a, "F") == 2
    assert g.node_stat(a, "D_in") == 1 and g.node_stat(a, "D_out") == 2
    assert g.node_stat(a, "V_in") == 3.0 and g.node_stat(a, "V_out") == 4.0


# ---------------------------------------------------------------------------
# distance queries
# ---------------------------------------------------------------------------

def test_frontier_path():
    g = ingest_edges(rows_from_edges([(0, 1), (1, 2)]))
    assert g.h_hop_frontier(0, 2) == {2}
    assert g.h_hop_frontier(2, 1) == set()


def test_frontier_matches_bfs_oracle():
    rows = random_rows(100, 400, seed=3)
    g = ingest_edges(rows)
    G = to_nx(g)
    for u in list(g.nodes())[:30]:
        dist = nx.single_source_shortest_path_length(G, u)
        for h in (1, 2, 3):
            expected = {v for v, d in dist.items() if d == h}
            assert g.h_hop_frontier(u, h) == expected
            assert g.capped_frontier(u, h, len(expected)) == (
                tuple(sorted(expected)), None)
            if expected:
                ball = frozenset(v for v, d in dist.items() if d < h)
                assert g.capped_frontier(u, h, len(expected) - 1) == (None, ball)


def test_shortest_hop_basics():
    g = ingest_edges(rows_from_edges([(0, 1), (1, 2)]))
    assert g.shortest_hop(0, 0, cap=3) == 0
    assert g.shortest_hop(0, 2, cap=2) == 2
    assert g.shortest_hop(0, 2, cap=1) is None
    assert g.shortest_hop(2, 0, cap=5) is None


def test_shortest_hop_matches_all_pairs_oracle():
    rows = random_rows(40, 160, seed=11)
    g = ingest_edges(rows)
    oracle = dict(nx.all_pairs_shortest_path_length(to_nx(g)))
    cap = 4
    for u in g.nodes():
        for v in g.nodes():
            expected = oracle.get(u, {}).get(v)
            if expected is not None and expected > cap:
                expected = None
            assert g.shortest_hop(u, v, cap=cap) == expected


def test_frontiers_partition_reachable_set():
    rows = random_rows(60, 200, seed=5)
    g = ingest_edges(rows)
    for u in list(g.nodes())[:10]:
        seen = {u}
        h = 1
        while True:
            frontier = g.h_hop_frontier(u, h)
            if not frontier:
                break
            assert frontier.isdisjoint(seen)
            seen |= frontier
            h += 1
        reachable = set(nx.single_source_shortest_path_length(to_nx(g), u))
        assert seen == reachable


# ---------------------------------------------------------------------------
# segmentation
# ---------------------------------------------------------------------------

def test_segment_sizes_standard_grid():
    assert segment_sizes(100, 0.5, 0.05) == [50, 55, 60, 65, 70, 75, 80, 85, 90, 95, 100]
    assert segment_sizes(10, 0.5, 0.5) == [5, 10]


def test_segment_sizes_bad_fractions():
    for initial, step in ((0.0, 0.1), (1.0, 0.1), (0.5, 0.0), (0.5, 1.5)):
        with pytest.raises(ConfigError):
            segment_sizes(100, initial, step)


def test_segment_schedule_is_cumulative_subgraph_chain():
    rows = random_rows(30, 90, seed=9)
    graphs = segment_schedule(rows, 0.5, 0.25)
    assert [g.version for g in graphs] == [0, 1, 2]
    for prev, nxt in zip(graphs, graphs[1:]):
        prev_edges = {(e.src, e.dst): e for e in prev.edges()}
        next_edges = {(e.src, e.dst): e for e in nxt.edges()}
        assert set(prev_edges) <= set(next_edges)
        for key, e in prev_edges.items():
            assert next_edges[key].weight >= e.weight
        assert prev.num_nodes <= nxt.num_nodes


def test_segment_schedule_names_bad_rows_as_segment_by_segment_building():
    rows = [("a", "b", 1.0, 0), ("b", "c", 1.0, 9), ("c", "d", 1.0, 1),
            ("d", "e", 1.0, 7), ("e", "f", 1.0, 2), ("f", "g", 1.0, 3),
            ("g", "h", 1.0, 4), ("h", "i", 1.0, 5)]

    def with_rows(**edits):
        return [edits.get(f"r{i + 1}", row) for i, row in enumerate(rows)]
    # two bad rows in later segments: the one that sorts first is named
    bad = with_rows(r2=("b", "c", "x", 9), r4=("d", "e", "y", 7))
    with pytest.raises(ParseError, match=r"^record 4: value 'y' is not a number$"):
        segment_schedule(bad, 0.5, 0.25)
    # a timestamp that is no integer: rows are named in input order
    for r3 in (("c", "d", 1.0, "soon"), ("c", "d", 1.0)):
        bad = with_rows(r2=("b", "c", "x", 9), r3=r3)
        with pytest.raises(ParseError, match=r"^record 2: value 'x' is not a number$"):
            segment_schedule(bad, 0.5, 0.25)
    bad = with_rows(r3=("c", "d", 1.0, str(2 ** 63)))
    with pytest.raises(ParseError, match=r"^record 3: timestamp '9223372036854775808' is out"):
        segment_schedule(bad, 0.5, 0.25)
    # a bad row is named before bad fractions only when its timestamp is bad
    with pytest.raises(ConfigError):
        segment_schedule(with_rows(r2=("b", "c", "x", 9)), 0.5, 0.0)
    with pytest.raises(ParseError, match=r"^record 3: timestamp 'soon'"):
        segment_schedule(with_rows(r3=("c", "d", 1.0, "soon")), 0.5, 0.0)


def _reference_schedule(rows, initial, step):
    """Segment-by-segment building: ingest_edges, then apply_batch, over
    the rows sorted stably by timestamp. A bad row is named in timestamp
    order, or in input order when some timestamp is not an int64."""
    def name_first_bad(order):
        for i in order:
            _coerce_record(rows[i], f"record {i + 1}")
    try:
        order = sorted(range(len(rows)), key=lambda i: int(rows[i][3]))
        if any(not -2 ** 63 <= int(r[3]) < 2 ** 63 for r in rows):
            raise OverflowError
    except (IndexError, TypeError, ValueError, OverflowError):
        name_first_bad(range(len(rows)))
        raise
    sizes = segment_sizes(len(rows), initial, step)
    name_first_bad(order)
    graphs = [ingest_edges([rows[i] for i in order[:sizes[0]]])]
    for lo, hi in zip(sizes, sizes[1:]):
        graphs.append(apply_batch(graphs[-1], [rows[i] for i in order[lo:hi]])[0])
    return graphs


def test_segment_schedule_breaks_ties_by_input_order():
    rows = [("a", "b", 1.0, 5), ("c", "d", 1.0, 5), ("e", "f", 1.0, 5),
            ("g", "h", 1.0, 5)]
    graphs = segment_schedule(rows, 0.5, 0.5)
    assert graphs[0].num_nodes == 4
    assert {graphs[0].address_of(u) for u in graphs[0].nodes()} == {"a", "b", "c", "d"}


# ---------------------------------------------------------------------------
# hypothesis invariants
# ---------------------------------------------------------------------------

edge_lists = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9),
              st.floats(0.0, 10.0, allow_nan=False)),
    min_size=1, max_size=40)


@given(base=edge_lists, batch=edge_lists)
def test_append_only_growth(base, batch):
    g = ingest_edges(rows_from_edges(base))
    shifted = [(f"n{u}", f"n{v}", w, 10_000 + i)
               for i, (u, v, w) in enumerate(batch)]
    g2, _ = apply_batch(g, shifted)
    assert g.num_nodes <= g2.num_nodes
    for e in g.edges():
        e2 = g2.edge(e.src, e.dst)
        assert e2 is not None and e2.weight >= e.weight and e2.count >= e.count


@given(base=edge_lists, batches=st.lists(edge_lists, min_size=1, max_size=3))
def test_out_csr_matches_sorted_adjacency_over_batches(base, batches):
    # batch ids run to 18, so batches also bring new nodes
    g = ingest_edges(rows_from_edges(base))
    ts = 10_000
    for batch in batches:
        g, _ = apply_batch(g, [(f"n{2 * u}", f"n{2 * v}", w, ts + i)
                               for i, (u, v, w) in enumerate(batch)])
        ts += len(batch)
        csr = g.out_csr()
        assert len(csr.indptr) == g.num_nodes + 1
        assert csr.indptr[-1] == g.num_edges
        for u in g.nodes():
            row = csr.indices[csr.indptr[u]:csr.indptr[u + 1]].tolist()
            assert tuple(row) == g.out_neighbors(u)


@given(base=edge_lists, batches=st.lists(edge_lists, max_size=3))
def test_in_csr_matches_transposed_edges(base, batches):
    # each version's in_csr() is built before the next batch, so every later
    # version's is merged into its parent's
    g = ingest_edges(rows_from_edges(base))
    ts = 10_000
    for batch in [None, *batches]:
        if batch is not None:  # batch ids run to 18, so batches add nodes
            g, _ = apply_batch(g, [(f"n{2 * u}", f"n{2 * v}", w, ts + i)
                                   for i, (u, v, w) in enumerate(batch)])
            ts += len(batch)
        csr = g.in_csr()
        assert len(csr.indptr) == g.num_nodes + 1
        assert [(v, u) for v in g.nodes() for u in
                csr.indices[csr.indptr[v]:csr.indptr[v + 1]].tolist()] == \
            sorted((e.dst, e.src) for e in g.edges())
        for u in g.nodes():
            for h in (1, 2, 3):
                assert g.upstream_hops(u, h) == {
                    x: d for x in g.nodes()
                    if x != u and (d := g.shortest_hop(x, u, cap=h)) is not None}


@given(edges=edge_lists, batch=edge_lists)
def test_stat_array_matches_node_stat(edges, batch):
    g = ingest_edges(rows_from_edges(edges))
    g2, _ = apply_batch(g, [(f"n{u}", f"n{v}", w, 10_000 + i)
                            for i, (u, v, w) in enumerate(batch)])
    for graph in (g, g2):
        for kind in STAT_KINDS:
            col = graph.stat_array(kind)
            assert col.dtype == np.float64
            assert col.tolist() == [graph.node_stat(u, kind) for u in graph.nodes()]
    with pytest.raises(ConfigError):
        g.stat_array("pagerank")


@given(base=edge_lists, batch=edge_lists)
def test_delta_replay_reproduces_next_version(base, batch):
    g = ingest_edges(rows_from_edges(base))
    shifted = [(f"n{u}", f"n{v}", w, 10_000 + i)
               for i, (u, v, w) in enumerate(batch)]
    g2, delta = apply_batch(g, shifted)
    # independent replay: accumulate delta edges onto version-t adjacency
    replayed = {(e.src, e.dst): [e.weight, e.count] for e in g.edges()}
    for e in delta.new_edges:
        entry = replayed.setdefault((e.src, e.dst), [0.0, 0])
        entry[0] += e.weight
        entry[1] += e.count
    actual = {(e.src, e.dst): [e.weight, e.count] for e in g2.edges()}
    assert set(replayed) == set(actual)
    for key in actual:
        assert replayed[key][0] == pytest.approx(actual[key][0])
        assert replayed[key][1] == actual[key][1]
    incident = {u for e in delta.new_edges for u in (e.src, e.dst)}
    assert incident <= (delta.new_nodes | delta.affected_nodes)


@given(edges=edge_lists, batch=edge_lists)
def test_cached_stats_equal_brute_force(tmp_path_factory, edges, batch):
    g = ingest_edges(rows_from_edges(edges))
    shifted = [(f"n{u}", f"n{v}", w, 10_000 + i)
               for i, (u, v, w) in enumerate(batch)]
    g2, _ = apply_batch(g, shifted)  # merged onto the parent's columns
    path = tmp_path_factory.mktemp("dump") / "g.wfg"
    save_graph(g2, path)
    for graph in (g, g2, load_graph(path)):
        assert graph.num_edges == len(list(graph.edges()))
        for u in graph.nodes():
            for kind, val in brute_force_stats(graph, u).items():
                assert graph.node_stat(u, kind) == pytest.approx(val)


# ---------------------------------------------------------------------------
# oracle: a row-by-row reference builder
# ---------------------------------------------------------------------------

class RowByRowGraph:
    """Reference for ingest_edges + apply_batch: one dict entry per edge,
    every row validated and folded in on its own, in input order."""

    def __init__(self):
        self.ids, self.edges, self.stats = {}, {}, []
        self.max_ts = None

    def node(self, address):
        if address not in self.ids:
            self.ids[address] = len(self.ids)
            self.stats.append({"V_in": 0.0, "V_out": 0.0, "F": 0, "D_in": 0, "D_out": 0})
        return self.ids[address]

    def add_rows(self, rows, numbers, rejects, append):
        """Fold rows in; returns (new nodes, affected nodes, batch edges)."""
        n_old, floor = len(self.ids), self.max_ts if append else None
        batch, touched = {}, set()
        for i, row in zip(numbers, rows):
            src, dst, value, ts, cnt = _coerce_record(row, f"record {i}")
            if floor is not None and ts < floor:
                raise AppendOrderError(f"record {i}: timestamp {ts} predates "
                                       f"graph max {floor} (append-only)")
            if value < 0:
                rejects.append((i, f"negative value {value}"))
                continue
            s, d = self.node(src), self.node(dst)
            for table in (self.edges, batch):
                e = table.get((s, d))
                if e is None:
                    table[(s, d)] = [value, ts, cnt]
                else:
                    e[0], e[1], e[2] = e[0] + value, min(e[1], ts), e[2] + cnt
            if self.edges[(s, d)][2] == cnt:  # the edge is new
                self.stats[s]["D_out"] += 1
                self.stats[d]["D_in"] += 1
            self.stats[s]["V_out"] += value
            self.stats[d]["V_in"] += value
            self.stats[s]["F"] += cnt
            if d != s:
                self.stats[d]["F"] += cnt
            self.max_ts = ts if self.max_ts is None else max(self.max_ts, ts)
            touched |= {s, d}
        return ({u for u in touched if u >= n_old}, {u for u in touched if u < n_old},
                sorted((s, d, w.hex(), ts, c) for (s, d), (w, ts, c) in batch.items()))

    def snapshot(self):
        return (list(self.ids), self.max_ts,
                sorted((s, d, w.hex(), ts, c) for (s, d), (w, ts, c) in self.edges.items()),
                [{k: float(v).hex() for k, v in st.items()} for st in self.stats])


def snapshot(g):
    return ([g.address_of(u) for u in g.nodes()], g.max_timestamp,
            [(e.src, e.dst, e.weight.hex(), e.timestamp, e.count) for e in g.edges()],
            [{k: v.hex() for k, v in g.node_stats(u).items()} for u in g.nodes()])


VALUES = [0.0, -0.0, 0.1, 0.2, 0.3, 0.7, 1 / 3, 1.0, 1e16, 1e-17, -1.0, -0.5]

oracle_rows = st.lists(st.tuples(
    st.integers(0, 3), st.integers(0, 5), st.sampled_from(VALUES), st.booleans(),
    st.integers(0, 2), st.one_of(st.none(), st.integers(1, 3))), max_size=40)

FAULTS = [None, ("value", "x"), ("value", "nan"), ("ts", -1), ("ts", "soon"),
          ("src", "a b"), ("dst", " "), ("count", 0), ("value", -3.0)]


@settings(max_examples=150)
@given(spec=oracle_rows, cuts=st.lists(st.integers(0, 40), max_size=3),
       fault=st.sampled_from(FAULTS), where=st.integers(0, 39))
# ((0.1 + 0.2) + 0.3) != 0.1 + (0.2 + 0.3): a batch adds onto an edge row by row
@example(spec=[(0, 1, 0.1, False, 0, None), (0, 1, 0.2, False, 1, None),
               (0, 1, 0.3, False, 1, None)], cuts=[1], fault=None, where=0)
def test_columnar_build_equals_row_by_row_reference(spec, cuts, fault, where):
    rows, ts = [], 0
    for u, v, w, as_text, dt, cnt in spec:
        ts += dt
        row = [f" n{u}" if dt else f"n{u}", f"n{v}", repr(w) if as_text else w, ts]
        rows.append(tuple(row if cnt is None else row + [cnt]))
    if fault is not None and rows:
        k = where % len(rows)
        field, bad = fault
        row = list(rows[k])
        if field == "count":
            row[4:] = [bad]
        else:
            row[("src", "dst", "value", "ts").index(field)] = bad
        rows[k] = tuple(row)
    bounds = [0, *sorted(min(c, len(rows)) for c in cuts), len(rows)]
    ref, g = RowByRowGraph(), None
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        numbers = list(range(lo + 1, hi + 1))
        ref_rejects, rejects = [], []
        try:
            expected = ref.add_rows(rows[lo:hi], numbers, ref_rejects, append=k > 0)
        except WalkforgeError as exc:
            expected = exc
        try:
            if k == 0:
                g = ingest_edges(rows[lo:hi], rejects=rejects, numbers=numbers)
            else:
                g, delta = apply_batch(g, rows[lo:hi], rejects=rejects, numbers=numbers)
        except WalkforgeError as exc:
            assert (type(exc), str(exc)) == (type(expected), str(expected))
            assert rejects == ref_rejects
            return
        assert not isinstance(expected, Exception)
        assert rejects == ref_rejects
        assert snapshot(g) == ref.snapshot()
        if k > 0:
            assert (delta.new_nodes, delta.affected_nodes) == expected[:2]
            assert [(e.src, e.dst, e.weight.hex(), e.timestamp, e.count)
                    for e in delta.new_edges] == expected[2]


@settings(max_examples=100)
@given(spec=oracle_rows, fault=st.sampled_from(FAULTS), where=st.integers(0, 39),
       step=st.sampled_from([0.1, 0.25, 0.5]))
def test_segment_schedule_equals_segment_by_segment_building(spec, fault, where, step):
    rows = [(f"n{u}", f"n{v}", repr(w) if as_text else w, 100 - 3 * dt)
            for u, v, w, as_text, dt, _ in spec]
    if fault is not None and rows:
        row, (field, bad) = list(rows[where % len(rows)]), fault
        if field == "count":
            row.append(bad)
        else:
            row[("src", "dst", "value", "ts").index(field)] = bad
        rows[where % len(rows)] = tuple(row)
    try:
        expected = [(*snapshot(g), g.version) for g in _reference_schedule(rows, 0.5, step)]
    except WalkforgeError as exc:
        with pytest.raises(type(exc)) as err:
            segment_schedule(rows, 0.5, step)
        assert str(err.value) == str(exc)
        return
    assert [(*snapshot(g), g.version) for g in segment_schedule(rows, 0.5, step)] \
        == expected


def test_negative_zero_edge_keeps_its_sign_in_the_dump(tmp_path):
    g = ingest_edges([("a", "b", -0.0, 3), ("a", "b", "-0.0", 4), ("b", "c", 1.0, 5)])
    g, _ = apply_batch(g, [("a", "b", -0.0, 6)])
    path = tmp_path / "g.wfg"
    save_graph(g, path)
    assert "edge 0 1 -0.0 3 3" in path.read_text().splitlines()
    # node sums start from +0.0, so the same rows leave a +0.0 stat
    assert g.node_stat(0, "V_out").hex() == "0x0.0p+0"
    save_graph(load_graph(path), tmp_path / "again.wfg")
    assert (tmp_path / "again.wfg").read_bytes() == path.read_bytes()


def test_negative_value_rows_give_their_addresses_no_id():
    rejects = []
    g = ingest_edges([("a", "b", 1.0, 0), ("x", "y", -1.0, 1), ("b", "y", 2.0, 2)],
                     rejects=rejects)
    assert rejects == [(2, "negative value -1.0")]
    assert [g.address_of(u) for u in g.nodes()] == ["a", "b", "y"]
    with pytest.raises(UnknownNodeError):
        g.id_of("x")
    g2, delta = apply_batch(g, [("z", "a", -3.0, 5), ("a", "w", 1.0, 6)])
    assert [g2.address_of(u) for u in g2.nodes()] == ["a", "b", "y", "w"]
    assert delta.new_nodes == {3} and delta.affected_nodes == {0}


# ---------------------------------------------------------------------------
# dump / load / csv
# ---------------------------------------------------------------------------

def test_graph_dump_round_trip(tmp_path):
    rows = random_rows(25, 80, seed=13)
    g = ingest_edges(rows)
    path = tmp_path / "g.wfg"
    save_graph(g, path)
    g2 = load_graph(path)
    assert g2.version == g.version
    assert g2.num_nodes == g.num_nodes
    assert list(g2.edges()) == list(g.edges())
    assert g2.max_timestamp == g.max_timestamp
    # byte determinism of a re-dump
    path2 = tmp_path / "g2.wfg"
    save_graph(g2, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_graph_dump_header(tmp_path):
    g = ingest_edges([("a", "b", 1.5, 3)])
    path = tmp_path / "g.wfg"
    save_graph(g, path)
    head = path.read_text().splitlines()[0]
    assert head == "WALKFORGE-GRAPH v1 nodes=2 edges=1"


def test_load_rejects_corrupt_header(tmp_path):
    path = tmp_path / "bad.wfg"
    path.write_text("NOT-A-GRAPH v9\n")
    with pytest.raises(ParseError):
        load_graph(path)


DUMP_HEAD = ("WALKFORGE-GRAPH v1 nodes=3 edges=3\nversion 2\nmaxts 7\n"
             "node 0 a\nnode 1 b\nnode 2 c\n")
DUMP_EDGES = "edge 0 1 1.5 3 1\nedge 1 2 0.25 5 2\nedge 2 0 2.0 7 1\n"
DUMP = DUMP_HEAD + DUMP_EDGES
LATER_EDGES = [(1, 2, 0.25, 5, 2), (2, 0, 2.0, 7, 1)]


def _first_edge(w="1.5", t="3", c="1"):
    return DUMP.replace("edge 0 1 1.5 3 1", f"edge 0 1 {w} {t} {c}")


def _loaded(weight=1.5, ts=3, count=1, addresses="abc"):
    return list(addresses), [(0, 1, weight, ts, count)] + LATER_EDGES


INF, NAN = float("inf"), float("nan")
# token: the first edge's (weight, ts, count) with the token as its weight,
# as its timestamp, as its count; None where the loader names line 7
EDGE_TOKENS = {
    "1_0": ((10.0, 3, 1), (1.5, 10, 1), (1.5, 3, 10)),
    "١": ((1.0, 3, 1), (1.5, 1, 1), (1.5, 3, 1)),  # ARABIC-INDIC DIGIT ONE
    "1_0.5": ((10.5, 3, 1), None, None),
    "+1": ((1.0, 3, 1), (1.5, 1, 1), (1.5, 3, 1)),
    "nan": ((NAN, 3, 1), None, None),
    "inf": ((INF, 3, 1), None, None),
    "infinity": ((INF, 3, 1), None, None),
    ".5": ((0.5, 3, 1), None, None),
    "5.": ((5.0, 3, 1), None, None),
}
LOAD_CASES = [
    *((f"{field}={token}", _first_edge(**{field: token}),
       7 if fields is None else _loaded(*fields))
      for token, row in EDGE_TOKENS.items() for field, fields in zip("wtc", row)),
    ("ts-overflow", _first_edge(t=str(2 ** 63)), 7),
    ("5-fields", DUMP.replace("edge 0 1 1.5 3 1", "edge 0 1 1.5 3"), 7),
    ("7-fields", DUMP.replace("edge 0 1 1.5 3 1", "edge 0 1 1.5 3 1 x"), _loaded()),
    ("crlf", DUMP.replace("\n", "\r\n"), _loaded()),
    ("vt-separator", DUMP.replace("edge 1 2", "edge\x0b1\x0b2"), _loaded()),
    ("blank-in-edges", DUMP.replace("edge 1 2", "\nedge 1 2"), _loaded()),
    ("node-after-edges", DUMP.replace("nodes=3", "nodes=4") + "node 3 d\n",
     _loaded(addresses="abcd")),
    ("edge-before-its-node",
     DUMP_HEAD.replace("node 2 c\n", "") + DUMP_EDGES + "node 2 c\n", 7),
    # two node lines whose tokens still add up to three per line
    ("short-node-line", DUMP.replace("node 1 b\nnode 2 c", "node 1\nnode node 2 c"), 5),
    ("edgeless", DUMP_HEAD.replace("edges=3", "edges=0"), (list("abc"), [])),
]


@pytest.mark.parametrize("text, expected", [c[1:] for c in LOAD_CASES],
                         ids=[c[0] for c in LOAD_CASES])
def test_load_accepts_hand_edited_dumps_or_names_the_line(tmp_path, text, expected):
    path = tmp_path / "g.wfg"
    path.write_bytes(text.encode())
    if isinstance(expected, int):  # the line the loader names
        with pytest.raises(ParseError) as err:
            load_graph(path)
        line = text.splitlines(True)[expected - 1]
        assert str(err.value) == f"{path}:{expected}: malformed line {line!r}"
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns on an empty text block
        g = load_graph(path)
    addresses, edges = expected
    assert (g.version, g.max_timestamp) == (2, 7)
    assert [g.address_of(u) for u in g.nodes()] == addresses
    assert [(e.src, e.dst, e.weight.hex(), e.timestamp, e.count) for e in g.edges()] \
        == [(s, d, w.hex(), t, c) for s, d, w, t, c in edges]


@pytest.mark.parametrize("t", ["3.7", ".5", "5.", "1e3"])
def test_load_names_a_float_timestamp_under_numpy_1_26_loadtxt(tmp_path, monkeypatch, t):
    """numpy 1.23 to 1.26 parse an integer field that is no integer through
    a float, truncated, with a DeprecationWarning; the loader must still
    name the line rather than keep the truncated value."""
    loadtxt = np.loadtxt

    def as_int(token):
        if token.lstrip("+-").isdigit():
            return token
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        return str(int(float(token)))

    def loadtxt_1_26(lines, *args, **kwargs):
        rows = [line.split() for line in lines]
        return loadtxt([" ".join([r[0], *map(as_int, r[1:3]), r[3], *map(as_int, r[4:])])
                        for r in rows], *args, **kwargs)
    monkeypatch.setattr(np, "loadtxt", loadtxt_1_26)
    path = tmp_path / "g.wfg"
    text = _first_edge(t=t)
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        load_graph(path)
    assert str(err.value) == f"{path}:7: malformed line {text.splitlines(True)[6]!r}"


def test_load_names_the_first_bad_line_in_file_order(tmp_path):
    head = "WALKFORGE-GRAPH v1 nodes=2 edges=1\nversion 0\nmaxts 1\n"
    path = tmp_path / "g.wfg"
    # an edge may only name nodes listed above it
    path.write_text(head + "node 0 a\nedge 0 1 1.0 1 1\nnode 1 b\n")
    with pytest.raises(ParseError, match=r"g.wfg:5: malformed line 'edge 0 1 1.0 1 1\\n'"):
        load_graph(path)
    # a bad edge line is named before a later bad node line
    path.write_text(head + "node 0 a\nnode 1 b\nedge 0 1 x 1 1\nnode z\n")
    with pytest.raises(ParseError, match=r"g.wfg:6: malformed line"):
        load_graph(path)


def test_versions_share_node_id_objects():
    # ids past 256, which CPython does not cache as shared int objects
    g = ingest_edges(rows_from_edges([(u, u + 1) for u in range(300)]))
    cfg = WalkConfig(num_walks=2, walk_length=4, seed=1)
    corpus = generate_corpus(g, cfg, "uniform")
    # the sink n300 gains an out-edge to the new node x, and x one to n260
    g2, delta = apply_batch(g, [("n300", "x", 1.0, 500), ("x", "n260", 1.0, 501)])
    updated = unbiased_update(corpus, g2, delta, cfg, "uniform")
    assert updated.walks[2 * 298] == (298, 299, 300, 301)  # resampled
    assert updated.walks[2 * 301:] == [(301, 260, 261, 262)] * 2  # appended
    # one int object per node id across the corpus and its update
    objects = {}
    for walk in corpus.walks + updated.walks:
        for u in walk:
            assert objects.setdefault(u, u) is u


def test_read_edge_csv(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("src,dst,value,timestamp\na,b,1.5,10\nb,c,2,11\n")
    rows = read_edge_csv(path)
    assert rows == [("a", "b", "1.5", "10"), ("b", "c", "2", "11")]
    bad = tmp_path / "bad.csv"
    bad.write_text("src,dst,value,timestamp\na,b,1.5\n")
    with pytest.raises(ParseError, match=":2"):
        read_edge_csv(bad)
    nohdr = tmp_path / "nohdr.csv"
    nohdr.write_text("a,b,1.5,10\n")
    with pytest.raises(ParseError, match=":1"):
        read_edge_csv(nohdr)


def test_read_edge_csv_optional_count_column(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("src,dst,value,timestamp,count\na,b,1.5,10,3\n")
    g = ingest_edges(read_edge_csv(path))
    assert g.edge(0, 1).count == 3


ETHEREUM_CSV = os.environ.get("WALKFORGE_ETHEREUM_CSV")


@pytest.mark.skipif(not ETHEREUM_CSV, reason="full Ethereum edge CSV not supplied")
def test_ingest_ethereum_dataset_shape():
    g = ingest_edges(read_edge_csv(ETHEREUM_CSV))
    assert g.num_nodes == 2_973_489
    assert g.num_edges == 13_551_303


def test_diff_graphs_recovers_apply_batch_delta():
    rows = random_rows(20, 60, seed=21)
    g = ingest_edges(rows)
    batch = [("n2", "n25", 1.0, 9_000), ("n2", "n3", 4.0, 9_001)]
    g2, delta = apply_batch(g, batch)
    recovered = diff_graphs(g, g2)
    assert recovered.new_nodes == delta.new_nodes
    assert recovered.affected_nodes == delta.affected_nodes
    assert {(e.src, e.dst) for e in recovered.new_edges} == \
           {(e.src, e.dst) for e in delta.new_edges}
