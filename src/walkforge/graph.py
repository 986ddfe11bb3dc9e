"""Evolving directed transaction graph with cached per-node activity stats.

Raw transfer rows (sender, receiver, value, timestamp) are aggregated into
at most one weighted edge per ordered node pair. Graph versions are
immutable: appending a batch produces a new version plus a delta naming
the new and affected nodes. Node ids are dense ints handed out in
first-appearance order and never change across versions, so walk corpora
that reference ids stay valid after updates.

A version is numpy CSR columns only. `_grow` builds every version: it
aggregates a block of rows by (src, dst) and merges it into a base version
(the empty graph, or the parent for `apply_batch`) with one sorted merge.

Rows become columns once, at the entry point, and stay columns: CSV rows
through `_columns`, dump lines through one `np.loadtxt` per run of edge
lines, and `segment_schedule` slices one parse of all its rows. A delta
carries its edges as columns too. Wherever a bulk parse rejects its input,
an exact per-row loop takes over, and that loop alone names a bad row.
"""

from __future__ import annotations

import csv
import warnings
from collections import deque
from dataclasses import dataclass
from itertools import chain, compress, count, groupby, islice
from operator import itemgetter

import numpy as np

from .errors import (
    AppendOrderError,
    ConfigError,
    ParseError,
    StateMismatchError,
    UnknownNodeError,
)

STAT_KINDS = ("V_in", "V_out", "F", "D_in", "D_out")

GRAPH_MAGIC = "WALKFORGE-GRAPH v1"

@dataclass(frozen=True)
class TxEdge:
    """One aggregated directed edge: weight sums, count sums, earliest timestamp."""

    src: int
    dst: int
    weight: float
    timestamp: int
    count: int = 1


@dataclass(frozen=True)
class CSR:
    """One direction of the sorted adjacency of one version, as arrays.

    The neighbours of u are `indices[indptr[u]:indptr[u + 1]]`, in
    ascending order.
    """

    indptr: np.ndarray
    indices: np.ndarray


@dataclass(frozen=True, eq=False)
class GraphDelta:
    """Difference between two consecutive graph versions. `edge_columns`
    holds the batch's aggregated edges as (src, dst, weight, ts, count)
    arrays, sorted by (src, dst); being arrays, deltas compare by identity."""

    src_version: int
    dst_version: int
    new_nodes: frozenset
    affected_nodes: frozenset
    edge_columns: tuple

    @property
    def new_edges(self) -> tuple:
        """The batch's edges as TxEdges, built on each request."""
        return tuple(map(TxEdge, *(col.tolist() for col in self.edge_columns)))

    @property
    def empty(self) -> bool:
        return (not self.new_nodes and not self.affected_nodes
                and not len(self.edge_columns[0]))


def _rows(indptr: np.ndarray) -> np.ndarray:
    """The row of every entry of a CSR."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


class TransactionGraph:
    """Immutable snapshot of the transaction graph at one version.

    Storage is numpy columns: `_indptr` and the per-edge `_dst`,
    `_weight`, `_ts` and `_count`, sorted by (src, dst), and the per-node
    `_d_in`, `_v_in`, `_v_out` and `_freq`. `out_csr()` is the stored
    adjacency; `in_csr()` is its transpose, merged from the parent's when
    that was built. The graph owns every traversal of its adjacency, so no
    other module depends on the layout.
    """

    def __init__(self, addresses, ids, edges, nodes, version, max_timestamp,
                 in_adj):
        self._addresses, self._ids = addresses, ids
        self._indptr, self._dst, self._weight, self._ts, self._count = edges
        self._d_in, self._v_in, self._v_out, self._freq = nodes
        self.version = version
        self.max_timestamp = max_timestamp
        self.num_edges = len(self._dst)
        self._in_adj = in_adj  # (indptr, indices) of in_csr(), once built

    # -- lookups -----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._addresses)

    def nodes(self) -> range:
        return range(len(self._addresses))

    def __contains__(self, u: int) -> bool:
        return 0 <= u < len(self._addresses)

    def _check(self, u: int):
        if not (0 <= u < len(self._addresses)):
            raise UnknownNodeError(f"node {u} not in graph (|V|={self.num_nodes})")

    def address_of(self, u: int) -> str:
        self._check(u)
        return self._addresses[u]

    def id_of(self, address: str) -> int:
        try:
            return self._ids[address]
        except KeyError:
            raise UnknownNodeError(f"address {address!r} not in graph") from None

    def out_neighbors(self, u: int) -> tuple:
        self._check(u)
        return tuple(self._dst[self._indptr[u]:self._indptr[u + 1]].tolist())

    def out_csr(self) -> CSR:
        """The stored out-adjacency as a CSR view."""
        return CSR(self._indptr, self._dst)

    def in_csr(self) -> CSR:
        """The in-adjacency, once per version: row v lists the sources of
        v's in-edges, ascending."""
        if self._in_adj is None:
            n = self.num_nodes
            keys = np.sort(self._dst * n + _rows(self._indptr))
            self._in_adj = _merge(np.zeros(1, dtype=np.intp), self._dst[:0], n, keys)[:2]
        return CSR(*self._in_adj)

    def edge(self, u: int, v: int) -> TxEdge | None:
        self._check(u)
        lo, hi = self._indptr[u], self._indptr[u + 1]
        k = lo + int(np.searchsorted(self._dst[lo:hi], v))
        if k == hi or self._dst[k] != v:
            return None
        return TxEdge(int(u), int(v), float(self._weight[k]), int(self._ts[k]),
                      int(self._count[k]))

    def edges(self):
        """All edges, sorted by (src, dst)."""
        return map(TxEdge, _rows(self._indptr).tolist(), self._dst.tolist(),
                   self._weight.tolist(), self._ts.tolist(), self._count.tolist())

    # -- per-node stats (target-distribution inputs) ------------------------

    def node_stat(self, u: int, kind: str) -> float:
        """Activity statistic of node u: incoming/outgoing value, transfer
        frequency, or in/out degree."""
        self._check(u)
        if kind == "D_out":
            return float(self._indptr[u + 1] - self._indptr[u])
        return float(self._stat_column(kind)[u])

    def _stat_column(self, kind: str) -> np.ndarray:
        column = {"V_in": self._v_in, "V_out": self._v_out, "F": self._freq,
                  "D_in": self._d_in}.get(kind)
        if column is None:
            raise ConfigError(f"unknown stat kind {kind!r}; expected one of {STAT_KINDS}")
        return column

    def stat_array(self, kind: str) -> np.ndarray:
        """node_stat(u, kind) of every node u, as one float64 array."""
        if kind == "D_out":
            return np.diff(self._indptr).astype(np.float64)
        return self._stat_column(kind).astype(np.float64)

    def node_stats(self, u: int) -> dict:
        return {kind: self.node_stat(u, kind) for kind in STAT_KINDS}

    # -- distance queries ----------------------------------------------------

    def h_hop_frontier(self, u: int, h: int) -> set:
        """Nodes at directed shortest-path distance exactly h from u."""
        return set(self.capped_frontier(u, h)[0])

    def capped_frontier(self, u: int, h: int, cap: int | None = None) -> tuple:
        """(sorted tuple of the nodes at distance exactly h from u, None),
        or (None, frozenset of the nodes closer than h) as soon as more
        than `cap` frontier nodes are found; an oversized frontier is never
        materialized."""
        self._check(u)
        if h < 1:
            raise ConfigError(f"h must be >= 1, got {h}")
        indptr, dst = self._indptr, self._dst
        seen = {u}
        level = [u]
        for _ in range(h - 1):
            nxt = []
            for x in level:
                for y in dst[indptr[x]:indptr[x + 1]].tolist():
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            if not nxt:
                return (), None
            level = nxt
        frontier = []
        for x in level:
            for y in dst[indptr[x]:indptr[x + 1]].tolist():
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
                    if cap is not None and len(frontier) > cap:
                        return None, frozenset(seen.difference(frontier))
        return tuple(sorted(frontier)), None

    def upstream_hops(self, u: int, h: int) -> dict:
        """{x: directed hop distance from x to u} for every node x != u
        that reaches u within h hops, from one BFS over in_csr()."""
        self._check(u)
        csr = self.in_csr()
        indptr, indices = csr.indptr, csr.indices
        hops = {u: 0}
        level = [u]
        for d in range(1, h + 1):
            nxt = []
            for x in level:
                for y in indices[indptr[x]:indptr[x + 1]].tolist():
                    if y not in hops:
                        hops[y] = d
                        nxt.append(y)
            level = nxt
        del hops[u]
        return hops

    def shortest_hop(self, u: int, v: int, cap: int) -> int | None:
        """Directed hop distance from u to v if <= cap, else None."""
        self._check(u)
        self._check(v)
        if u == v:
            return 0
        indptr, dst = self._indptr, self._dst
        seen = {u}
        queue = deque([(u, 0)])
        while queue:
            x, d = queue.popleft()
            if d == cap:
                continue
            for y in dst[indptr[x]:indptr[x + 1]].tolist():
                if y == v:
                    return d + 1
                if y not in seen:
                    seen.add(y)
                    queue.append((y, d + 1))
        return None


# ---------------------------------------------------------------------------
# Construction: one sorted merge builds every version
# ---------------------------------------------------------------------------

def _empty() -> TransactionGraph:
    """The graph with no nodes, the base of ingest_edges and load_graph."""
    ints, floats = np.empty(0, dtype=np.intp), np.empty(0)
    return TransactionGraph([], {}, (np.zeros(1, dtype=np.intp), ints, floats, ints, ints),
                            (ints, floats, floats, ints), 0, None, None)


def _lookup(indptr, indices, n: int, keys) -> tuple:
    """Each ascending pair key's (row * n + col) insertion point among the
    CSR's entries, and whether the CSR lacks it."""
    old = _rows(indptr) * n + indices
    pos = np.searchsorted(old, keys)
    fresh = np.ones(len(keys), dtype=bool)
    inside = pos < len(old)
    fresh[inside] = old[pos[inside]] != keys[inside]
    return pos, fresh


def _merge(indptr, indices, n: int, keys) -> tuple:
    """Merge distinct ascending pair keys (row * n + col) into the CSR
    (indptr, indices): the merged (indptr, indices), the new keys' insertion
    points `at` (for np.insert), `fresh` and each key's merged `slot`."""
    pos, fresh = _lookup(indptr, indices, n, keys)
    new, at = keys[fresh], pos[fresh]
    deg = np.bincount(new // n, minlength=n)
    deg[:len(indptr) - 1] += np.diff(indptr)
    merged = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(deg, out=merged[1:])
    slot = pos + np.cumsum(fresh) - fresh
    return merged, np.insert(indices, at, new % n), at, fresh, slot


def _grow(base: TransactionGraph, addresses, ids, s, d, w, ts, c,
          version: int, max_ts) -> tuple:
    """(version, block): `base` plus the rows (s, d, w, ts, c) over the
    grown node table; the block is the rows aggregated per (src, dst).
    Float sums add in row order onto the base's value: ((old + w1) + w2),
    from a new edge's first row (so -0.0 rows keep weight -0.0), from 0.0
    for a node."""
    n = len(addresses)
    keys, first, pair = np.unique(s * n + d, return_index=True, return_inverse=True)
    later = np.delete(np.arange(len(s)), first)  # rows after their pair's first
    indptr, dst, at, fresh, slot = _merge(base._indptr, base._dst, n, keys)
    grown = np.flatnonzero(~fresh[pair])  # rows that add onto an edge of the base
    block, edges = [], [indptr, dst]
    for rows, column, fold in ((w, base._weight, np.add), (ts, base._ts, np.minimum),
                               (c, base._count, np.add)):
        agg = rows[first]
        fold.at(agg, pair[later], rows[later])
        column = np.insert(column, at, agg[fresh])
        fold.at(column, slot[pair[grown]], rows[grown])
        block.append(agg)
        edges.append(column)
    src, new_dst = np.divmod(keys, n)
    other = s != d  # a self-transfer is a single transaction, not two
    nodes = [np.pad(base._d_in, (0, n - base.num_nodes))
             + np.bincount(new_dst[fresh], minlength=n)]
    for column, at_node, rows in ((base._v_in, d, w), (base._v_out, s, w), (
            base._freq, np.concatenate([s, d[other]]), np.concatenate([c, c[other]]))):
        nodes.append(np.pad(column, (0, n - base.num_nodes)))  # a zero-padded copy
        np.add.at(nodes[-1], at_node, rows)
    in_adj = None
    if base._in_adj is not None:  # merge the new (dst, src) pairs into it
        in_adj = _merge(*base._in_adj, n, np.sort(new_dst[fresh] * n + src[fresh]))[:2]
    g = TransactionGraph(addresses, ids, edges, nodes, version, max_ts, in_adj)
    return g, (src, new_dst, *block)


def _coerce_record(record, where: str):
    """Validate one raw row -> (src, dst, value, ts, count). Raises ParseError."""
    if not (4 <= len(record) <= 5):
        raise ParseError(f"{where}: expected 4 or 5 fields, got {len(record)}")
    src, dst, value, ts = record[0], record[1], record[2], record[3]
    count = record[4] if len(record) == 5 else 1
    src = str(src).strip()
    dst = str(dst).strip()
    if not src or not dst or any(c.isspace() for c in src + dst):
        raise ParseError(f"{where}: empty or whitespace-bearing address")
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ParseError(f"{where}: value {record[2]!r} is not a number") from None
    if value != value:  # NaN
        raise ParseError(f"{where}: value is NaN")
    try:
        ts = int(ts)
    except (TypeError, ValueError):
        raise ParseError(f"{where}: timestamp {record[3]!r} is not an integer") from None
    if not -2 ** 63 <= ts < 2 ** 63:  # the timestamp column is int64
        raise ParseError(f"{where}: timestamp {record[3]!r} is out of range")
    try:
        count = int(count)
    except (TypeError, ValueError):
        raise ParseError(f"{where}: count {record[4]!r} is not an integer") from None
    if not 1 <= count < 2 ** 63:
        raise ParseError(f"{where}: count must be >= 1, got {count}" if count < 1
                         else f"{where}: count {record[4]!r} is out of range")
    return src, dst, value, ts, count


def _columns(records) -> tuple:
    """(src, dst, value, ts, count) columns of raw rows: the addresses as
    lists, the rest as arrays. Any bad row raises TypeError, ValueError or
    OverflowError without a name; `_coerce_record` names it."""
    k = len(records)
    widths = set(map(len, records))
    if not widths <= {4, 5}:
        raise ValueError("a row has the wrong number of fields")
    cols = list(zip(*records)) or [()] * 4
    # one whitespace-free word each, as _coerce_record's strip-and-test
    src = [a for (a,) in map(str.split, map(str, cols[0]))]
    dst = [a for (a,) in map(str.split, map(str, cols[1]))]
    value = np.fromiter(map(float, cols[2]), np.float64, k)
    ts = np.fromiter(map(int, cols[3]), np.int64, k)
    cnt = np.ones(k, dtype=np.int64) if 5 not in widths else np.fromiter(
        (int(r[4]) if len(r) == 5 else 1 for r in records), np.int64, k)
    if np.isnan(value).any() or (cnt < 1).any():
        raise ValueError("a row fails a check")
    return src, dst, value, ts, cnt


def _parse(records, numbers, rejects, floor=None) -> tuple:
    """The rows with a non-negative value as (src, dst, value, ts, count)
    columns; the others go to `rejects` as (record number, reason). On any
    bad row the scalar `_coerce_record` loop names the first one; a row
    older than `floor` raises AppendOrderError before the negative skip."""
    try:
        src, dst, value, ts, cnt = _columns(records)
        if floor is not None and (ts < floor).any():
            raise ValueError("a row predates the floor")
    except (TypeError, ValueError, OverflowError):
        for i, record in zip(numbers, records):
            _, _, v, t, _ = _coerce_record(record, f"record {i}")
            if floor is not None and t < floor:
                raise AppendOrderError(f"record {i}: timestamp {t} predates graph "
                                       f"max {floor} (append-only)") from None
            if v < 0 and rejects is not None:
                rejects.append((i, f"negative value {v}"))
        raise
    keep = value >= 0
    if not keep.all():
        if rejects is not None:
            bad = np.flatnonzero(~keep).tolist()
            rejects.extend((numbers[j], f"negative value {v}")
                           for j, v in zip(bad, value[bad].tolist()))
        src, dst = list(compress(src, keep)), list(compress(dst, keep))
        value, ts, cnt = value[keep], ts[keep], cnt[keep]
    return src, dst, value, ts, cnt


def _extend(base: TransactionGraph, src, dst, w, ts, c, version: int) -> tuple:
    """`_grow` on parsed rows: new addresses get ids in first-appearance
    order, and the high-water mark rises to the rows' latest timestamp."""
    ends = list(chain.from_iterable(zip(src, dst)))
    ids = dict(base._ids)
    n_old = base.num_nodes
    addresses = base._addresses + [a for a in dict.fromkeys(ends) if a not in ids]
    ids.update(zip(addresses[n_old:], count(n_old)))
    nid = np.fromiter(map(ids.__getitem__, ends), np.intp, len(ends))
    max_ts = base.max_timestamp
    if len(ts):
        max_ts = int(ts.max()) if max_ts is None else max(max_ts, int(ts.max()))
    return _grow(base, addresses, ids, nid[0::2], nid[1::2], w, ts, c,
                 version, max_ts)


def _append(base: TransactionGraph, records, numbers, rejects,
            version: int, floor=None) -> tuple:
    """`_extend` on the rows of `records`, numbered by `numbers` (1, 2, ...
    when None)."""
    records = list(records)
    numbers = range(1, len(records) + 1) if numbers is None else list(numbers)
    return _extend(base, *_parse(records, numbers, rejects, floor), version)


def ingest_edges(records, rejects: list | None = None,
                 numbers=None) -> TransactionGraph:
    """Build the version-0 graph from raw rows (src, dst, value, timestamp[, count]).

    Malformed rows raise ParseError; rows with a negative value are skipped
    and, when `rejects` is given, recorded there as (record_number, reason).
    Records are numbered 1, 2, ... unless `numbers` gives each row's number.
    """
    return _append(_empty(), records, numbers, rejects, version=0)[0]


def apply_batch(g: TransactionGraph, records,
                rejects: list | None = None, numbers=None) -> tuple:
    """Append a batch of rows, returning (new graph version, delta).

    Timestamps must not predate data already in the graph. A batch row for
    an already-present edge accumulates weight/count. The delta names every
    existing endpoint of a batch edge in `affected_nodes`, since either
    one's stats may change; `incremental.plan_update` narrows that set to
    the nodes whose transition law changed in the corpus's walk mode.
    Records are numbered as in `ingest_edges`.
    """
    g2, block = _append(g, records, numbers, rejects, g.version + 1,
                        floor=g.max_timestamp)
    ends = np.concatenate(block[:2])
    delta = GraphDelta(g.version, g.version + 1,
                       frozenset(range(g.num_nodes, g2.num_nodes)),
                       frozenset(ends[ends < g.num_nodes].tolist()), block)
    return g2, delta


def diff_graphs(g_prev: TransactionGraph, g_next: TransactionGraph) -> GraphDelta:
    """Recover the delta between two versions of the same graph lineage.

    Both graphs must share the id assignment (g_next grown from g_prev).
    Edge rows in the result carry the weight/count difference.
    """
    n_prev, n = g_prev.num_nodes, g_next.num_nodes
    if n < n_prev or g_next.version <= g_prev.version:
        raise StateMismatchError(
            f"graph v{g_next.version} (|V|={n}) is not a successor "
            f"of v{g_prev.version} (|V|={n_prev})")
    if g_prev._addresses != g_next._addresses[:n_prev]:
        u = next(u for u, (a, b) in enumerate(zip(g_prev._addresses,
                                                  g_next._addresses)) if a != b)
        raise StateMismatchError(
            f"graphs disagree on node {u}: {g_prev._addresses[u]!r} vs "
            f"{g_next._addresses[u]!r}; not the same lineage")
    keys = _rows(g_next._indptr) * n + g_next._dst
    pos, changed = _lookup(g_prev._indptr, g_prev._dst, n, keys)
    at, was = np.flatnonzero(~changed), pos[~changed]
    weight, tally = g_next._weight.copy(), g_next._count.copy()
    changed[at] = (weight[at] != g_prev._weight[was]) | (tally[at] != g_prev._count[was])
    weight[at] -= g_prev._weight[was]
    tally[at] -= g_prev._count[was]
    k = np.flatnonzero(changed)
    src, dst = keys[k] // n, g_next._dst[k]
    ends = np.concatenate([src, dst])
    return GraphDelta(g_prev.version, g_next.version,
                      frozenset(range(n_prev, n)),
                      frozenset(ends[ends < n_prev].tolist()),
                      (src, dst, weight[k], g_next._ts[k], tally[k]))


# ---------------------------------------------------------------------------
# Temporal segmentation
# ---------------------------------------------------------------------------

def segment_sizes(n: int, initial_frac: float, step_frac: float) -> list:
    """Cumulative row counts at fractions initial, initial+step, ..., 1.0."""
    if not (0.0 < initial_frac < 1.0):
        raise ConfigError(f"initial_frac must be in (0,1), got {initial_frac}")
    if not (0.0 < step_frac <= 1.0):
        raise ConfigError(f"step_frac must be in (0,1], got {step_frac}")
    sizes = []
    k = 0
    while True:
        f = initial_frac + k * step_frac
        if f >= 1.0 - 1e-9:
            sizes.append(n)
            break
        # half-up rounding; round() ties-to-even is not monotone here
        sizes.append(int(f * n + 0.5))
        k += 1
    return sizes


def segment_schedule(records, initial_frac: float, step_frac: float) -> list:
    """Sort rows by timestamp and build one cumulative graph per fraction.

    Ties in timestamp keep input order so segmentation is deterministic.
    Each returned graph is a successor version of the previous one, grown
    from a slice of one parse of all rows. A malformed row is named by its
    input record number, as `ingest_edges` and `apply_batch` would name it
    segment by segment: the first bad row in timestamp order, or in input
    order when some timestamp is not an int64.
    """
    try:
        src, dst, value, ts, cnt = _columns(records)
    except (TypeError, ValueError, OverflowError):
        try:
            stamps = np.fromiter(map(int, map(itemgetter(3), records)), np.int64,
                                 len(records))
        except (IndexError, TypeError, ValueError, OverflowError):
            order = range(len(records))
        else:
            segment_sizes(len(records), initial_frac, step_frac)
            order = np.argsort(stamps, kind="stable").tolist()
        for i in order:
            _coerce_record(records[i], f"record {i + 1}")
        raise
    sizes = segment_sizes(len(records), initial_frac, step_frac)
    order = np.argsort(ts, kind="stable")
    keep = value[order] >= 0
    order = order[keep]
    # kept rows at the end of each segment
    bounds = np.concatenate([[0], np.cumsum(keep)])[[0, *sizes]].tolist()
    rows = order.tolist()
    src, dst = [src[i] for i in rows], [dst[i] for i in rows]
    w, t, c = value[order], ts[order], cnt[order]
    graphs, g = [], _empty()
    for version, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        g = _extend(g, src[lo:hi], dst[lo:hi], w[lo:hi], t[lo:hi], c[lo:hi],
                    version)[0]
        graphs.append(g)
    return graphs


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

def read_edge_csv(path) -> list:
    """Read a `src,dst,value,timestamp[,count]` CSV into raw row tuples."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        expected = ["src", "dst", "value", "timestamp"]
        got = [c.strip().lower() for c in header]
        if got[:4] != expected or (len(got) == 5 and got[4] != "count") or len(got) > 5:
            raise ParseError(f"{path}:1: bad header {header!r}; "
                             f"expected src,dst,value,timestamp[,count]")
        for line_no, fields in enumerate(reader, start=2):
            if not fields:
                continue
            if not (4 <= len(fields) <= 5):
                raise ParseError(f"{path}:{line_no}: expected {len(got)} fields, "
                                 f"got {len(fields)}")
            rows.append(tuple(fields))
    return rows


def save_graph(g: TransactionGraph, path):
    """Write the versioned text dump; output is byte-deterministic."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{GRAPH_MAGIC} nodes={g.num_nodes} edges={g.num_edges}\n")
        fh.write(f"version {g.version}\n")
        max_ts = g.max_timestamp if g.max_timestamp is not None else "none"
        fh.write(f"maxts {max_ts}\n")
        fh.writelines(f"node {u} {a}\n" for u, a in enumerate(g._addresses))
        fh.writelines(f"edge {s} {d} {w!r} {t} {c}\n" for s, d, w, t, c in zip(
            _rows(g._indptr).tolist(), g._dst.tolist(), g._weight.tolist(),
            g._ts.tolist(), g._count.tolist()))


_CHUNK = 8192  # raw dump lines read at a time, to bound the strings held

_EDGE_ROW = np.dtype([("s", np.int64), ("d", np.int64), ("w", np.float64),
                      ("t", np.int64), ("c", np.int64)])


def _edge_chunk(path, chunk, n: int) -> tuple:
    """(src, dst, weight, ts, count) columns of the edge lines in `chunk`,
    as (line number, line, fields); the first line that is malformed or
    names a node outside 0..n-1 raises ParseError."""
    def columns(rows):
        k, cols = len(rows), list(zip(*rows))
        s, d, ts, c = (np.fromiter(map(int, cols[i]), np.int64, k) for i in (1, 2, 4, 5))
        if not ((s >= 0) & (s < n) & (d >= 0) & (d < n)).all():
            raise ValueError("node id out of range")
        return s, d, np.fromiter(map(float, cols[3]), np.float64, k), ts, c
    try:
        return columns([fields for _, _, fields in chunk])
    except (IndexError, ValueError, OverflowError):
        for line_no, line, fields in chunk:
            try:
                columns([fields])
            except (IndexError, ValueError, OverflowError):
                raise ParseError(f"{path}:{line_no}: malformed line {line!r}") from None
        raise


def _bulk_edges(run, n: int):
    """The columns of a run of `edge ` lines from one C parse, or None when
    numpy rejects a line or a line names a node outside 0..n-1. numpy
    accepts a subset of what int() and float() accept, with equal values,
    once its deprecated parse of an integer field through a float (numpy
    1.23 to 1.26: `1.5`, `.5`, `1e3` or `nan` as a timestamp or count)
    counts as a rejection too."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(run, dtype=_EDGE_ROW, usecols=(1, 2, 3, 4, 5),
                              comments=None, ndmin=1)
    except (ValueError, DeprecationWarning):
        return None
    s, d = rows["s"], rows["d"]
    if not ((s >= 0) & (s < n) & (d >= 0) & (d < n)).all():
        return None
    return s, d, rows["w"], rows["t"], rows["c"]


class _DumpReader:
    """The state of one dump read: node ids, edge columns, version, maxts."""

    def __init__(self, path):
        self.path, self.ids = path, {}
        self.version, self.max_ts = 0, None
        ints = np.empty(0, dtype=np.int64)
        self.columns = [(ints, ints, np.empty(0), ints, ints)]

    def run(self, key: str, lines: list, first: int):
        """Read a run of lines that share their first five characters, the
        first of them being line `first`: a run of `edge ` lines in one C
        parse when numpy takes it, any other run line by line."""
        cols = _bulk_edges(lines, len(self.ids)) if key == "edge " else None
        if cols is None:
            self.lines(lines, first)
        else:
            self.columns.append(cols)

    def lines(self, lines: list, first: int):
        """The exact loop: edge lines are converted in a batch flushed
        before any other line, so the first bad line names the error and an
        edge may only name nodes listed above it."""
        path, ids, chunk = self.path, self.ids, []
        for line_no, line in enumerate(lines, start=first):
            fields = line.split()
            if not fields:
                continue
            tag = fields[0]
            if chunk and tag != "edge":
                self.columns.append(_edge_chunk(path, chunk, len(ids)))
                chunk = []
            try:
                if tag == "edge":
                    chunk.append((line_no, line, fields))
                elif tag == "version":
                    self.version = int(fields[1])
                elif tag == "maxts":
                    self.max_ts = None if fields[1] == "none" else int(fields[1])
                elif tag == "node":
                    nid = int(fields[1])
                    if ids.setdefault(fields[2], len(ids)) != nid:
                        raise ParseError(f"{path}:{line_no}: node ids out of order")
                else:
                    raise ParseError(f"{path}:{line_no}: unknown tag {tag!r}")
            except (IndexError, ValueError):
                raise ParseError(f"{path}:{line_no}: malformed line {line!r}") from None
        if chunk:
            self.columns.append(_edge_chunk(path, chunk, len(ids)))


def load_graph(path) -> TransactionGraph:
    """Read a graph dump written by save_graph, `_CHUNK` lines at a time.
    A run of lines that all start `edge ` becomes columns in one
    `np.loadtxt` call; any other run, or one that numpy rejects, goes
    through the exact per-line loop, which names the first bad line as
    `path:line`."""
    with open(path, encoding="utf-8") as fh:
        head = fh.readline().rstrip("\n")
        parts = head.split()
        if parts[:2] != GRAPH_MAGIC.split() or len(parts) != 4:
            raise ParseError(f"{path}:1: not a {GRAPH_MAGIC} file")
        try:
            declared_nodes = int(parts[2].split("=", 1)[1])
            declared_edges = int(parts[3].split("=", 1)[1])
        except (IndexError, ValueError):
            raise ParseError(f"{path}:1: malformed header {head!r}") from None
        dump, line_no = _DumpReader(path), 2
        for chunk in iter(lambda: list(islice(fh, _CHUNK)), []):
            for key, lines in groupby(chunk, itemgetter(slice(5))):
                lines = list(lines)
                dump.run(key, lines, line_no)
                line_no += len(lines)
    s, d, w, ts, c = map(np.concatenate, zip(*dump.columns))
    # aggregated edges keep earliest timestamps, so the true high-water mark
    # only survives through the maxts line
    g = _grow(_empty(), list(dump.ids), dump.ids, s, d, w, ts, c, dump.version,
              dump.max_ts)[0]
    if declared_nodes != g.num_nodes or declared_edges != g.num_edges:
        raise ParseError(
            f"{path}: header declares nodes={declared_nodes} edges={declared_edges} "
            f"but file has {g.num_nodes}/{g.num_edges}")
    return g
