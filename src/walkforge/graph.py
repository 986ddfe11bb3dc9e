"""Evolving directed transaction graph whose versions are edge columns.

Raw transfer rows (sender, receiver, value, timestamp) are aggregated into
at most one weighted edge per ordered node pair. Graph versions are
immutable: appending a batch produces a new version plus a delta naming
the new, affected and grown nodes. Node ids are dense ints handed out in
first-appearance order and never change across versions, so walk corpora
that reference ids stay valid after updates.

A version is numpy CSR columns only. `_grow` builds every version: it
aggregates a block of rows by (src, dst) and merges it into a base version
(the empty graph, or the parent for `apply_batch`) with one sorted merge.
That merge, or `diff_graphs`'s lookup of one version's pairs in the other,
marks the edges the parent lacks; `_delta` builds every delta from those
marks. Per-node stats are derived from a version's edges when first read,
so equal edges give equal stats however the version was built.

Rows become columns once, at the entry point, and stay columns: an
`EdgeRows`. `read_edge_csv` splits a CSV in the form `csv.writer` gives
straight into columns, and `_columns` turns row tuples into them; both run
one converter. `ingest_edges`, `apply_batch` and `segment_schedule` take
either form and slice the columns. A delta carries its edges as columns
too, and a dump holds a version's columns as raw bytes. Wherever a bulk
parse of rows rejects its input, the exact per-row path takes over: the
`csv.reader` loop names a bad line, and `_coerce_record` alone names a bad
row.
"""

from __future__ import annotations

import csv
import io
from collections import deque
from dataclasses import dataclass
from itertools import chain, count
from operator import itemgetter

import numpy as np

from .errors import (
    AppendOrderError,
    ConfigError,
    ParseError,
    StateMismatchError,
    UnknownNodeError,
    open_text,
    read_header,
)

STAT_KINDS = ("V_in", "V_out", "F", "D_in", "D_out")

GRAPH_MAGIC = "WALKFORGE-GRAPH v2"

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
    """Difference between two consecutive graph versions. `affected_nodes`
    are the old endpoints of changed edges, `grown_nodes` the old sources of
    edges the parent lacks. `edge_columns` holds the changed edges as (src,
    dst, weight, ts, count) arrays, sorted by (src, dst); being arrays,
    deltas compare by identity."""

    src_version: int
    dst_version: int
    new_nodes: frozenset
    affected_nodes: frozenset
    grown_nodes: frozenset
    edge_columns: tuple


@dataclass(frozen=True, eq=False)
class EdgeRows:
    """Raw transfer rows as columns, every row checked as `_coerce_record`
    checks it: the `src` and `dst` address lists and the `value` (float64),
    `ts` (int64) and `count` (int64) arrays. A slice, a boolean mask or an
    index array selects rows; iterating yields (src, dst, value, ts, count)
    tuples."""

    src: list
    dst: list
    value: np.ndarray
    ts: np.ndarray
    count: np.ndarray

    def __len__(self) -> int:
        return len(self.value)

    def __getitem__(self, key) -> EdgeRows:
        if isinstance(key, slice):
            return EdgeRows(self.src[key], self.dst[key], self.value[key],
                            self.ts[key], self.count[key])
        at = np.asarray(key)
        if at.dtype == bool:
            at = np.flatnonzero(at)
        pick = at.tolist()
        return EdgeRows(list(map(self.src.__getitem__, pick)),
                        list(map(self.dst.__getitem__, pick)),
                        self.value[at], self.ts[at], self.count[at])

    def __iter__(self):
        return zip(self.src, self.dst, self.value.tolist(), self.ts.tolist(),
                   self.count.tolist())


def _rows(indptr: np.ndarray) -> np.ndarray:
    """The row of every entry of a CSR."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


class TransactionGraph:
    """Immutable snapshot of the transaction graph at one version.

    Storage is numpy columns: `_indptr` and the per-edge `_dst`,
    `_weight`, `_ts` and `_count`, sorted by (src, dst). Per-node stats are
    derived from them when first read. `out_csr()` is the stored adjacency;
    `in_csr()` is its transpose, merged from the parent's when that was
    built. The graph owns every traversal of its adjacency, so no other
    module depends on the layout.
    """

    def __init__(self, addresses, ids, edges, version, max_timestamp, in_adj):
        self._addresses, self._ids = addresses, ids
        self._indptr, self._dst, self._weight, self._ts, self._count = edges
        self.version = version
        self.max_timestamp = max_timestamp
        self.num_edges = len(self._dst)
        self._in_adj = in_adj  # (indptr, indices) of in_csr(), once built
        self._stats = {}  # kind -> stat_array(kind), once read

    # -- lookups -----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._addresses)

    def nodes(self) -> range:
        return range(len(self._addresses))

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

    def edges(self):
        """All edges, sorted by (src, dst)."""
        return map(TxEdge, _rows(self._indptr).tolist(), self._dst.tolist(),
                   self._weight.tolist(), self._ts.tolist(), self._count.tolist())

    # -- per-node stats (target-distribution inputs) ------------------------

    def node_stat(self, u: int, kind: str) -> float:
        """Activity statistic of node u: incoming/outgoing value, transfer
        frequency, or in/out degree."""
        self._check(u)
        return float(self.stat_array(kind)[u])

    def stat_array(self, kind: str) -> np.ndarray:
        """node_stat(u, kind) of every node u, as one read-only float64
        array derived from the edges on first read. V_in and V_out add the
        weights in (src, dst) order from +0.0; F, D_in and D_out are exact
        int64 sums, and a self-transfer counts once in F."""
        column = self._stats.get(kind)
        if column is None:
            if kind not in STAT_KINDS:
                raise ConfigError(f"unknown stat kind {kind!r}; expected one of {STAT_KINDS}")
            n, src, dst = self.num_nodes, _rows(self._indptr), self._dst
            if kind in ("V_in", "V_out"):  # bincount adds in order from +0.0
                column = np.bincount(dst if kind == "V_in" else src,
                                     weights=self._weight, minlength=n)
            elif kind == "F":
                other = src != dst
                tally = np.zeros(n, dtype=np.int64)
                np.add.at(tally, np.concatenate([src, dst[other]]),
                          np.concatenate([self._count, self._count[other]]))
                column = tally.astype(np.float64)
            else:
                column = np.bincount(dst if kind == "D_in" else src,
                                     minlength=n).astype(np.float64)
            column.flags.writeable = False
            self._stats[kind] = column
        return column

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
                            0, None, None)


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
    """(version, block, fresh): `base` plus the rows (s, d, w, ts, c) over
    the grown node table; the block is the rows aggregated per (src, dst),
    `fresh` marks its edges that the base lacks. It builds edges only.
    Weights add in row order onto the base's value: ((old + w1) + w2), from
    a new edge's first row (so -0.0 rows keep weight -0.0)."""
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
    in_adj = None
    if base._in_adj is not None:  # merge the new (dst, src) pairs into it
        in_adj = _merge(*base._in_adj, n, np.sort(new_dst[fresh] * n + src[fresh]))[:2]
    g = TransactionGraph(addresses, ids, edges, version, max_ts, in_adj)
    return g, (src, new_dst, *block), fresh


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


def _convert(src, dst, value, ts, cnt, k: int) -> EdgeRows:
    """EdgeRows of k rows from column iterables: address strings, then
    fields that `float` and `int` read; `cnt` None means count 1. Any bad
    row raises TypeError, ValueError or OverflowError without a name;
    `_coerce_record` names it."""
    # one whitespace-free word each, as _coerce_record's strip-and-test
    src = [a for (a,) in map(str.split, src)]
    dst = [a for (a,) in map(str.split, dst)]
    value = np.fromiter(map(float, value), np.float64, k)
    ts = np.fromiter(map(int, ts), np.int64, k)
    cnt = np.ones(k, dtype=np.int64) if cnt is None else np.fromiter(
        map(int, cnt), np.int64, k)
    if np.isnan(value).any() or (cnt < 1).any():
        raise ValueError("a row fails a check")
    return EdgeRows(src, dst, value, ts, cnt)


def _columns(records) -> EdgeRows:
    """The EdgeRows of a list of raw row tuples of 4 or 5 fields; EdgeRows
    are returned as they are."""
    if isinstance(records, EdgeRows):
        return records
    widths = set(map(len, records))
    if not widths <= {4, 5}:
        raise ValueError("a row has the wrong number of fields")
    cols = list(zip(*records)) or [()] * 4
    cnt = None if 5 not in widths else [r[4] if len(r) == 5 else 1 for r in records]
    return _convert(map(str, cols[0]), map(str, cols[1]), cols[2], cols[3], cnt,
                    len(records))


def _parse(records, rejects, floor=None) -> EdgeRows:
    """The rows with a non-negative value; the others go to `rejects` as
    (record number, reason), the rows being numbered 1, 2, .... On any bad
    row the scalar `_coerce_record` loop names the first one; a row older
    than `floor` raises AppendOrderError before the negative skip."""
    try:
        rows = _columns(records)
        if floor is not None and (rows.ts < floor).any():
            raise ValueError("a row predates the floor")
    except (TypeError, ValueError, OverflowError):
        for i, record in enumerate(records, start=1):
            _, _, v, t, _ = _coerce_record(record, f"record {i}")
            if floor is not None and t < floor:
                raise AppendOrderError(f"record {i}: timestamp {t} predates graph "
                                       f"max {floor} (append-only)") from None
            if v < 0 and rejects is not None:
                rejects.append((i, f"negative value {v}"))
        raise
    keep = rows.value >= 0
    if not keep.all():
        if rejects is not None:
            bad = np.flatnonzero(~keep).tolist()
            rejects.extend((j + 1, f"negative value {v}")
                           for j, v in zip(bad, rows.value[bad].tolist()))
        rows = rows[keep]
    return rows


def _extend(base: TransactionGraph, rows: EdgeRows, version: int) -> tuple:
    """`_grow` on parsed rows: new addresses get ids in first-appearance
    order, and the high-water mark rises to the rows' latest timestamp."""
    ends = list(chain.from_iterable(zip(rows.src, rows.dst)))
    ids = dict(base._ids)
    n_old = base.num_nodes
    addresses = base._addresses + [a for a in dict.fromkeys(ends) if a not in ids]
    ids.update(zip(addresses[n_old:], count(n_old)))
    nid = np.fromiter(map(ids.__getitem__, ends), np.intp, len(ends))
    max_ts = base.max_timestamp
    if len(rows):
        top = int(rows.ts.max())
        max_ts = top if max_ts is None else max(max_ts, top)
    return _grow(base, addresses, ids, nid[0::2], nid[1::2], rows.value, rows.ts,
                 rows.count, version, max_ts)


def _append(base: TransactionGraph, records, rejects, version: int,
            floor=None) -> tuple:
    """`_extend` on the rows of `records`, EdgeRows or an iterable of tuples."""
    if not isinstance(records, EdgeRows):
        records = list(records)
    return _extend(base, _parse(records, rejects, floor), version)


def _delta(g_prev: TransactionGraph, g_next: TransactionGraph, columns,
           fresh) -> GraphDelta:
    """The delta from g_prev to g_next whose changed edges are the
    (src, dst, weight, ts, count) `columns`, `fresh` marking the edges
    that g_prev lacks."""
    n = g_prev.num_nodes
    ends, grown = np.concatenate(columns[:2]), columns[0][fresh]
    return GraphDelta(g_prev.version, g_next.version,
                      frozenset(range(n, g_next.num_nodes)),
                      frozenset(ends[ends < n].tolist()),
                      frozenset(grown[grown < n].tolist()), columns)


def ingest_edges(records, rejects: list | None = None) -> TransactionGraph:
    """Build the version-0 graph from raw rows (src, dst, value, timestamp[, count]).

    Malformed rows raise ParseError; rows with a negative value are skipped
    and, when `rejects` is given, recorded there as (record_number, reason),
    records being numbered 1, 2, ....
    """
    return _append(_empty(), records, rejects, version=0)[0]


def apply_batch(g: TransactionGraph, records,
                rejects: list | None = None) -> tuple:
    """Append a batch of rows, returning (new graph version, delta).

    Timestamps must not predate data already in the graph. A batch row for
    an already-present edge accumulates weight/count. The delta names every
    existing endpoint of a batch edge in `affected_nodes`, since either
    one's stats may change, and the old sources of its new edges in
    `grown_nodes`; `incremental.plan_update` picks the set whose transition
    law changed in the corpus's walk mode. Records are numbered as in
    `ingest_edges`.
    """
    g2, block, fresh = _append(g, records, rejects, g.version + 1,
                               floor=g.max_timestamp)
    return g2, _delta(g, g2, block, fresh)


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
    pos, fresh = _lookup(g_prev._indptr, g_prev._dst, n, keys)
    at, was = np.flatnonzero(~fresh), pos[~fresh]
    weight, tally = g_next._weight.copy(), g_next._count.copy()
    changed = fresh.copy()
    changed[at] = (weight[at] != g_prev._weight[was]) | (tally[at] != g_prev._count[was])
    weight[at] -= g_prev._weight[was]
    tally[at] -= g_prev._count[was]
    k = np.flatnonzero(changed)
    return _delta(g_prev, g_next, (keys[k] // n, g_next._dst[k], weight[k],
                                   g_next._ts[k], tally[k]), fresh[k])


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
    """Sort rows (EdgeRows, or a list of raw row tuples) by timestamp and
    build one cumulative graph per fraction.

    Ties in timestamp keep input order so segmentation is deterministic.
    Each returned graph is a successor version of the previous one, grown
    from a slice of one parse of all rows. A malformed row is named by its
    input record number, as `ingest_edges` and `apply_batch` would name it
    segment by segment: the first bad row in timestamp order, or in input
    order when some timestamp is not an int64.
    """
    try:
        rows = _columns(records)
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
    sizes = segment_sizes(len(rows), initial_frac, step_frac)
    order = np.argsort(rows.ts, kind="stable")
    keep = rows.value[order] >= 0
    rows = rows[order[keep]]
    # kept rows at the end of each segment
    bounds = np.concatenate([[0], np.cumsum(keep)])[[0, *sizes]].tolist()
    graphs, g = [], _empty()
    for version, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        g = _extend(g, rows[lo:hi], version)[0]
        graphs.append(g)
    return graphs


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

_CSV_HEADERS = ("src,dst,value,timestamp", "src,dst,value,timestamp,count")


def read_edge_csv(path):
    """Read a `src,dst,value,timestamp[,count]` CSV into EdgeRows.

    A text in the form `csv.writer` gives is split straight into columns
    (`_split_csv`); any other goes through the exact `csv.reader` loop,
    which names a bad line. A data line must have the header's number of
    fields; blank lines are skipped. When some row's fields do not convert,
    the raw row tuples are returned, so that `ingest_edges` and
    `segment_schedule` name the bad record as they name a bad tuple.
    """
    with open_text(path, newline="") as fh:
        text = fh.read()
    rows = _split_csv(text)
    if rows is not None:
        return rows
    rows = []
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{path}: empty file") from None
    got = [c.strip().lower() for c in header]
    if got not in [h.split(",") for h in _CSV_HEADERS]:
        raise ParseError(f"{path}:1: bad header {header!r}; "
                         f"expected src,dst,value,timestamp[,count]")
    for line_no, fields in enumerate(reader, start=2):
        if not fields:
            continue
        if len(fields) != len(got):
            raise ParseError(f"{path}:{line_no}: expected {len(got)} fields, "
                             f"got {len(fields)}")
        rows.append(tuple(fields))
    try:
        return _columns(rows)
    except (TypeError, ValueError, OverflowError):
        return rows


def _split_csv(text: str) -> EdgeRows | None:
    """The EdgeRows of a CSV text that `csv.reader` would split on its
    commas and line ends alone, or None. That holds when the text has no
    quote and no NUL, every carriage return is part of a CRLF, the header
    is one of `_CSV_HEADERS` exactly, and every line has the header's k
    fields (so none is blank), each of at most `csv.field_size_limit()`
    bytes. None also when a field does not convert."""
    if '"' in text or "\0" in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    end = text.find("\n")
    if end < 0 or text[:end] not in _CSV_HEADERS:
        return None
    k = text.count(",", 0, end) + 1
    lines = _csv_lines(text, k)
    if lines is None:
        return None
    tok = text.replace("\n", ",").split(",")
    if text.endswith("\n"):
        tok.pop()
    try:
        return _convert(tok[k::k], tok[k + 1::k], tok[k + 2::k], tok[k + 3::k],
                        tok[k + 4::k] if k == 5 else None, lines - 1)
    except (TypeError, ValueError, OverflowError):
        return None


def _csv_lines(text: str, k: int) -> int | None:
    """The number of lines of `text` (a final line end is optional) when
    each has k comma-separated fields of at most `csv.field_size_limit()`
    bytes, else None."""
    # a comma or newline byte never falls inside a UTF-8 sequence
    b = np.frombuffer(text.encode("utf-8"), np.uint8)
    at = np.flatnonzero((b == 44) | (b == 10))
    sep = b[at]
    final = text.endswith("\n")
    # the separators run (k - 1 commas, a newline) per line
    lines, extra = divmod(len(sep) + 1 - final, k)
    if (extra or (sep[k - 1::k] != 10).any()
            or np.count_nonzero(sep == 10) != lines - 1 + final
            or np.diff(at, prepend=-1, append=len(b)).max() > csv.field_size_limit() + 1):
        return None
    return lines


# a dump's header fields, and its edge columns in file order
_GRAPH_HEADER = {"nodes": int, "edges": int, "version": int,
                 "maxts": lambda t: None if t == "none" else int(t), "address_bytes": int}
_COLUMNS = ("<i8", "<i8", "<f8", "<i8", "<i8")  # src, dst, weight, ts, count


def _address_block(addresses) -> bytes:
    """The dump's address block: each address in UTF-8, then a newline."""
    return "".join(a + "\n" for a in addresses).encode("utf-8")


def save_graph(g: TransactionGraph, path):
    """The header line, the address block, then the edge columns in (src,
    dst) order as little-endian int64/float64; output is byte-deterministic."""
    block = _address_block(g._addresses)
    max_ts = g.max_timestamp if g.max_timestamp is not None else "none"
    with open(path, "wb") as fh:
        fh.write(f"{GRAPH_MAGIC} nodes={g.num_nodes} edges={g.num_edges} version={g.version} "
                 f"maxts={max_ts} address_bytes={len(block)}\n".encode("ascii"))
        fh.write(block)
        for column, dtype in zip((_rows(g._indptr), g._dst, g._weight, g._ts, g._count),
                                 _COLUMNS):
            fh.write(column.astype(dtype, copy=False).tobytes())


def load_graph(path) -> TransactionGraph:
    """Size the payload by the header's counts before reading it, check the
    address block, the node ids and that the edges are in strictly
    ascending (src, dst) order, as `save_graph` writes them, then build the
    version from the edge columns as `ingest_edges` would."""
    with open(path, "rb") as fh:
        (n, m, version, max_ts, b), size = read_header(fh, path, GRAPH_MAGIC, _GRAPH_HEADER)
        if min(n, m, b) < 0 or size != b + 40 * m:
            raise ParseError(f"{path}: {size} bytes after the header are not "
                             f"address_bytes={b} plus edges={m} rows of 40 bytes")
        block = fh.read(b)
        src, dst, w, ts, c = (np.fromfile(fh, dtype=t, count=m) for t in _COLUMNS)
    try:
        addresses = block.decode("utf-8").split()
    except UnicodeDecodeError:
        raise ParseError(f"{path}: the address block is not valid UTF-8") from None
    ids = dict(zip(addresses, count()))
    if not len(addresses) == len(ids) == n or _address_block(addresses) != block:
        raise ParseError(f"{path}: the address block is not nodes={n} distinct "
                         f"addresses, each without whitespace and ending a line")
    bad = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
    if bad.any():
        k = int(bad.argmax())
        raise ParseError(f"{path}: edge {k}: ({src[k]}, {dst[k]}) names a node "
                         f"outside 0..{n - 1}")
    unordered = np.flatnonzero(np.diff(src * n + dst) <= 0)
    if len(unordered):
        k = int(unordered[0]) + 1
        raise ParseError(f"{path}: edge {k}: ({src[k]}, {dst[k]}) does not follow "
                         f"edge {k - 1} ({src[k - 1]}, {dst[k - 1]}) in (src, dst) order")
    # aggregated edges keep earliest timestamps, so the true high-water mark
    # only survives through the header's maxts
    return _grow(_empty(), addresses, ids, src, dst, w, ts, c, version, max_ts)[0]
