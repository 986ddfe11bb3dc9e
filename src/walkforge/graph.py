"""Evolving directed transaction graph with cached per-node activity stats.

Raw transfer rows (sender, receiver, value, timestamp) are aggregated into
at most one weighted edge per ordered node pair. Graph versions are
immutable: appending a batch produces a new version plus a delta naming
the new and affected nodes. Node ids are dense ints handed out in
first-appearance order and never change across versions, so walk corpora
that reference ids stay valid after updates.
"""

from __future__ import annotations

import csv
from collections import deque
from dataclasses import dataclass
from itertools import chain, count

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
    ascending order. `tokens[u]` is node id u as one int object shared by
    every walk built from this version, so a corpus holds one object per
    node rather than one per token.
    """

    indptr: np.ndarray
    indices: np.ndarray
    tokens: np.ndarray


@dataclass(frozen=True)
class GraphDelta:
    """Difference between two consecutive graph versions."""

    src_version: int
    dst_version: int
    new_nodes: frozenset
    affected_nodes: frozenset
    new_edges: tuple

    @property
    def empty(self) -> bool:
        return not self.new_nodes and not self.affected_nodes and not self.new_edges


class TransactionGraph:
    """Immutable snapshot of the transaction graph at one version.

    Each edge is stored once, in a per-source dict keyed by destination;
    sorted neighbor tuples and the out- and in-edge CSR views are
    materialized lazily and memoized. Per-node value, frequency and
    in-degree stats are maintained incrementally so `node_stat` is O(1).
    The graph owns every traversal of its adjacency, the leap sampler's
    capped frontier BFS and upstream BFS included, so no other module
    depends on the layout.
    """

    def __init__(self, addresses, ids, out, d_in, v_in, v_out, freq,
                 num_edges, version, max_timestamp, csr_base=None):
        self._addresses = addresses
        self._ids = ids
        self._out = out  # list[dict[dst, TxEdge]]
        self._d_in = d_in
        self._v_in = v_in
        self._v_out = v_out
        self._freq = freq
        self.version = version
        self.max_timestamp = max_timestamp
        self.num_edges = num_edges
        self._nbrs_out = [None] * len(addresses)
        self._csr = None
        # (parent's CSR, sorted old sources that gained an out-neighbour)
        self._csr_base = csr_base
        self._in_csr = None

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
        nbrs = self._nbrs_out[u]
        if nbrs is None:
            nbrs = tuple(sorted(self._out[u]))
            self._nbrs_out[u] = nbrs
        return nbrs

    def out_csr(self) -> CSR:
        """The CSR view of the out-adjacency, built once per version. A
        version made by apply_batch from a parent whose view was built
        copies the parent's arrays and re-splices only the changed rows."""
        csr = self._csr
        if csr is None:
            if self._csr_base is None:
                csr = _build_csr(self._out)
            else:
                csr = _splice_csr(*self._csr_base, self._out)
            self._csr = csr
            self._csr_base = None
        return csr

    def in_csr(self) -> CSR:
        """The CSR view of the in-adjacency, transposed from out_csr() once
        per version: row v lists the sources of v's in-edges, ascending."""
        csr = self._in_csr
        if csr is None:
            out = self.out_csr()
            n = len(out.indptr) - 1
            indptr = np.zeros(n + 1, dtype=np.intp)
            np.cumsum(np.bincount(out.indices, minlength=n), out=indptr[1:])
            # a stable sort by destination keeps each row's sources ascending
            src = np.repeat(np.arange(n), np.diff(out.indptr))
            csr = CSR(indptr, src[np.argsort(out.indices, kind="stable")],
                      out.tokens)
            self._in_csr = csr
        return csr

    def edge(self, u: int, v: int) -> TxEdge | None:
        self._check(u)
        return self._out[u].get(v)

    def edges(self):
        """All edges, sorted by (src, dst)."""
        for u in range(len(self._out)):
            for v in sorted(self._out[u]):
                yield self._out[u][v]

    # -- per-node stats (target-distribution inputs) ------------------------

    def node_stat(self, u: int, kind: str) -> float:
        """Activity statistic of node u: incoming/outgoing value, transfer
        frequency, or in/out degree."""
        self._check(u)
        if kind == "V_in":
            return self._v_in[u]
        if kind == "V_out":
            return self._v_out[u]
        if kind == "F":
            return float(self._freq[u])
        if kind == "D_in":
            return float(self._d_in[u])
        if kind == "D_out":
            return float(len(self._out[u]))
        raise ConfigError(f"unknown stat kind {kind!r}; expected one of {STAT_KINDS}")

    def stat_array(self, kind: str) -> np.ndarray:
        """node_stat(u, kind) of every node u, as one float64 array."""
        if kind == "D_out":
            return np.diff(self.out_csr().indptr).astype(np.float64)
        column = {"V_in": self._v_in, "V_out": self._v_out, "F": self._freq,
                  "D_in": self._d_in}.get(kind)
        if column is None:
            raise ConfigError(f"unknown stat kind {kind!r}; expected one of {STAT_KINDS}")
        return np.array(column, dtype=np.float64)

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
        seen = {u}
        level = [u]
        for _ in range(h - 1):
            nxt = []
            for x in level:
                for y in self._out[x]:
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            if not nxt:
                return (), None
            level = nxt
        frontier = []
        for x in level:
            for y in self._out[x]:
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
        seen = {u}
        queue = deque([(u, 0)])
        while queue:
            x, d = queue.popleft()
            if d == cap:
                continue
            for y in self._out[x]:
                if y == v:
                    return d + 1
                if y not in seen:
                    seen.add(y)
                    queue.append((y, d + 1))
        return None


# ---------------------------------------------------------------------------
# CSR view
# ---------------------------------------------------------------------------

def _build_csr(out) -> CSR:
    deg = np.fromiter(map(len, out), dtype=np.intp, count=len(out))
    indptr = np.zeros(len(out) + 1, dtype=np.intp)
    np.cumsum(deg, out=indptr[1:])
    indices = np.fromiter(chain.from_iterable(map(sorted, out)), dtype=np.intp,
                          count=int(indptr[-1]))
    return CSR(indptr, indices, np.arange(len(out)).astype(object))


def _splice_csr(base: CSR, gained, out) -> CSR:
    """`base` with the rows of `gained` (old sources that gained an
    out-neighbour) and of the nodes added since rebuilt from `out`."""
    n_old = len(base.indptr) - 1
    n = len(out)
    rebuilt = list(gained) + list(range(n_old, n))
    deg = np.empty(n, dtype=np.intp)
    deg[:n_old] = np.diff(base.indptr)
    deg[rebuilt] = [len(out[u]) for u in rebuilt]
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(deg, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.intp)
    lo = 0  # rows lo..u-1 are unchanged and copied as one stretch
    for u in [*gained, n_old]:
        indices[indptr[lo]:indptr[u]] = base.indices[base.indptr[lo]:base.indptr[u]]
        lo = u + 1
    for u in rebuilt:
        indices[indptr[u]:indptr[u + 1]] = sorted(out[u])
    tokens = base.tokens
    if n > n_old:
        tokens = np.concatenate([tokens, np.arange(n_old, n).astype(object)])
    return CSR(indptr, indices, tokens)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

class _Builder:
    """Mutable accumulator behind ingest/apply; one instance per new version."""

    def __init__(self, base: TransactionGraph | None = None):
        if base is None:
            self.addresses = []
            self.ids = {}
            self.out = []
            self.d_in = []
            self.v_in = []
            self.v_out = []
            self.freq = []
            self.num_edges = 0
            self.max_ts = None
        else:
            self.addresses = list(base._addresses)
            self.ids = dict(base._ids)
            # inner dicts are copied lazily, only for touched nodes
            self.out = list(base._out)
            self.d_in = list(base._d_in)
            self.v_in = list(base._v_in)
            self.v_out = list(base._v_out)
            self.freq = list(base._freq)
            self.num_edges = base.num_edges
            self.max_ts = base.max_timestamp
        self._base_n = len(self.addresses)
        self._copied_out = set()
        self.gained = set()  # old sources given a new out-neighbour

    def node_id(self, address: str) -> int:
        nid = self.ids.get(address)
        if nid is None:
            nid = len(self.addresses)
            self.ids[address] = nid
            self.addresses.append(address)
            self.out.append({})
            self.d_in.append(0)
            self.v_in.append(0.0)
            self.v_out.append(0.0)
            self.freq.append(0)
        return nid

    def _out_dict(self, u: int) -> dict:
        if u < self._base_n and u not in self._copied_out:
            self.out[u] = dict(self.out[u])
            self._copied_out.add(u)
        return self.out[u]

    def add(self, s: int, d: int, weight: float, ts: int, count: int):
        out_d = self._out_dict(s)
        prev = out_d.get(d)
        if prev is None:
            out_d[d] = TxEdge(s, d, weight, ts, count)
            self.d_in[d] += 1
            self.num_edges += 1
            if s < self._base_n:
                self.gained.add(s)
        else:
            out_d[d] = TxEdge(s, d, prev.weight + weight,
                              min(prev.timestamp, ts), prev.count + count)
        self.v_out[s] += weight
        self.v_in[d] += weight
        self.freq[s] += count
        if d != s:  # a self-transfer is a single transaction, not two
            self.freq[d] += count
        if self.max_ts is None or ts > self.max_ts:
            self.max_ts = ts

    def build(self, version: int, base: TransactionGraph | None = None
              ) -> TransactionGraph:
        """The new version; with `base`, its CSR view (when built) is
        passed on for splicing."""
        csr_base = None
        if base is not None and base._csr is not None:
            csr_base = (base._csr, sorted(self.gained))
        return TransactionGraph(self.addresses, self.ids, self.out, self.d_in,
                                self.v_in, self.v_out, self.freq,
                                self.num_edges, version, self.max_ts, csr_base)


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
    try:
        count = int(count)
    except (TypeError, ValueError):
        raise ParseError(f"{where}: count {record[4]!r} is not an integer") from None
    if count < 1:
        raise ParseError(f"{where}: count must be >= 1, got {count}")
    return src, dst, value, ts, count


def ingest_edges(records, rejects: list | None = None,
                 numbers=None) -> TransactionGraph:
    """Build the version-0 graph from raw rows (src, dst, value, timestamp[, count]).

    Malformed rows raise ParseError; rows with a negative value are skipped
    and, when `rejects` is given, recorded there as (record_number, reason).
    Records are numbered 1, 2, ... unless `numbers` gives each row's number.
    """
    b = _Builder()
    for i, record in zip(numbers or count(1), records):
        src, dst, value, ts, cnt = _coerce_record(record, f"record {i}")
        if value < 0:
            if rejects is not None:
                rejects.append((i, f"negative value {value}"))
            continue
        b.add(b.node_id(src), b.node_id(dst), value, ts, cnt)
    return b.build(version=0)


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
    b = _Builder(g)
    prev_n = g.num_nodes
    touched = set()
    batch_edges = {}
    for i, record in zip(numbers or count(1), records):
        src, dst, value, ts, cnt = _coerce_record(record, f"record {i}")
        if g.max_timestamp is not None and ts < g.max_timestamp:
            raise AppendOrderError(
                f"record {i}: timestamp {ts} predates graph max "
                f"{g.max_timestamp} (append-only)")
        if value < 0:
            if rejects is not None:
                rejects.append((i, f"negative value {value}"))
            continue
        s = b.node_id(src)
        d = b.node_id(dst)
        b.add(s, d, value, ts, cnt)
        touched.add(s)
        touched.add(d)
        prev = batch_edges.get((s, d))
        if prev is None:
            batch_edges[(s, d)] = [value, ts, cnt]
        else:
            prev[0] += value
            prev[1] = min(prev[1], ts)
            prev[2] += cnt
    new_nodes = frozenset(u for u in touched if u >= prev_n)
    affected = frozenset(u for u in touched if u < prev_n)
    new_edges = tuple(TxEdge(s, d, w, ts, c)
                      for (s, d), (w, ts, c) in sorted(batch_edges.items()))
    delta = GraphDelta(g.version, g.version + 1, new_nodes, affected, new_edges)
    return b.build(g.version + 1, base=g), delta


def diff_graphs(g_prev: TransactionGraph, g_next: TransactionGraph) -> GraphDelta:
    """Recover the delta between two versions of the same graph lineage.

    Both graphs must share the id assignment (g_next grown from g_prev).
    Edge rows in the result carry the weight/count difference.
    """
    if g_next.num_nodes < g_prev.num_nodes or g_next.version <= g_prev.version:
        raise StateMismatchError(
            f"graph v{g_next.version} (|V|={g_next.num_nodes}) is not a successor "
            f"of v{g_prev.version} (|V|={g_prev.num_nodes})")
    for u in range(g_prev.num_nodes):
        if g_prev._addresses[u] != g_next._addresses[u]:
            raise StateMismatchError(
                f"graphs disagree on node {u}: {g_prev._addresses[u]!r} vs "
                f"{g_next._addresses[u]!r}; not the same lineage")
    new_nodes = frozenset(range(g_prev.num_nodes, g_next.num_nodes))
    affected = set()
    new_edges = []
    for u in range(g_prev.num_nodes):
        old = g_prev._out[u]
        new = g_next._out[u]
        if old is new:
            continue
        for v, e in new.items():
            o = old.get(v)
            if o is None:
                new_edges.append(e)
            elif e.weight != o.weight or e.count != o.count:
                new_edges.append(TxEdge(u, v, e.weight - o.weight,
                                        e.timestamp, e.count - o.count))
            else:
                continue
            affected.add(u)
            if v < g_prev.num_nodes:
                affected.add(v)
    for u in new_nodes:
        for v, e in g_next._out[u].items():
            new_edges.append(e)
            if v < g_prev.num_nodes:
                affected.add(v)
    new_edges.sort(key=lambda e: (e.src, e.dst))
    return GraphDelta(g_prev.version, g_next.version, new_nodes,
                      frozenset(affected), tuple(new_edges))


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
    Each returned graph is a successor version of the previous one. A
    malformed row is named by its input record number, as ingest names it.
    """
    try:
        order = sorted(range(len(records)), key=lambda i: int(records[i][3]))
    except (IndexError, TypeError, ValueError):
        # name the first bad row the way ingest would
        for i, record in enumerate(records):
            _coerce_record(record, f"record {i + 1}")
        raise
    rows = [records[i] for i in order]
    numbers = [i + 1 for i in order]
    sizes = segment_sizes(len(rows), initial_frac, step_frac)
    graphs = []
    g = ingest_edges(rows[:sizes[0]], numbers=numbers[:sizes[0]])
    graphs.append(g)
    for lo, hi in zip(sizes, sizes[1:]):
        g, _ = apply_batch(g, rows[lo:hi], numbers=numbers[lo:hi])
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
        for u in g.nodes():
            fh.write(f"node {u} {g.address_of(u)}\n")
        for e in g.edges():
            fh.write(f"edge {e.src} {e.dst} {e.weight!r} {e.timestamp} {e.count}\n")


def load_graph(path) -> TransactionGraph:
    """Read a graph dump written by save_graph."""
    b = _Builder()
    version = 0
    max_ts = None
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
        for line_no, line in enumerate(fh, start=2):
            fields = line.split()
            if not fields:
                continue
            tag = fields[0]
            try:
                if tag == "version":
                    version = int(fields[1])
                elif tag == "maxts":
                    max_ts = None if fields[1] == "none" else int(fields[1])
                elif tag == "node":
                    nid = int(fields[1])
                    if b.node_id(fields[2]) != nid:
                        raise ParseError(f"{path}:{line_no}: node ids out of order")
                elif tag == "edge":
                    s, d = int(fields[1]), int(fields[2])
                    w, ts, c = float(fields[3]), int(fields[4]), int(fields[5])
                    b.add(s, d, w, ts, c)
                else:
                    raise ParseError(f"{path}:{line_no}: unknown tag {tag!r}")
            except (IndexError, ValueError):
                raise ParseError(f"{path}:{line_no}: malformed line {line!r}") from None
    if declared_nodes != len(b.addresses) or declared_edges != b.num_edges:
        raise ParseError(
            f"{path}: header declares nodes={declared_nodes} edges={declared_edges} "
            f"but file has {len(b.addresses)}/{b.num_edges}")
    # aggregated edges keep earliest timestamps, so the true high-water mark
    # only survives through the maxts line
    b.max_ts = max_ts
    return b.build(version=version)
