import csv
from dataclasses import dataclass
from itertools import islice

import numpy as np
from hypothesis import HealthCheck, settings

from walkforge.errors import ModeMismatchError, ParseError
from walkforge.walks import _FALLBACK_TRIES, MODE_UNIFORM, keyed_uniforms

settings.register_profile(
    "suite", max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


def rows_from_edges(edges, value=1.0, names=None):
    """Turn (src, dst[, value]) tuples into ingest rows with sequential
    timestamps."""
    rows = []
    for ts, e in enumerate(edges):
        u, v = e[0], e[1]
        w = e[2] if len(e) > 2 else value
        nu = names[u] if names else f"n{u}"
        nv = names[v] if names else f"n{v}"
        rows.append((nu, nv, w, ts))
    return rows


def csv_reader_rows(path):
    """Reference for read_edge_csv: the rows of an edge CSV as the raw
    field tuples of `csv.reader`, after the header check; blank lines are
    skipped and a row must have the header's number of fields."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        got = [c.strip().lower() for c in header]
        if got not in (["src", "dst", "value", "timestamp"],
                       ["src", "dst", "value", "timestamp", "count"]):
            raise ParseError(f"{path}:1: bad header {header!r}; "
                             f"expected src,dst,value,timestamp[,count]")
        rows = []
        for line_no, fields in enumerate(reader, start=2):
            if not fields:
                continue
            if len(fields) != len(got):
                raise ParseError(f"{path}:{line_no}: expected {len(got)} fields, "
                                 f"got {len(fields)}")
            rows.append(tuple(fields))
    return rows


def random_rows(num_nodes, num_edges, seed, weighted=True):
    rng = np.random.default_rng(seed)
    rows, seen, ts = [], set(), 0
    while len(seen) < num_edges:
        u = int(rng.integers(num_nodes))
        v = int(rng.integers(num_nodes))
        if (u, v) in seen:
            continue
        seen.add((u, v))
        w = round(float(rng.uniform(0.1, 5.0)), 4) if weighted else 1.0
        rows.append((f"n{u}", f"n{v}", w, ts))
        ts += 1
    return rows


def uniform_walk(g, u, l, rng):
    """One uniform out-walk of at most l nodes starting at u, written
    independently of the library's samplers so tests can use it as the
    reference distribution."""
    g._check(u)
    walk = [u]
    while len(walk) < l:
        nbrs = g.out_neighbors(walk[-1])
        if not nbrs:
            break
        walk.append(nbrs[rng.integers(len(nbrs))])
    return tuple(walk)


def upstream_hops(g, u, h):
    """{x: directed hop distance from x to u} for every node x != u that
    reaches u within h hops, from one BFS over g.in_csr()."""
    g._check(u)
    csr = g.in_csr()
    hops = {u: 0}
    level = [u]
    for d in range(1, h + 1):
        nxt = []
        for x in level:
            for y in csr.indices[csr.indptr[x]:csr.indptr[x + 1]].tolist():
                if y not in hops:
                    hops[y] = d
                    nxt.append(y)
        level = nxt
    del hops[u]
    return hops


def guard_expansion(g, u, ball, h, u_prop):
    """The leap walker's guard path for one walk at the overflow node u,
    written as a plain loop: up to _FALLBACK_TRIES random h-step out-walks
    from u, each hop on the next of the uniforms that the proposal uniform
    u_prop seeds (a try that ends at a sink on hop j uses j + 1 of them).
    The first landing outside `ball`, or None when the tries run out."""
    us = iter(keyed_uniforms(int(u_prop * 2.0 ** 53), (0,),
                             range(h * _FALLBACK_TRIES))[0].tolist())
    for _ in range(_FALLBACK_TRIES):
        x = u
        for unif in islice(us, h):
            nbrs = g.out_neighbors(x)
            if not nbrs:
                x = None
                break
            x = nbrs[int(unif * len(nbrs))]
        if x is not None and x not in ball:
            return x
    return None


def resumed(sampler, prefixes, walk_ids):
    """The walks `sampler` resumes from these prefixes, with the draws of
    these walk ids, in one call over token rows, as tuples."""
    rows = np.full((len(prefixes), max(sampler.cfg.walk_length, *map(len, prefixes))),
                   -1, dtype=np.int32)
    for row, p in zip(rows, prefixes):
        row[:len(p)] = p
    rows = sampler.walks(walk_ids, rows, np.array([len(p) - 1 for p in prefixes]))
    return [tuple(r[r >= 0].tolist()) for r in rows]


def pad_walks(walks, l):
    """Walks of at most l nodes as int32 rows padded with -1 to l."""
    rows = np.full((len(walks), l), -1, dtype=np.int32)
    for row, walk in zip(rows, walks):
        row[:len(walk)] = walk
    return rows


def write_corpus(path, header, rows):
    """A corpus file: the header line (str, or bytes for one that is not
    UTF-8), then the padded rows as little-endian int32."""
    head = header if isinstance(header, bytes) else header.encode()
    with open(path, "wb") as fh:
        fh.write(head + b"\n" + np.asarray(rows, dtype="<i4").tobytes())


def sgns_step_oracle(inp, out, pairs, negatives, lr, row_hits):
    """One trainer batch of negative sampling, written as a plain loop over
    the pairs: the matrices after one summed step of lr times the loss
    gradients, all taken at the given matrices, where a row touched
    h > row_hits times in the batch takes row_hits / h of its sum."""
    g_in, g_out = np.zeros_like(inp), np.zeros_like(out)
    hits_in, hits_out = np.zeros(len(inp)), np.zeros(len(out))
    for (c, ctx), negs in zip(pairs, negatives):
        hits_in[c] += 1
        for row, label in [(ctx, 1.0)] + [(r, 0.0) for r in negs]:
            score = float(inp[c] @ out[row])
            coeff = 1.0 / (1.0 + np.exp(-score)) - label  # d loss / d score
            g_in[c] += coeff * out[row]
            g_out[row] += coeff * inp[c]
            hits_out[row] += 1
    new_in, new_out = inp.copy(), out.copy()
    for new, grad, hits in ((new_in, g_in, hits_in), (new_out, g_out, hits_out)):
        for row, h in enumerate(hits):
            if h:
                new[row] -= lr * min(1.0, row_hits / h) * grad[row]
    return new_in, new_out


# The transition MAE as per-pair dicts and a loop over the graph's edges:
# the reference that the array join in walkforge.evaluation must equal.

@dataclass
class TransitionTable:
    """Consecutive-pair counts of a walk corpus."""

    counts: dict            # (src, dst) -> int
    row_totals: dict        # src -> int
    mode: str

    def prob(self, u: int, v: int) -> float:
        total = self.row_totals.get(u)
        if not total:
            return 0.0
        return self.counts.get((u, v), 0) / total


def empirical_transitions(corpus) -> TransitionTable:
    if not len(corpus):
        raise ValueError("corpus has no walks")
    tokens, lengths = corpus.flat_tokens()
    width = int(tokens.max()) + 1
    has_next = np.ones(len(tokens) - 1, dtype=bool)
    has_next[np.cumsum(lengths[:-1]) - 1] = False  # a walk's last token
    codes = tokens[:-1][has_next] * width  # pair (u, v) as u * width + v
    codes += tokens[1:][has_next]
    del tokens, has_next  # freed before np.unique sorts a copy of codes
    codes, counts = np.unique(codes, return_counts=True)
    src, dst = np.divmod(codes, width)
    sources, first = np.unique(src, return_index=True)
    return TransitionTable(
        dict(zip(zip(src.tolist(), dst.tolist()), counts.tolist())),
        dict(zip(sources.tolist(), np.add.reduceat(counts, first).tolist())),
        corpus.mode)


def theoretical_transitions(g) -> dict:
    """Per directed edge, the uniform-walk probability 1/out_degree."""
    csr = g.out_csr()
    deg = np.diff(csr.indptr)
    src = np.repeat(np.arange(len(deg)), deg)
    return dict(zip(zip(src.tolist(), csr.indices.tolist()),
                    (1.0 / deg[src]).tolist()))


def delta_mae(emp: TransitionTable, theo: dict) -> float:
    """Mean |empirical - theoretical| over all directed edges of the graph."""
    if emp.mode != MODE_UNIFORM:
        raise ModeMismatchError(
            "transition MAE is defined against the 1/out-degree reference, "
            f"which only uniform corpora follow (corpus mode: {emp.mode!r})")
    if not theo:
        raise ValueError("graph has no edges")
    return sum(abs(emp.prob(u, v) - p) for (u, v), p in theo.items()) / len(theo)
