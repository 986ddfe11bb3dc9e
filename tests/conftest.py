import numpy as np
from hypothesis import HealthCheck, settings

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


def resumed(sampler, prefixes, walk_ids):
    """The walks `sampler` resumes from these prefixes, with the draws of
    these walk ids, in one call over token rows, as tuples."""
    rows = np.full((len(prefixes), max(sampler.cfg.walk_length, *map(len, prefixes))),
                   -1, dtype=np.int32)
    for row, p in zip(rows, prefixes):
        row[:len(p)] = p
    rows = sampler.walks(walk_ids, rows, np.array([len(p) - 1 for p in prefixes]))
    return [tuple(r[r >= 0].tolist()) for r in rows]
