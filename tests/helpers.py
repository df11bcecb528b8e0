"""Shared random-instance generators and reference checks for the test suite."""
from __future__ import annotations

from edgepow import Graph, fibers, graph_from_edges, sym_exchange_binomials
from edgepow.toric import ConnectivityReport, Fiber, FiberCheck


def random_connected_graph(rng, n_min=2, n_max=8, extra_max=4) -> Graph:
    """Random labeled tree plus a few extra edges; always connected, no isolated vertex."""
    n = rng.randint(n_min, n_max)
    edges = set()
    for v in range(2, n + 1):
        u = rng.randint(1, v - 1)
        edges.add((u, v))
    non_edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if (u, v) not in edges
    ]
    rng.shuffle(non_edges)
    for e in non_edges[: rng.randint(0, extra_max)]:
        edges.add(e)
    return graph_from_edges(n, sorted(edges))


def random_caps(rng, n, cap_max=3):
    return tuple(rng.randint(1, cap_max) for _ in range(n))


def random_member_set(rng, n_min=2, n_max=5, deg_min=2, deg_max=4, size_max=12):
    """Random set of equal-degree exponent vectors (not necessarily a polymatroid)."""
    n = rng.randint(n_min, n_max)
    deg = rng.randint(deg_min, deg_max)
    size = rng.randint(1, size_max)
    out = set()
    for _ in range(4 * size):
        cuts = sorted(rng.randint(0, deg) for _ in range(n - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [deg])]
        out.add(tuple(parts))
        if len(out) == size:
            break
    return out


# Reference fiber connectivity: depth-first search from each fiber's first
# node, trying every quadratic move in both directions on every node reached.

def _apply_moves(node, moves):
    """Neighbor multisets reachable by one quadratic rewrite."""
    out = []
    counts = {}
    for k in node:
        counts[k] = counts.get(k, 0) + 1
    for (a, b), (c, d) in moves:
        if a == b:
            if counts.get(a, 0) < 2:
                continue
        elif not (counts.get(a) and counts.get(b)):
            continue
        lst = list(node)
        lst.remove(a)
        lst.remove(b)
        lst.extend((c, d))
        out.append(tuple(sorted(lst)))
    return out


def _fiber_connected(fiber: Fiber, moves):
    """(True, None) if connected, else (False, (reached, unreached))."""
    nodes = set(fiber.nodes)
    if len(nodes) <= 1:
        return True, None
    start = fiber.nodes[0]
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for nxt in _apply_moves(cur, moves):
            if nxt in nodes and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    if len(seen) == len(nodes):
        return True, None
    unreached = min(nodes - seen)
    return False, (start, unreached)


def reference_fiber_connectivity(w, m_max: int = 3) -> ConnectivityReport:
    """``check_fiber_connectivity`` computed by a search over each fiber."""
    bins = sym_exchange_binomials(w)
    moves = []
    for rel in bins:
        p, q = rel.pairs()
        moves.append((p, q))
        moves.append((q, p))
    checks = []
    for m in range(2, m_max + 1):
        level = fibers(w, m)
        nontrivial = 0
        for fib in level:
            if len(fib.nodes) > 1:
                nontrivial += 1
                ok, bad = _fiber_connected(fib, moves)
                if not ok:
                    checks.append(FiberCheck(m, len(level), nontrivial, False))
                    return ConnectivityReport(
                        False,
                        m_max,
                        tuple(checks),
                        len(bins),
                        (m, fib.product, bad[0], bad[1]),
                    )
        checks.append(FiberCheck(m, len(level), nontrivial, True))
    return ConnectivityReport(True, m_max, tuple(checks), len(bins))
