"""Shared random-instance generators and reference checks for the test suite."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product
from math import comb

from edgepow import (
    BudgetError,
    ExchangeReport,
    ExchangeWitness,
    GeneratorSet,
    Graph,
    GraphError,
    PowerEngine,
    SymExchangeBinomial,
    VeroneseDecomposition,
    check_strong_exchange,
    fixtures,
    graph_from_edges,
    induced_subgraph,
    toric,
)
from edgepow.corpus import find_isomorphism
from edgepow.exchange import (
    EXCHANGE,
    STRONG,
    SYMMETRIC,
    _member_set,
    _swap,
    check_grid,
)
from edgepow.graph import MAX_SEARCH_VERTICES, peel_leaves
from edgepow.powers import DEFAULT_NODE_BUDGET, MAX_CAP, as_caps, normalize_caps
from edgepow.toric import (
    DEFAULT_FIBER_BUDGET,
    ConnectivityReport,
    Fiber,
    FiberCheck,
    ScanInstance,
    ScanReport,
    _ordered_members,
)


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


def random_wide_member_set(rng, n_max=32, size_max=10):
    """Random equal-degree vectors whose largest exponent sits at a packing
    width edge (2^k - 1, 2^k or MAX_CAP), differing on a few coordinates."""
    n = rng.randint(2, n_max)
    k = rng.randint(1, 15)
    top = rng.choice((2 ** k - 1, 2 ** k, MAX_CAP))
    base = [rng.randint(0, top) for _ in range(n)]
    base[rng.randrange(n)] = top
    live = rng.sample(range(n), rng.randint(2, min(n, 5)))
    for c in live:
        base[c] = top
    deg = rng.randint(1, min(4, top * len(live)))
    size = rng.randint(1, size_max)
    out = set()
    for _ in range(4 * size):
        vec = list(base)
        for _ in range(deg):
            c = rng.choice([c for c in live if vec[c] > 0])
            vec[c] -= 1
        out.add(tuple(vec))
        if len(out) == size:
            break
    return out


# Reference toric kernel on tuples: the grouping of multisets by product
# tuple, as it stood before it moved to packed ints, and a search over each
# fiber under the explicit-loop quadric list ``reference_sym_exchange_binomials``.

def reference_fibers(w, m: int, budget: int = DEFAULT_FIBER_BUDGET) -> tuple:
    """``fibers`` with each product summed as a tuple."""
    if m < 2:
        raise ValueError(f"fiber degree must be >= 2, got {m}")
    ws = _ordered_members(w)
    s = len(ws)
    count = comb(s + m - 1, m)
    if count > budget:
        raise BudgetError(
            f"{count} degree-{m} multisets exceed the fiber budget {budget}"
        )
    n = len(ws[0])
    groups = {}
    for combo in combinations_with_replacement(range(1, s + 1), m):
        prod = [0] * n
        for k in combo:
            vec = ws[k - 1]
            for t in range(n):
                prod[t] += vec[t]
        groups.setdefault(tuple(prod), []).append(combo)
    return tuple(
        Fiber(m, prod, tuple(nodes)) for prod, nodes in sorted(groups.items())
    )


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
    bins = reference_sym_exchange_binomials(w)
    moves = []
    for rel in bins:
        p, q = rel.pairs()
        moves.append((p, q))
        moves.append((q, p))
    checks = []
    for m in range(2, m_max + 1):
        level = reference_fibers(w, m)
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


def reference_sortable(w) -> bool:
    """Sortability in the natural variable order, by Sturmfels' definition:
    for all u, v in W, write out the variables of u*v in ascending order,
    x_{k1} <= x_{k2} <= ..., and split the list into the variables at odd
    and at even positions; both halves must be members of W.

    W is first translated by its componentwise minimum a, which keeps the
    answer: u*v gains x_t^{2 a_t}, an even run that keeps the parity of
    every later position and adds a_t to each half.  So the written lists
    stay short at exponents up to MAX_CAP."""
    ws = _member_set(w)
    low = tuple(map(min, zip(*ws)))
    ws = {tuple(a - b for a, b in zip(vec, low)) for vec in ws}
    n = len(low)
    for u, v in combinations_with_replacement(sorted(ws), 2):
        word = [t for t in range(n) for _ in range(u[t] + v[t])]
        for half in (word[0::2], word[1::2]):
            if tuple(half.count(t) for t in range(n)) not in ws:
                return False
    return True


def validate_generator_set(gens: GeneratorSet) -> None:
    """Re-check the defining invariants of a GeneratorSet (for tests)."""
    if gens.delta >= 1 and not gens.members:
        raise AssertionError("nonzero top degree but no generators")
    for mvec in gens.members:
        if sum(mvec) != 2 * gens.delta:
            raise AssertionError(f"{mvec} has degree {sum(mvec)} != 2*{gens.delta}")
        if any(e > c for e, c in zip(mvec, gens.caps)):
            raise AssertionError(f"{mvec} exceeds caps {gens.caps}")
        if reference_decompose(gens.graph, mvec) is None:
            raise AssertionError(f"{mvec} is not a product of {gens.delta} edges")


def reference_decompose(g: Graph, vec):
    """An edge factorisation of ``vec`` by brute force, independent of the
    engine: the first multiplicity tuple, each edge's count running high to
    low in lexicographic edge order, whose edges number |vec|/2 and multiply
    to ``vec``, as ``((edge, count), ...)`` without zero counts; None if
    there is none."""
    n = g.n
    edges = g.sorted_edges
    need = sum(vec) // 2
    ranges = (range(min(vec[u - 1], vec[v - 1]), -1, -1) for u, v in edges)
    for counts in product(*ranges):
        if sum(counts) != need:
            continue
        prod = [0] * n
        for (u, v), t in zip(edges, counts):
            prod[u - 1] += t
            prod[v - 1] += t
        if tuple(prod) == tuple(vec):
            return tuple((e, t) for e, t in zip(edges, counts) if t)
    return None


def reference_generators(g: Graph, caps) -> GeneratorSet:
    """``enumerate_generators`` by the multiset walk: every cap-respecting
    edge multiset of size delta, each edge's multiplicity running high to
    low, pruned by the engine's ``_best`` bound, products deduplicated only
    at the leaves."""
    engine = PowerEngine(g)
    caps = tuple(caps)

    def best(i, res):  # the engine recurses only on a memo miss
        got = engine._memo[i].get(res)
        return engine._best(i, res) if got is None else got

    depth = best(0, engine._pack(caps))
    pos = [(u - 1, v - 1) for u, v in g.sorted_edges]
    found = set()
    prod = [0] * g.n

    def go(i, res, need):
        if need == 0:
            found.add(tuple(prod))
            return
        if i == len(pos) or best(i, res) < need:
            return
        u, v = pos[i]
        digits = engine._vec.unpack(res.to_bytes(engine._vec.size, "little"))
        for t in range(min(digits[u], digits[v], need), -1, -1):
            prod[u] += t
            prod[v] += t
            go(i + 1, (res - t * engine._unit[i]) & engine._keep[i], need - t)
            prod[u] -= t
            prod[v] -= t

    go(0, engine._pack(caps), depth)
    return GeneratorSet(g, caps, depth, frozenset(found))



ORACLE_CAP_SUM = 24


def reference_cap_grid(graph: Graph, cap_max: int, node_budget: int = DEFAULT_NODE_BUDGET):
    """Yield (caps, generator set) for the first cap vector of each new normal
    form, in ascending lex order over {1..cap_max}^n.  ``check_grid`` runs
    before the first vector; one engine's memo serves the whole grid, and
    each normal form is evaluated once."""
    check_grid(graph.n, cap_max)
    engine = PowerEngine(graph, node_budget)
    seen = set()
    for caps in product(range(1, cap_max + 1), repeat=graph.n):
        norm = normalize_caps(graph, caps)
        if norm in seen:
            continue
        seen.add(norm)
        yield caps, engine.generators(norm)


def full_cap_grid(graph: Graph, cap_max: int, engine: PowerEngine | None = None):
    """Yield (caps, generator set) for every cell that ``exchange.cap_grid``
    walks, the ones it replays from an automorphism included: each grid
    vector with no cap above its neighbours' sum, in ascending lex order,
    all computed on one engine (a fresh one unless ``engine`` is given)."""
    check_grid(graph.n, cap_max)
    engine = engine or PowerEngine(graph)
    nbrs = [[w - 1 for w in ws] for ws in graph.adjacency]
    for caps in product(range(1, cap_max + 1), repeat=graph.n):
        if all(caps[v] <= sum(caps[w] for w in ws) for v, ws in enumerate(nbrs)):
            yield caps, engine.generators(caps)


def reference_conjecture_scan(
    graphs,
    cap_max: int = 2,
    m_max: int = 3,
    fiber_budget: int = DEFAULT_FIBER_BUDGET,
    on_instance=None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ScanReport:
    """``toric.conjecture_scan`` with every cell computed: its engine, strong
    check and fiber check, none replayed from an automorphism."""
    strong_pass = strong_fail = 0
    violations, skips = [], []
    for gi, g in enumerate(graphs):
        for caps, gens in full_cap_grid(g, cap_max, PowerEngine(g, node_budget)):
            if check_strong_exchange(gens).ok:
                strong_pass += 1
            else:
                strong_fail += 1
            try:
                report = toric.check_fiber_connectivity(gens, m_max, fiber_budget)
            except BudgetError:
                kept, status, failure = skips, "budget", None
            else:
                if on_instance is not None:
                    on_instance(gi, caps, report)
                if report.ok:
                    continue
                kept, status, failure = violations, "violation", report.failure
            kept.append(
                ScanInstance(gi, g.n, g.sorted_edges, caps, len(gens), status, failure)
            )
    return ScanReport(
        cap_max,
        m_max,
        strong_pass + strong_fail,
        tuple(violations),
        tuple(skips),
        strong_pass,
        strong_fail,
    )


def brute_force_oracle(g: Graph, caps):
    """Independent check: exhaustive multiset enumeration, no pruning or memo.

    Returns ``(delta, GeneratorSet)``.  Only available for cap sums up to
    ORACLE_CAP_SUM to keep the naive enumeration finite in practice.
    """
    caps = as_caps(g, caps)
    if sum(caps) > ORACLE_CAP_SUM:
        raise ValueError(
            f"oracle requires sum(caps) <= {ORACLE_CAP_SUM}, got {sum(caps)}"
        )
    edges = g.sorted_edges
    n = g.n
    best_m = 0
    best_set = frozenset()
    m = 1
    while True:
        found = set()
        for combo in combinations_with_replacement(edges, m):
            expo = [0] * n
            for u, v in combo:
                expo[u - 1] += 1
                expo[v - 1] += 1
            if all(e <= c for e, c in zip(expo, caps)):
                found.add(tuple(expo))
        if not found:
            break
        best_m = m
        best_set = frozenset(found)
        m += 1
    return best_m, GeneratorSet(g, caps, best_m, best_set)


def run_all(node_budget: int = DEFAULT_NODE_BUDGET):
    """Every registered fixture, run in registry order."""
    return [fixtures.run_fixture(f, node_budget) for f in fixtures.REGISTRY]


# Graph invariants that the closed-form classifiers replace with linear rules.

def is_triangle_free(g: Graph) -> bool:
    adj = g.adjacency
    for u, v in g.edges:
        if adj[u - 1] & adj[v - 1]:
            return False
    return True


def independence_number(g: Graph) -> int:
    """Exact maximum independent set size, branch and bound over bitmasks."""
    if g.n > MAX_SEARCH_VERTICES:
        raise GraphError(
            f"independence number search is limited to n <= {MAX_SEARCH_VERTICES}"
        )
    nbr = [0] * g.n
    for u, v in g.edges:
        nbr[u - 1] |= 1 << (v - 1)
        nbr[v - 1] |= 1 << (u - 1)
    best = 0

    def go(cand, size):
        nonlocal best
        if size + bin(cand).count("1") <= best:
            return
        if cand == 0:
            best = max(best, size)
            return
        v = cand.bit_length() - 1
        go(cand & ~((1 << v) | nbr[v]), size + 1)
        go(cand & ~(1 << v), size)

    go((1 << g.n) - 1, 0)
    return best


def is_multipartite_minus_matching(g: Graph) -> bool:
    """Whether g is K_{n1,...,nm} minus a matching, by brute force over the
    matchings M of the complement H: H - M must be a disjoint union of
    cliques (adjacent vertices have equal closed neighbourhoods) with every
    edge of M between two of them."""
    comp = [e for e in combinations(range(1, g.n + 1), 2) if not g.has_edge(*e)]
    for size in range(g.n // 2 + 1):
        for removed in combinations(comp, size):
            if len({v for e in removed for v in e}) < 2 * size:
                continue
            kept = [e for e in comp if e not in removed]
            closed = {v: {v} for v in range(1, g.n + 1)}
            for u, v in kept:
                closed[u].add(v)
                closed[v].add(u)
            if all(closed[u] == closed[v] for u, v in kept) and all(
                v not in closed[u] for u, v in removed
            ):
                return True
    return False


def delete_vertex(g: Graph, v: int) -> tuple:
    """Remove vertex ``v``; returns ``(graph, mapping)`` with old->new labels."""
    g._check_vertex(v)
    return induced_subgraph(g, [u for u in range(1, g.n + 1) if u != v])


def is_isomorphic(a: Graph, b: Graph) -> bool:
    return find_isomorphism(a, b) is not None

# Integer polymatroids: their bases are generator families with the strong
# exchange property, for property tests of the checkers.

@dataclass(frozen=True)
class SubmodularFunction:
    """Integer-valued set function on subsets of {0..k-1}, given by bitmask table."""

    k: int
    values: tuple

    def __post_init__(self):
        if not (1 <= self.k <= 16):
            raise ValueError(f"ground set size must be 1..16, got {self.k}")
        if len(self.values) != 1 << self.k:
            raise ValueError(
                f"value table must have {1 << self.k} entries, got {len(self.values)}"
            )
        vals = self.values
        if any(not isinstance(x, int) or x < 0 for x in vals):
            raise ValueError("values must be nonnegative integers")
        if vals[0] != 0:
            raise ValueError("the empty set must have value 0")
        full = (1 << self.k) - 1
        for mask in range(full + 1):
            for i in range(self.k):
                if not mask & (1 << i) and vals[mask | (1 << i)] < vals[mask]:
                    raise ValueError("function is not monotone")
        for a in range(full + 1):
            for b in range(a, full + 1):
                if vals[a] + vals[b] < vals[a | b] + vals[a & b]:
                    raise ValueError("function is not submodular")

    def value(self, mask: int) -> int:
        return self.values[mask]

    @property
    def rank(self) -> int:
        return self.values[-1]


def coverage_function(weights, covers) -> SubmodularFunction:
    """Weighted coverage function: value(A) = total weight covered by A.

    Coverage functions are monotone and submodular by construction, so this
    is a rejection-free generator of valid instances.
    """
    k = len(covers)
    values = []
    for mask in range(1 << k):
        covered = set()
        for i in range(k):
            if mask & (1 << i):
                covered.update(covers[i])
        values.append(sum(weights[j] for j in covered))
    return SubmodularFunction(k, tuple(values))


def random_coverage_function(rng, k, universe_size=5, max_weight=3) -> SubmodularFunction:
    weights = [rng.randint(0, max_weight) for _ in range(universe_size)]
    covers = [
        [j for j in range(universe_size) if rng.random() < 0.5] for _ in range(k)
    ]
    return coverage_function(weights, covers)


def enumerate_polymatroid_base(fn: SubmodularFunction) -> frozenset:
    """Integer base vectors: a >= 0 with sum over A <= value(A) for every A
    and total sum equal to the rank."""
    if fn.k > 6:
        raise ValueError(f"base enumeration is limited to k <= 6, got {fn.k}")
    k = fn.k
    singles = [fn.values[1 << i] for i in range(k)]
    masks = list(range(1, 1 << k))
    out = set()
    for a in product(*(range(s + 1) for s in singles)):
        if sum(a) != fn.rank:
            continue
        if all(
            sum(a[i] for i in range(k) if mask & (1 << i)) <= fn.values[mask]
            for mask in masks
        ):
            out.add(a)
    return frozenset(out)


# Reference exchange checks and quadrics: one explicit u/v/xi/rho loop each.

def reference_check_exchange(w) -> ExchangeReport:
    mem = _member_set(w)
    ordered = sorted(mem)
    n = len(ordered[0])
    for u in ordered:
        for v in ordered:
            if u == v:
                continue
            for xi in range(n):
                if u[xi] <= v[xi]:
                    continue
                ok = any(
                    u[rho] < v[rho] and _swap(u, xi, rho) in mem for rho in range(n)
                )
                if not ok:
                    return ExchangeReport(
                        EXCHANGE,
                        False,
                        ExchangeWitness(u, v, xi + 1, None, None),
                    )
    return ExchangeReport(EXCHANGE, True)


def reference_check_symmetric_exchange(w) -> ExchangeReport:
    mem = _member_set(w)
    ordered = sorted(mem)
    n = len(ordered[0])
    for u in ordered:
        for v in ordered:
            if u == v:
                continue
            for xi in range(n):
                if u[xi] <= v[xi]:
                    continue
                ok = any(
                    u[rho] < v[rho]
                    and _swap(u, xi, rho) in mem
                    and _swap(v, rho, xi) in mem
                    for rho in range(n)
                )
                if not ok:
                    return ExchangeReport(
                        SYMMETRIC,
                        False,
                        ExchangeWitness(u, v, xi + 1, None, None),
                    )
    return ExchangeReport(SYMMETRIC, True)


def reference_detect_veronese(w) -> VeroneseDecomposition | None:
    """``detect_veronese`` by expansion: the forced candidate decomposition
    (componentwise min, max - min bounds), kept when its slice, listed
    point by point, equals the member set."""
    mem = _member_set(w)
    members = list(mem)
    n = len(members[0])
    mins = tuple(min(m[i] for m in members) for i in range(n))
    maxs = tuple(max(m[i] for m in members) for i in range(n))
    deg = sum(members[0]) - sum(mins)
    support = tuple(i + 1 for i in range(n) if maxs[i] > mins[i])
    bounds = tuple(maxs[i - 1] - mins[i - 1] for i in support)
    decomp = VeroneseDecomposition(mins, deg, support, bounds)
    return decomp if decomp.expand() == mem else None


def reference_check_strong_exchange(w) -> ExchangeReport:
    mem = _member_set(w)
    ordered = sorted(mem)
    n = len(ordered[0])
    for u in ordered:
        for v in ordered:
            if u == v:
                continue
            for xi in range(n):
                if u[xi] <= v[xi]:
                    continue
                for rho in range(n):
                    if u[rho] >= v[rho]:
                        continue
                    moved = _swap(u, xi, rho)
                    if moved not in mem:
                        return ExchangeReport(
                            STRONG,
                            False,
                            ExchangeWitness(u, v, xi + 1, rho + 1, moved),
                        )
    return ExchangeReport(STRONG, True)


def reference_sym_exchange_binomials(w) -> tuple:
    ws = _ordered_members(w)
    index = {vec: k + 1 for k, vec in enumerate(ws)}
    n = len(ws[0]) if ws else 0
    out = set()
    for i, u in enumerate(ws, start=1):
        for j, v in enumerate(ws[i:], start=i + 1):
            for xi in range(n):
                if u[xi] <= v[xi]:
                    continue
                for rho in range(n):
                    if u[rho] >= v[rho]:
                        continue
                    a = _swap(u, xi, rho)
                    b = _swap(v, rho, xi)
                    ia = index.get(a)
                    ib = index.get(b)
                    if ia is None or ib is None:
                        continue
                    p = (i, j)
                    q = tuple(sorted((ia, ib)))
                    if p == q:
                        continue
                    lo, hi = min(p, q), max(p, q)
                    out.add(SymExchangeBinomial(lo[0], lo[1], hi[0], hi[1]))
    return tuple(sorted(out))


# Reference leaf structure: the recursive colour/parent DFS for the unique
# cycle and the rescanning leaf-deletion loop, as they stood before both
# became `graph.peel_leaves`.

def reference_unique_cycle(g: Graph):
    """Vertices of the unique cycle of a unicyclic graph, in canonical order."""
    color = [0] * (g.n + 1)
    parent = [0] * (g.n + 1)
    found = []

    def dfs(u, par):
        color[u] = 1
        for w in sorted(g.adjacency[u - 1]):
            if found:
                return
            if w == par:
                continue
            if color[w] == 1:
                cyc = [u]
                x = u
                while x != w:
                    x = parent[x]
                    cyc.append(x)
                found.append(cyc)
                return
            if color[w] == 0:
                parent[w] = u
                dfs(w, u)
        color[u] = 2

    dfs(1, 0)
    cyc = found[0]
    k = cyc.index(min(cyc))
    cyc = cyc[k:] + cyc[:k]
    if cyc[1] > cyc[-1]:
        cyc = [cyc[0]] + cyc[:0:-1]
    return tuple(cyc)


def reference_peel_order(g: Graph, keep):
    """Leaf-deletion order taking g down to the induced subgraph on ``keep``.

    Returns a list of (leaf, support) pairs in deletion order, or None when
    some outside vertex can never become a leaf.
    """
    keep = set(keep)
    adj = {v: set(g.neighbors(v)) for v in range(1, g.n + 1)}
    alive = set(range(1, g.n + 1))
    order = []
    while alive - keep:
        leaf = None
        for v in sorted(alive - keep):
            if len(adj[v]) == 1:
                leaf = v
                break
        if leaf is None:
            return None
        support = next(iter(adj[leaf]))
        order.append((leaf, support))
        alive.discard(leaf)
        adj[support].discard(leaf)
        del adj[leaf]
    return order


# Reference structure probe and leg profiles: the component search plus the
# cycle walk over a second peel, and the per-branch leg walker, as they stood
# before both read one `graph.peel_leaves` pass.

@dataclass(frozen=True)
class ReferenceStructureReport:
    connected: bool
    is_tree: bool
    is_unicyclic: bool
    cycle: tuple | None
    cycle_length: int
    leaves: tuple
    degrees: tuple
    components: tuple


def reference_components(g: Graph):
    seen = set()
    comps = []
    for start in range(1, g.n + 1):
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        while queue:
            u = queue.pop()
            for w in g.adjacency[u - 1]:
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def reference_peel_cycle(g: Graph):
    """The unique cycle from its least vertex towards the smaller neighbour."""
    _, core = peel_leaves(g)
    start = min(core)
    cyc = [start]
    prev, cur = start, min(g.adjacency[start - 1] & core)
    while cur != start:
        cyc.append(cur)
        prev, cur = cur, next(w for w in g.adjacency[cur - 1] & core if w != prev)
    return tuple(cyc)


def reference_structure_probe(g: Graph) -> ReferenceStructureReport:
    """Connectivity, tree/unicyclic detection, unique cycle, leaves, degrees."""
    comps = reference_components(g)
    connected = len(comps) == 1
    m = len(g.edges)
    is_tree = connected and m == g.n - 1
    is_unicyclic = connected and m == g.n
    cyc = reference_peel_cycle(g) if is_unicyclic else None
    leaves = tuple(v for v in range(1, g.n + 1) if g.degrees[v - 1] == 1)
    return ReferenceStructureReport(
        connected=connected,
        is_tree=is_tree,
        is_unicyclic=is_unicyclic,
        cycle=cyc,
        cycle_length=len(cyc) if cyc else 0,
        leaves=leaves,
        degrees=g.degrees,
        components=comps,
    )


def reference_leg_profile(g: Graph, root: int, cycle_set):
    """Lengths of the hanging paths at a cycle vertex.

    Returns a sorted tuple of leg lengths when every branch hanging off the
    root is a bare path, or None when some branch forks below the root.
    """
    legs = []
    for child in sorted(g.neighbors(root) - cycle_set):
        length = 0
        prev, cur = root, child
        while True:
            length += 1
            nxt = [w for w in g.neighbors(cur) if w != prev]
            if not nxt:
                break
            if len(nxt) > 1:
                return None
            prev, cur = cur, nxt[0]
        legs.append(length)
    return tuple(sorted(legs))


def shuffled(rng, g: Graph) -> Graph:
    """g under a random relabelling."""
    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)
    return graph_from_edges(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.sorted_edges])


def random_disconnected_graph(rng, n_max=9, extra_max=3) -> Graph:
    """Two random connected graphs side by side, randomly relabelled."""
    a = random_connected_graph(rng, n_max=n_max, extra_max=rng.randint(0, extra_max))
    b = random_connected_graph(rng, n_max=n_max, extra_max=rng.randint(0, extra_max))
    edges = sorted(a.edges) + [(u + a.n, v + a.n) for u, v in sorted(b.edges)]
    return shuffled(rng, graph_from_edges(a.n + b.n, edges))


# Reference corpus: networkx's tree generator and the degree-profile bucket
# plus `nx.is_isomorphic` deduplication that `corpus.all_unicyclic` replaced.

def _from_networkx(nxg) -> Graph:
    relabel = {v: i + 1 for i, v in enumerate(sorted(nxg.nodes()))}
    return graph_from_edges(len(relabel), [(relabel[u], relabel[v]) for u, v in nxg.edges()])


def reference_trees(n: int) -> tuple:
    """``nx.nonisomorphic_trees(n)`` as Graphs, vertex ``i`` becoming ``i + 1``."""
    import networkx as nx

    return tuple(_from_networkx(t) for t in nx.nonisomorphic_trees(n))


def reference_unicyclic(n: int) -> tuple:
    """Unicyclic graphs on n vertices: each networkx tree plus one edge, the
    first graph of each isomorphism class kept."""
    import networkx as nx

    buckets = {}
    out = []
    for tree in nx.nonisomorphic_trees(n):
        present = set(map(frozenset, tree.edges()))
        for u in range(n):
            for v in range(u + 1, n):
                if frozenset((u, v)) in present:
                    continue
                cand = tree.copy()
                cand.add_edge(u, v)
                key = tuple(
                    sorted(
                        (d, tuple(sorted(cand.degree(y) for y in cand[x])))
                        for x, d in cand.degree()
                    )
                )
                known = buckets.setdefault(key, [])
                if any(nx.is_isomorphic(cand, other) for other in known):
                    continue
                known.append(cand)
                out.append(_from_networkx(cand))
    return tuple(out)


# Reference fixture lift: every k-subset of the graph in lex order, each
# filtered by its induced edge count, peeling and a guarded induced copy,
# with the peel replayed leaf by leaf, as the loop stood before the lift
# walked only connected candidates and took its caps in closed form.

def reference_lift_failing_caps(engine: PowerEngine, base_graph: Graph, base_caps):
    """``classify.lift_failing_caps`` by the blind k-subset scan."""
    g = engine.graph
    if base_graph.n > g.n:
        return None
    for subset in combinations(range(1, g.n + 1), base_graph.n):
        inside = set(subset)
        # counting induced edges and peeling, which depends only on the
        # subset, are much cheaper than the copy and its isomorphism search
        induced = [1 for u, v in g.edges if u in inside and v in inside]
        if len(induced) != len(base_graph.edges):
            continue
        order = reference_peel_order(g, subset)
        if order is None:
            continue
        try:
            sub, _ = induced_subgraph(g, subset)
        except GraphError:
            continue
        iso = find_isomorphism(base_graph, sub)
        if iso is None:
            continue
        caps = {}
        for bv, cap in zip(range(1, base_graph.n + 1), base_caps):
            caps[subset[iso[bv] - 1]] = cap  # sub keeps subset's label order
        for leaf, support in reversed(order):
            caps[support] += 1
            caps[leaf] = 1
        vec = tuple(caps[v] for v in range(1, g.n + 1))
        report = check_strong_exchange(engine.generators(vec))
        if not report.ok:
            return vec, report
    return None


# Reference automorphism group order: Schreier-Sims over the returned
# permutations, against networkx's stabiliser-chain count.

def group_order(perms, n: int) -> int:
    """Order of the group the 1-based permutations ``perms`` of 1..n
    generate: Schreier-Sims along the base 1..n, the Schreier generators of
    each stabiliser reduced by a Sims filter (at most one generator per
    (first moved point, image) pair)."""
    ident = tuple(range(n))

    def compose(a, b):  # a after b
        return tuple(a[b[k]] for k in range(n))

    def inverse(a):
        out = [0] * n
        for k, x in enumerate(a):
            out[x] = k
        return tuple(out)

    gens = [tuple(x - 1 for x in p) for p in perms]
    order = 1
    for base in range(n):
        transversal = {base: ident}
        queue = [base]
        for x in queue:
            for g in gens:
                if g[x] not in transversal:
                    transversal[g[x]] = compose(g, transversal[x])
                    queue.append(g[x])
        order *= len(transversal)
        table = {}
        for x, t in transversal.items():
            for g in gens:
                s = compose(inverse(transversal[g[x]]), compose(g, t))
                while s != ident:
                    first = next(k for k in range(n) if s[k] != k)
                    key = (first, s[first])
                    if key not in table:
                        table[key] = s
                        break
                    s = compose(inverse(table[key]), s)
        gens = list(table.values())
    return order


def networkx_automorphism_count(g: Graph) -> int:
    """|Aut(g)| from networkx ``GraphMatcher``: the product over i of the
    size of i's orbit under the stabiliser of 1..i - 1, each orbit member w
    found by a matcher that individualises 1..i - 1 and pairs i with w.
    Counting the automorphisms one by one takes 30 s on ``star(9)``."""
    from networkx.algorithms.isomorphism import GraphMatcher

    from edgepow.corpus import to_networkx

    base = to_networkx(g)
    count = 1
    for i in range(1, g.n + 1):
        orbit = 1
        for w in range(i + 1, g.n + 1):
            left, right = base.copy(), base.copy()
            for v in range(1, g.n + 1):
                left.nodes[v]["tag"] = v if v < i else (0 if v == i else -1)
                right.nodes[v]["tag"] = v if v < i else (0 if v == w else -1)
            matcher = GraphMatcher(
                left, right, node_match=lambda a, b: a["tag"] == b["tag"]
            )
            orbit += matcher.is_isomorphic()
        count *= orbit
    return count
