"""Quadratic exchange relations and fiber connectivity of the toric ideal.

Index the generators z_1..z_s by the largest-first ordering of the member
list.  A symmetric exchange between members u = w_i and v = w_j at a pair
of variables (one up in u, one down) lands on two other members w_i0, w_j0
with w_i * w_j = w_i0 * w_j0; the quadratic relation z_i z_j - z_i0 z_j0 is
recorded in canonical form.

Whether these quadrics generate the full toric ideal through degree m is
equivalent to connectivity of every degree-m fiber: the m-multisets of
generator indices sharing one product monomial, linked when one quadratic
relation rewrites one into the other.  A rewrite turns {a,b}+R into {c,d}+R
for a quadric z_a z_b - z_c z_d and an (m-2)-multiset R, so
``check_fiber_connectivity`` joins both sides of every (quadric, R) pair in
one union-find per degree and requires each fiber to be a single class.  It
certifies degrees 2..m_max or returns a disconnected fiber (a kernel
binomial that the quadrics do not generate).

The inner loops work on packed Python ints, not tuples.  An exponent vector
packs into one int with coordinate 0 in the highest fixed-width digit; with
digits wide enough that no sum carries, a product of members is the sum of
their packed forms, and ascending packed order is the lexicographic order
of the tuples.  A multiset of generator indices packs as its count vector
(index 1 in the highest digit), so {a,b}+R is pack({a,b}) + pack(R).  A
fiber is only a key of a dict of multisets: the check counts singleton
fibers without building anything for them, and unpacks a product or a
multiset only for a failure witness.  ``fibers`` unpacks every group into
the public ``Fiber`` form.

``conjecture_scan`` walks each graph's caps through ``exchange.cap_grid``,
the walk the strong-exchange counterexample search shares, with its bounds;
``check_unicyclic_scan`` holds every bound of a scan of the unicyclic corpus.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from math import comb

from .corpus import UNICYCLIC_COUNTS
from .exchange import GRID_LIMIT, _member_set, _moves, cap_grid, check_cap_max, check_grid
# perfbench/spans.py patches normalize_caps and check_strong_exchange by name here
from .exchange import check_strong_exchange
from .powers import DEFAULT_NODE_BUDGET, BudgetError, GeneratorSet, normalize_caps  # noqa: F401

DEFAULT_FIBER_BUDGET = 10 ** 7


def _ordered_members(w):
    if isinstance(w, GeneratorSet):
        return w.ordered
    ws = tuple(sorted(_member_set(w), reverse=True))
    # the packed kernels below hold one exponent per unsigned digit
    if min(map(min, ws)) < 0:
        raise ValueError("exponent vectors must be non-negative")
    return ws


def _pack(vec, bits: int) -> int:
    """Exponent vector as one int, coordinate 0 in the highest ``bits``-bit digit."""
    key = 0
    for a in vec:
        key = (key << bits) | a
    return key


def _unpack(key: int, bits: int, n: int) -> tuple:
    mask = (1 << bits) - 1
    return tuple((key >> (bits * t)) & mask for t in range(n - 1, -1, -1))


def _units(s: int, m: int) -> list:
    """Packed count vector of each single generator index 1..s (index 1 in
    the highest digit), with digits wide enough for degree-m multisets."""
    bits = m.bit_length()
    return [1 << (bits * k) for k in range(s - 1, -1, -1)]


def _multiset(key: int, s: int, m: int) -> tuple:
    """Sorted 1-based generator indices of a packed degree-m count vector."""
    counts = _unpack(key, m.bit_length(), s)
    return tuple(k for k, c in enumerate(counts, 1) for _ in range(c))


def _product_bits(ws, m: int) -> int:
    return (m * max(map(max, ws))).bit_length()


@dataclass(frozen=True, order=True)
class SymExchangeBinomial:
    """Canonical quadric z_i z_j - z_i0 z_j0 with i <= j, i0 <= j0, (i,j) < (i0,j0)."""

    i: int
    j: int
    i0: int
    j0: int

    def __str__(self):
        return f"z{self.i}*z{self.j} - z{self.i0}*z{self.j0}"

    def pairs(self):
        return (self.i, self.j), (self.i0, self.j0)


def sym_exchange_binomials(w) -> tuple:
    """All canonical symmetric exchange quadrics of a generator set.

    Only pairs i < j are visited: the swap (xi, rho) on (w_i, w_j) lands on
    the same pair of members as the swap (rho, xi) on (w_j, w_i).  Members
    are packed with digits as wide as the largest exponent; a swap adds
    e_rho - e_xi to one packed member and subtracts it from the other, and
    never carries or borrows, since xi in ups gives u[xi] >= 1 and rho in
    downs gives u[rho] < v[rho] <= the largest exponent.
    """
    ws = _ordered_members(w)
    n = len(ws[0])
    bits = max(map(max, ws)).bit_length()
    weight = [1 << (bits * t) for t in range(n - 1, -1, -1)]
    packed = [_pack(vec, bits) for vec in ws]
    index = {key: k for k, key in enumerate(packed, 1)}
    out = set()
    # _moves visits the pairs of combinations(ws, 2) in this same order
    pairs = combinations(tuple(enumerate(packed, 1)), 2)
    for ((i, pu), (j, pv)), (_, _, ups, downs) in zip(
        pairs, _moves(combinations(ws, 2))
    ):
        for xi in ups:
            for rho in downs:
                step = weight[rho] - weight[xi]
                ia = index.get(pu + step)
                ib = index.get(pv - step)
                if ia is None or ib is None:
                    continue
                q = (ia, ib) if ia < ib else (ib, ia)
                if q != (i, j):
                    out.add((i, j) + q if (i, j) < q else q + (i, j))
    return tuple(SymExchangeBinomial(*quad) for quad in sorted(out))


@dataclass(frozen=True)
class Fiber:
    degree: int
    product: tuple
    nodes: tuple  # sorted tuples of 1-based generator indices


def _fiber_groups(ws, m: int, budget: int) -> dict:
    """Degree-m multisets of generator indices keyed by packed product.

    A member packs with digits wide enough for a degree-m product, so a
    multiset's product is the sum of its packed members and ascending keys
    are the product tuples in lexicographic order.  Each multiset is its
    packed count vector (``_units``), listed in combinations-with-replacement
    order.  Both packings ride in one int per member, the product above
    the counts, so one sum per multiset yields both.
    """
    s = len(ws)
    count = comb(s + m - 1, m)
    if count > budget:
        raise BudgetError(
            f"{count} degree-{m} multisets exceed the fiber budget {budget}"
        )
    bits = _product_bits(ws, m)
    shift = m.bit_length() * s
    low = (1 << shift) - 1
    items = [
        (_pack(vec, bits) << shift) | unit for vec, unit in zip(ws, _units(s, m))
    ]
    groups = {}
    for total in map(sum, combinations_with_replacement(items, m)):
        groups.setdefault(total >> shift, []).append(total & low)
    return groups


def fibers(w, m: int, budget: int = DEFAULT_FIBER_BUDGET) -> tuple:
    """Degree-m multisets of generator indices, grouped by product monomial."""
    if m < 2:
        raise ValueError(f"fiber degree must be >= 2, got {m}")
    ws = _ordered_members(w)
    s = len(ws)
    n = len(ws[0])
    bits = _product_bits(ws, m)
    return tuple(
        Fiber(
            m,
            _unpack(prod, bits, n),
            tuple(_multiset(node, s, m) for node in nodes),
        )
        for prod, nodes in sorted(_fiber_groups(ws, m, budget).items())
    )


@dataclass(frozen=True)
class FiberCheck:
    degree: int
    fiber_count: int
    nontrivial_count: int
    connected: bool


def _failure_json(failure) -> dict:
    m, prod, a, b = failure
    return {
        "m": m,
        "product": list(prod),
        "multiset_a": list(a),
        "multiset_b": list(b),
    }


@dataclass(frozen=True)
class ConnectivityReport:
    ok: bool
    m_max: int
    degrees: tuple
    binomial_count: int
    failure: tuple | None = None  # (degree, product, reached_node, unreached_node)

    def to_json(self) -> dict:
        out = {
            "ok": self.ok,
            "m_max": self.m_max,
            "binomials": self.binomial_count,
            "degrees": [
                {
                    "m": d.degree,
                    "fibers": d.fiber_count,
                    "nontrivial": d.nontrivial_count,
                    "connected": d.connected,
                }
                for d in self.degrees
            ],
        }
        if self.failure is not None:
            out["failure"] = _failure_json(self.failure)
        return out


def check_m_max(m_max: int) -> None:
    """Refuse a fiber degree bound under which nothing would be certified."""
    if m_max < 2:
        raise ValueError(f"m_max must be >= 2, got {m_max}")


def check_fiber_connectivity(
    w, m_max: int = 3, budget: int = DEFAULT_FIBER_BUDGET
) -> ConnectivityReport:
    """Certify generation by the exchange quadrics through degree m_max.

    Every fiber of every degree 2..m_max must be connected under the
    quadratic moves; a disconnected fiber exhibits a kernel binomial that
    the quadrics do not generate.
    """
    check_m_max(m_max)
    bins = sym_exchange_binomials(w)
    ws = _ordered_members(w)
    s = len(ws)
    checks = []
    for m in range(2, m_max + 1):
        groups = _fiber_groups(ws, m, budget)
        units = _units(s, m)
        # {a,b}+R is pack({a,b}) + pack(R) on packed count vectors
        moves = [
            (units[b.i - 1] + units[b.j - 1], units[b.i0 - 1] + units[b.j0 - 1])
            for b in bins
        ]
        parent = {}

        def find(x):
            root = x
            while (up := parent.get(root, root)) != root:
                root = up
            while x != root:
                parent[x], x = root, parent[x]
            return root

        for rest in map(sum, combinations_with_replacement(units, m - 2)):
            for p, q in moves:
                ra = find(p + rest)
                rb = find(q + rest)
                if ra != rb:
                    parent[ra] = rb
        shared = sorted(prod for prod, nodes in groups.items() if len(nodes) > 1)
        for nontrivial, prod in enumerate(shared, 1):
            nodes = groups[prod]
            # nodes are listed in the lexicographic order of their index
            # tuples, so the first one outside the class of nodes[0] is the
            # least such node
            root = find(nodes[0])
            for node in nodes[1:]:
                if find(node) != root:
                    checks.append(FiberCheck(m, len(groups), nontrivial, False))
                    failure = (
                        m,
                        _unpack(prod, _product_bits(ws, m), len(ws[0])),
                        _multiset(nodes[0], s, m),
                        _multiset(node, s, m),
                    )
                    return ConnectivityReport(
                        False, m_max, tuple(checks), len(bins), failure
                    )
        checks.append(FiberCheck(m, len(groups), len(shared), True))
    return ConnectivityReport(True, m_max, tuple(checks), len(bins))


# ---------------------------------------------------------------------------
# Conjecture scan

@dataclass(frozen=True)
class ScanInstance:
    graph_index: int
    n: int
    edges: tuple
    caps: tuple
    members: int
    status: str  # "violation" | "budget"
    failure: tuple | None = None

    def to_json(self) -> dict:
        out = {
            "graph": self.graph_index,
            "n": self.n,
            "edges": [list(e) for e in self.edges],
            "caps": list(self.caps),
            "members": self.members,
            "status": self.status,
        }
        if self.failure is not None:
            out["failure"] = _failure_json(self.failure)
        return out


@dataclass(frozen=True)
class ScanReport:
    cap_max: int
    m_max: int
    instances: int
    violations: tuple
    budget_skips: tuple
    strong_pass: int = 0
    strong_fail: int = 0

    @property
    def clean(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "cap_max": self.cap_max,
            "m_max": self.m_max,
            "instances": self.instances,
            "strong_pass": self.strong_pass,
            "strong_fail": self.strong_fail,
            "clean": self.clean,
            "violations": [v.to_json() for v in self.violations],
            "budget_skips": [v.to_json() for v in self.budget_skips],
        }


def check_unicyclic_scan(max_n: int, cap_max: int, m_max: int) -> None:
    """Refuse, before the corpus is built, a scan of the unicyclic graphs on
    3..max_n vertices, in this order: a vacuous cap_max, m_max or max_n,
    ``check_grid`` at max_n, then the corpus's cap vectors, U(n)·cap_max^n
    summed in order of n, past ``GRID_LIMIT`` (n = 18 alone is past it, so
    the table ``UNICYCLIC_COUNTS`` suffices)."""
    check_cap_max(cap_max)
    check_m_max(m_max)
    if max_n < 3:
        raise ValueError(f"max_n must be >= 3 (no unicyclic graph is smaller), got {max_n}")
    check_grid(max_n, cap_max)
    total = 0
    for n in range(3, max_n + 1):
        total += UNICYCLIC_COUNTS[n] * cap_max ** n
        if total > GRID_LIMIT:
            raise BudgetError(
                f"scan of {total} cap vectors over the unicyclic graphs on "
                f"3..{n} vertices exceeds the limit {GRID_LIMIT}"
            )


def conjecture_scan(
    graphs,
    cap_max: int = 2,
    m_max: int = 3,
    fiber_budget: int = DEFAULT_FIBER_BUDGET,
    on_instance=None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ScanReport:
    """Fiber-connectivity sweep over unicyclic graphs, each over ``cap_grid``.

    A graph whose grid ``cap_grid`` refuses raises before any of its
    instances, and an engine that exhausts ``node_budget`` raises
    BudgetError.  Fiber budget overruns are recorded per instance and the
    scan continues.  The returned report lists every disconnected fiber
    found; a clean report certifies generation by the exchange quadrics
    through degree m_max on the swept instances.
    """
    check_cap_max(cap_max)
    check_m_max(m_max)
    strong_pass = 0
    strong_fail = 0
    violations = []
    skips = []
    for gi, g in enumerate(graphs):
        for _, gens in cap_grid(g, cap_max, node_budget):
            if check_strong_exchange(gens).ok:
                strong_pass += 1
            else:
                strong_fail += 1
            try:
                report = check_fiber_connectivity(gens, m_max, fiber_budget)
            except BudgetError:
                kept, status, failure = skips, "budget", None
            else:
                if on_instance is not None:
                    on_instance(gi, gens.caps, report)
                if report.ok:
                    continue
                kept, status, failure = violations, "violation", report.failure
            kept.append(
                ScanInstance(gi, g.n, g.sorted_edges, gens.caps, len(gens), status, failure)
            )
    instances = strong_pass + strong_fail
    return ScanReport(
        cap_max, m_max, instances, tuple(violations), tuple(skips), strong_pass, strong_fail
    )
