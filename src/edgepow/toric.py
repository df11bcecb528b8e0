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
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product
from math import comb

from .exchange import _member_set, _moves, _swap, check_strong_exchange
from .powers import BudgetError, GeneratorSet, PowerEngine, normalize_caps

DEFAULT_FIBER_BUDGET = 10 ** 7


def _ordered_members(w):
    if isinstance(w, GeneratorSet):
        return w.ordered
    return tuple(sorted(_member_set(w), reverse=True))


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
    the same pair of members as the swap (rho, xi) on (w_j, w_i).
    """
    ws = _ordered_members(w)
    index = {vec: k + 1 for k, vec in enumerate(ws)}
    out = set()
    for u, v, ups, downs in _moves(combinations(ws, 2)):
        p = (index[u], index[v])
        for xi in ups:
            for rho in downs:
                ia = index.get(_swap(u, xi, rho))
                ib = index.get(_swap(v, rho, xi))
                if ia is None or ib is None:
                    continue
                q = tuple(sorted((ia, ib)))
                if p == q:
                    continue
                lo, hi = min(p, q), max(p, q)
                out.add(SymExchangeBinomial(lo[0], lo[1], hi[0], hi[1]))
    return tuple(sorted(out))


@dataclass(frozen=True)
class Fiber:
    degree: int
    product: tuple
    nodes: tuple  # sorted tuples of 1-based generator indices


def fibers(w, m: int, budget: int = DEFAULT_FIBER_BUDGET) -> tuple:
    """Degree-m multisets of generator indices, grouped by product monomial."""
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


def check_fiber_connectivity(
    w, m_max: int = 3, budget: int = DEFAULT_FIBER_BUDGET
) -> ConnectivityReport:
    """Certify generation by the exchange quadrics through degree m_max.

    Every fiber of every degree 2..m_max must be connected under the
    quadratic moves; a disconnected fiber exhibits a kernel binomial that
    the quadrics do not generate.
    """
    if m_max < 2:
        raise ValueError(f"m_max must be >= 2, got {m_max}")
    bins = sym_exchange_binomials(w)
    s = len(_ordered_members(w))
    checks = []
    for m in range(2, m_max + 1):
        level = fibers(w, m, budget)
        parent = {}

        def find(x):
            root = x
            while (up := parent.get(root, root)) != root:
                root = up
            while x != root:
                parent[x], x = root, parent[x]
            return root

        for rest in combinations_with_replacement(range(1, s + 1), m - 2):
            for rel in bins:
                p, q = rel.pairs()
                ra = find(tuple(sorted(p + rest)))
                rb = find(tuple(sorted(q + rest)))
                if ra != rb:
                    parent[ra] = rb
        nontrivial = 0
        for fib in level:
            if len(fib.nodes) > 1:
                nontrivial += 1
                # nodes are in lexicographic order, so the first one outside
                # the class of nodes[0] is the least such node
                root = find(fib.nodes[0])
                for node in fib.nodes[1:]:
                    if find(node) != root:
                        checks.append(FiberCheck(m, len(level), nontrivial, False))
                        return ConnectivityReport(
                            False,
                            m_max,
                            tuple(checks),
                            len(bins),
                            (m, fib.product, fib.nodes[0], node),
                        )
        checks.append(FiberCheck(m, len(level), nontrivial, True))
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
    status: str  # "ok" | "violation" | "budget"
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


def conjecture_scan(
    graphs,
    cap_max: int = 2,
    m_max: int = 3,
    fiber_budget: int = DEFAULT_FIBER_BUDGET,
    on_instance=None,
) -> ScanReport:
    """Fiber-connectivity sweep over unicyclic graphs and a normalized cap grid.

    Budget overruns are recorded per instance and the scan continues.  The
    returned report lists every disconnected fiber found; a clean report
    certifies generation by the exchange quadrics through degree m_max on
    the swept instances.
    """
    instances = 0
    strong_pass = 0
    strong_fail = 0
    violations = []
    skips = []
    for gi, g in enumerate(graphs):
        engine = PowerEngine(g)
        seen = set()
        for caps in product(range(1, cap_max + 1), repeat=g.n):
            norm = normalize_caps(g, caps)
            if norm in seen:
                continue
            seen.add(norm)
            gens = engine.generators(norm)
            if check_strong_exchange(gens).ok:
                strong_pass += 1
            else:
                strong_fail += 1
            instances += 1
            try:
                report = check_fiber_connectivity(gens, m_max, fiber_budget)
            except BudgetError:
                skips.append(
                    ScanInstance(
                        gi, g.n, g.sorted_edges, norm, len(gens), "budget"
                    )
                )
                continue
            if not report.ok:
                violations.append(
                    ScanInstance(
                        gi,
                        g.n,
                        g.sorted_edges,
                        norm,
                        len(gens),
                        "violation",
                        report.failure,
                    )
                )
            if on_instance is not None:
                on_instance(gi, norm, report)
    return ScanReport(
        cap_max,
        m_max,
        instances,
        tuple(violations),
        tuple(skips),
        strong_pass,
        strong_fail,
    )
