"""Quadratic exchange relations and fiber connectivity of the toric ideal.

Index the generators z_1..z_s by the largest-first ordering of the member
list.  A symmetric exchange between members u = w_i and v = w_j at a pair
of variables (one up in u, one down) lands on two other members w_i0, w_j0
with w_i * w_j = w_i0 * w_j0; the quadratic relation z_i z_j - z_i0 z_j0 is
recorded in canonical form.  So ``_quadrics`` swaps only the pairs i < j
whose product another pair shares, as degree 2's ``Counter`` tells; (rho,
xi) on (w_j, w_i) lands where (xi, rho) on (w_i, w_j) does.

Whether these quadrics generate the toric ideal through degree m is
equivalent to connectivity of every degree-m fiber, the m-multisets of
generator indices sharing one product, under the moves {a,b}+R -> {c,d}+R
(z_a z_b - z_c z_d a quadric, |R| = m-2).  ``check_fiber_connectivity``
keeps one union-find per degree, joining in degree 2 the sides of each
quadric, in degree m+1 x+u to r+u for each index u and non-root x of degree
m, r its root: x ~ r by moves, which plus u stay moves, and a degree-(m+1)
move is, for u in R, a degree-m move plus u, whose ends share a root.  A
move keeps the product, so #classes >= #fibers, with equality exactly when
every fiber is connected.  A union of two classes adds one key to the
parent map and path halving rewrites only present keys, so #classes =
C(s+m-1, m) - #keys: a degree passes on counts alone, and only a failing
one groups and walks its fibers.

The inner loops work on packed Python ints, not tuples.  An exponent vector
packs into one int with coordinate 0 in the highest fixed-width digit; with
digits wide enough that no sum carries, a product of members is the sum of
their packed forms, and ascending packed order is the lexicographic order
of the tuples.  A multiset of generator indices packs as its count vector
(index 1 highest), so x+u is one add.  One check packs products and count
vectors once, with digits for degree m_max, and every degree, a failing
one's fiber groups included, sums those same ints; products and multisets
are unpacked only for a failure witness and by ``fibers``.  A swap adds
e_rho - e_xi to one packed member and subtracts it from the other with no
carry or borrow at the check's width, or any that holds the largest
exponent: u[xi] >= 1 for xi in ups, and u[rho] < v[rho] for rho in downs.

Past degree 2 the check needs no union-find when W is sortable and its
members share one total degree.  Write the product of u, v in W as
x_{k1} x_{k2} ... x_{k2d} with k1 <= ... <= k2d; then sort(u, v) is
(x_{k1} x_{k3} ..., x_{k2} x_{k4} ...), and W is sortable when sort(u, v)
is in W x W for all u, v in W.  The sorting binomials z_u z_v - z_u' z_v',
(u', v') = sort(u, v), then form a Groebner basis of the toric ideal I_W
(Sturmfels, Groebner Bases and Convex Polytopes, 1996, Thm 14.2).  Degree
2 must pass first: {u, v} and {u', v'} lie in one degree-2 fiber, and a
sorting binomial is a sum of quadrics exactly when a chain of quadric
moves joins them.  Once every degree-2 fiber is connected the quadrics
contain a Groebner basis of I_W, so they generate it, and every fiber of
every degree is connected (Diaconis-Sturmfels 1998, the fundamental
theorem of Markov bases).  Each later degree then reports its counts from
its ``Counter`` alone, after the same budget test.  A W that is not
sortable in the natural variable order, or has members of several total
degrees, takes the union-find.

sort(u, v) depends only on p = u + v, so ``_sortable`` tests each key of
degree 2's ``Counter`` once.  Digit t of a sorted half is floor(p_t / 2),
rounded up in the 1st, 3rd, ... digit from coordinate 0 where p_t is odd,
since an odd run of x_t flips the parity of the positions after it; one
total degree makes the odd digits even in number, so the halves take half
of them each.  The packed halves never carry or borrow: p_t < 2^bits, so
(p >> 1) moves the low bit of each digit into the top bit of the digit
below, which the mask clears; rounding up adds the low bit of an odd
digit, giving at most p_t; and p - half takes at most p_t from each digit.

``conjecture_scan`` walks each graph's caps through ``exchange.cap_grid``,
the walk the strong-exchange counterexample search shares, with its bounds;
``check_unicyclic_scan`` holds every bound of a scan of the unicyclic corpus.
The scan checks the cells that the orbit filter keeps and replays each other
cell c from its earlier image c o sigma, so its counts, its ``on_instance``
stream and its report are those of checking every cell.  The replay is
exact: w -> w' with w'[sigma[j]] = w[j] maps W(c o sigma) onto W(c)
(``exchange``), and this coordinate permutation

* keeps the strong verdict, which does not depend on coordinate order;
* keeps |W|, the only input of the fiber budget test besides m;
* maps a symmetric exchange of u, v at (xi, rho) to one of u', v' at
  (sigma[xi], sigma[rho]), so the quadrics of one set onto the other's;
* maps products of members to products of their images, so each degree-m
  fiber onto a fiber of the same size and each quadric move onto a move:
  the fiber and non-trivial counts and each fiber's connectivity hold, and
  so does the degree at which the check stops.

The scan checks one computed cell per shape of W in a call, the set of
w - min(W) on the coordinates that vary on W, and gives the others of that
shape its verdict and report.  This map is injective on W and keeps lex
order, so the z-indexing is the same; every exchange (xi, rho) lies in
varying coordinates, so the strong verdict and, by index, the quadrics are
the same; products of m-multisets map injectively, so the fibers are the
same by index; and the budget test reads only |W| and m.

Each cell reads its verdict and report under one shape: its own, or a
replayed cell its earlier image's.  A witness names a product, which the
shape map does not keep, and members by largest-first index, which the
permutation does not keep; so a failing report that another cell computed
is checked again on the cell's own W, for a replayed cell the image of its
earlier cell's members.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from math import comb
from operator import countOf

from .corpus import UNICYCLIC_COUNTS
from .exchange import GRID_LIMIT, _member_set, _moves, cap_grid, check_cap_max, check_grid
# perfbench/spans.py patches normalize_caps and check_strong_exchange by name here
from .exchange import check_strong_exchange
from .graph import _is_int
from .powers import DEFAULT_NODE_BUDGET, BudgetError, GeneratorSet, normalize_caps  # noqa: F401

DEFAULT_FIBER_BUDGET = 10 ** 7


def _ordered_members(w) -> tuple:
    """W's members through ``exchange._member_set``, largest-first (z_i indexing)."""
    mem = _member_set(w)
    return w.ordered if isinstance(w, GeneratorSet) else tuple(sorted(mem, reverse=True))


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


def _multiset(key: int, s: int, top: int) -> tuple:
    """Sorted 1-based generator indices of a count vector packed for degree top."""
    counts = _unpack(key, top.bit_length(), s)
    return tuple(k for k, c in enumerate(counts, 1) for _ in range(c))


def _product_bits(ws, m: int) -> int:
    return (m * max(map(max, ws))).bit_length()


def _sortable(products, sums, bits: int, n: int) -> bool:
    """Whether sort(u, v) lies in W x W for each packed product p = u + v in
    ``sums``, W packed as ``products`` at ``bits``-bit digits over n
    coordinates (module docstring)."""
    members = set(products)
    ones = _pack((1,) * n, bits)
    low = ones * (((1 << bits) - 1) >> 1)  # every bit of a digit but its top one
    for p in sums:
        half = (p >> 1) & low  # floor(p_t / 2) in each digit t
        odd = p & ones
        while odd:  # round up the 1st, 3rd, ... odd digit from coordinate 0
            top = 1 << (odd.bit_length() - 1)
            half += top
            odd ^= top
            odd ^= 1 << (odd.bit_length() - 1)
        if half not in members or p - half not in members:
            return False
    return True


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


def _quadrics(ws, products, bits: int, sizes) -> set:
    """0-based (i, j, k, l) of each canonical quadric z_i z_j - z_k z_l of ``ws``,
    packed as ``products``; ``sizes`` counts degree 2's products (module docstring)."""
    weight = [1 << (bits * t) for t in range(len(ws[0]) - 1, -1, -1)]
    index = {key: k for k, key in enumerate(products)}
    pairs = combinations(enumerate(products), 2)
    shared = [(i, pu, j, pv) for (i, pu), (j, pv) in pairs if sizes[pu + pv] > 1]
    out = set()
    for (i, pu, j, pv), (_, _, ups, downs) in zip(
        shared, _moves((ws[i], ws[j]) for i, _, j, _ in shared)
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
    return out


def sym_exchange_binomials(w) -> tuple:
    """All canonical symmetric exchange quadrics of a generator set, sorted."""
    ws = _ordered_members(w)
    bits = _product_bits(ws, 2)
    products = [_pack(vec, bits) for vec in ws]
    sizes = Counter(map(sum, combinations_with_replacement(products, 2)))
    quads = sorted(_quadrics(ws, products, bits, sizes))
    return tuple(SymExchangeBinomial(*(k + 1 for k in quad)) for quad in quads)


@dataclass(frozen=True)
class Fiber:
    degree: int
    product: tuple
    nodes: tuple  # sorted tuples of 1-based generator indices


def _multisets(s: int, m: int, budget: int) -> int:
    """C(s+m-1, m), the degree-m multisets of s indices, if it fits the budget."""
    count = comb(s + m - 1, m)
    if count > budget:
        raise BudgetError(f"{count} degree-{m} multisets exceed the fiber budget {budget}")
    return count


def _fiber_groups(products, units, m: int) -> dict:
    """Degree-m multisets of generator indices, as summed ``units``, keyed by
    the sum of their packed ``products``; a group lists multisets in their
    tuples' order."""
    groups = {}
    for prod, node in zip(
        map(sum, combinations_with_replacement(products, m)),
        map(sum, combinations_with_replacement(units, m)),
    ):
        groups.setdefault(prod, []).append(node)
    return groups


def fibers(w, m: int, budget: int = DEFAULT_FIBER_BUDGET) -> tuple:
    """Degree-m multisets of generator indices, grouped by product monomial."""
    if not (_is_int(m) and m >= 2):
        raise ValueError(f"fiber degree must be >= 2, got {m!r}")
    ws = _ordered_members(w)
    s = len(ws)
    _multisets(s, m, budget)
    bits = _product_bits(ws, m)
    groups = _fiber_groups([_pack(vec, bits) for vec in ws], _units(s, m), m)
    return tuple(
        Fiber(
            m,
            _unpack(prod, bits, len(ws[0])),
            tuple(_multiset(node, s, m) for node in nodes),
        )
        for prod, nodes in sorted(groups.items())
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
    """Refuse a fiber degree bound that is no int, or under which nothing would be certified."""
    if not (_is_int(m_max) and m_max >= 2):
        raise ValueError(f"m_max must be >= 2, got {m_max!r}")


def check_fiber_connectivity(
    w, m_max: int = 3, budget: int = DEFAULT_FIBER_BUDGET
) -> ConnectivityReport:
    """Certify generation by the exchange quadrics through degree m_max.

    Every fiber of every degree 2..m_max must be connected under the
    quadratic moves (module docstring); a disconnected fiber exhibits a
    kernel binomial that the quadrics do not generate.
    """
    check_m_max(m_max)
    ws = _ordered_members(w)
    s = len(ws)
    n = len(ws[0])
    units = _units(s, m_max)
    bits = _product_bits(ws, m_max)
    products = [_pack(vec, bits) for vec in ws]

    def find(x):
        # path halving: point x at its grandparent, then move x there
        while (up := parent.get(x, x)) != x:
            parent[x] = x = parent.get(up, up)
        return x

    checks = []
    for m in range(2, m_max + 1):
        count = _multisets(s, m, budget)
        sizes = Counter(map(sum, combinations_with_replacement(products, m)))
        if m == 2:
            quads = _quadrics(ws, products, bits, sizes)
            joins = [(units[i] + units[j], units[k] + units[l]) for i, j, k, l in quads]
        if joins is not None:  # None once a sortable W passed degree 2 (module docstring)
            parent = {}
            for p, q in joins:
                ra = find(p)
                rb = find(q)
                if ra != rb:
                    parent[ra] = rb
            if count - len(parent) > len(sizes):  # some fiber holds two classes
                groups = _fiber_groups(products, units, m)
                shared = sorted(prod for prod, nodes in groups.items() if len(nodes) > 1)
                for nontrivial, prod in enumerate(shared, 1):
                    # nodes come in their index tuples' order: b is the least outside a's class
                    a, *rest = groups[prod]
                    root = find(a)
                    b = next((node for node in rest if find(node) != root), None)
                    if b is not None:
                        checks.append(FiberCheck(m, len(groups), nontrivial, False))
                        prod = _unpack(prod, bits, n)
                        failure = (m, prod, _multiset(a, s, m_max), _multiset(b, s, m_max))
                        return ConnectivityReport(False, m_max, tuple(checks), len(quads), failure)
        checks.append(FiberCheck(m, len(sizes), len(sizes) - countOf(sizes.values(), 1), True))
        if joins is None or m == m_max:
            continue
        if m == 2 and len(set(map(sum, ws))) == 1 and _sortable(products, sizes, bits, n):
            joins = None
        else:
            # parent's keys are the non-roots; a list of joins would raise peak RSS
            roots = [(x, find(x)) for x in parent]
            joins = ((x + u, r + u) for x, r in roots for u in units)
    return ConnectivityReport(True, m_max, tuple(checks), len(quads))


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
    if not (_is_int(max_n) and max_n >= 3):
        raise ValueError(f"max_n must be >= 3 (no unicyclic graph is smaller), got {max_n!r}")
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
    BudgetError; the budget charges only the cells the engine computes,
    about one per orbit, and a memo of one call checks one of them per
    shape of W; its one rule reruns a failing report that another cell
    computed on the cell's own W (module docstring).  Fiber budget overruns
    are recorded per instance and the scan continues.  The returned report
    lists every disconnected fiber found; a clean report certifies
    generation by the exchange quadrics through degree m_max on the swept
    instances.
    """
    check_cap_max(cap_max)
    check_m_max(m_max)
    strong_pass = 0
    strong_fail = 0
    violations = []
    skips = []
    shapes = {}  # _shape(W) -> (strong verdict, fiber report)
    for gi, g in enumerate(graphs):
        seen = {}  # caps -> (shape of W, W if its report failed)
        for caps, gens, sigma in cap_grid(g, cap_max, node_budget):
            reused = True
            if sigma is not None:
                shape, image = seen[tuple(map(caps.__getitem__, sigma))]
            elif (shape := _shape(gens)) not in shapes:
                strong = check_strong_exchange(gens).ok
                shapes[shape] = strong, _fiber_report(gens, m_max, fiber_budget)
                reused = False
            strong, report = shapes[shape]
            if reused and report is not None and not report.ok:  # a witness names its own W
                if sigma is not None:
                    gens = _relabelled(image, caps, sigma)
                report = _fiber_report(gens, m_max, fiber_budget)
            failed = report is not None and not report.ok
            seen[caps] = shape, gens if failed else None
            if strong:
                strong_pass += 1
            else:
                strong_fail += 1
            if report is None:
                kept, status, failure = skips, "budget", None
            else:
                if on_instance is not None:
                    on_instance(gi, caps, report)
                if not failed:
                    continue
                kept, status, failure = violations, "violation", report.failure
            kept.append(ScanInstance(gi, g.n, g.sorted_edges, caps, len(shape), status, failure))
    instances = strong_pass + strong_fail
    return ScanReport(
        cap_max, m_max, instances, tuple(violations), tuple(skips), strong_pass, strong_fail
    )


def _shape(w) -> frozenset:
    """W translated by its componentwise minimum, on the coordinates that vary on W."""
    ws = _ordered_members(w)
    live = [(t, low) for t, col in enumerate(zip(*ws)) if (low := min(col)) != max(col)]
    return frozenset(tuple(v[t] - low for t, low in live) for v in ws)


def _fiber_report(gens, m_max: int, budget: int):
    """``check_fiber_connectivity``, or None when it exceeds the fiber budget."""
    try:
        return check_fiber_connectivity(gens, m_max, budget)
    except BudgetError:
        return None


def _relabelled(image: GeneratorSet, caps: tuple, sigma: tuple) -> GeneratorSet:
    """W(caps) from W(caps o sigma): each member w becomes w' with
    w'[sigma[j]] = w[j] (module docstring), with no engine."""
    inverse = sorted(range(len(sigma)), key=sigma.__getitem__)
    members = frozenset(tuple(map(w.__getitem__, inverse)) for w in image.members)
    return GeneratorSet(image.graph, caps, image.delta, members)
