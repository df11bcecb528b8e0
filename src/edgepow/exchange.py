"""Exchange-property checkers and Veronese-type detection.

Every check here and in ``toric`` reads W through one gate, ``_member_set``,
once: a non-empty ``GeneratorSet`` from the engine, or a non-empty set of
vectors of one positive length, each entry an int >= 0 (not a bool); else
ValueError.

All three properties quantify over ordered pairs (u, v) of generators and
variable indices xi, rho with u[xi] > v[xi] and u[rho] < v[rho]:

* exchange:  some rho makes u - e_xi + e_rho a generator;
* symmetric: some rho makes both u - e_xi + e_rho and v - e_rho + e_xi
  generators;
* strong:    every such (xi, rho) keeps u - e_xi + e_rho a generator.

The three checks, and the symmetric-exchange quadrics of ``toric``, share
one enumeration of these configurations: ``_moves`` yields each pair
(u, v) with its ``ups`` (the xi) and ``downs`` (the rho), and each consumer
keeps only its own test.

A generator set passes the strong property exactly when it is a shifted
bounded-degree slice: a common factor times all monomials of one degree
under componentwise bounds.  ``detect_veronese`` constructs the only
possible such decomposition (componentwise min as the factor, max - min as
the bounds) and verifies it by counting the slice.  A set of over 3
members that fills it passes the strong check at once (on fewer the loop
costs less), with no theorem needed: for u, v in the slice {min <= u <=
max, |u| = d}, u[xi] - 1 >= v[xi] >= min[xi] and u[rho] + 1 <= v[rho] <=
max[rho], so the swap stays in the slice.  Every other set runs the
ordered swap loop, which decides every failing verdict and witness.

The module also hosts ``cap_grid``, the one walk over a graph's cap grid,
shared by the counterexample search here and the fiber scan of ``toric``.
It visits one cap vector per normal form (``powers.normalize_caps``, which
keeps the generator set) without normalising any vector, by this lemma:

* a graph has no isolated vertex, so each cap is clamped to a neighbour sum
  of positive caps: the normal form X of a grid vector c has 1 <= X <= c;
* so X is itself a grid vector, X <= c in lex order, and X is its own
  normal form, being a fixed point of the clamp;
* so the first grid vector with normal form X is X, and the walk yields
  exactly the grid vectors with ``caps[v] <= sum of caps[w]`` over the
  neighbours w of every vertex v.

Both consumers need the engine on one cap vector per orbit of the graph's
automorphisms (lex-leader symmetry breaking: Crawford, Ginsberg, Luks and
Roy, KR 1996).  ``cap_grid`` still yields every fixed-point cell, but the
engine computes only those that the test ``graph.lex_leader`` keeps: no
automorphism from ``graph.automorphisms`` maps them to a lex-smaller
vector.  Any other cell comes with the automorphism sigma that maps it to
the earlier cell caps o sigma.
The search skips those cells and returns what the full walk returns, by
this lemma:

* an automorphism sigma maps W(c o sigma) onto W(c) by permuting
  coordinates, and the strong property does not depend on coordinate
  order; the grid and the fixed-point test are sigma-invariant too;
* so the whole orbit of the full walk's first failing vector fails, and
  that vector is the lex-least member of its orbit;
* a filter that uses any subset of Aut(G) therefore never skips it, and
  every earlier vector the filter keeps also passes in the full walk, so
  the search returns the same first failure and the same report;
* a vector whose caps ascend within every class of a colouring that
  automorphisms keep (two refinement rounds from the degrees, in
  ``graph.lex_leader``) is least among all colour-preserving
  rearrangements, so least in its orbit: such vectors skip the test, and
  the automorphisms are found at the first vector with an inversion
  inside a class.

``conjecture_scan`` counts and streams every cell, replays a skipped cell
from its earlier image, and checks one computed cell per shape of W, its
translate by min(W) on the coordinates that vary; one rule reruns a failing
report on each other cell's own W (the ``toric`` docstring).
"""
from __future__ import annotations

import math
from itertools import permutations, product

from .graph import Graph, _is_int, _Record, check_vertices, lex_leader
from .powers import DEFAULT_NODE_BUDGET, BudgetError, GeneratorSet, PowerEngine
# perfbench/spans.py patches normalize_caps by name here
from .powers import normalize_caps  # noqa: F401

EXCHANGE = "exchange"
SYMMETRIC = "symmetric"
STRONG = "strong"

GRID_LIMIT = 2_000_000


def _member_set(w) -> frozenset:
    if isinstance(w, GeneratorSet):
        mem = w.members
    else:
        try:
            mem = frozenset(map(tuple, w))
        except TypeError:  # W or a member is not iterable, or an entry is unhashable
            raise ValueError("generator set must be a collection of exponent vectors") from None
        if len(set(map(len, mem))) > 1:
            raise ValueError("generators have mixed lengths")
        entries = [a for vec in mem for a in vec]
        if () in mem or not all(map(_is_int, entries)):
            raise ValueError("exponent vectors need one or more coordinates, ints but not bools")
        if min(entries, default=0) < 0:
            raise ValueError("exponent vectors must be non-negative")
    if not mem:
        raise ValueError("generator set is empty")
    return mem


def _swap(u, a, b):
    out = list(u)
    out[a] -= 1
    out[b] += 1
    return tuple(out)


class ExchangeWitness(_Record):
    """Failing configuration; xi and rho are 1-based variable indices.

    For the exchange and symmetric properties a failure means no rho works
    at all, so rho and missing are None there.
    """

    u: tuple
    v: tuple
    xi: int
    rho: int | None
    missing: tuple | None

    def __init__(self, u, v, xi, rho, missing):
        self.__dict__.update(u=u, v=v, xi=xi, rho=rho, missing=missing)

    def to_json(self) -> dict:
        return {
            "u": list(self.u),
            "v": list(self.v),
            "xi": self.xi,
            "rho": self.rho,
            "missing": list(self.missing) if self.missing is not None else None,
        }


class ExchangeReport(_Record):
    prop: str
    ok: bool
    witness: ExchangeWitness | None

    def __init__(self, prop, ok, witness=None):
        self.__dict__.update(prop=prop, ok=ok, witness=witness)

    def to_json(self) -> dict:
        out = {"property": self.prop, "verdict": "pass" if self.ok else "fail"}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        return out


def _moves(pairs):
    """Each pair (u, v) with the indices where u is above v (``ups``) and
    below v (``downs``), both ascending.

    A swap u - e_xi + e_rho is admissible for xi in ups and rho in downs.
    """
    for u, v in pairs:
        ups = []
        downs = []
        for k, a in enumerate(u):
            b = v[k]
            if a > b:
                ups.append(k)
            elif a < b:
                downs.append(k)
        yield u, v, ups, downs


def check_exchange(w) -> ExchangeReport:
    """Single-sided exchange; the first failing (u, v, xi) in sorted order."""
    mem = _member_set(w)
    for u, v, ups, downs in _moves(permutations(sorted(mem), 2)):
        for xi in ups:
            if not any(_swap(u, xi, rho) in mem for rho in downs):
                return ExchangeReport(
                    EXCHANGE, False, ExchangeWitness(u, v, xi + 1, None, None)
                )
    return ExchangeReport(EXCHANGE, True)


def check_symmetric_exchange(w) -> ExchangeReport:
    """Two-sided exchange; both swapped monomials must stay in the set."""
    mem = _member_set(w)
    for u, v, ups, downs in _moves(permutations(sorted(mem), 2)):
        for xi in ups:
            if not any(
                _swap(u, xi, rho) in mem and _swap(v, rho, xi) in mem
                for rho in downs
            ):
                return ExchangeReport(
                    SYMMETRIC, False, ExchangeWitness(u, v, xi + 1, None, None)
                )
    return ExchangeReport(SYMMETRIC, True)


def check_strong_exchange(w) -> ExchangeReport:
    """Every admissible single swap must stay in the set (module docstring)."""
    mem = _member_set(w)
    if len(mem) > 3 and _veronese(mem) is not None:
        return ExchangeReport(STRONG, True)
    for u, v, ups, downs in _moves(permutations(sorted(mem), 2)):
        for xi in ups:
            for rho in downs:
                moved = _swap(u, xi, rho)
                if moved not in mem:
                    return ExchangeReport(
                        STRONG,
                        False,
                        ExchangeWitness(u, v, xi + 1, rho + 1, moved),
                    )
    return ExchangeReport(STRONG, True)


# ---------------------------------------------------------------------------
# Veronese-type detection

class VeroneseDecomposition(_Record):
    """members = base + e over all e with 0 <= e <= bounds on support, sum(e) = degree."""

    base: tuple
    degree: int
    support: tuple
    bounds: tuple

    def __init__(self, base, degree, support, bounds):
        self.__dict__.update(base=base, degree=degree, support=support, bounds=bounds)

    def expand(self) -> frozenset:
        """Reconstruct the full member set from the decomposition."""
        out = set()
        for e in _bounded_compositions(self.bounds, self.degree):
            vec = list(self.base)
            for idx, val in zip(self.support, e):
                vec[idx - 1] += val
            out.add(tuple(vec))
        return frozenset(out)

    def to_json(self) -> dict:
        return {
            "base": list(self.base),
            "degree": self.degree,
            "support": list(self.support),
            "bounds": list(self.bounds),
        }


def _bounded_compositions(bounds, total):
    """All tuples e with 0 <= e[i] <= bounds[i] and sum(e) = total."""
    if not bounds:
        return [()] if total == 0 else []
    rest = bounds[1:]
    low = max(0, total - sum(rest))
    return [
        (val,) + e
        for val in range(min(bounds[0], total), low - 1, -1)
        for e in _bounded_compositions(rest, total - val)
    ]


def _count_bounded_compositions(bounds, total):
    """The number of tuples e with 0 <= e[i] <= bounds[i] and sum(e) = total:
    a DP over prefix sums, O(len(bounds) * total)."""
    ways = [1] + [0] * total
    for b in bounds:
        nxt, acc = [], 0
        for s in range(total + 1):
            acc += ways[s]
            if s > b:
                acc -= ways[s - b - 1]
            nxt.append(acc)
        ways = nxt
    return ways[total]


def detect_veronese(w) -> VeroneseDecomposition | None:
    """The forced candidate decomposition, verified by counting.

    If any decomposition of this shape exists, the one built from the
    componentwise minimum and (max - min) bounds also works, so checking
    that single candidate decides existence.  Members of one degree lie in
    the candidate's slice, so they fill it exactly when there are as many
    as the slice has points; mixed degrees never fill a one-degree slice.
    Nor does a set with a bound b >= |W|, as a filled slice takes all
    b + 1 values in that coordinate; so the count is O(k**2 * |W|).
    """
    return _veronese(_member_set(w))


def _veronese(mem: frozenset) -> VeroneseDecomposition | None:
    """``detect_veronese`` on the member set that the gate returned."""
    degrees = set(map(sum, mem))
    if len(degrees) != 1:
        return None
    cols = tuple(zip(*mem))
    mins = tuple(map(min, cols))
    maxs = tuple(map(max, cols))
    support = tuple(i + 1 for i, (lo, hi) in enumerate(zip(mins, maxs)) if hi > lo)
    bounds = tuple(maxs[i - 1] - mins[i - 1] for i in support)
    deg = degrees.pop() - sum(mins)
    size = len(mem)
    if max(bounds, default=0) >= size or _count_bounded_compositions(bounds, deg) != size:
        return None
    return VeroneseDecomposition(mins, deg, support, bounds)


# ---------------------------------------------------------------------------
# Cap-grid walk and counterexample search

def check_cap_max(cap_max: int) -> None:
    """Refuse a cap bound that is no int, or under which a grid has no cap vector."""
    if not (_is_int(cap_max) and cap_max >= 1):
        raise ValueError(f"cap_max must be >= 1, got {cap_max!r}")


def check_grid(n: int, cap_max: int) -> None:
    """Refuse, before any work, a grid {1..cap_max}^n that ``cap_grid`` cannot
    walk: cap_max first, then its size, then the engine's vertex bound.  A
    size past 4,000 digits is written as a power, not computed."""
    check_cap_max(cap_max)
    huge = n * math.log10(cap_max) > 4000
    total = f"{cap_max}**{n}" if huge else cap_max ** n
    if huge or total > GRID_LIMIT:
        raise BudgetError(f"grid of {total} cap vectors exceeds the limit {GRID_LIMIT}")
    check_vertices(n)


def cap_grid(graph: Graph, cap_max: int, node_budget: int = DEFAULT_NODE_BUDGET):
    """Yield (caps, generator set, sigma) for each grid vector of {1..cap_max}^n
    that is its own normal form, in ascending lex order: by the lemma in the
    module docstring, once per normal form and without normalising.  A
    vertex of degree >= cap_max has a neighbour sum of at least cap_max, so
    only the others are tested.  sigma is None on a cell that the orbit
    filter keeps, and the engine computes its generator set; any other cell
    has no generator set and the automorphism, 0-based, under which
    ``caps o sigma`` is a lex-smaller, so earlier, cell of this walk.
    ``check_grid`` runs before the first vector; one engine's memo serves
    the kept cells, so the node budget charges those only, and no
    per-vector state is kept."""
    check_grid(graph.n, cap_max)
    engine = PowerEngine(graph, node_budget)
    low = [
        (v, tuple(w - 1 for w in nbrs))
        for v, nbrs in enumerate(graph.adjacency)
        if len(nbrs) < cap_max
    ]
    leader = lex_leader(graph)
    for caps in product(range(1, cap_max + 1), repeat=graph.n):
        for v, nbrs in low:
            if caps[v] > sum(map(caps.__getitem__, nbrs)):
                break
        else:
            sigma = leader(caps)
            yield caps, engine.generators(caps) if sigma is None else None, sigma


def search_sep_counterexample(
    graph: Graph,
    cap_max: int,
    workers: int = 1,
    node_budget: int = DEFAULT_NODE_BUDGET,
):
    """First cap vector of ``cap_grid`` whose generator set fails the strong
    exchange property, with its report; None if the whole grid passes.  It
    checks only the cells that carry no automorphism, which by the module
    docstring returns what the full walk returns.  ``workers`` is accepted
    for compatibility and has no effect."""
    for caps, gens, sigma in cap_grid(graph, cap_max, node_budget):
        if sigma is None:
            report = check_strong_exchange(gens)
            if not report.ok:
                return caps, report
    return None
