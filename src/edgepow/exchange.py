"""Exchange-property checkers and Veronese-type detection.

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
the bounds) and verifies it, so presence of the decomposition and the
strong verdict can be cross-checked independently.

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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations, product

from .graph import Graph
from .powers import (
    DEFAULT_NODE_BUDGET,
    BudgetError,
    GeneratorSet,
    PowerEngine,
    check_vertices,
)
# perfbench/spans.py patches normalize_caps by name here
from .powers import normalize_caps  # noqa: F401

EXCHANGE = "exchange"
SYMMETRIC = "symmetric"
STRONG = "strong"

GRID_LIMIT = 2_000_000


def _member_set(w):
    if isinstance(w, GeneratorSet):
        mem = w.members
    else:
        mem = frozenset(tuple(v) for v in w)
    if not mem:
        raise ValueError("generator set is empty")
    if len({len(v) for v in mem}) != 1:
        raise ValueError("generators have mixed lengths")
    return mem


def _swap(u, a, b):
    out = list(u)
    out[a] -= 1
    out[b] += 1
    return tuple(out)


@dataclass(frozen=True)
class ExchangeWitness:
    """Failing configuration; xi and rho are 1-based variable indices.

    For the exchange and symmetric properties a failure means no rho works
    at all, so rho and missing are None there.
    """

    u: tuple
    v: tuple
    xi: int
    rho: int | None
    missing: tuple | None

    def to_json(self) -> dict:
        return {
            "u": list(self.u),
            "v": list(self.v),
            "xi": self.xi,
            "rho": self.rho,
            "missing": list(self.missing) if self.missing is not None else None,
        }


@dataclass(frozen=True)
class ExchangeReport:
    prop: str
    ok: bool
    witness: ExchangeWitness | None = None

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
    """Every admissible single swap must stay in the set."""
    mem = _member_set(w)
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

@dataclass(frozen=True)
class VeroneseDecomposition:
    """members = base + e over all e with 0 <= e <= bounds on support, sum(e) = degree."""

    base: tuple
    degree: int
    support: tuple
    bounds: tuple

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
    k = len(bounds)
    out = []
    cur = [0] * k
    suffix = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] + bounds[i]

    def go(i, left):
        if i == k:
            if left == 0:
                out.append(tuple(cur))
            return
        if left > suffix[i]:
            return
        lo = max(0, left - suffix[i + 1])
        for val in range(min(bounds[i], left), lo - 1, -1):
            cur[i] = val
            go(i + 1, left - val)
        cur[i] = 0

    go(0, total)
    return out


def detect_veronese(w) -> VeroneseDecomposition | None:
    """The forced candidate decomposition, verified member-for-member.

    If any decomposition of this shape exists, the one built from the
    componentwise minimum and (max - min) bounds also works, so checking
    that single candidate decides existence.
    """
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


# ---------------------------------------------------------------------------
# Cap-grid walk and counterexample search

def check_cap_max(cap_max: int) -> None:
    """Refuse a cap bound under which a grid has no cap vector."""
    if cap_max < 1:
        raise ValueError(f"cap_max must be >= 1, got {cap_max}")


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
    """Yield (caps, generator set) for each grid vector of {1..cap_max}^n that
    is its own normal form, in ascending lex order: by the lemma in the module
    docstring, once per normal form and without normalising.  A vertex of
    degree >= cap_max has a neighbour sum of at least cap_max, so only the
    others are tested.  ``check_grid`` runs before the first vector; one
    engine's memo serves the whole grid, and no per-vector state is kept."""
    check_grid(graph.n, cap_max)
    engine = PowerEngine(graph, node_budget)
    low = [
        (v, tuple(w - 1 for w in nbrs))
        for v, nbrs in enumerate(graph.adjacency)
        if len(nbrs) < cap_max
    ]
    for caps in product(range(1, cap_max + 1), repeat=graph.n):
        for v, nbrs in low:
            if caps[v] > sum(map(caps.__getitem__, nbrs)):
                break
        else:
            yield caps, engine.generators(caps)


def search_sep_counterexample(
    graph: Graph,
    cap_max: int,
    workers: int = 1,
    node_budget: int = DEFAULT_NODE_BUDGET,
):
    """First cap vector of ``cap_grid`` whose generator set fails the strong
    exchange property, with its report; None if the whole grid passes.
    ``workers`` is accepted for compatibility and has no effect."""
    for caps, gens in cap_grid(graph, cap_max, node_budget):
        report = check_strong_exchange(gens)
        if not report.ok:
            return caps, report
    return None
