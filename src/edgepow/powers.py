"""Top bounded powers of an edge ideal.

Given a graph G and a vector of per-vertex caps c, the objects of interest
are edge multisets whose exponent vector stays componentwise below c.  The
top degree ``delta(G, c)`` is the largest size of such a multiset, and the
generator set ``W(G, c)`` collects the distinct exponent vectors of the
multisets that reach that size.  Because all of them share degree
``2 * delta``, W is automatically a minimal generating set.

The engine is a depth-first search over edges in lexicographic order,
assigning a multiplicity to each edge.  Two ingredients keep it exact and
fast at this scale:

* memoization of ``best(i, residual)`` = the maximum number of edges
  placeable using edges i.. under the residual caps, with residual entries
  of vertices that have no remaining incident edge zeroed out (they can
  never be consumed, so distinct dead values are the same state);
* the bound ``best <= sum(residual) // 2``, which both prunes and lets the
  multiplicity loop stop early once attained.

Both searches step through the same states.  A residual is one int
with a 32-bit digit per vertex, vertex 0 in the lowest, as is a product.
``_child`` takes edge i t times, ``(res - t * unit) & keep``: t is at most
min(res[u], res[v]), so nothing borrows, and ``keep`` zeroes the vertices
that edge i is the last one for.  As ``2**32`` is 1 modulo ``2**32 - 1``,
``res % (2**32 - 1)`` is the digit sum, at most 32 * MAX_CAP = 2**20.
Enumeration memoizes, per state and across cap vectors, the set of
products of its best-size placements: the union, over each t with
``t + best(child) == best``, of the child's set times edge i to the t.
Many multisets share a product when G has an even closed walk, so this
visits each state once, not each multiset.  A tight state, one with
``2 * best == sum(res)``, has the single product ``res``, packed as it
is, and expands no child:

* every placement from ``(i, res)`` has a product p <= res componentwise,
  since each multiplicity t is at most min(res[u], res[v]) and a zeroed
  vertex has no later edge;
* |p| = 2 * best = |res|, so p = res;
* ``_best(i, res) == best`` says such a placement exists.

At the root this is the perfect c-matching case, 2 * delta = |c|, where W is
{c}.  Products are unpacked only at the top.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

from .graph import Graph, _is_int, check_vertices

DEFAULT_NODE_BUDGET = 10 ** 8
MAX_CAP = 1 << 15
_BITS = 32  # bits per vertex digit of a packed residual or product
_ONES = (1 << _BITS) - 1


class BudgetError(RuntimeError):
    """A configured work budget was exhausted before the search finished."""


def as_caps(g: Graph, caps) -> tuple:
    """Validate a cap vector against a graph: one int in 1..MAX_CAP per vertex."""
    caps = tuple(caps)
    if len(caps) != g.n:
        raise ValueError(f"cap vector has length {len(caps)}, graph has {g.n} vertices")
    for i, c in enumerate(caps):
        if not _is_int(c):
            raise ValueError(f"caps[{i}] = {c!r} is not an integer")
        if not 1 <= c <= MAX_CAP:
            raise ValueError(f"caps[{i}] = {c} out of range 1..{MAX_CAP}")
    return caps


def parse_caps(text: str) -> tuple:
    """Parse the comma-separated cap syntax, e.g. "2,1,2,1,1,1,2,1"."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad cap vector {text!r}: {exc}") from None


def format_monomial(vec) -> str:
    """Render an exponent vector as a monomial, e.g. (1, 0, 2) -> "x1*x3^2"."""
    parts = []
    for i, e in enumerate(vec):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class GeneratorSet:
    """The generators of the top bounded power: exponent vectors of degree 2*delta."""

    graph: Graph
    caps: tuple
    delta: int
    members: frozenset

    def __len__(self):
        return len(self.members)

    def __contains__(self, vec):
        return tuple(vec) in self.members

    @cached_property
    def ordered(self) -> tuple:
        """Members listed largest-first in lexicographic order (z_i indexing)."""
        return tuple(sorted(self.members, reverse=True))

    def to_json(self) -> dict:
        return {
            "caps": list(self.caps),
            "delta": self.delta,
            "members": [list(m) for m in self.ordered],
        }


def member(gens: GeneratorSet, vec) -> bool:
    """Set membership with a length check."""
    vec = tuple(vec)
    if len(vec) != gens.graph.n:
        raise ValueError(
            f"exponent vector has length {len(vec)}, graph has {gens.graph.n} vertices"
        )
    return vec in gens.members


class PowerEngine:
    """Shared-memo search engine for one graph, reusable across cap vectors."""

    def __init__(self, graph: Graph, node_budget: int = DEFAULT_NODE_BUDGET):
        check_vertices(graph.n)
        self.graph = graph
        self.node_budget = node_budget
        self.nodes = 0
        self._memo = {}
        self._tops_memo = {}
        self._vec = struct.Struct(f"<{graph.n}I")
        self._shift = tuple((_BITS * (u - 1), _BITS * (v - 1)) for u, v in graph.sorted_edges)
        self._unit = tuple((1 << su) + (1 << sv) for su, sv in self._shift)
        last = {s: i for i, pair in enumerate(self._shift) for s in pair}
        keep = [(1 << _BITS * graph.n) - 1] * len(self._shift)
        for s, i in last.items():
            keep[i] -= _ONES << s
        self._keep = tuple(keep)

    def _charge(self):
        """Count one search node."""
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise BudgetError(f"node budget {self.node_budget} exhausted")

    def _pack(self, vec) -> int:
        return int.from_bytes(self._vec.pack(*vec), "little")

    def _child(self, i, res, t):
        """The state after taking edge i t times: caps of vertices with no
        edge after i are zeroed, since nothing can consume them any more."""
        return (res - t * self._unit[i]) & self._keep[i]

    def _best(self, i, res):
        """Max edges placeable from edge index i under (dead-masked) residual caps."""
        key = (i, res)
        val = self._memo.get(key)
        if val is not None:
            return val
        self._charge()
        ub = res % _ONES // 2
        if ub == 0 or i == len(self._shift):
            self._memo[key] = 0
            return 0
        su, sv = self._shift[i]
        best = 0
        for t in range(min(res >> su & _ONES, res >> sv & _ONES), -1, -1):
            got = t + self._best(i + 1, self._child(i, res, t))
            if got > best:
                best = got
                if best >= ub:
                    break
        self._memo[key] = best
        return best

    def delta(self, caps) -> int:
        caps = as_caps(self.graph, caps)
        return self._best(0, self._pack(caps))

    def _tops(self, i, res, best):
        """Packed products of the ``best``-edge placements from state
        ``(i, res)``, where ``1 <= best == _best(i, res)``; never mutated."""
        got = self._tops_memo.get((i, res))
        if got is not None:
            return got
        self._charge()
        if 2 * best == res % _ONES:  # tight: the only product is res itself
            self._tops_memo[i, res] = got = {res}
            return got
        su, sv = self._shift[i]
        unit = self._unit[i]
        top = min(res >> su & _ONES, res >> sv & _ONES, best)
        got = {best * unit} if top == best else None
        if i + 1 < len(self._shift):
            for t in range(min(top, best - 1), -1, -1):
                child = self._child(i, res, t)
                if t + self._best(i + 1, child) == best:
                    sub = self._tops(i + 1, child, best - t)
                    if t:
                        sub = {p + t * unit for p in sub}
                    got = sub if got is None else got | sub
        self._tops_memo[i, res] = got
        return got

    def generators(self, caps) -> GeneratorSet:
        """Every product of ``delta`` edges under the caps: the product sets
        of ``_best``'s own states, memoized across cap vectors like ``_best``."""
        caps = as_caps(self.graph, caps)
        root = self._pack(caps)
        depth = self._best(0, root)
        try:
            tops = self._tops(0, root, depth)
        except BudgetError:
            raise BudgetError(
                f"node budget {self.node_budget} exhausted "
                f"(enumeration, {len(self._tops_memo)} states so far)"
            ) from None
        vec = self._vec
        members = frozenset(vec.unpack(p.to_bytes(vec.size, "little")) for p in tops)
        return GeneratorSet(self.graph, caps, depth, members)


def normalize_caps(g: Graph, caps) -> tuple:
    """Clamp each cap to the sum of its neighbors' caps, swept to a fixpoint.

    The generator set is unchanged by this reduction, so equal normal forms
    mean equal generator sets.
    """
    cur = as_caps(g, caps)
    while True:
        nxt = tuple(
            min(cur[v - 1], sum(cur[w - 1] for w in g.adjacency[v - 1]))
            for v in range(1, g.n + 1)
        )
        if nxt == cur:
            return nxt
        cur = nxt


def delta(g: Graph, caps, node_budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Largest q such that some q-edge multiset stays under the caps."""
    return PowerEngine(g, node_budget).delta(caps)


def enumerate_generators(g: Graph, caps, node_budget: int = DEFAULT_NODE_BUDGET) -> GeneratorSet:
    """All exponent vectors realized by cap-respecting edge multisets of maximum size."""
    return PowerEngine(g, node_budget).generators(caps)

