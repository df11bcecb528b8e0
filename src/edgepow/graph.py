"""Finite simple graphs on 1-based vertex labels.

Graphs here are immutable values: a vertex count ``n`` and a frozenset of
edges ``(u, v)`` with ``1 <= u < v <= n``, built from any iterable of
pairs in either order.  Loops, parallel edges, isolated vertices and
boolean labels are rejected.  The module provides the standard families
used by the rest of the package (cycles, paths, stars, whiskered stars,
complete multipartite graphs minus a matching, a table of named small
graphs), a structure probe (tree/unicyclic detection with the unique
cycle), induced subgraphs with explicit renumbering maps, and graph
symmetry for the cap-grid walk (the counterexample search and the
conjecture scan): ``automorphisms`` and the lex-leader test
``lex_leader`` built on them.

Leaf structure has one routine, ``peel_leaves`` (smallest leaf first, no
recursion), and ``structure_probe`` is one call of it: a tree peels down to
one vertex, a unicyclic graph to its unique cycle, and the peel order gives
the trees hanging off that cycle.  Family constructors (so inline specs)
and graph files refuse more than ``MAX_FAMILY_SIZE`` vertices or edges
before building anything; a graph file larger than
``MAX_GRAPH_FILE_BYTES`` is refused before it is read.  ``Graph`` runs the
one pair rule, ``_pairs``, on its edges, as ``complete_multipartite`` does
on its matching, and every integer graph parameter (a vertex count, a
family size) meets one count rule, ``_at_least``, before any work.

Every value record of the package, ``Graph`` and the reports included, is a
``_Record``, not a dataclass: ``dataclasses`` would cost each import of the
package its own import chain and the generated methods of every class.
"""
from __future__ import annotations

import heapq
import json
import os
from functools import cached_property
from itertools import combinations
from operator import attrgetter

MAX_SEARCH_VERTICES = 32
MAX_FAMILY_SIZE = 200_000  # vertices or edges of a family graph or graph file
# json.dump(..., indent=4) spends at most 60 bytes on an edge whose labels are
# within MAX_FAMILY_SIZE (65 with CRLF line ends), so a graph file inside the
# limits fits, and a larger file is refused before it is read
MAX_GRAPH_FILE_BYTES = 80 * MAX_FAMILY_SIZE


def check_vertices(n: int) -> None:
    """Refuse a graph on more vertices than the engine enumerates."""
    if n > MAX_SEARCH_VERTICES:
        raise ValueError(
            f"enumeration is limited to {MAX_SEARCH_VERTICES} vertices, got {n}"
        )


def _is_int(x) -> bool:
    """An int but not a bool (``true`` in JSON): a label, cap or exponent."""
    return isinstance(x, int) and not isinstance(x, bool)


class GraphError(ValueError):
    """Invalid graph data, or an operation that would break graph invariants."""


def _at_least(value, least: int, rule: str) -> None:
    """Refuse with ``rule`` a count that is not an int (nor a bool) >= ``least``."""
    if not (_is_int(value) and value >= least):
        raise GraphError(f"{rule}, got {value!r}")


class _Record:
    """Base of the frozen value records: the fields are the annotated names
    of the subclass body, in order, and a subclass ``__init__`` sets them all
    with one ``self.__dict__.update``.  Assignment and deletion raise
    ``AttributeError``; ``cached_property`` still fills ``__dict__``."""

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # a subclass adds its own annotated names (from Python 3.10, a class's
        # __annotations__ holds only its own) to its base's fields
        cls._fields += tuple(cls.__annotations__)
        cls._values = attrgetter(*cls._fields)  # a tuple: every record has 2+ fields

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        args = zip(self._fields, self._values(self))
        return f"{self.__class__.__qualname__}({', '.join(f'{k}={v!r}' for k, v in args)})"


def _check_vertex_count(n) -> None:
    _at_least(n, 2, "vertex count must be an integer >= 2")


def _pairs(pairs, n: int, name: str):
    """Each entry of ``pairs`` as (u, v) with 1 <= u < v <= n, in order; an
    entry that is not a pair of ints (not bools), a loop or one out of range
    is refused with its position in ``name``; a non-iterable ``pairs`` first."""
    try:
        entries = iter(pairs)
    except TypeError:
        raise GraphError(f"{name} must be an iterable of pairs, got {pairs!r}") from None
    for pos, e in enumerate(entries):
        try:
            u, v = e
        except (TypeError, ValueError):
            raise GraphError(f"{name}[{pos}]: {e!r} is not a pair") from None
        if not (_is_int(u) and _is_int(v)):
            raise GraphError(f"{name}[{pos}]: non-integer endpoints in {e!r}")
        if u == v:
            raise GraphError(f"{name}[{pos}]: loop at vertex {u}")
        if u > v:
            u, v = v, u
        if not (1 <= u and v <= n):
            raise GraphError(f"{name}[{pos}]: [{u}, {v}] out of range 1..{n}")
        yield u, v


class Graph(_Record):
    """Simple graph on vertices ``1..n`` with no isolated vertex; ``edges``,
    any iterable of pairs, is stored as a frozenset of ``(u, v)``, u < v."""

    n: int
    edges: frozenset

    def __init__(self, n: int, edges):
        _check_vertex_count(n)
        pairs, covered = set(), set()
        for pos, (u, v) in enumerate(_pairs(edges, n, "edges")):
            if (u, v) in pairs:
                raise GraphError(f"edges[{pos}]: duplicate edge [{u}, {v}]")
            pairs.add((u, v))
            covered.add(u)
            covered.add(v)
        count = n - len(covered)
        if count:
            # The first 10 uncovered vertices lie within 1..len(covered) + 10,
            # so a huge n costs nothing here.
            stop = min(n, len(covered) + 10) + 1
            first = [v for v in range(1, stop) if v not in covered][:10]
            more = f" (first 10 of {count})" if count > 10 else ""
            raise GraphError(f"isolated vertices not allowed: {first}{more}")
        self.__dict__.update(n=n, edges=frozenset(pairs))

    @cached_property
    def sorted_edges(self) -> tuple:
        """Edges in lexicographic order; the canonical edge order everywhere."""
        return tuple(sorted(self.edges))

    @cached_property
    def adjacency(self) -> tuple:
        """``adjacency[v - 1]`` is the frozenset of neighbors of vertex ``v``."""
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u - 1].add(v)
            adj[v - 1].add(u)
        return tuple(frozenset(a) for a in adj)

    def neighbors(self, v: int) -> frozenset:
        self._check_vertex(v)
        return self.adjacency[v - 1]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    @cached_property
    def degrees(self) -> tuple:
        """Degree of each vertex, indexed by vertex - 1."""
        return tuple(len(a) for a in self.adjacency)

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.edges

    def _check_vertex(self, v: int):
        if not (_is_int(v) and 1 <= v <= self.n):
            raise GraphError(f"vertex {v!r} out of range 1..{self.n}")

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.sorted_edges]}

    def __repr__(self):
        return f"Graph(n={self.n}, edges={list(self.sorted_edges)})"


def graph_from_edges(n: int, edges) -> Graph:
    """Build a validated Graph, reporting the position of any bad edge."""
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# Families

def _check_size(n: int, m: int):
    if max(n, m) > MAX_FAMILY_SIZE:
        raise GraphError(
            f"graph would have {n} vertices and {m} edges; "
            f"the limit is {MAX_FAMILY_SIZE} of each"
        )


def cycle(n: int) -> Graph:
    """Cycle x1-x2-...-xn-x1; requires n >= 3."""
    _at_least(n, 3, "cycle needs length >= 3")
    _check_size(n, n)
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return Graph(n, edges)


def path(n: int) -> Graph:
    """Path x1-x2-...-xn; requires n >= 2."""
    _at_least(n, 2, "path needs >= 2 vertices")
    _check_size(n, n - 1)
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def star(n_leaves: int) -> Graph:
    """Star with center x_{n+1} joined to leaves x1..xn."""
    _at_least(n_leaves, 1, "star needs >= 1 leaf")
    _check_size(n_leaves + 1, n_leaves)
    c = n_leaves + 1
    return Graph(c, [(i, c) for i in range(1, c)])


def star_whisker(n_leaves: int, n_whiskers: int) -> Graph:
    """Star with a pendant edge added to each of the first ``n_whiskers`` leaves.

    Vertices: leaves x1..xn, whisker tips x_{n+1}..x_{n+k}, center x_{n+k+1}.
    """
    _at_least(n_leaves, 1, "star_whisker needs >= 1 leaf")
    if not (_is_int(n_whiskers) and 0 <= n_whiskers <= n_leaves):
        raise GraphError(
            f"whisker count must be between 0 and {n_leaves}, got {n_whiskers!r}"
        )
    n = n_leaves + n_whiskers + 1
    _check_size(n, n - 1)
    center = n
    edges = [(i, center) for i in range(1, n_leaves + 1)]
    edges += [(i, n_leaves + i) for i in range(1, n_whiskers + 1)]
    return Graph(n, edges)


def forked_path(n: int) -> Graph:
    """Path x1..xn with two pendant edges at each endpoint.

    Pendants are x_{n+1}, x_{n+2} at x1 and x_{n+3}, x_{n+4} at xn.
    """
    _at_least(n, 2, "forked_path needs a path on >= 2 vertices")
    _check_size(n + 4, n + 3)
    edges = [(i, i + 1) for i in range(1, n)]
    edges += [(1, n + 1), (1, n + 2), (n, n + 3), (n, n + 4)]
    return Graph(n + 4, edges)


def complete_multipartite(parts, matching=()) -> Graph:
    """Complete multipartite graph on consecutive vertex blocks, minus a matching.

    ``parts`` are the block sizes (at least two blocks, each an int >= 1); block i
    holds the next ``parts[i]`` vertex labels.  ``matching`` is a set of
    vertex pairs to delete; pairs must join different blocks and be pairwise
    disjoint.  The result must have no isolated vertex.
    """
    try:
        parts = tuple(parts)
    except TypeError:
        pass  # not iterable: refused below
    if not (
        isinstance(parts, tuple) and len(parts) >= 2
        and all(_is_int(p) and p >= 1 for p in parts)
    ):
        raise GraphError(f"need >= 2 parts, each of size >= 1, got {parts}")
    n = sum(parts)
    _check_size(n, (n * n - sum(p * p for p in parts)) // 2)
    block = {}
    v = 1
    for i, p in enumerate(parts):
        for _ in range(p):
            block[v] = i
            v += 1
    edges = {
        (a, b)
        for a, b in combinations(range(1, n + 1), 2)
        if block[a] != block[b]
    }
    used = set()
    for pos, (a, b) in enumerate(_pairs(matching, n, "matching")):
        if (a, b) not in edges:
            raise GraphError(f"matching[{pos}]: [{a}, {b}] is not a cross-part edge")
        if a in used or b in used:
            raise GraphError(f"matching[{pos}]: [{a}, {b}] reuses a matched vertex")
        used.update((a, b))
        edges.remove((a, b))
    return Graph(n, edges)


def _cyc(n):
    return tuple((i, i + 1) for i in range(1, n)) + ((1, n),)


# Named small graphs, each with its fixed vertex labeling.  These back the
# "template" family and the regression fixtures.
TEMPLATES = {
    "c7pend": (8, _cyc(7) + ((1, 8),)),
    "c6pend": (7, _cyc(6) + ((1, 7),)),
    "c5pendad": (7, _cyc(5) + ((1, 6), (5, 7))),
    "c5pendnoad": (7, _cyc(5) + ((1, 6), (4, 7))),
    "c5twopend": (7, _cyc(5) + ((1, 6), (1, 7))),
    "c5path": (8, _cyc(5) + ((1, 6), (6, 7), (7, 8))),
    "c5star": (8, _cyc(5) + ((1, 6), (6, 7), (6, 8))),
    "c4twopend": (6, _cyc(4) + ((1, 5), (1, 6))),
    "c4pendpath": (7, _cyc(4) + ((1, 5), (5, 6), (4, 7))),
    "c4twopath": (8, _cyc(4) + ((1, 5), (5, 6), (3, 7), (7, 8))),
    "c4star": (7, _cyc(4) + ((1, 5), (5, 6), (5, 7))),
    "c4tpathlong": (7, _cyc(4) + ((1, 5), (5, 6), (6, 7))),
    "c4pendall": (8, _cyc(4) + ((1, 5), (2, 6), (3, 7), (4, 8))),
    "c4pathpendad": (7, _cyc(4) + ((1, 5), (5, 6), (3, 7))),
    "c3threepend": (6, _cyc(3) + ((1, 4), (1, 5), (2, 6))),
    "c3pathpend": (7, _cyc(3) + ((1, 4), (4, 5), (5, 6), (2, 7))),
    "c3pathstar": (7, _cyc(3) + ((1, 4), (4, 5), (5, 6), (5, 7))),
    "c3path4": (7, _cyc(3) + ((1, 4), (4, 5), (5, 6), (6, 7))),
    "c3path3pend": (7, _cyc(3) + ((1, 4), (4, 5), (5, 6), (1, 7))),
    "c3path2each": (9, _cyc(3) + ((1, 4), (4, 5), (2, 6), (6, 7), (3, 8), (8, 9))),
    "c3path3": (6, _cyc(3) + ((1, 4), (4, 5), (5, 6))),
    "c3fork": (6, _cyc(3) + ((3, 4), (4, 5), (4, 6))),
    "spider113": (6, ((1, 2), (2, 3), (2, 4), (4, 5), (5, 6))),
}


def template(name: str) -> Graph:
    """Named small graph with its fixed labeling."""
    if name not in TEMPLATES:
        raise GraphError(f"unknown template {name!r}; known: {sorted(TEMPLATES)}")
    n, edges = TEMPLATES[name]
    return Graph(n, edges)


def template_names() -> tuple:
    return tuple(sorted(TEMPLATES))


def from_spec(spec: str) -> Graph:
    """Parse an inline family spec like "cycle:8", "star_whisker:3,2", "template:c5star"."""
    if ":" not in spec:
        if spec in TEMPLATES:
            return template(spec)
        raise GraphError(f"bad graph spec {spec!r}; expected 'family:params'")
    tag, _, arg = spec.partition(":")
    tag = tag.strip().lower()
    try:
        if tag == "cycle":
            return cycle(int(arg))
        if tag == "path":
            return path(int(arg))
        if tag == "star":
            return star(int(arg))
        if tag == "star_whisker":
            a, b = (int(x) for x in arg.split(","))
            return star_whisker(a, b)
        if tag == "forkedpath":
            return forked_path(int(arg))
        if tag == "multipartite":
            # "multipartite:2,2" or "multipartite:2,2;1-3,2-4"
            sizes, _, matched = arg.partition(";")
            parts = tuple(int(x) for x in sizes.split(","))
            matching = []
            if matched:
                for pair in matched.split(","):
                    a, _, b = pair.partition("-")
                    matching.append((int(a), int(b)))
            return complete_multipartite(parts, matching)
        if tag == "template":
            return template(arg.strip())
    except GraphError:
        raise
    except ValueError as exc:
        raise GraphError(f"bad parameters in graph spec {spec!r}: {exc}") from None
    raise GraphError(f"unknown graph family {tag!r} in spec {spec!r}")


# ---------------------------------------------------------------------------
# Structure

class StructureReport(_Record):
    is_tree: bool
    is_unicyclic: bool
    cycle: tuple | None
    cycle_length: int
    order: tuple

    def __init__(self, is_tree, is_unicyclic, cycle, cycle_length, order):
        self.__dict__.update(
            is_tree=is_tree,
            is_unicyclic=is_unicyclic,
            cycle=cycle,
            cycle_length=cycle_length,
            order=order,
        )


def peel_leaves(g: Graph) -> tuple:
    """Delete leaves one at a time, smallest label first.

    A vertex is a leaf when exactly one of its neighbours is still present.
    Returns ``(order, left)``: the ``(leaf, support)`` pairs in deletion
    order and the set of vertices never deleted.  A unicyclic graph peels
    down to its cycle and a tree to one vertex.
    """
    present = set(range(1, g.n + 1))
    degree = list(g.degrees)
    heap = [v for v in present if degree[v - 1] == 1]
    heapq.heapify(heap)
    order = []
    while heap:
        leaf = heapq.heappop(heap)
        if degree[leaf - 1] != 1:
            continue  # a tree's last vertex, once its last neighbour is gone
        present.discard(leaf)
        support = next(w for w in g.adjacency[leaf - 1] if w in present)
        order.append((leaf, support))
        degree[support - 1] -= 1
        if degree[support - 1] == 1:
            heapq.heappush(heap, support)
    return order, present


def _unique_cycle(g: Graph, core):
    """The peel core as one cycle from its least vertex towards the smaller
    neighbour, or None.  A walk meeting only core degree 2 first comes back
    at its start, so the core is one cycle when that return covers it.
    """
    start = min(core)
    cyc = []
    prev, cur = None, start
    while True:
        ahead = g.adjacency[cur - 1] & core
        if len(ahead) != 2:
            return None
        cyc.append(cur)
        prev, cur = cur, min(ahead) if prev is None else min(ahead - {prev})
        if cur == start:
            return tuple(cyc) if len(cyc) == len(core) else None


def structure_probe(g: Graph) -> StructureReport:
    """Tree/unicyclic detection, the unique cycle and the peel ``order``
    (children before parents), from one leaf peel.  Every peeled vertex
    hangs through its supports on a vertex left over, so g is a tree when
    one vertex is left and unicyclic when what is left is one cycle.
    """
    order, core = peel_leaves(g)
    m = len(g.edges)
    cyc = _unique_cycle(g, core) if m == g.n else None
    return StructureReport(
        is_tree=m == g.n - 1 and len(core) == 1,
        is_unicyclic=cyc is not None,
        cycle=cyc,
        cycle_length=len(cyc) if cyc else 0,
        order=tuple(order),
    )


def _colours(g: Graph) -> tuple:
    """``_colours(g)[v - 1]`` is v's colour after two refinement rounds from
    the degrees, each pairing a vertex's colour with the sum of its
    neighbours' colours; so an automorphism keeps every vertex's colour."""
    colour = list(g.degrees)
    for _ in range(2):
        around = [0] * g.n
        for u, v in g.edges:
            around[u - 1] += colour[v - 1]
            around[v - 1] += colour[u - 1]
        base = max(around) + 1
        colour = [c * base + a for c, a in zip(colour, around)]
    return tuple(colour)


_AUTOMORPHISM_STEPS = 1_000  # candidate images one target may try


def automorphisms(g: Graph) -> tuple:
    """Automorphisms of g, each a tuple ``sigma`` with ``sigma[v - 1]`` the
    image of v; () when only the identity is found.  Deterministic.

    For each vertex i and each later vertex w of i's colour (``_colours``)
    with the same neighbours among 1..i - 1, a backtracking search looks
    for the first automorphism that fixes 1..i - 1 and maps i to w
    (individualisation and refinement: McKay and Piperno, 2014).  It
    matches the vertices after i in breadth-first order from vertex 1, each
    to an unused vertex of its colour next to the image of its anchor (the
    vertex that reached it) and next to the images of all its matched
    neighbours.  So every edge maps to an edge, and a bijection that does
    so is an automorphism, as both edge sets have m members.  When every
    search completes, level i holds an automorphism to each vertex of i's
    orbit under the stabiliser of 1..i - 1, so the result generates
    Aut(g).  A search past ``_AUTOMORPHISM_STEPS`` candidates skips its
    target, which leaves a subset.  A graph on more vertices than the
    engine enumerates (``check_vertices``) is refused before any work.
    """
    check_vertices(g.n)
    return _automorphisms(g, _colours(g))


def _automorphisms(g: Graph, colours: tuple) -> tuple:
    """``automorphisms(g)`` with ``_colours(g)`` already at hand."""
    colour = (None,) + colours
    nbrs = [()] + [sorted(a) for a in g.adjacency]
    order = _bfs_order(nbrs)
    found = []
    for i in range(1, g.n):
        fixed = [u for u in nbrs[i] if u < i]
        free = [(v, a) for v, a in order if v > i]
        for w in range(i + 1, g.n + 1):
            if colour[w] == colour[i] and fixed == [u for u in nbrs[w] if u < i]:
                sigma = _first_extension(g, nbrs, colour, i, w, free)
                if sigma is not None:
                    found.append(tuple(sigma[1:]))
    return tuple(found)


def _bfs_order(nbrs):
    """Every vertex in breadth-first order from 1 as ``(v, anchor)``: the
    anchor is the vertex that reached v, or 0 for the first vertex of each
    component."""
    queue, anchor = [], {}
    head = 0
    for root in range(1, len(nbrs)):
        if root not in anchor:
            anchor[root] = 0
            queue.append(root)
        while head < len(queue):
            v = queue[head]
            head += 1
            for w in nbrs[v]:
                if w not in anchor:
                    anchor[w] = v
                    queue.append(w)
    return [(v, anchor[v]) for v in queue]


def _first_extension(g, nbrs, colour, i, w, free):
    """The first automorphism fixing 1..i - 1 and mapping i to w, as a list
    with ``sigma[v]`` the image of v, or None: none exists, or the step
    bound ran out.  ``free`` lists the vertices after i in breadth-first
    order with their anchors, each of which comes earlier or is at most i.
    ``extend(k)`` matches ``free[k:]``, one level a vertex, so it recurses
    at most n <= ``MAX_SEARCH_VERTICES`` deep; a step is a candidate of
    the right colour not yet used."""
    adj = (None,) + g.adjacency
    sigma = list(range(i)) + [w] + [0] * (g.n - i)
    used = [x < i or x == w for x in range(g.n + 1)]
    steps = 0

    def extend(k):
        nonlocal steps
        if k == len(free):
            return True
        v, a = free[k]
        for x in nbrs[sigma[a]] if a else range(1, g.n + 1):
            if used[x] or colour[x] != colour[v]:
                continue
            steps += 1
            if steps > _AUTOMORPHISM_STEPS:
                return False
            if all(sigma[u] in adj[x] for u in nbrs[v] if sigma[u]):
                sigma[v], used[x] = x, True
                if extend(k + 1):
                    return True
                sigma[v], used[x] = 0, False
        return False

    return sigma if extend(0) else None


def lex_leader(g: Graph):
    """A test that returns None for a cap vector that no found automorphism
    maps to a lex-smaller one, and else the first automorphism sigma,
    0-based, with caps o sigma lex-smaller (the ``exchange`` docstring
    shows why the cap-grid walk may skip such a vector).  A vector whose
    caps ascend within every colour class (``_colours``) is least in its
    orbit, so only consecutive members of a class are compared until the
    automorphisms are needed."""
    colours = _colours(g)
    last, runs = {}, []
    for v, c in enumerate(colours):
        if c in last:
            runs.append((last[c], v))
        last[c] = v
    perms = None

    def leader(caps):
        nonlocal perms
        for a, b in runs:
            if caps[a] > caps[b]:
                break
        else:
            return None
        if perms is None:
            perms = [tuple(x - 1 for x in s) for s in _automorphisms(g, colours)]
        get = caps.__getitem__
        return next((p for p in perms if tuple(map(get, p)) < caps), None)

    return leader


def induced_subgraph(g: Graph, keep) -> tuple:
    """Induced subgraph on ``keep``, renumbered 1..k preserving label order.

    Returns ``(graph, mapping)`` with ``mapping[old] = new``.  Raises if the
    result would have an isolated vertex or fewer than 2 vertices.
    """
    keep = sorted(set(keep))
    for v in keep:
        g._check_vertex(v)
    if len(keep) < 2:
        raise GraphError("induced subgraph needs at least 2 vertices")
    mapping = {old: i + 1 for i, old in enumerate(keep)}
    edges = [
        (mapping[u], mapping[v]) for u, v in g.edges if u in mapping and v in mapping
    ]
    return Graph(len(keep), edges), mapping


# ---------------------------------------------------------------------------
# JSON I/O

def parse_graph_json(data) -> Graph:
    """Validate the {"n": ..., "edges": [[i, j], ...]} wire format."""
    if not isinstance(data, dict):
        raise GraphError(f"graph JSON must be an object, got {type(data).__name__}")
    if "n" not in data or "edges" not in data:
        raise GraphError("graph JSON needs keys 'n' and 'edges'")
    n = data["n"]
    _check_vertex_count(n)
    edges = data["edges"]
    if not isinstance(edges, list):
        raise GraphError("'edges' must be a list of pairs")
    _check_size(n, len(edges))
    return Graph(n, edges)


def load_graph(path: str) -> Graph:
    with open(path) as fh:
        size = os.fstat(fh.fileno()).st_size
        if size > MAX_GRAPH_FILE_BYTES:
            raise GraphError(
                f"{path}: graph file has {size} bytes; "
                f"the limit is {MAX_GRAPH_FILE_BYTES} bytes"
            )
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphError(f"{path}: invalid JSON ({exc})") from None
    return parse_graph_json(data)
