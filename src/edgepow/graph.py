"""Finite simple graphs on 1-based vertex labels.

Graphs here are immutable values: a vertex count ``n`` and a frozenset of
edges ``(u, v)`` with ``1 <= u < v <= n``.  Loops, parallel edges and
isolated vertices are rejected.  The module provides the standard families
used by the rest of the package (cycles, paths, stars, whiskered stars,
complete multipartite graphs minus a matching, a table of named small
graphs), structural probes (connectivity, tree/unicyclic detection with the
unique cycle), the independence number, and induced-subgraph operations
with explicit renumbering maps.

Leaf structure has one routine, ``peel_leaves`` (smallest leaf first, no
recursion): a unicyclic graph peels down to its unique cycle, and fixture
lifting re-attaches leaves in its order.  Family constructors (so inline
specs) and graph files refuse more than ``MAX_FAMILY_SIZE`` vertices or
edges before building anything; a graph file larger than
``MAX_GRAPH_FILE_BYTES`` is refused before it is read.
"""
from __future__ import annotations

import heapq
import json
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

MAX_SEARCH_VERTICES = 32
MAX_FAMILY_SIZE = 200_000  # vertices or edges of a family graph or graph file
# json.dump(..., indent=4) spends at most 60 bytes on an edge whose labels are
# within MAX_FAMILY_SIZE (65 with CRLF line ends), so a graph file inside the
# limits fits, and a larger file is refused before it is read
MAX_GRAPH_FILE_BYTES = 80 * MAX_FAMILY_SIZE


class GraphError(ValueError):
    """Invalid graph data, or an operation that would break graph invariants."""


@dataclass(frozen=True)
class Graph:
    """Simple graph on vertices ``1..n`` with no isolated vertex."""

    n: int
    edges: frozenset

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise GraphError(f"vertex count must be an integer >= 2, got {self.n!r}")
        covered = set()
        for e in self.edges:
            if not (isinstance(e, tuple) and len(e) == 2):
                raise GraphError(f"edge {e!r} is not a pair")
            u, v = e
            if not (isinstance(u, int) and isinstance(v, int)):
                raise GraphError(f"edge {e!r} has non-integer endpoints")
            if not (1 <= u < v <= self.n):
                raise GraphError(
                    f"edge {e!r} out of range for n={self.n} (need 1 <= u < v <= n)"
                )
            covered.add(u)
            covered.add(v)
        count = self.n - len(covered)
        if count:
            # The first 10 uncovered vertices lie within 1..len(covered) + 10,
            # so a huge n costs nothing here.
            stop = min(self.n, len(covered) + 10) + 1
            first = [v for v in range(1, stop) if v not in covered][:10]
            more = f" (first 10 of {count})" if count > 10 else ""
            raise GraphError(f"isolated vertices not allowed: {first}{more}")

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
        if not (isinstance(v, int) and 1 <= v <= self.n):
            raise GraphError(f"vertex {v!r} out of range 1..{self.n}")

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.sorted_edges]}

    def __repr__(self):
        return f"Graph(n={self.n}, edges={list(self.sorted_edges)})"


def graph_from_edges(n: int, edges) -> Graph:
    """Build a validated Graph, reporting the position of any bad edge."""
    seen = set()
    out = []
    for pos, e in enumerate(edges):
        try:
            u, v = e
        except (TypeError, ValueError):
            raise GraphError(f"edges[{pos}]: {e!r} is not a pair") from None
        if not (isinstance(u, int) and isinstance(v, int)):
            raise GraphError(f"edges[{pos}]: non-integer endpoints in {e!r}")
        if u == v:
            raise GraphError(f"edges[{pos}]: loop at vertex {u}")
        if u > v:
            u, v = v, u
        if not (1 <= u and v <= n):
            raise GraphError(f"edges[{pos}]: [{u}, {v}] out of range 1..{n}")
        if (u, v) in seen:
            raise GraphError(f"edges[{pos}]: duplicate edge [{u}, {v}]")
        seen.add((u, v))
        out.append((u, v))
    return Graph(n, frozenset(out))


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
    if n < 3:
        raise GraphError(f"cycle needs length >= 3, got {n}")
    _check_size(n, n)
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return graph_from_edges(n, edges)


def path(n: int) -> Graph:
    """Path x1-x2-...-xn; requires n >= 2."""
    if n < 2:
        raise GraphError(f"path needs >= 2 vertices, got {n}")
    _check_size(n, n - 1)
    return graph_from_edges(n, [(i, i + 1) for i in range(1, n)])


def star(n_leaves: int) -> Graph:
    """Star with center x_{n+1} joined to leaves x1..xn."""
    if n_leaves < 1:
        raise GraphError(f"star needs >= 1 leaf, got {n_leaves}")
    _check_size(n_leaves + 1, n_leaves)
    c = n_leaves + 1
    return graph_from_edges(c, [(i, c) for i in range(1, c)])


def star_whisker(n_leaves: int, n_whiskers: int) -> Graph:
    """Star with a pendant edge added to each of the first ``n_whiskers`` leaves.

    Vertices: leaves x1..xn, whisker tips x_{n+1}..x_{n+k}, center x_{n+k+1}.
    """
    if n_leaves < 1:
        raise GraphError(f"star_whisker needs >= 1 leaf, got {n_leaves}")
    if not (0 <= n_whiskers <= n_leaves):
        raise GraphError(
            f"whisker count must be between 0 and {n_leaves}, got {n_whiskers}"
        )
    n = n_leaves + n_whiskers + 1
    _check_size(n, n - 1)
    center = n
    edges = [(i, center) for i in range(1, n_leaves + 1)]
    edges += [(i, n_leaves + i) for i in range(1, n_whiskers + 1)]
    return graph_from_edges(n, edges)


def forked_path(n: int) -> Graph:
    """Path x1..xn with two pendant edges at each endpoint.

    Pendants are x_{n+1}, x_{n+2} at x1 and x_{n+3}, x_{n+4} at xn.
    """
    if n < 2:
        raise GraphError(f"forked_path needs a path on >= 2 vertices, got {n}")
    _check_size(n + 4, n + 3)
    edges = [(i, i + 1) for i in range(1, n)]
    edges += [(1, n + 1), (1, n + 2), (n, n + 3), (n, n + 4)]
    return graph_from_edges(n + 4, edges)


def complete_multipartite(parts, matching=()) -> Graph:
    """Complete multipartite graph on consecutive vertex blocks, minus a matching.

    ``parts`` are the block sizes (at least two blocks, each >= 1); block i
    holds the next ``parts[i]`` vertex labels.  ``matching`` is a set of
    vertex pairs to delete; pairs must join different blocks and be pairwise
    disjoint.  The result must have no isolated vertex.
    """
    parts = tuple(int(p) for p in parts)
    if len(parts) < 2 or any(p < 1 for p in parts):
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
    for pos, e in enumerate(matching):
        a, b = sorted(e)
        if (a, b) not in edges:
            raise GraphError(f"matching[{pos}]: [{a}, {b}] is not a cross-part edge")
        if a in used or b in used:
            raise GraphError(f"matching[{pos}]: [{a}, {b}] reuses a matched vertex")
        used.update((a, b))
        edges.remove((a, b))
    return Graph(n, frozenset(edges))


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
    return graph_from_edges(n, edges)


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

@dataclass(frozen=True)
class StructureReport:
    connected: bool
    is_tree: bool
    is_unicyclic: bool
    cycle: tuple | None
    cycle_length: int
    leaves: tuple
    degrees: tuple
    components: tuple


def _components(g: Graph):
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


def peel_leaves(g: Graph, keep=()) -> tuple:
    """Delete leaves outside ``keep`` one at a time, smallest label first.

    A vertex is a leaf when exactly one of its neighbours is still present.
    Returns ``(order, left)``: the ``(leaf, support)`` pairs in deletion
    order and the set of vertices never deleted.  Peeling reaches ``keep``
    exactly when ``left == set(keep)``.  With ``keep`` empty a unicyclic
    graph peels down to its cycle and a tree to one vertex.
    """
    keep = set(keep)
    present = set(range(1, g.n + 1))
    degree = list(g.degrees)
    heap = [v for v in present - keep if degree[v - 1] == 1]
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
        if degree[support - 1] == 1 and support not in keep:
            heapq.heappush(heap, support)
    return order, present


def _unique_cycle(g: Graph):
    """The unique cycle from its least vertex towards the smaller neighbour."""
    _, core = peel_leaves(g)
    start = min(core)
    cyc = [start]
    prev, cur = start, min(g.adjacency[start - 1] & core)
    while cur != start:
        cyc.append(cur)
        prev, cur = cur, next(w for w in g.adjacency[cur - 1] & core if w != prev)
    return tuple(cyc)


def structure_probe(g: Graph) -> StructureReport:
    """Connectivity, tree/unicyclic detection, unique cycle, leaves, degrees."""
    comps = _components(g)
    connected = len(comps) == 1
    m = len(g.edges)
    is_tree = connected and m == g.n - 1
    is_unicyclic = connected and m == g.n
    cyc = _unique_cycle(g) if is_unicyclic else None
    leaves = tuple(v for v in range(1, g.n + 1) if g.degrees[v - 1] == 1)
    return StructureReport(
        connected=connected,
        is_tree=is_tree,
        is_unicyclic=is_unicyclic,
        cycle=cyc,
        cycle_length=len(cyc) if cyc else 0,
        leaves=leaves,
        degrees=g.degrees,
        components=comps,
    )


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
    # the mapping keeps label order, so g's edges stay ordered distinct pairs
    edges = [
        (mapping[u], mapping[v]) for u, v in g.edges if u in mapping and v in mapping
    ]
    return Graph(len(keep), frozenset(edges)), mapping


def delete_vertex(g: Graph, v: int) -> tuple:
    """Remove vertex ``v``; returns ``(graph, mapping)`` with old->new labels."""
    g._check_vertex(v)
    return induced_subgraph(g, [u for u in range(1, g.n + 1) if u != v])


# ---------------------------------------------------------------------------
# JSON I/O

def parse_graph_json(data) -> Graph:
    """Validate the {"n": ..., "edges": [[i, j], ...]} wire format."""
    if not isinstance(data, dict):
        raise GraphError(f"graph JSON must be an object, got {type(data).__name__}")
    if "n" not in data or "edges" not in data:
        raise GraphError("graph JSON needs keys 'n' and 'edges'")
    n = data["n"]
    if not isinstance(n, int):
        raise GraphError(f"'n' must be an integer, got {n!r}")
    edges = data["edges"]
    if not isinstance(edges, list):
        raise GraphError("'edges' must be a list of pairs")
    _check_size(n, len(edges))
    return graph_from_edges(n, edges)


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
