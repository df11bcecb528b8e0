"""Exhaustive small-graph corpora and isomorphism helpers.

The module only generates graphs and tests isomorphism.  It generates all
trees and all unicyclic graphs on a given vertex count, up to isomorphism,
in pure Python.  Trees come from the level-sequence generator of Wright,
Richmond, Odlyzko and McKay (*Constant time generation of free trees*,
1986), ported from ``nx.nonisomorphic_trees`` with the same trees, order
and labels (layout position ``i`` is vertex ``i + 1``).  Unicyclic graphs
add one edge to each tree and keep the first graph of each canonical key:
the Aho–Hopcroft–Ullman codes of the trees hung on the cycle, read around
it, least over rotations and reflections.  One ``structure_probe`` per
candidate gives both the cycle and the trees, through its peel order.

networkx is needed only by ``find_isomorphism`` / ``to_networkx`` (fixture
lifting) and is imported there.
"""
from __future__ import annotations

from .graph import Graph, _at_least, structure_probe
from .powers import BudgetError

# connected unicyclic graphs on n vertices, up to isomorphism (OEIS A001429)
UNICYCLIC_COUNTS = {
    3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240, 10: 657, 11: 1806,
    12: 5026, 13: 13999, 14: 39260, 15: 110381, 16: 311465, 17: 880840,
    18: 2497405,
}
CORPUS_LIMIT = 100_000  # unicyclic graphs one call may build


def check_unicyclic_count(min_n: int, max_n: int) -> None:
    """Refuse, before any graph is built, more than ``CORPUS_LIMIT``
    unicyclic graphs on min_n..max_n vertices, counted by ``UNICYCLIC_COUNTS``."""
    sizes = f"{min_n}..{max_n}" if min_n < max_n else max_n
    if max_n > max(UNICYCLIC_COUNTS):  # U(n) grows with n, and U(18) alone is past the limit
        raise BudgetError(f"unicyclic graphs on {sizes} vertices exceed the limit {CORPUS_LIMIT}")
    graphs = sum(map(UNICYCLIC_COUNTS.__getitem__, range(min_n, max_n + 1)))
    if graphs > CORPUS_LIMIT:
        raise BudgetError(
            f"{graphs} unicyclic graphs on {sizes} vertices exceed the limit {CORPUS_LIMIT}"
        )


def _next_rooted_tree(predecessor, p=None):
    """One step of the Beyer–Hedetniemi rooted-tree successor."""
    if p is None:
        p = len(predecessor) - 1
        while predecessor[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while predecessor[q] != predecessor[p] - 1:
        q -= 1
    result = list(predecessor)
    for i in range(p, len(result)):
        result[i] = result[i - p + q]
    return result


def _split_tree(layout):
    """The root's first subtree, and the tree with that subtree removed."""
    first = layout.index(1)
    m = next((i for i in range(first + 1, len(layout)) if layout[i] == 1), len(layout))
    return [level - 1 for level in layout[1:m]], [0] + layout[m:]


def _next_tree(candidate):
    """The first free-tree layout at or after ``candidate`` (WROM step)."""
    left, rest = _split_tree(candidate)
    left_height, rest_height = max(left), max(rest)
    if rest_height > left_height or (
        rest_height == left_height and (len(left), left) <= (len(rest), rest)
    ):
        return candidate
    p = len(left)
    new = _next_rooted_tree(candidate, p)
    if candidate[p] > 2:
        height = max(_split_tree(new)[0])
        new[-(height + 1):] = range(1, height + 2)
    return new


def _layout_edges(layout):
    """Edges ``(parent, child)`` of a level sequence, on vertices 1..n."""
    edges = []
    stack = []
    for i, level in enumerate(layout):
        while stack and layout[stack[-1]] >= level:
            stack.pop()
        if stack:
            edges.append((stack[-1] + 1, i + 1))
        stack.append(i)
    return edges


def all_trees(n: int) -> tuple:
    """All trees on n >= 2 vertices, up to isomorphism."""
    _at_least(n, 2, "trees need n >= 2")
    out = []
    # start at the path rooted at its centre
    layout = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while layout is not None:
        layout = _next_tree(layout)
        out.append(Graph(n, _layout_edges(layout)))
        layout = _next_rooted_tree(layout)
    return tuple(out)


def _unicyclic_key(g: Graph) -> tuple:
    """Canonical form of a unicyclic graph, equal exactly on isomorphic graphs."""
    probe = structure_probe(g)
    below = {v: [] for v in range(1, g.n + 1)}
    for leaf, support in probe.order:  # children before parents
        below[support].append("(" + "".join(sorted(below[leaf])) + ")")
    ring = ["(" + "".join(sorted(below[v])) + ")" for v in probe.cycle]
    k = len(ring)
    return min(
        tuple(seq[i:] + seq[:i]) for seq in (ring, ring[::-1]) for i in range(k)
    )


def all_unicyclic(n: int) -> tuple:
    """All connected graphs with exactly one cycle on n >= 3 vertices, up to iso."""
    _at_least(n, 3, "unicyclic graphs need n >= 3")
    check_unicyclic_count(n, n)
    seen = set()
    out = []
    for tree in all_trees(n):
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if (u, v) in tree.edges:
                    continue
                cand = Graph(n, tree.edges | {(u, v)})
                key = _unicyclic_key(cand)
                if key not in seen:
                    seen.add(key)
                    out.append(cand)
    return tuple(out)


def trees_up_to(n: int) -> tuple:
    _at_least(n, 2, "trees need n >= 2")
    return tuple(g for k in range(2, n + 1) for g in all_trees(k))


def unicyclic_up_to(n: int) -> tuple:
    _at_least(n, 3, "unicyclic graphs need n >= 3")
    check_unicyclic_count(3, n)
    return tuple(g for k in range(3, n + 1) for g in all_unicyclic(k))


def to_networkx(g: Graph):
    import networkx as nx

    out = nx.Graph()
    out.add_nodes_from(range(1, g.n + 1))
    out.add_edges_from(g.sorted_edges)
    return out


def find_isomorphism(a: Graph, b: Graph):
    """A vertex bijection a -> b preserving edges exactly, or None."""
    if a.n != b.n or len(a.edges) != len(b.edges):
        return None
    if sorted(a.degrees) != sorted(b.degrees):
        return None
    import networkx as nx

    matcher = nx.isomorphism.GraphMatcher(to_networkx(a), to_networkx(b))
    for mapping in matcher.isomorphisms_iter():
        return dict(mapping)
    return None
