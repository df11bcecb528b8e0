"""Exhaustive small-graph corpora and isomorphism helpers.

Generation of all trees and all unicyclic graphs on a given vertex count,
up to isomorphism, backed by networkx.  Unicyclic graphs are produced by
adding one edge to each tree and deduplicating.
"""
from __future__ import annotations

import networkx as nx

from .graph import Graph, graph_from_edges


def to_networkx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(1, g.n + 1))
    out.add_edges_from(g.sorted_edges)
    return out


def _from_networkx(nxg) -> Graph:
    nodes = sorted(nxg.nodes())
    relabel = {v: i + 1 for i, v in enumerate(nodes)}
    edges = [(relabel[u], relabel[v]) for u, v in nxg.edges()]
    return graph_from_edges(len(nodes), edges)


def all_trees(n: int) -> tuple:
    """All trees on n >= 2 vertices, up to isomorphism."""
    if n < 2:
        raise ValueError(f"trees need n >= 2, got {n}")
    return tuple(_from_networkx(t) for t in nx.nonisomorphic_trees(n))


def all_unicyclic(n: int) -> tuple:
    """All connected graphs with exactly one cycle on n >= 3 vertices, up to iso."""
    if n < 3:
        raise ValueError(f"unicyclic graphs need n >= 3, got {n}")
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
                # bucket by the sorted (degree, neighbour degrees) profile,
                # an invariant that does not depend on the networkx version
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


def trees_up_to(n: int) -> tuple:
    return tuple(g for k in range(2, n + 1) for g in all_trees(k))


def unicyclic_up_to(n: int) -> tuple:
    return tuple(g for k in range(3, n + 1) for g in all_unicyclic(k))


def find_isomorphism(a: Graph, b: Graph):
    """A vertex bijection a -> b preserving edges exactly, or None."""
    if a.n != b.n or len(a.edges) != len(b.edges):
        return None
    if sorted(a.degrees) != sorted(b.degrees):
        return None
    matcher = nx.isomorphism.GraphMatcher(to_networkx(a), to_networkx(b))
    for mapping in matcher.isomorphisms_iter():
        return dict(mapping)
    return None


def is_isomorphic(a: Graph, b: Graph) -> bool:
    return find_isomorphism(a, b) is not None
