"""Decision procedures for the strong exchange property at the graph level.

A graph has the property when every cap vector yields a generator set that
passes the strong exchange check.  For cycles, paths, trees and unicyclic
graphs this is decided by closed-form structure tests enumerated as rule
tags:

* cycle(3..7) / cycle(>=8)
* path(2..6) / path(>=7)
* tree(i): the 6-vertex path; tree(ii): a star with at most one pendant
  edge per leaf; tree(none)
* unicyclic(i): cycle length >= 8, never;
  unicyclic(ii): cycle length 5..7, decided by independence number <= 3
  (exact at any size, a fold over the peel order);
  unicyclic(iii)(1|2|3): cycle length 4 templates;
  unicyclic(iv)(1|2|3): cycle length 3 templates; (none) otherwise, and
  whenever a branch off the cycle forks.  The templates are tests on the
  legged cycle vertices and the sorted shape of their leg profiles.

The structure behind these rules is one ``structure_probe``, so one leaf
peel: it tells trees and unicyclic graphs apart and gives the cycle, and
the independence number and the legs the templates read are folds over
its peel order.

Other graphs may be a complete multipartite graph minus a matching
(multipartite-minus-matching).  Its recogniser is one recursive split of
the vertices into parts of the complement; it charges the complement's
n(n - 1) - 2m entries against ``CMM_STEP_LIMIT`` before building it, then
one step per split call.

``cross_validate`` confronts a verdict with bounded evidence: a clean cap
grid for positive verdicts; for negative verdicts a grid counterexample, a
failing cap vector lifted in closed form from a registered fixture
instance (``lift_failing_caps`` gives the proof), or, on a bare cycle of
length >= 8, the cyc8 caps.  Lifts run on the caller's engine.
"""
from __future__ import annotations

from collections import defaultdict
from itertools import combinations

from . import corpus
from .exchange import ExchangeReport, check_strong_exchange, search_sep_counterexample
from .graph import Graph, _at_least, _Record, induced_subgraph, structure_probe
from .powers import DEFAULT_NODE_BUDGET, BudgetError, PowerEngine

CMM_STEP_LIMIT = 1_000_000


class ClassificationVerdict(_Record):
    sep: bool
    rule: str
    detail: dict

    def __init__(self, sep, rule, detail=None):
        self.__dict__.update(sep=sep, rule=rule, detail={} if detail is None else detail)

    def to_json(self) -> dict:
        return {"sep": self.sep, "rule": self.rule, "detail": self.detail}


def classify_cycle(n: int) -> ClassificationVerdict:
    _at_least(n, 3, "cycles need length >= 3")
    if n <= 7:
        return ClassificationVerdict(True, "cycle(3..7)", {"n": n})
    return ClassificationVerdict(False, "cycle(>=8)", {"n": n})


def classify_path(n: int) -> ClassificationVerdict:
    _at_least(n, 2, "paths need >= 2 vertices")
    if n <= 6:
        return ClassificationVerdict(True, "path(2..6)", {"n": n})
    return ClassificationVerdict(False, "path(>=7)", {"n": n})


def _star_whisker_center(g: Graph):
    """A vertex from which g is a star with at most one pendant per leaf, or None.

    g is a connected tree, so a centre whose neighbours have degree <= 2 and
    whose neighbours' other neighbours are leaves reaches every vertex within
    two steps, each once: no vertex count is needed.
    """
    return next(
        (
            center
            for center in range(1, g.n + 1)
            # degree first: the tip set of a hub would cost its whole degree
            if all(
                g.degrees[u - 1] <= 2
                and all(g.degrees[w - 1] == 1 for w in g.adjacency[u - 1] - {center})
                for u in g.adjacency[center - 1]
            )
        ),
        None,
    )


def classify_tree(g: Graph) -> ClassificationVerdict:
    return _tree_verdict(g, structure_probe(g))


def _tree_verdict(g: Graph, probe) -> ClassificationVerdict:
    if not probe.is_tree:
        raise ValueError("classify_tree requires a tree")
    if g.n == 6 and max(g.degrees) <= 2:  # a tree of maximum degree 2 is a path
        return ClassificationVerdict(True, "tree(i)", {"n": g.n})
    center = _star_whisker_center(g)
    if center is not None:
        whiskered = sorted(
            u for u in g.adjacency[center - 1] if g.adjacency[u - 1] - {center}
        )
        return ClassificationVerdict(
            True, "tree(ii)", {"center": center, "whiskered_leaves": whiskered}
        )
    return ClassificationVerdict(False, "tree(none)", {})


def _leg_profiles(probe) -> list:
    """Leg lengths at each cycle vertex, in cycle order: a sorted tuple when
    every branch hanging off the vertex is a bare path, else None.  One fold
    over the peel order (children first): a branch is a bare path when each
    of its vertices has at most one child.
    """
    legs = defaultdict(list)  # vertex -> lengths of its bare branches, None on a fork
    for leaf, support in probe.order:
        below = legs[leaf]
        if legs[support] is None:
            continue
        if below is None or len(below) > 1:
            legs[support] = None
        else:
            legs[support].append(1 + sum(below))
    return [None if legs[v] is None else tuple(sorted(legs[v])) for v in probe.cycle]


def _unicyclic_independence(probe) -> int:
    """alpha(G) of a unicyclic graph, one fold over the peel order.

    Children first, take each peeled vertex unless a taken child blocks
    it, and block its support.  Taken and blocked vertices leave the
    graph; a blocked one has a taken neighbour.  Each peeled vertex is then
    a leaf, or isolated, in what is left, and some maximum independent set
    of what is left holds such a vertex.  What is left at the end is the
    cycle minus its blocked vertices: the whole cycle, with floor(L/2), or
    free arcs of p consecutive vertices, ceil(p/2) each.
    """
    blocked = set()
    alpha = 0
    for leaf, support in probe.order:
        if leaf not in blocked:
            alpha += 1
            blocked.add(support)
    ring = "".join("|" if v in blocked else "o" for v in probe.cycle)
    if "|" not in ring:
        return alpha + len(ring) // 2
    cut = ring.index("|")  # read from a blocked vertex, no arc wraps around
    arcs = (ring[cut:] + ring[:cut]).split("|")
    return alpha + sum((len(arc) + 1) // 2 for arc in arcs)


def classify_unicyclic(g: Graph) -> ClassificationVerdict:
    return _unicyclic_verdict(g, structure_probe(g))


def _unicyclic_verdict(g: Graph, probe) -> ClassificationVerdict:
    """Cycle length >= 8 never, 5..7 by alpha <= 3; lengths 4 and 3 read the
    legged cycle vertices and the sorted shape of their leg profiles."""
    if not probe.is_unicyclic:
        raise ValueError("classify_unicyclic requires a unicyclic graph")
    ell = probe.cycle_length
    if ell >= 8:
        return ClassificationVerdict(False, "unicyclic(i)", {"cycle_length": ell})
    if ell >= 5:
        alpha = _unicyclic_independence(probe)
        return ClassificationVerdict(
            alpha <= 3,
            "unicyclic(ii)",
            {"cycle_length": ell, "independence_number": alpha},
        )
    rule = "unicyclic(iii)" if ell == 4 else "unicyclic(iv)"
    profiles = _leg_profiles(probe)
    if None in profiles:  # a branch that forks
        return ClassificationVerdict(False, rule + "(none)", {})
    # the cycle vertex carrying each nonempty profile, read where it is unique
    legged = {p: v for v, p in zip(probe.cycle, profiles) if p}
    shape = sorted(p for p in profiles if p)
    if ell == 4:
        if set(shape) <= {(1,)}:
            return ClassificationVerdict(True, rule + "(1)", {"pendants": len(shape)})
        # a 2-path and a pendant at opposite, so non-adjacent, cycle vertices
        if shape == [(1,), (2,)] and not g.has_edge(legged[(1,)], legged[(2,)]):
            detail = {"path_at": legged[(2,)], "pendant_at": legged[(1,)]}
            return ClassificationVerdict(True, rule + "(2)", detail)
        if shape == [(2,)]:
            return ClassificationVerdict(True, rule + "(3)", {"path_at": legged[(2,)]})
    else:
        if set(shape) <= {(1,), (2,)}:
            return ClassificationVerdict(
                True, rule + "(1)", {"legs": [list(p) for p in profiles]}
            )
        if shape == [(3,)]:
            return ClassificationVerdict(True, rule + "(2)", {"path_at": legged[(3,)]})
        if len(shape) == 1 and max(shape[0]) <= 2:
            detail = {"broom_at": legged[shape[0]], "legs": list(shape[0])}
            return ClassificationVerdict(True, rule + "(3)", detail)
    return ClassificationVerdict(False, rule + "(none)", {})


def classify_graph(g: Graph) -> ClassificationVerdict:
    """Dispatch: bare cycles and paths get their closed-form rules, other
    trees and unicyclic graphs their template rules."""
    probe = structure_probe(g)
    if probe.is_unicyclic and probe.cycle_length == g.n:
        return classify_cycle(g.n)
    if probe.is_tree and max(g.degrees) <= 2:  # a path, n = 2 included
        return classify_path(g.n)
    if probe.is_tree:
        return _tree_verdict(g, probe)
    if probe.is_unicyclic:
        return _unicyclic_verdict(g, probe)
    cmm = classify_complete_multipartite_minus_matching(g)
    if cmm is not None:
        return cmm
    raise ValueError(
        "no classifier applies: graph is neither a tree, unicyclic, nor a "
        "complete multipartite graph minus a matching"
    )


# ---------------------------------------------------------------------------
# Complete multipartite minus a matching

def classify_complete_multipartite_minus_matching(g: Graph):
    """Recognize K_{n1,...,nm} minus a matching, up to relabeling.

    Works in the complement: the complement of such a graph is a disjoint
    union of cliques (the parts) plus a matching between different parts.
    ``split`` covers the least vertex u not yet in a part with the block
    ({u} | comp[u]) - {partner}, for partner None and then each complement
    neighbour in ascending order; a block is valid when it is a clique of
    uncovered vertices, each with at most one complement neighbour outside
    it.  Returns a positive verdict with the parts and matching, or None.
    The n(n - 1) - 2m complement entries are charged against
    ``CMM_STEP_LIMIT`` before the complement is built, then one step per
    ``split`` call.
    """
    n = g.n
    steps = 0

    def charge(cost):
        nonlocal steps
        steps += cost
        if steps > CMM_STEP_LIMIT:
            raise BudgetError(
                f"complete-multipartite recognition exceeded {CMM_STEP_LIMIT} steps"
            )

    charge(n * (n - 1) - 2 * len(g.edges))
    every = frozenset(range(1, n + 1))
    comp = {v: every - g.adjacency[v - 1] - {v} for v in every}

    def split(parts, done):
        charge(1)
        if done == every:
            return parts
        u = min(every - done)
        for partner in [None] + sorted(comp[u]):
            block = ({u} | comp[u]) - {partner}
            if any(
                v in done or len(comp[v] - block) > 1 or not block - {v} <= comp[v]
                for v in block
            ):
                continue
            found = split(parts + [block], done | block)
            if found is not None:
                return found
        return None

    parts = split([], frozenset())
    if parts is None:
        return None
    matching = sorted((v, w) for p in parts for v in p for w in comp[v] - p if v < w)
    return ClassificationVerdict(
        True,
        "multipartite-minus-matching",
        {
            "parts": [sorted(p) for p in parts],
            "matching": [list(e) for e in matching],
        },
    )


# ---------------------------------------------------------------------------
# Cross-validation against bounded search and registered fixtures

class CrossValidation(_Record):
    verdict: ClassificationVerdict
    consistent: bool
    evidence: str
    caps: tuple | None
    report: ExchangeReport | None

    def __init__(self, verdict, consistent, evidence, caps=None, report=None):
        self.__dict__.update(
            verdict=verdict, consistent=consistent, evidence=evidence, caps=caps, report=report
        )

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict.to_json(),
            "consistent": self.consistent,
            "evidence": self.evidence,
            "caps": list(self.caps) if self.caps else None,
        }


def lift_failing_caps(engine: PowerEngine, base_graph: Graph, base_caps):
    """Transplant a failing cap vector from an induced copy of ``base_graph``.

    g = engine.graph must be connected.  A re-attached leaf with cap 1, its
    support's cap raised by 1, keeps strong exchange failing; so do all the
    leaves that peel g down to a copy S.  Each removes a vertex and an edge,
    so base_graph and g must agree in edges minus vertices, and then every
    copy is reached: the n - k vertices outside S carry n - k edges, and
    each component C of g - S touches S, so holds at least |C| of them,
    hence is a tree hanging from S by one edge.  So the lift gives each
    vertex outside S its degree, and each vertex of S its base cap plus its
    edges leaving S.  Copies are connected, so only subsets within k - 1
    steps of their least vertex through larger labels are tried, in lex
    order, after a filter on induced degrees.  Returns the first failing
    (caps, report), verified on the engine, or None.
    """
    g = engine.graph
    k = base_graph.n
    if len(base_graph.edges) - k != len(g.edges) - g.n:
        return None
    degrees = sorted(base_graph.degrees)
    for first in range(1, g.n - k + 2):
        near, frontier = {first}, {first}
        for _ in range(k - 1):
            frontier = {w for v in frontier for w in g.adjacency[v - 1] if w > first}
            near |= frontier
        for rest in combinations(sorted(near - {first}), k - 1):
            subset = (first,) + rest
            inside = set(subset)
            if sorted(len(g.adjacency[v - 1] & inside) for v in subset) != degrees:
                continue
            sub, _ = induced_subgraph(g, subset)
            iso = corpus.find_isomorphism(base_graph, sub)
            if iso is None:
                continue
            caps = list(g.degrees)
            for bv, cap in enumerate(base_caps, 1):  # sub keeps subset's order
                caps[subset[iso[bv] - 1] - 1] += cap - base_graph.degrees[bv - 1]
            vec = tuple(caps)
            report = check_strong_exchange(engine.generators(vec))
            if not report.ok:
                return vec, report
    return None


def cross_validate(
    g: Graph,
    cap_max: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> CrossValidation:
    """Check a classification verdict against bounded evidence.

    Positive verdicts must survive the full cap grid.  Negative verdicts
    need a grid counterexample, a failing cap vector lifted from one of
    the registered fixture instances (some failures need caps beyond any
    small grid) or, on a bare cycle, cyc8's.  ``node_budget`` bounds the
    grid's engine, and the one engine all fixture lifts share: the lifts
    together, not each lift.
    """
    probe = structure_probe(g)
    if probe.is_tree:
        verdict = _tree_verdict(g, probe)
    elif probe.is_unicyclic:
        verdict = _unicyclic_verdict(g, probe)
    else:
        raise ValueError("cross_validate handles trees and unicyclic graphs")
    found = search_sep_counterexample(g, cap_max, node_budget=node_budget)
    if verdict.sep:
        if found is None:
            return CrossValidation(verdict, True, "grid-clean")
        caps, report = found
        return CrossValidation(verdict, False, "grid-counterexample", caps, report)
    if found is not None:
        caps, report = found
        return CrossValidation(verdict, True, "grid-counterexample", caps, report)
    from .fixtures import failing_instances

    engine = PowerEngine(g, node_budget)
    for base_graph, base_caps in failing_instances():
        if base_graph.n < probe.cycle_length:
            continue  # a copy of a unicyclic base holds g's one cycle
        lifted = lift_failing_caps(engine, base_graph, base_caps)
        if lifted is not None:
            caps, report = lifted
            return CrossValidation(verdict, True, "fixture-lift", caps, report)
    if probe.cycle_length == g.n:  # cyc8's caps; cycles 8 and 9 keep their lift
        caps = tuple(2 if v in (1, 3, 7) else 1 for v in range(1, g.n + 1))
        report = check_strong_exchange(engine.generators(caps))
        if not report.ok:
            return CrossValidation(verdict, True, "closed-form", caps, report)
    return CrossValidation(verdict, False, "unconfirmed")
