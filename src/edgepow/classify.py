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
  (exact in linear time through two forests, at any size);
  unicyclic(iii)(1|2|3): cycle length 4 templates;
  unicyclic(iv)(1|2|3): cycle length 3 templates; (none) otherwise.

``cross_validate`` confronts a verdict with bounded evidence: a clean cap
grid for positive verdicts; for negative verdicts a grid counterexample or
a failing cap vector lifted from a registered fixture instance through
leaf re-attachment (add a leaf, bump its support cap by one, cap 1 on the
leaf), which preserves strong-exchange failure.  Lifts run on the caller's
engine and test peel-reachability before isomorphism.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from . import corpus
from .exchange import ExchangeReport, check_strong_exchange, search_sep_counterexample
from .graph import (
    Graph,
    GraphError,
    induced_subgraph,
    peel_leaves,
    structure_probe,
)
from .powers import DEFAULT_NODE_BUDGET, BudgetError, PowerEngine

CMM_STEP_LIMIT = 1_000_000


@dataclass(frozen=True)
class ClassificationVerdict:
    sep: bool
    rule: str
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"sep": self.sep, "rule": self.rule, "detail": self.detail}


def classify_cycle(n: int) -> ClassificationVerdict:
    if n < 3:
        raise ValueError(f"cycles need length >= 3, got {n}")
    if n <= 7:
        return ClassificationVerdict(True, "cycle(3..7)", {"n": n})
    return ClassificationVerdict(False, "cycle(>=8)", {"n": n})


def classify_path(n: int) -> ClassificationVerdict:
    if n < 2:
        raise ValueError(f"paths need >= 2 vertices, got {n}")
    if n <= 6:
        return ClassificationVerdict(True, "path(2..6)", {"n": n})
    return ClassificationVerdict(False, "path(>=7)", {"n": n})


def _is_path_graph(g: Graph) -> bool:
    # callers guarantee g is a tree
    if g.n == 2:
        return True
    degs = sorted(g.degrees)
    return degs.count(1) == 2 and all(d == 2 for d in degs[2:])


def _star_whisker_center(g: Graph):
    """A vertex from which g is a star with at most one pendant per leaf, or None."""
    for center in range(1, g.n + 1):
        spokes = g.neighbors(center)
        count = 1 + len(spokes)
        ok = True
        for u in spokes:
            # degree first: the tip set of a hub would cost its whole degree
            if g.degrees[u - 1] > 2:
                ok = False
                break
            tips = g.neighbors(u) - {center}
            for w in tips:
                if g.degree(w) != 1:
                    ok = False
                    break
                count += 1
            if not ok:
                break
        if ok and count == g.n:
            return center
    return None


def classify_tree(g: Graph) -> ClassificationVerdict:
    probe = structure_probe(g)
    if not probe.is_tree:
        raise ValueError("classify_tree requires a tree")
    if g.n == 6 and _is_path_graph(g):
        return ClassificationVerdict(True, "tree(i)", {"n": g.n})
    center = _star_whisker_center(g)
    if center is not None:
        whiskered = sorted(
            u for u in g.neighbors(center) if g.neighbors(u) - {center}
        )
        return ClassificationVerdict(
            True, "tree(ii)", {"center": center, "whiskered_leaves": whiskered}
        )
    return ClassificationVerdict(False, "tree(none)", {})


def _leg_profile(g: Graph, root: int, cycle_set):
    """Lengths of the hanging paths at a cycle vertex.

    Returns a sorted tuple of leg lengths when every branch hanging off the
    root is a bare path, or None when some branch forks below the root.
    """
    legs = []
    for child in sorted(g.neighbors(root) - cycle_set):
        length = 0
        prev, cur = root, child
        while True:
            length += 1
            nxt = [w for w in g.neighbors(cur) if w != prev]
            if not nxt:
                break
            if len(nxt) > 1:
                return None
            prev, cur = cur, nxt[0]
        legs.append(length)
    return tuple(sorted(legs))


def _unicyclic_independence(g: Graph, a: int) -> int:
    """max(alpha(G - a), 1 + alpha(G - N[a])) for ``a`` on the unique cycle.

    Both sides are forests, where greedy leaf-taking is exact: some maximum
    independent set holds any vertex with at most one neighbour left.
    """

    def forest(left):
        degree = {v: len(g.adjacency[v - 1] & left) for v in left}
        stack = [v for v in left if degree[v] <= 1]
        size = 0
        while stack:
            v = stack.pop()
            if v in left:
                size += 1
                gone = g.adjacency[v - 1] & left | {v}
                left -= gone
                for w in gone:
                    for x in g.adjacency[w - 1] & left:
                        degree[x] -= 1
                        if degree[x] == 1:
                            stack.append(x)
        return size

    rest = set(range(1, g.n + 1)) - {a}
    return max(forest(set(rest)), 1 + forest(rest - g.adjacency[a - 1]))


def classify_unicyclic(g: Graph) -> ClassificationVerdict:
    probe = structure_probe(g)
    if not probe.is_unicyclic:
        raise ValueError("classify_unicyclic requires a unicyclic graph")
    cyc = probe.cycle
    ell = probe.cycle_length
    if ell >= 8:
        return ClassificationVerdict(False, "unicyclic(i)", {"cycle_length": ell})
    if ell in (5, 6, 7):
        alpha = _unicyclic_independence(g, cyc[0])
        return ClassificationVerdict(
            alpha <= 3,
            "unicyclic(ii)",
            {"cycle_length": ell, "independence_number": alpha},
        )
    cycle_set = frozenset(cyc)
    profiles = [_leg_profile(g, v, cycle_set) for v in cyc]
    if ell == 4:
        if any(p is None for p in profiles):
            return ClassificationVerdict(False, "unicyclic(iii)(none)", {})
        if all(p in ((), (1,)) for p in profiles):
            return ClassificationVerdict(
                True, "unicyclic(iii)(1)", {"pendants": profiles.count((1,))}
            )
        for i in range(4):
            opposite = (i + 2) % 4
            others = [k for k in range(4) if k not in (i, opposite)]
            if (
                profiles[i] == (2,)
                and profiles[opposite] == (1,)
                and all(profiles[k] == () for k in others)
            ):
                return ClassificationVerdict(
                    True,
                    "unicyclic(iii)(2)",
                    {"path_at": cyc[i], "pendant_at": cyc[opposite]},
                )
        if profiles.count((2,)) == 1 and profiles.count(()) == 3:
            at = cyc[profiles.index((2,))]
            return ClassificationVerdict(True, "unicyclic(iii)(3)", {"path_at": at})
        return ClassificationVerdict(False, "unicyclic(iii)(none)", {})
    # ell == 3
    if all(p is not None and p in ((), (1,), (2,)) for p in profiles):
        return ClassificationVerdict(
            True, "unicyclic(iv)(1)", {"legs": [list(p) for p in profiles]}
        )
    if (
        sum(1 for p in profiles if p == (3,)) == 1
        and sum(1 for p in profiles if p == ()) == 2
    ):
        at = cyc[profiles.index((3,))]
        return ClassificationVerdict(True, "unicyclic(iv)(2)", {"path_at": at})
    for i in range(3):
        others = [k for k in range(3) if k != i]
        p = profiles[i]
        if (
            p is not None
            and p
            and all(length <= 2 for length in p)
            and all(profiles[k] == () for k in others)
        ):
            return ClassificationVerdict(
                True, "unicyclic(iv)(3)", {"broom_at": cyc[i], "legs": list(p)}
            )
    return ClassificationVerdict(False, "unicyclic(iv)(none)", {})


def classify_graph(g: Graph) -> ClassificationVerdict:
    """Dispatch: bare cycles and paths get their closed-form rules, other
    trees and unicyclic graphs their template rules."""
    probe = structure_probe(g)
    if probe.is_unicyclic and probe.cycle_length == g.n:
        return classify_cycle(g.n)
    if probe.is_tree and _is_path_graph(g):
        return classify_path(g.n)
    if probe.is_tree:
        return classify_tree(g)
    if probe.is_unicyclic:
        return classify_unicyclic(g)
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
    Each vertex's part is then its closed complement-neighborhood minus at
    most one matched partner; a backtracking assignment over that choice
    decides recognizability.  Returns a positive verdict with the parts and
    matching, or None.
    """
    n = g.n
    comp = [
        frozenset(
            w for w in range(1, n + 1) if w != v and not g.has_edge(v, w)
        )
        for v in range(1, n + 1)
    ]
    part_of = {}
    parts = []
    steps = 0

    def bt():
        nonlocal steps
        steps += 1
        if steps > CMM_STEP_LIMIT:
            raise BudgetError(
                f"complete-multipartite recognition exceeded {CMM_STEP_LIMIT} steps"
            )
        rest = [v for v in range(1, n + 1) if v not in part_of]
        if not rest:
            return True
        u = rest[0]
        candidates = [None] + sorted(comp[u - 1])
        for partner in candidates:
            block = {u} | set(comp[u - 1])
            if partner is not None:
                block.discard(partner)
            if any(v in part_of for v in block):
                continue
            ok = True
            for v in block:
                outside = comp[v - 1] - (block - {v})
                if len(outside) > 1 or not block - {v} <= comp[v - 1]:
                    ok = False
                    break
            if not ok:
                continue
            for v in block:
                part_of[v] = len(parts)
            parts.append(frozenset(block))
            if bt():
                return True
            parts.pop()
            for v in block:
                del part_of[v]
        return False

    if not bt():
        return None
    matching = sorted(
        {
            tuple(sorted((v, w)))
            for v in range(1, n + 1)
            for w in comp[v - 1]
            if part_of[v] != part_of[w]
        }
    )
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

@dataclass(frozen=True)
class CrossValidation:
    verdict: ClassificationVerdict
    consistent: bool
    evidence: str
    caps: tuple | None = None
    report: ExchangeReport | None = None

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict.to_json(),
            "consistent": self.consistent,
            "evidence": self.evidence,
            "caps": list(self.caps) if self.caps else None,
        }


def lift_failing_caps(engine: PowerEngine, base_graph: Graph, base_caps):
    """Transplant a failing cap vector from an induced copy of ``base_graph``.

    Finds an induced embedded copy of base_graph inside g = engine.graph
    reachable by leaf deletions, then re-attaches the deleted leaves one by
    one: each leaf gets cap 1 and its support vertex gains 1.  Failure of
    the strong exchange property survives each re-attachment, so the lifted
    caps fail on g whenever the base caps fail on base_graph.  The result is
    verified on the engine; returns (caps, report) or None.
    """
    g = engine.graph
    if base_graph.n > g.n:
        return None
    for subset in combinations(range(1, g.n + 1), base_graph.n):
        inside = set(subset)
        # counting induced edges and peeling, which depends only on the
        # subset, are much cheaper than the copy and its isomorphism search
        induced = [1 for u, v in g.edges if u in inside and v in inside]
        if len(induced) != len(base_graph.edges):
            continue
        order, left = peel_leaves(g, subset)
        if left != inside:
            continue
        try:
            sub, _ = induced_subgraph(g, subset)
        except GraphError:
            continue
        iso = corpus.find_isomorphism(base_graph, sub)
        if iso is None:
            continue
        caps = {}
        for bv, cap in zip(range(1, base_graph.n + 1), base_caps):
            caps[subset[iso[bv] - 1]] = cap  # sub keeps subset's label order
        for leaf, support in reversed(order):
            caps[support] += 1
            caps[leaf] = 1
        vec = tuple(caps[v] for v in range(1, g.n + 1))
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
    need a grid counterexample, or a failing cap vector lifted from one of
    the registered fixture instances (some known failures need caps above
    any small grid).  ``node_budget`` bounds the grid's engine, and the one
    engine all fixture lifts share: the lifts together, not each lift.
    """
    probe = structure_probe(g)
    if probe.is_tree:
        verdict = classify_tree(g)
    elif probe.is_unicyclic:
        verdict = classify_unicyclic(g)
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
        lifted = lift_failing_caps(engine, base_graph, base_caps)
        if lifted is not None:
            caps, report = lifted
            return CrossValidation(verdict, True, "fixture-lift", caps, report)
    return CrossValidation(verdict, False, "unconfirmed")
