import hashlib
import json
import random
import time

import pytest

from edgepow import (
    classify_complete_multipartite_minus_matching,
    classify_cycle,
    classify_graph,
    classify_path,
    classify_tree,
    classify_unicyclic,
    complete_multipartite,
    cross_validate,
    cycle,
    graph_from_edges,
    path,
    star,
    star_whisker,
    structure_probe,
    template,
)
from edgepow import corpus
from edgepow.classify import _unicyclic_independence, lift_failing_caps
from edgepow.fixtures import failing_instances
from edgepow.powers import PowerEngine
from helpers import independence_number, is_isomorphic, is_triangle_free


# --- cycles and paths

@pytest.mark.parametrize("n,sep", [(3, True), (5, True), (7, True), (8, False), (9, False)])
def test_classify_cycle(n, sep):
    verdict = classify_cycle(n)
    assert verdict.sep is sep
    with pytest.raises(ValueError):
        classify_cycle(2)


@pytest.mark.parametrize("n,sep", [(2, True), (6, True), (7, False), (9, False)])
def test_classify_path(n, sep):
    assert classify_path(n).sep is sep
    with pytest.raises(ValueError):
        classify_path(1)


# --- trees

def test_closed_forms_answer_on_large_graphs():
    # the unique cycle and the star centre are found in linear time
    start = time.perf_counter()
    assert classify_graph(cycle(1000)).to_json() == {
        "sep": False,
        "rule": "cycle(>=8)",
        "detail": {"n": 1000},
    }
    verdict = classify_graph(star(100000))
    assert time.perf_counter() - start < 15
    assert verdict.to_json() == {
        "sep": True,
        "rule": "tree(ii)",
        "detail": {"center": 100001, "whiskered_leaves": []},
    }


def test_tree_p6_rule():
    verdict = classify_tree(path(6))
    assert verdict.sep and verdict.rule == "tree(i)"


def test_tree_spider_221():
    # center with two length-2 legs and one pendant = star with two whiskers
    g = star_whisker(3, 2)
    verdict = classify_tree(g)
    assert verdict.sep and verdict.rule == "tree(ii)"
    assert verdict.detail["center"] == 6


def test_tree_double_star_fails():
    g = graph_from_edges(6, [(1, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    verdict = classify_tree(g)
    assert not verdict.sep and verdict.rule == "tree(none)"


def test_tree_spider113_fails():
    assert not classify_tree(template("spider113")).sep


def test_short_paths_are_star_whiskers():
    for n in (2, 3, 4, 5):
        assert classify_tree(path(n)).sep


def test_classify_tree_rejects_non_tree():
    with pytest.raises(ValueError):
        classify_tree(cycle(4))


# --- unicyclic

def test_unicyclic_big_cycle():
    g = graph_from_edges(9, list(cycle(8).edges) + [(1, 9)])
    verdict = classify_unicyclic(g)
    assert not verdict.sep and verdict.rule == "unicyclic(i)"


def test_unicyclic_alpha_clause():
    g6 = template("c6pend")
    verdict = classify_unicyclic(g6)
    assert not verdict.sep and verdict.rule == "unicyclic(ii)"
    assert verdict.detail["independence_number"] == 4
    # C5 plus one pendant keeps independence number 3 and stays positive
    g5 = graph_from_edges(6, list(cycle(5).edges) + [(1, 6)])
    verdict = classify_unicyclic(g5)
    assert verdict.sep and verdict.detail["independence_number"] == 3


def test_unicyclic_independence_matches_reference():
    rng = random.Random(23)
    graphs = corpus.unicyclic_up_to(8)
    assert len(graphs) == 143
    for g in graphs:
        for _ in range(3):
            perm = list(range(1, g.n + 1))
            rng.shuffle(perm)
            h = graph_from_edges(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])
            want = independence_number(h)
            for a in structure_probe(h).cycle:
                assert _unicyclic_independence(h, a) == want


def test_unicyclic_alpha_clause_beyond_search_limit():
    # a 5-cycle with a 40-vertex tail: 45 vertices, past the n <= 32 search
    g = graph_from_edges(45, list(cycle(5).edges) + [(i, i + 1) for i in range(5, 45)])
    assert classify_graph(g).to_json() == {
        "sep": False,
        "rule": "unicyclic(ii)",
        "detail": {"cycle_length": 5, "independence_number": 22},
    }


def test_unicyclic_c4_pendant_templates():
    g = graph_from_edges(8, list(cycle(4).edges) + [(1, 5), (2, 6), (3, 7), (4, 8)])
    verdict = classify_unicyclic(g)
    assert verdict.sep and verdict.rule == "unicyclic(iii)(1)"
    assert classify_unicyclic(template("c4pathpendad")).rule == "unicyclic(iii)(2)"
    g2 = graph_from_edges(6, list(cycle(4).edges) + [(1, 5), (5, 6)])
    assert classify_unicyclic(g2).rule == "unicyclic(iii)(3)"
    # pendant adjacent (not opposite) to the 2-path: must fail
    assert not classify_unicyclic(template("c4pendpath")).sep


def test_unicyclic_c3_templates():
    assert classify_unicyclic(template("c3path3")).rule == "unicyclic(iv)(2)"
    assert classify_unicyclic(template("c3path2each")).rule == "unicyclic(iv)(1)"
    broom = graph_from_edges(8, list(cycle(3).edges) + [(1, 4), (1, 5), (4, 6), (1, 7), (7, 8)])
    verdict = classify_unicyclic(broom)
    assert verdict.sep and verdict.rule == "unicyclic(iv)(3)"
    for name in ("c3fork", "c3threepend", "c3pathpend", "c3pathstar", "c3path4", "c3path3pend"):
        assert not classify_unicyclic(template(name)).sep, name


def test_triangle_free_low_independence_never_fails_in_grid():
    # the positive clause for cycle lengths 5..7 rests on this guarantee
    from edgepow import search_sep_counterexample

    checked = 0
    for g in corpus.trees_up_to(7) + corpus.unicyclic_up_to(7):
        if is_triangle_free(g) and independence_number(g) <= 3:
            checked += 1
            assert search_sep_counterexample(g, 2) is None, g
    assert checked >= 10


def test_classifiers_agree_on_overlaps():
    for n in range(3, 10):
        assert classify_cycle(n).sep == classify_unicyclic(cycle(n)).sep
    for n in range(2, 10):
        assert classify_path(n).sep == classify_tree(path(n)).sep


def test_classify_graph_dispatch():
    assert classify_graph(cycle(6)).rule == "cycle(3..7)"
    assert classify_graph(path(7)).rule == "path(>=7)"
    assert classify_graph(template("c5star")).rule == "unicyclic(ii)"
    assert classify_graph(star(4)).rule == "tree(ii)"


# --- template matchers vs an isomorphism oracle

def _tree_templates_upto(n_max):
    """Every positive tree shape on <= n_max vertices, generated explicitly."""
    out = [path(6)] if n_max >= 6 else []
    for leaves in range(1, n_max):
        for whisk in range(0, leaves + 1):
            g = star_whisker(leaves, whisk)
            if g.n <= n_max:
                out.append(g)
    return out


def _unicyclic_templates_upto(n_max):
    from itertools import product as iproduct

    out = []
    # 4-cycle clauses
    for pend in iproduct((0, 1), repeat=4):
        edges = list(cycle(4).edges)
        nxt = 5
        for i, p in enumerate(pend):
            if p:
                edges.append((i + 1, nxt))
                nxt += 1
        if nxt - 1 <= n_max:
            out.append(graph_from_edges(nxt - 1, edges))
    if 7 <= n_max:
        out.append(template("c4pathpendad"))
    if 6 <= n_max:
        out.append(graph_from_edges(6, list(cycle(4).edges) + [(1, 5), (5, 6)]))
    # 3-cycle clause (1): one path of length <= 2 per vertex
    for legs in iproduct((0, 1, 2), repeat=3):
        edges = list(cycle(3).edges)
        nxt = 4
        for i, leg in enumerate(legs):
            prev = i + 1
            for _ in range(leg):
                edges.append(tuple(sorted((prev, nxt))))
                prev = nxt
                nxt += 1
        if nxt - 1 <= n_max:
            out.append(graph_from_edges(nxt - 1, edges))
    # clause (2): one path of length three
    if 6 <= n_max:
        out.append(template("c3path3"))
    # clause (3): brooms of short paths at one vertex
    for ones in range(0, 6):
        for twos in range(0, 3):
            n = 3 + ones + 2 * twos
            if n > n_max or ones + twos == 0:
                continue
            edges = list(cycle(3).edges)
            nxt = 4
            for _ in range(ones):
                edges.append((1, nxt))
                nxt += 1
            for _ in range(twos):
                edges.append((1, nxt))
                edges.append((nxt, nxt + 1))
                nxt += 2
            out.append(graph_from_edges(n, edges))
    # 5..7 cycles: positive iff independence number <= 3; enumerate via corpus
    return out


def test_tree_matcher_against_isomorphism_oracle():
    n_max = 8
    positives = _tree_templates_upto(n_max)
    for g in corpus.trees_up_to(n_max):
        expected = any(is_isomorphic(g, t) for t in positives)
        assert classify_tree(g).sep == expected, g


def test_unicyclic_matcher_against_isomorphism_oracle():
    from edgepow import structure_probe

    n_max = 8
    positives = _unicyclic_templates_upto(n_max)
    for g in corpus.unicyclic_up_to(n_max):
        ell = structure_probe(g).cycle_length
        if ell in (5, 6, 7):
            expected = independence_number(g) <= 3
        elif ell >= 8:
            expected = False
        else:
            expected = any(is_isomorphic(g, t) for t in positives)
        assert classify_unicyclic(g).sep == expected, g


# --- complete multipartite minus matching

def test_cmm_recognizes_c4():
    verdict = classify_complete_multipartite_minus_matching(cycle(4))
    assert verdict is not None and verdict.sep
    assert sorted(len(p) for p in verdict.detail["parts"]) == [2, 2]


def test_cmm_recognizes_k4_minus_perfect_matching():
    g = complete_multipartite((1, 1, 1, 1), matching=((1, 2), (3, 4)))
    verdict = classify_complete_multipartite_minus_matching(g)
    assert verdict is not None and verdict.sep


def test_cmm_rejects_p6_and_spider():
    assert classify_complete_multipartite_minus_matching(path(6)) is None
    assert classify_complete_multipartite_minus_matching(template("spider113")) is None


def test_cmm_recognizes_p5_and_c6():
    # P5 is K_{3,2} minus a 2-edge matching; C6 is K_{3,3} minus a perfect matching
    verdict = classify_complete_multipartite_minus_matching(path(5))
    assert verdict is not None
    parts = sorted(len(p) for p in verdict.detail["parts"])
    assert parts == [2, 3] and len(verdict.detail["matching"]) == 2
    verdict = classify_complete_multipartite_minus_matching(cycle(6))
    assert verdict is not None and len(verdict.detail["matching"]) == 3


def test_cmm_matches_bounded_search():
    from edgepow import search_sep_counterexample

    g = complete_multipartite((2, 2), matching=((1, 3),))
    assert classify_complete_multipartite_minus_matching(g) is not None
    assert search_sep_counterexample(g, 2) is None


def test_cmm_step_limit_raises_budget_error(monkeypatch):
    import edgepow.classify as classify_mod
    from edgepow import BudgetError

    monkeypatch.setattr(classify_mod, "CMM_STEP_LIMIT", 2)
    g = complete_multipartite((2, 2, 2))
    with pytest.raises(
        BudgetError, match=r"^complete-multipartite recognition exceeded 2 steps$"
    ):
        classify_complete_multipartite_minus_matching(g)


# --- cross validation

def test_cross_validate_positive_and_negative():
    cv = cross_validate(cycle(5), 2)
    assert cv.consistent and cv.evidence == "grid-clean"
    cv = cross_validate(template("c6pend"), 2)
    assert cv.consistent and cv.evidence == "grid-counterexample"
    assert cv.caps is not None and not cv.report.ok


def test_cross_validate_uses_fixture_lift_when_grid_silent():
    # grid capped at 1: all-ones caps rarely refute these, forcing the lift
    cv = cross_validate(template("c7pend"), 1)
    assert cv.consistent and cv.evidence == "fixture-lift"
    assert not cv.report.ok


def test_cross_validate_budget_reaches_every_engine(monkeypatch):
    budgets = []
    init = PowerEngine.__init__

    def recording(self, graph, node_budget):
        budgets.append(node_budget)
        init(self, graph, node_budget)

    monkeypatch.setattr(PowerEngine, "__init__", recording)
    cv = cross_validate(template("c7pend"), 1, node_budget=5000)
    assert cv.evidence == "fixture-lift"
    # the grid's engine and one engine shared by every lift attempt
    assert budgets == [5000, 5000]


def test_lift_failing_caps_direct():
    # embed the c4star instance into itself plus one extra leaf
    base = template("c4star")
    big = graph_from_edges(8, list(base.sorted_edges) + [(7, 8)])
    got = lift_failing_caps(PowerEngine(big), base, (1, 2, 1, 1, 1, 1, 1))
    assert got is not None
    caps, report = got
    assert not report.ok
    assert caps[7] == 1  # fresh leaf always gets cap 1


@pytest.mark.parametrize(
    "cap_max,lifts,digest", [(1, 69, "0685f9d2ac3b"), (2, 2, "db298372f385")]
)
def test_cross_validate_output_is_pinned(cap_max, lifts, digest):
    # every tree and unicyclic graph on <= 8 vertices
    graphs = corpus.trees_up_to(8) + corpus.unicyclic_up_to(8)
    cvs = [cross_validate(g, cap_max) for g in graphs]
    assert sum(cv.evidence == "fixture-lift" for cv in cvs) == lifts
    rows = [[cv.to_json(), cv.report.to_json() if cv.report else None] for cv in cvs]
    assert hashlib.sha1(json.dumps(rows).encode()).hexdigest()[:12] == digest


def test_cross_validate_rejects_other_graphs():
    with pytest.raises(ValueError):
        cross_validate(complete_multipartite((2, 2, 2)), 2)


def test_failing_instances_nonempty():
    inst = failing_instances()
    assert len(inst) >= 20
    # a sample failure actually fails
    from edgepow import check_strong_exchange, enumerate_generators

    g, caps = inst[0]
    assert not check_strong_exchange(enumerate_generators(g, caps)).ok
