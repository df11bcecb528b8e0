import hashlib
import json
import random
import re
import time
from itertools import combinations, combinations_with_replacement

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
    GraphError,
    graph_from_edges,
    path,
    star,
    star_whisker,
    structure_probe,
    template,
)
from edgepow import classify as classify_mod
from edgepow import corpus
from edgepow import fixtures as fixtures_mod
from edgepow import graph as graph_mod
from edgepow.classify import _leg_profiles, _unicyclic_independence, lift_failing_caps
from edgepow.fixtures import failing_instances
from edgepow.powers import PowerEngine
from helpers import (
    independence_number,
    is_isomorphic,
    is_multipartite_minus_matching,
    is_triangle_free,
    random_connected_graph,
    reference_leg_profile,
    reference_lift_failing_caps,
    shuffled,
)


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
    # every unicyclic graph on <= 8 vertices, relabelled three ways, and
    # 1,500 random relabelled ones on <= 12
    rng = random.Random(23)
    graphs = corpus.unicyclic_up_to(8)
    assert len(graphs) == 143
    graphs = [shuffled(rng, g) for g in graphs for _ in range(3)]
    target = len(graphs) + 1500
    while len(graphs) < target:
        g = random_connected_graph(rng, n_min=3, n_max=12, extra_max=1)
        if len(g.edges) == g.n:
            graphs.append(shuffled(rng, g))
    bare = pendant_on_cycle = 0
    for g in graphs:
        probe = structure_probe(g)
        assert _unicyclic_independence(probe) == independence_number(g), g
        # a bare cycle has no blocked vertex; a leaf on the cycle blocks its support
        bare += probe.cycle_length == g.n
        pendant_on_cycle += any(
            g.degree(w) == 1 for v in probe.cycle for w in g.neighbors(v)
        )
    assert bare >= 200 and pendant_on_cycle >= 1000


def test_leg_profiles_match_reference_walker():
    rng = random.Random(29)
    graphs = list(corpus.unicyclic_up_to(9))
    graphs += [shuffled(rng, g) for g in graphs]
    target = len(graphs) + 1500
    while len(graphs) < target:
        g = random_connected_graph(rng, n_min=3, n_max=12, extra_max=1)
        if len(g.edges) == g.n:
            graphs.append(shuffled(rng, g))
    forks = 0
    for g in graphs:
        probe = structure_probe(g)
        cycle_set = frozenset(probe.cycle)
        want = [reference_leg_profile(g, v, cycle_set) for v in probe.cycle]
        assert _leg_profiles(probe) == want, g
        forks += None in want
    assert forks >= 500


@pytest.mark.parametrize(
    "n,edges,ell,alpha",
    [
        # a 5-cycle with a 40-vertex tail: 45 vertices, past the n <= 32 search
        pytest.param(
            45,
            list(cycle(5).edges) + [(i, i + 1) for i in range(5, 45)],
            5,
            22,
            id="c5-tail-45",
        ),
        # a 7-cycle whose vertex 1 carries 99,993 pendants
        pytest.param(
            100_000,
            list(cycle(7).edges) + [(1, v) for v in range(8, 100_001)],
            7,
            99_996,
            id="c7-pendants-100000",
        ),
    ],
)
def test_unicyclic_alpha_clause_beyond_search_limit(n, edges, ell, alpha):
    assert classify_graph(graph_from_edges(n, edges)).to_json() == {
        "sep": False,
        "rule": "unicyclic(ii)",
        "detail": {"cycle_length": ell, "independence_number": alpha},
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
    verdict = classify_graph(complete_multipartite([2, 2, 2]))
    assert verdict.sep and verdict.rule == "multipartite-minus-matching"


# two triangles joined by an edge: neither a tree, unicyclic, nor a complete
# multipartite graph minus a matching
TWO_TRIANGLES = graph_from_edges(6, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (4, 6)])


@pytest.mark.parametrize(
    "classify, g, message",
    [
        (classify_unicyclic, path(4), "classify_unicyclic requires a unicyclic graph"),
        (
            classify_graph,
            TWO_TRIANGLES,
            "no classifier applies: graph is neither a tree, unicyclic, nor a "
            "complete multipartite graph minus a matching",
        ),
    ],
)
def test_classifiers_refuse_graphs_outside_their_families(classify, g, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        classify(g)


def test_dispatch_peels_each_graph_once(monkeypatch):
    # classify_graph and cross_validate hand their probe to the tree and
    # unicyclic rules instead of probing again
    peeled = []
    peel = graph_mod.peel_leaves
    monkeypatch.setattr(
        graph_mod, "peel_leaves", lambda g: peeled.append(g) or peel(g)
    )
    # cycle(12): the lift filter skips every fixture base without a probe
    for g in (star(4), path(9), template("c3path3"), template("c5star"), cycle(12)):
        classify_graph(g)
        cross_validate(g, 1)
        assert peeled == [g, g]
        peeled.clear()


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


def test_cmm_charges_the_complement_before_building_it():
    from edgepow import BudgetError

    # a cycle plus one chord on 2,000 vertices: about 4 million complement
    # entries, refused before any is built
    n = 2000
    g = graph_from_edges(n, [(i, i + 1) for i in range(1, n)] + [(1, n), (1, n // 2)])
    start = time.perf_counter()
    with pytest.raises(
        BudgetError, match=r"^complete-multipartite recognition exceeded 1000000 steps$"
    ):
        classify_graph(g)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize(
    "g,steps,parts,matching",
    [
        # 6 complement entries, then split calls at done = {}, {1,2}, {1..4}, {1..6}
        pytest.param(
            complete_multipartite((2, 2, 2)), 6 + 4, [[1, 2], [3, 4], [5, 6]], [], id="k222"
        ),
        # the complement of the path 1-2-3-4 plus the triangle 4,5,6: 12 entries,
        # and 5 calls, since the block {1,2} fails at the call that tries 3
        pytest.param(
            graph_from_edges(
                6, [(1, 3), (1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (3, 5), (3, 6)]
            ),
            12 + 5,
            [[1], [2, 3], [4, 5, 6]],
            [[1, 2], [3, 4]],
            id="backtracks",
        ),
    ],
)
def test_cmm_charges_one_step_per_split_call(monkeypatch, g, steps, parts, matching):
    import edgepow.classify as classify_mod
    from edgepow import BudgetError

    monkeypatch.setattr(classify_mod, "CMM_STEP_LIMIT", steps - 1)
    with pytest.raises(
        BudgetError, match=rf"^complete-multipartite recognition exceeded {steps - 1} steps$"
    ):
        classify_complete_multipartite_minus_matching(g)
    monkeypatch.setattr(classify_mod, "CMM_STEP_LIMIT", steps)
    verdict = classify_complete_multipartite_minus_matching(g)
    assert verdict.detail == {"parts": parts, "matching": matching}


def test_cmm_verdicts_are_pinned():
    # every complete multipartite graph with 2-4 parts of sizes 1-3, three
    # seeded matchings removed from each (as built and relabelled), and
    # seeded dense random graphs that are not CMM
    rng = random.Random(41)
    graphs = []
    for k in (2, 3, 4):
        for sizes in combinations_with_replacement((1, 2, 3), k):
            g = complete_multipartite(sizes)
            graphs.append(g)
            for _ in range(3):
                edges = list(g.sorted_edges)
                rng.shuffle(edges)
                matching, used = [], set()
                for u, v in edges[: rng.randint(1, len(edges))]:
                    if u not in used and v not in used:
                        matching.append((u, v))
                        used |= {u, v}
                try:
                    h = complete_multipartite(sizes, matching)
                except GraphError:  # a vertex lost its last edge
                    continue
                graphs += [h, shuffled(rng, h)]
    positives = len(graphs)
    negatives = 0
    while negatives < 150:
        n = rng.randint(4, 9)
        edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.75]
        try:
            g = graph_from_edges(n, edges)
        except GraphError:
            continue
        if not is_multipartite_minus_matching(g):
            graphs.append(g)
            negatives += 1
    verdicts = [classify_complete_multipartite_minus_matching(g) for g in graphs]
    assert [v is not None for v in verdicts] == [True] * positives + [False] * negatives
    assert positives == 199
    rows = [v.to_json() if v else None for v in verdicts]
    assert hashlib.sha1(json.dumps(rows).encode()).hexdigest()[:12] == "76ecf66d3604"


def test_unicyclic_verdicts_are_pinned_under_relabelling():
    # the template details name cycle vertices, so the labels matter
    rng = random.Random(43)
    graphs = corpus.unicyclic_up_to(9)
    assert len(graphs) == 383
    graphs = [h for g in graphs for h in (g, shuffled(rng, g), shuffled(rng, g))]
    rows = [classify_unicyclic(g).to_json() for g in graphs]
    assert hashlib.sha1(json.dumps(rows).encode()).hexdigest()[:12] == "f513c0f8e253"


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
    # far beyond every fixture's size, as the walk over candidate subsets
    # reaches it in well under a second
    cv = cross_validate(path(26), 1)
    assert cv.consistent and cv.evidence == "fixture-lift"
    assert cv.caps == (1, 1, 2, 1, 1, 1, 3) + (2,) * 18 + (1,)
    assert not cv.report.ok
    # a hub with label 1 (24 one-vertex legs, one 6-vertex leg) puts the
    # hub in every candidate subset
    edges = [(1, v) for v in range(2, 27)] + [(v, v + 1) for v in range(26, 31)]
    cv = cross_validate(graph_from_edges(31, edges), 1)
    assert cv.consistent and cv.evidence == "fixture-lift"
    assert cv.caps == (24,) + (1,) * 24 + (2, 1, 1, 1, 3, 1)
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


def test_cross_validate_reports_a_contradicted_positive_verdict(monkeypatch):
    # path(7) fails at cap 2, so a positive verdict meets a grid counterexample
    forced = classify_mod.ClassificationVerdict(True, "forced", {})
    monkeypatch.setattr(classify_mod, "_tree_verdict", lambda g, probe: forced)
    cv = cross_validate(path(7), 2)
    assert cv.to_json() == {
        "verdict": {"sep": True, "rule": "forced", "detail": {}},
        "consistent": False,
        "evidence": "grid-counterexample",
        "caps": [1, 1, 1, 1, 2, 1, 1],
    }
    assert not cv.report.ok


def test_cross_validate_reports_an_unconfirmed_negative_verdict(monkeypatch):
    # the all-ones grid passes and no fixture is left to lift
    monkeypatch.setattr(fixtures_mod, "failing_instances", lambda: ())
    cv = cross_validate(path(7), 1)
    assert not cv.verdict.sep
    assert not cv.consistent and cv.evidence == "unconfirmed"
    assert cv.caps is None and cv.report is None


def test_lift_failing_caps_direct():
    # embed the c4star instance into itself plus one extra leaf
    base = template("c4star")
    big = graph_from_edges(8, list(base.sorted_edges) + [(7, 8)])
    got = lift_failing_caps(PowerEngine(big), base, (1, 2, 1, 1, 1, 1, 1))
    assert got is not None
    caps, report = got
    assert not report.ok
    assert caps[7] == 1  # fresh leaf always gets cap 1
    # peeling keeps edges minus vertices: no cycle inside a tree, and no
    # tree copy that a unicyclic graph peels down to
    tree = PowerEngine(path(9))
    assert lift_failing_caps(tree, base, (1, 2, 1, 1, 1, 1, 1)) is None
    spider = template("spider113")
    assert lift_failing_caps(PowerEngine(big), spider, (1,) * 6) is None


def _lifts_against_the_subset_scan(graphs):
    """(pairs, lifts) over every fixture base against ``graphs``, asserting
    the same first copy, caps and report as the blind scan."""
    bases = failing_instances()
    pairs = lifts = 0
    for g in graphs:
        engine = PowerEngine(g)
        for base, caps in bases:
            got = lift_failing_caps(engine, base, caps)
            want = reference_lift_failing_caps(engine, base, caps)
            pairs += 1
            lifts += got is not None
            if want is None:
                assert got is None
            else:
                assert got[0] == want[0]
                assert got[1].to_json() == want[1].to_json()
    return pairs, lifts


def test_lift_failing_caps_matches_the_subset_scan():
    # every tree on <= 9 and unicyclic graph on <= 8 vertices
    graphs = corpus.trees_up_to(9) + corpus.unicyclic_up_to(8)
    assert _lifts_against_the_subset_scan(graphs) == (6399, 280)


def test_lift_failing_caps_matches_the_subset_scan_on_relabelled_graphs():
    # random labels move hubs and cycles off the natural order, where the
    # closed-form caps must still equal the replayed peel of the first copy
    rng = random.Random(20)
    graphs = [
        shuffled(rng, g)
        for pool in (
            corpus.all_trees(10),
            corpus.all_trees(11),
            corpus.all_unicyclic(9),
            corpus.all_unicyclic(10),
        )
        for g in rng.sample(pool, 15)
    ]
    assert _lifts_against_the_subset_scan(graphs) == (1620, 141)


def test_cross_validate_confirms_every_long_cycle():
    # cycles of length 8 and 9 lift cyc8 and cyc9; longer ones have no
    # fixture that embeds and take cyc8's caps in closed form
    for n in range(8, 33):
        cv = cross_validate(cycle(n), 1)
        assert cv.consistent and not cv.report.ok
        assert cv.evidence == ("fixture-lift" if n <= 9 else "closed-form")
        if n >= 10:
            assert cv.caps == (2, 1, 2, 1, 1, 1, 2) + (1,) * (n - 7)


@pytest.mark.parametrize(
    "sizes,cap_max,lifts,digest",
    [
        pytest.param(
            (range(2, 9), range(3, 9)), 1, 69, "0685f9d2ac3b", id="1-69-0685f9d2ac3b"
        ),
        pytest.param(
            (range(2, 9), range(3, 9)), 2, 2, "db298372f385", id="2-2-db298372f385"
        ),
        pytest.param(
            ((9, 10), (9,)), 1, 203, "b216961580ce", id="1-203-b216961580ce"
        ),
    ],
)
def test_cross_validate_output_is_pinned(sizes, cap_max, lifts, digest):
    # every tree and every unicyclic graph on the given vertex counts
    tree_sizes, unicyclic_sizes = sizes
    graphs = [g for n in tree_sizes for g in corpus.all_trees(n)]
    graphs += [g for n in unicyclic_sizes for g in corpus.all_unicyclic(n)]
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
