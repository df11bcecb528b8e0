import random
from itertools import combinations_with_replacement
from math import comb

import pytest

from edgepow import (
    BudgetError,
    PowerEngine,
    check_fiber_connectivity,
    check_strong_exchange,
    conjecture_scan,
    cycle,
    enumerate_generators,
    fibers,
    graph_from_edges,
    search_sep_counterexample,
    sym_exchange_binomials,
    template,
)
from edgepow import corpus, toric
from edgepow.powers import MAX_CAP
from helpers import (
    random_caps,
    random_connected_graph,
    random_member_set,
    random_wide_member_set,
    reference_binomials,
    reference_fiber_connectivity,
    reference_fibers,
)

K2 = graph_from_edges(2, [(1, 2)])

FINAL_W = enumerate_generators(template("c3pathpend"), (1, 1, 1, 2, 1, 1, 1))


def test_final_example_binomials_exact():
    got = {(b.i, b.j, b.i0, b.j0) for b in sym_exchange_binomials(FINAL_W)}
    assert got == {(1, 4, 2, 3), (1, 6, 2, 5), (3, 6, 4, 5)}


def test_binomial_product_equality():
    ws = FINAL_W.ordered
    for b in sym_exchange_binomials(FINAL_W):
        left = tuple(x + y for x, y in zip(ws[b.i - 1], ws[b.j - 1]))
        right = tuple(x + y for x, y in zip(ws[b.i0 - 1], ws[b.j0 - 1]))
        assert left == right


def test_binomial_str():
    b = sorted(sym_exchange_binomials(FINAL_W))[0]
    assert str(b) == "z1*z4 - z2*z3"


def test_singleton_and_k2_no_binomials():
    assert sym_exchange_binomials({(2, 2)}) == ()
    w = enumerate_generators(K2, (2, 3))
    assert sym_exchange_binomials(w) == ()
    rep = check_fiber_connectivity(w, 3)
    assert rep.ok


def test_fibers_final_example():
    level = fibers(FINAL_W, 2)
    by_product = {f.product: set(f.nodes) for f in level}
    ws = FINAL_W.ordered
    p45 = tuple(x + y for x, y in zip(ws[3], ws[4]))
    assert {(4, 5), (3, 6)} <= by_product[p45]
    p25 = tuple(x + y for x, y in zip(ws[1], ws[4]))
    assert {(2, 5), (1, 6)} <= by_product[p25]
    # all nodes of a fiber share the product
    for f in level:
        for node in f.nodes:
            prod = tuple(sum(ws[k - 1][t] for k in node) for t in range(7))
            assert prod == f.product


def test_fibers_singleton_set():
    level = fibers({(1, 1)}, 2)
    assert len(level) == 1 and level[0].nodes == ((1, 1),)


def test_fibers_budget():
    with pytest.raises(BudgetError):
        fibers(FINAL_W, 3, budget=10)


def test_final_example_connected_through_3():
    rep = check_fiber_connectivity(FINAL_W, 3)
    assert rep.ok and rep.binomial_count == 3
    assert [d.degree for d in rep.degrees] == [2, 3]


def test_disconnected_fiber_detected():
    # (2,0,1)+(0,2,1) = (1,1,2)+(1,1,0) but no single swap stays inside
    w = {(2, 0, 1), (0, 2, 1), (1, 1, 2), (1, 1, 0)}
    assert sym_exchange_binomials(w) == ()
    rep = check_fiber_connectivity(w, 2)
    assert not rep.ok
    assert rep.failure == (2, (2, 2, 2), (1, 4), (2, 3))
    assert rep.to_json() == {
        "ok": False,
        "m_max": 2,
        "binomials": 0,
        "degrees": [{"m": 2, "fibers": 9, "nontrivial": 1, "connected": False}],
        "failure": {
            "m": 2,
            "product": [2, 2, 2],
            "multiset_a": [1, 4],
            "multiset_b": [2, 3],
        },
    }


def test_strong_pass_implies_connectivity_through_3():
    rng = random.Random(61)
    tested = 0
    for _ in range(60):
        g = random_connected_graph(rng, n_max=6)
        caps = random_caps(rng, g.n, cap_max=2)
        w = enumerate_generators(g, caps)
        if not check_strong_exchange(w).ok:
            continue
        tested += 1
        assert check_fiber_connectivity(w, 3).ok
    assert tested >= 20


def test_moves_preserve_products_random():
    rng = random.Random(67)
    for _ in range(20):
        g = random_connected_graph(rng, n_max=6)
        caps = random_caps(rng, g.n, cap_max=2)
        w = enumerate_generators(g, caps)
        ws = w.ordered
        for b in sym_exchange_binomials(w):
            left = tuple(x + y for x, y in zip(ws[b.i - 1], ws[b.j - 1]))
            right = tuple(x + y for x, y in zip(ws[b.i0 - 1], ws[b.j0 - 1]))
            assert left == right


def test_connectivity_independent_of_member_order():
    rng = random.Random(71)
    disconnected = {(2, 0, 1), (0, 2, 1), (1, 1, 2), (1, 1, 0), (0, 0, 3)}
    for w in (FINAL_W.members, disconnected):
        members = sorted(w)
        base = check_fiber_connectivity(members, 3).to_json()
        for _ in range(5):
            rng.shuffle(members)
            assert check_fiber_connectivity(members, 3).to_json() == base
    assert base["failure"]["multiset_a"] == [1, 4]


def test_connectivity_matches_reference_search():
    rng = random.Random(73)
    failing = 0
    for _ in range(400):
        w = random_member_set(rng)
        m = rng.randint(2, 4)
        got = check_fiber_connectivity(w, m).to_json()
        assert got == reference_fiber_connectivity(w, m).to_json()
        failing += not got["ok"]
    assert failing >= 40


def test_packed_kernel_matches_tuple_reference_at_width_edges():
    rng = random.Random(79)
    edges = set()
    lengths = set()
    with_quadrics = 0
    shared = 0
    failing = 0
    for _ in range(300):
        w = random_wide_member_set(rng)
        m = rng.randint(2, 4)
        top = max(map(max, w))
        # largest exponent at MAX_CAP, at a power of two, or just below one
        edges.add((top == MAX_CAP, top & (top - 1) == 0, top & (top + 1) == 0))
        lengths.add(len(next(iter(w))))
        bins = sym_exchange_binomials(w)
        assert bins == reference_binomials(w)
        level = fibers(w, m)
        assert level == reference_fibers(w, m)
        got = check_fiber_connectivity(w, m).to_json()
        assert got == reference_fiber_connectivity(w, m).to_json()
        with_quadrics += bool(bins)
        shared += any(len(f.nodes) > 1 for f in level)
        failing += not got["ok"]
    assert {(True, True, False), (False, True, False), (False, False, True)} <= edges
    assert max(lengths) == 32
    assert with_quadrics >= 100 and shared >= 100 and failing >= 10


def test_connectivity_builds_no_fiber(monkeypatch):
    def unbuilt(*args):
        raise AssertionError("a Fiber was built")

    monkeypatch.setattr(toric, "Fiber", unbuilt)
    disconnected = {(2, 0, 1), (0, 2, 1), (1, 1, 2), (1, 1, 0)}
    assert check_fiber_connectivity(FINAL_W, 3).ok
    assert check_fiber_connectivity(disconnected, 3).failure == (
        2, (2, 2, 2), (1, 4), (2, 3)
    )
    with pytest.raises(AssertionError, match="Fiber was built"):
        fibers(FINAL_W, 2)


def test_connectivity_budget_checked_before_union_find(monkeypatch):
    enumerated = []

    def recording(pool, k):
        enumerated.append(k)
        return combinations_with_replacement(pool, k)

    monkeypatch.setattr(toric, "combinations_with_replacement", recording)
    with pytest.raises(BudgetError):
        check_fiber_connectivity(FINAL_W, 3, budget=10)
    assert enumerated == []
    # degree 2 (21 multisets) fits, degree 3 (56) does not: only the degree-2
    # fibers and their union-find are built
    with pytest.raises(BudgetError):
        check_fiber_connectivity(FINAL_W, 3, budget=30)
    assert enumerated == [2, 0]


def test_conjecture_scan_records_budget_skips():
    checked = []
    report = conjecture_scan(
        [template("c3pathpend")],
        cap_max=2,
        m_max=3,
        fiber_budget=10,
        on_instance=lambda gi, caps, rep: checked.append(caps),
    )
    assert report.clean and report.budget_skips and checked
    assert len(report.budget_skips) + len(checked) == report.instances
    for skip in report.budget_skips:
        assert skip.status == "budget" and comb(skip.members + 2, 3) > 10
    assert report.to_json()["budget_skips"][0]["status"] == "budget"


def test_conjecture_scan_small():
    report = conjecture_scan(corpus.all_unicyclic(5), cap_max=2, m_max=3)
    assert report.clean and report.instances > 0
    assert report.strong_fail == 0  # every unicyclic graph on <= 5 vertices passes


def test_conjecture_scan_final_example_instance():
    report = conjecture_scan([template("c3pathpend")], cap_max=2, m_max=3)
    assert report.clean
    assert report.strong_fail > 0  # the scanned grid includes failing caps


def test_conjecture_scan_empty_corpus():
    report = conjecture_scan([], cap_max=2, m_max=3)
    assert report.clean and report.instances == 0


@pytest.mark.parametrize(
    "cap_max,m_max,message",
    [(0, 3, "cap_max must be >= 1, got 0"), (2, 1, "m_max must be >= 2, got 1")],
)
def test_conjecture_scan_refuses_vacuous_bounds(cap_max, m_max, message):
    with pytest.raises(ValueError, match=message):
        conjecture_scan(corpus.all_unicyclic(4), cap_max=cap_max, m_max=m_max)
    with pytest.raises(ValueError, match=message):
        conjecture_scan([], cap_max=cap_max, m_max=m_max)


def _record_generators(monkeypatch, record):
    """Append record(engine, caps) on every PowerEngine.generators call."""
    calls = []
    original = PowerEngine.generators

    def recording(self, caps):
        calls.append(record(self, caps))
        return original(self, caps)

    monkeypatch.setattr(PowerEngine, "generators", recording)
    return calls


def test_conjecture_scan_refuses_over_limit_grid_before_its_instances(monkeypatch):
    from edgepow import exchange

    monkeypatch.setattr(exchange, "GRID_LIMIT", 8)
    with pytest.raises(BudgetError, match="grid of 81 cap vectors exceeds the limit 8"):
        conjecture_scan([cycle(4)], cap_max=3)
    # the 8-cell grid of the triangle runs; the 16-cell grid of the 4-cycle
    # raises before any of its generator sets
    sizes = _record_generators(monkeypatch, lambda engine, caps: engine.graph.n)
    with pytest.raises(BudgetError, match="grid"):
        conjecture_scan([cycle(3), cycle(4)], cap_max=2)
    assert sizes and set(sizes) == {3}


def test_conjecture_scan_honours_the_node_budget():
    with pytest.raises(BudgetError, match="node budget 1 exhausted"):
        conjecture_scan([cycle(4)], 2, node_budget=1)


def test_search_and_scan_walk_the_same_normal_forms(monkeypatch):
    calls = _record_generators(monkeypatch, lambda engine, caps: caps)
    # a clean grid, so the search walks all of it
    assert search_sep_counterexample(cycle(5), 3) is None
    searched = list(calls)
    calls.clear()
    report = conjecture_scan([cycle(5)], cap_max=3)
    assert report.instances == len(calls) == len(set(calls)) > 1
    assert calls == searched


def test_scan_report_json():
    report = conjecture_scan(corpus.all_unicyclic(4), cap_max=2, m_max=2)
    data = report.to_json()
    assert data["clean"] is True and data["instances"] == report.instances
