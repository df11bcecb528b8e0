import random
from collections import Counter
from itertools import combinations, combinations_with_replacement
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
from edgepow.exchange import cap_grid
from edgepow.powers import MAX_CAP
from helpers import (
    random_caps,
    random_connected_graph,
    random_member_set,
    random_wide_member_set,
    full_cap_grid,
    reference_conjecture_scan,
    reference_fiber_connectivity,
    reference_fibers,
    reference_sortable,
    reference_sym_exchange_binomials,
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


def test_fibers_refuse_degree_below_2():
    with pytest.raises(ValueError, match="^fiber degree must be >= 2, got 1$"):
        fibers(FINAL_W, 1)


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


def test_a_translate_with_constant_coordinates_has_the_same_shape_and_reports():
    # the toric docstring's shape lemma: every field of the reports is kept
    # except a failure's product, which names the translate's own product
    rng = random.Random(79)
    failures = 0
    for _ in range(200):
        w = random_member_set(rng)
        n = len(next(iter(w)))
        shift = [rng.randint(0, 3) for _ in range(n)]
        constants = [(rng.randint(0, n), rng.randint(0, 3)) for _ in range(rng.randint(1, 3))]
        moved = set()
        for v in w:
            out = [a + b for a, b in zip(v, shift)]
            for at, value in constants:
                out.insert(at, value)
            moved.add(tuple(out))
        assert toric._shape(moved) == toric._shape(w)
        assert check_strong_exchange(moved).ok == check_strong_exchange(w).ok
        reports = []
        for u in (w, moved):
            report = check_fiber_connectivity(u, 3).to_json()
            report.get("failure", {}).pop("product", None)
            reports.append(report)
        assert reports[0] == reports[1], w
        failures += not reports[0]["ok"]
    assert failures >= 20


def _failing_degrees_against_reference(draw_m_max):
    """Compare the check with the reference search on 400 random member
    sets (seed 73); return the degree of each failure."""
    rng = random.Random(73)
    degrees = []
    for _ in range(400):
        w = random_member_set(rng)
        m = draw_m_max(rng)
        got = check_fiber_connectivity(w, m).to_json()
        assert got == reference_fiber_connectivity(w, m).to_json()
        if not got["ok"]:
            degrees.append(got["failure"]["m"])
    return degrees


def test_connectivity_matches_reference_search():
    assert len(_failing_degrees_against_reference(lambda rng: rng.randint(2, 4))) >= 40


def test_connectivity_matches_reference_search_through_degree_5():
    # joins of degrees 3..5 are derived from the degree before: these draws
    # first fail at degrees 2/3/4/5 in 39/59/10/2 cases
    assert {3, 4, 5} <= set(_failing_degrees_against_reference(lambda rng: 5))


@pytest.mark.parametrize(
    "w,connected_through,failure",
    [
        ({(3, 1), (2, 2), (0, 4)}, 2, (3, (6, 6), (1, 1, 3), (2, 2, 2))),
        (
            {(0, 2, 2), (1, 0, 3), (1, 2, 1), (2, 1, 1)},
            3,
            (4, (4, 6, 6), (1, 1, 4, 4), (2, 2, 2, 3)),
        ),
    ],
)
def test_first_failure_past_degree_2(w, connected_through, failure):
    assert check_fiber_connectivity(w, connected_through).ok
    for m_max in range(connected_through + 1, 6):
        report = check_fiber_connectivity(w, m_max)
        assert report.failure == failure
        assert report.to_json() == reference_fiber_connectivity(w, m_max).to_json()


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
        assert bins == reference_sym_exchange_binomials(w)
        # the wrapper packs at degree-2 digits, the check at degree-k digits
        for k in range(2, 5):
            assert check_fiber_connectivity(w, k).binomial_count == len(bins)
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


def test_connectivity_groups_fibers_only_in_a_failing_degree(monkeypatch):
    calls = []
    grouped = toric._fiber_groups

    def recording(products, units, m):
        calls.append(m)
        return grouped(products, units, m)

    monkeypatch.setattr(toric, "_fiber_groups", recording)
    assert check_fiber_connectivity(FINAL_W, 3).ok
    # the heaviest cell of the cap-3 scan of unicyclic graphs on <= 7 vertices
    heavy = PowerEngine(corpus.unicyclic_up_to(7)[47]).generators((3,) * 7)
    assert len(heavy.members) == 110
    assert check_fiber_connectivity(heavy, 3).ok
    assert calls == []
    disconnected = {(2, 0, 1), (0, 2, 1), (1, 1, 2), (1, 1, 0)}
    assert check_fiber_connectivity(disconnected, 3).failure == (
        2, (2, 2, 2), (1, 4), (2, 3)
    )
    assert calls == [2]


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
    # fibers are enumerated, and no degree-3 multiset
    with pytest.raises(BudgetError):
        check_fiber_connectivity(FINAL_W, 3, budget=30)
    assert enumerated == [2]


def _record_moves(monkeypatch) -> list:
    """Patch ``toric._moves`` to append each pair (u, v) it yields to the returned list."""
    pairs = []
    moves = toric._moves

    def recording(it):
        for u, v, ups, downs in moves(it):
            pairs.append((u, v))
            yield u, v, ups, downs

    monkeypatch.setattr(toric, "_moves", recording)
    return pairs


def test_connectivity_budget_checked_before_any_quadric_work(monkeypatch):
    pairs = _record_moves(monkeypatch)
    with pytest.raises(BudgetError, match="21 degree-2 multisets exceed the fiber budget 10"):
        check_fiber_connectivity(FINAL_W, 3, budget=10)
    assert pairs == []
    # degree 2 fits: the swap loop runs, then degree 3 (56 multisets) is refused
    with pytest.raises(BudgetError, match="56 degree-3"):
        check_fiber_connectivity(FINAL_W, 3, budget=30)
    assert pairs


def test_swap_loop_skips_singleton_fibers(monkeypatch):
    # a quadric's two sides share their product, so a pair alone in its
    # degree-2 fiber is never swapped
    pairs = _record_moves(monkeypatch)
    checked = skipping = swapped = total = 0
    for g in corpus.unicyclic_up_to(5):
        for caps, gens, sigma in cap_grid(g, 2):
            if sigma is not None:
                continue
            ws = gens.ordered
            sizes = Counter(
                tuple(map(sum, zip(u, v))) for u, v in combinations_with_replacement(ws, 2)
            )
            pairs.clear()
            assert check_fiber_connectivity(gens, 3) == reference_fiber_connectivity(gens, 3)
            assert all(sizes[tuple(map(sum, zip(u, v)))] > 1 for u, v in pairs)
            assert set(pairs) <= set(combinations(ws, 2))
            checked += 1
            skipping += len(pairs) < comb(len(ws), 2)
            swapped += len(pairs)
            total += comb(len(ws), 2)
    # 87 computed cells of the scan5 corpus at caps <= 2; 55 skip a pair, and
    # 72 of their 302 pairs are swapped
    assert checked >= 80 and skipping >= 40 and swapped < total // 2


def _packed_sortable(w, m):
    """``toric._sortable`` on W packed as ``check_fiber_connectivity(w, m)`` packs it."""
    ws = toric._ordered_members(w)
    bits = toric._product_bits(ws, m)
    products = [toric._pack(vec, bits) for vec in ws]
    sums = set(map(sum, combinations_with_replacement(products, 2)))
    return toric._sortable(products, sums, bits, len(ws[0]))


@pytest.mark.parametrize("draw", [random_member_set, random_wide_member_set])
def test_sortable_matches_the_tuple_reference(draw):
    rng = random.Random(83)
    outcomes = Counter()
    edges = set()
    lengths = set()
    for _ in range(300):
        w = draw(rng)
        got = _packed_sortable(w, rng.randint(2, 4))
        assert got == reference_sortable(w), w
        outcomes[got, len(w) > 1] += 1
        top = max(map(max, w))
        edges.add((top == MAX_CAP, top & (top - 1) == 0, top & (top + 1) == 0))
        lengths.add(len(next(iter(w))))
    # of the sets of two or more members, 98 member and 155 wide draws are
    # sortable, 175 and 113 not
    assert outcomes[True, True] >= 50 and outcomes[False, True] >= 50
    if draw is random_wide_member_set:
        # largest exponent at MAX_CAP, at a power of two, or just below one
        assert {(True, True, False), (False, True, False), (False, False, True)} <= edges
        assert max(lengths) == 32


def _record_sortable(monkeypatch) -> list:
    """Patch ``toric._sortable`` to append each of its answers to the returned list."""
    answers = []
    sortable = toric._sortable

    def recording(*args):
        answers.append(sortable(*args))
        return answers[-1]

    monkeypatch.setattr(toric, "_sortable", recording)
    return answers


def test_sortable_and_connected_in_degree_2_is_connected_in_every_degree(monkeypatch):
    # the certificate (toric docstring) on 1000 draws, against the reference
    # search; a draw counted under (True, False) would refute it
    answers = _record_sortable(monkeypatch)
    rng = random.Random(89)
    tally = Counter()
    for _ in range(1000):
        w = random_member_set(rng)
        m = rng.randint(3, 5)
        want = reference_fiber_connectivity(w, m)
        assert check_fiber_connectivity(w, m) == want
        if want.degrees[0].connected:
            tally[reference_sortable(w), want.ok] += 1
    # 437 sortable and 446 not among the draws that pass degree 2; of the
    # latter, 143 fail in a later degree
    assert tally[True, False] == 0
    assert tally[True, True] >= 300 and tally[False, False] >= 100
    assert answers.count(True) == tally[True, True] and answers.count(False) >= 300


def test_forced_fallback_keeps_every_report(monkeypatch):
    def scan_reports():
        reports = []
        conjecture_scan(
            corpus.unicyclic_up_to(5),
            on_instance=lambda gi, caps, report: reports.append((gi, caps, report)),
        )
        heavy = PowerEngine(corpus.unicyclic_up_to(7)[47]).generators((3,) * 7)
        return reports, check_fiber_connectivity(heavy, 3)

    answers = _record_sortable(monkeypatch)
    certified = scan_reports()
    assert answers.count(True) >= 10 and answers[-1]  # the heavy cell is sortable
    monkeypatch.setattr(toric, "_sortable", lambda *args: False)
    assert scan_reports() == certified


def test_mixed_degrees_take_the_union_find(monkeypatch):
    def unconsulted(*args):
        raise AssertionError("_sortable was consulted")

    monkeypatch.setattr(toric, "_sortable", unconsulted)
    # degrees 2 and 3: degree 2 passes with a non-trivial fiber, degree 3 fails
    w = {(0, 2), (0, 3), (1, 1), (1, 2), (3, 0)}
    report = check_fiber_connectivity(w, 3)
    assert report == reference_fiber_connectivity(w, 3)
    assert report.degrees[0].nontrivial_count and report.failure[0] == 3


def test_a_sortable_set_makes_no_degree_3_join(monkeypatch):
    # the only pass over the unit vectors is the degree-(m+1) join generator
    passes = []

    class Units(list):
        def __iter__(self):
            passes.append(len(self))
            return super().__iter__()

    units = toric._units
    monkeypatch.setattr(toric, "_units", lambda s, m: Units(units(s, m)))
    assert reference_sortable(FINAL_W) and check_fiber_connectivity(FINAL_W, 3).ok
    assert passes == []
    # not sortable, connected in degree 2: its degree-3 joins are derived
    w = {(3, 1), (2, 2), (0, 4)}
    assert not reference_sortable(w) and check_fiber_connectivity(w, 3).failure[0] == 3
    assert passes


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
    # a clean grid, so the search checks one cell of every orbit in it
    assert search_sep_counterexample(cycle(5), 3) is None
    searched = list(calls)
    calls.clear()
    streamed = []
    report = conjecture_scan(
        [cycle(5)], cap_max=3, on_instance=lambda gi, caps, rep: streamed.append(caps)
    )
    # the scan computes the search's cells and replays the other 170
    assert calls == searched and len(calls) == 33
    assert report.instances == len(streamed) == len(set(streamed)) == 203
    # the computed cells are an ordered subsequence of the streamed ones
    at = iter(streamed)
    assert all(caps in at for caps in searched)
    # and meet the orbit of every streamed cell under the dihedral group of C5
    shifts = [[(v + k) % 5 for v in range(5)] for k in range(5)]
    group = shifts + [[(k - v) % 5 for v in range(5)] for k in range(5)]
    for caps in streamed:
        assert {tuple(caps[p] for p in perm) for perm in group} & set(searched), caps


def test_replayed_cells_match_their_earlier_image():
    # the toric docstring: a cell that carries an automorphism sigma has the
    # members of caps o sigma, moved by w'[sigma[j]] = w[j], and the same
    # strong verdict and fiber report
    cases = [(g, 2) for g in corpus.trees_up_to(8) + corpus.unicyclic_up_to(7)]
    cases += [(g, 3) for g in corpus.unicyclic_up_to(6)]
    replayed = {2: 0, 3: 0}
    for g, cap_max in cases:
        full, checked = {}, {}
        for (caps, gens, sigma), (same, w) in zip(
            cap_grid(g, cap_max), full_cap_grid(g, cap_max), strict=True
        ):
            assert same == caps
            full[caps] = w
            if sigma is None:
                continue
            earlier = tuple(caps[x] for x in sigma)
            image = full[earlier]
            moved = set()
            for u in image.members:
                out = [0] * g.n
                for j, x in enumerate(sigma):
                    out[x] = u[j]
                moved.add(tuple(out))
            assert (w.delta, w.members) == (image.delta, moved), (g.edges, caps)
            if earlier not in checked:
                checked[earlier] = _checks(image)
            assert _checks(w) == checked[earlier], (g.edges, caps)
            replayed[cap_max] += 1
    assert replayed == {2: 2615, 3: 2722}


def _checks(w):
    return check_strong_exchange(w).ok, check_fiber_connectivity(w).to_json()


def _scans(graphs, **kw):
    """(on_instance stream, report JSON) of the scan and of the reference
    scan that computes every cell."""
    out = []
    for scan in (conjecture_scan, reference_conjecture_scan):
        stream = []
        report = scan(
            graphs,
            on_instance=lambda gi, caps, rep: stream.append((gi, caps, rep.to_json())),
            **kw,
        )
        out.append((stream, report.to_json()))
    return out


@pytest.mark.parametrize(
    "graphs,cap_max,fiber_budget",
    [
        (corpus.unicyclic_up_to(6), 2, toric.DEFAULT_FIBER_BUDGET),
        (corpus.unicyclic_up_to(6), 3, toric.DEFAULT_FIBER_BUDGET),
        ([template("c3pathpend")], 2, 10),
    ],
    ids=["unicyclic6-cap2", "unicyclic6-cap3", "c3pathpend-budget"],
)
def test_scan_matches_the_reference_scan(graphs, cap_max, fiber_budget):
    got, want = _scans(graphs, cap_max=cap_max, fiber_budget=fiber_budget)
    assert got == want and got[0]
    assert bool(got[1]["budget_skips"]) == (fiber_budget == 10)


def test_scan_replays_a_violation_with_its_own_witness(monkeypatch):
    # a check that fails on every even |W| (a rule the permutation keeps),
    # with a witness read off the cell's own ordered members
    original = toric.check_fiber_connectivity

    def forced(w, m_max=3, budget=toric.DEFAULT_FIBER_BUDGET):
        report = original(w, m_max, budget)
        ws = w.ordered
        if len(ws) % 2:
            return report
        failure = (2, tuple(2 * a for a in ws[-1]), (1, 1), (len(ws), len(ws)))
        return toric.ConnectivityReport(False, m_max, report.degrees, 0, failure)

    monkeypatch.setattr(toric, "check_fiber_connectivity", forced)
    graphs = corpus.unicyclic_up_to(6)
    got, want = _scans(graphs, cap_max=2)
    assert got == want
    # some replayed violations name another witness than their earlier image
    failure = {(v["graph"], tuple(v["caps"])): v["failure"] for v in got[1]["violations"]}
    moved = [
        (gi, caps)
        for gi, g in enumerate(graphs)
        for caps, _, sigma in cap_grid(g, 2)
        if (gi, caps) in failure and sigma is not None
        and failure[gi, caps] != failure[gi, tuple(caps[x] for x in sigma)]
    ]
    assert len(moved) > 1


def _translate_shape(w):
    """W minus its componentwise minimum, on the coordinates where W varies."""
    ws = list(w.members)
    low = [min(col) for col in zip(*ws)]
    live = [t for t, a in enumerate(low) if any(v[t] != a for v in ws)]
    return frozenset(tuple(v[t] - low[t] for t in live) for v in ws)


def test_scan_checks_each_shape_once_per_call(monkeypatch):
    # 401 cells of these grids reach the engine, and no two of one graph
    # have the same W
    calls = {}

    def counting(name):
        original = getattr(toric, name)

        def count(*args):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)

        return count

    checks = ("check_strong_exchange", "check_fiber_connectivity")
    for name in checks:
        monkeypatch.setattr(toric, name, counting(name))
    graphs = corpus.unicyclic_up_to(6)
    computed = [
        [gens for _, gens, sigma in cap_grid(g, 2) if sigma is None] for g in graphs
    ]
    assert sum(len({w.members for w in ws}) for ws in computed) == 401
    per_graph = sum(len(set(map(_translate_shape, ws))) for ws in computed)
    one_call = len({_translate_shape(w) for ws in computed for w in ws})
    assert (per_graph, one_call) == (154, 59)
    for g in graphs:
        conjecture_scan([g], cap_max=2)
    assert calls == dict.fromkeys(checks, per_graph)
    calls.clear()
    conjecture_scan(graphs, cap_max=2)
    assert calls == dict.fromkeys(checks, one_call)


def test_scan_reruns_a_failing_shape_with_its_own_witness(monkeypatch):
    # a check that fails on every |W| divisible by 3 (a rule every translate
    # keeps), with a witness read off the cell's own largest member
    original = toric.check_fiber_connectivity
    graphs = corpus.unicyclic_up_to(6)
    computed = {
        (g.sorted_edges, caps) for g in graphs for caps, _, sigma in cap_grid(g, 2)
        if sigma is None
    }
    shapes = []  # of the fiber checks of computed cells, not replayed ones

    def forced(w, m_max=3, budget=toric.DEFAULT_FIBER_BUDGET):
        if (w.graph.sorted_edges, w.caps) in computed:
            shapes.append(_translate_shape(w))
        report = original(w, m_max, budget)
        ws = w.ordered
        if len(ws) % 3:
            return report
        failure = (2, tuple(2 * a for a in ws[0]), (1, 1), (1, 1))
        return toric.ConnectivityReport(False, m_max, report.degrees, 0, failure)

    monkeypatch.setattr(toric, "check_fiber_connectivity", forced)
    report = conjecture_scan(graphs, cap_max=2)
    reruns = len(shapes) - len(set(shapes))
    assert reruns > 0 and report.violations
    got, want = _scans(graphs, cap_max=2)
    assert got == want


def test_scan_checks_fibers_once_per_shape_and_once_per_reused_failure(monkeypatch):
    # a check that fails on every |W| divisible by 3: the first cell of a
    # shape is checked, and so is every later failing cell, replays included
    original = toric.check_fiber_connectivity
    checked = []

    def forced(w, m_max=3, budget=toric.DEFAULT_FIBER_BUDGET):
        checked.append(w)
        report = original(w, m_max, budget)
        if len(w.members) % 3:
            return report
        failure = (2, tuple(2 * a for a in w.ordered[0]), (1, 1), (1, 1))
        return toric.ConnectivityReport(False, m_max, report.degrees, 0, failure)

    monkeypatch.setattr(toric, "check_fiber_connectivity", forced)
    graphs = corpus.unicyclic_up_to(6)
    conjecture_scan(graphs, cap_max=2)
    shapes = set()
    later_failures = 0
    for g in graphs:
        size = {}
        for caps, gens, sigma in cap_grid(g, 2):
            if sigma is None:
                size[caps] = len(gens.members)
                shape = _translate_shape(gens)
                later = shape in shapes
                shapes.add(shape)
            else:
                size[caps] = size[tuple(caps[x] for x in sigma)]
                later = True
            later_failures += later and size[caps] % 3 == 0
    assert len(shapes) == 59
    assert len(checked) == 236 == len(shapes) + later_failures


def test_scan_report_json():
    report = conjecture_scan(corpus.all_unicyclic(4), cap_max=2, m_max=2)
    data = report.to_json()
    assert data["clean"] is True and data["instances"] == report.instances
