import json
import random
from pathlib import Path

import pytest

from edgepow import (
    BudgetError,
    PowerEngine,
    check_strong_exchange,
    cycle,
    delta,
    edge_decompose,
    enumerate_generators,
    format_monomial,
    from_spec,
    graph_from_edges,
    member,
    normalize_caps,
    parse_caps,
    path,
    star,
    template,
)
from edgepow.powers import MAX_CAP
from helpers import (
    ORACLE_CAP_SUM,
    brute_force_oracle,
    random_caps,
    random_connected_graph,
    reference_decompose,
    reference_generators,
    validate_generator_set,
)

K2 = graph_from_edges(2, [(1, 2)])


# --- cap normalization

def test_normalize_star_center_clamps():
    g = star(3)
    assert normalize_caps(g, (1, 1, 1, 9)) == (1, 1, 1, 3)
    # reduction must not change the generator set
    _, w_raw = brute_force_oracle(g, (1, 1, 1, 9))
    _, w_norm = brute_force_oracle(g, (1, 1, 1, 3))
    assert w_raw.members == w_norm.members


def test_normalize_untouched_and_leaf():
    assert normalize_caps(cycle(4), (1, 1, 1, 1)) == (1, 1, 1, 1)
    assert normalize_caps(K2, (5, 2)) == (2, 2)


def test_normalize_idempotent_and_w_invariant():
    rng = random.Random(21)
    for _ in range(30):
        g = random_connected_graph(rng, n_max=6)
        caps = tuple(rng.randint(1, 6) for _ in range(g.n))
        norm = normalize_caps(g, caps)
        assert normalize_caps(g, norm) == norm
        assert enumerate_generators(g, caps).members == enumerate_generators(g, norm).members


def test_normal_form_is_a_smaller_grid_vector():
    # the lemma behind ``exchange.cap_grid``: with no isolated vertex the
    # normal form stays positive and never exceeds the caps it came from
    rng = random.Random(12)
    for _ in range(200):
        g = random_connected_graph(rng)
        caps = random_caps(rng, g.n, cap_max=5)
        norm = normalize_caps(g, caps)
        assert all(1 <= a <= b for a, b in zip(norm, caps)), (g, caps, norm)


def test_caps_validation():
    with pytest.raises(ValueError, match="length"):
        delta(K2, (1, 1, 1))
    with pytest.raises(ValueError, match="out of range"):
        delta(K2, (0, 1))
    with pytest.raises(ValueError, match="not an integer"):
        delta(K2, (1.5, 1))
    assert parse_caps("2,1,2") == (2, 1, 2)
    with pytest.raises(ValueError):
        parse_caps("2,x")


# --- delta

def test_delta_cycle8_pattern():
    caps = tuple(2 if i in (1, 3, 7) else 1 for i in range(1, 9))
    assert delta(cycle(8), caps) == 4


def test_delta_path7_pattern():
    caps = tuple(2 if i in (3, 7) else 1 for i in range(1, 8))
    assert delta(path(7), caps) == 3


def test_delta_triangle_fork():
    assert delta(template("c3fork"), (1,) * 6) == 2


@pytest.mark.parametrize("n", range(8, 13))
def test_delta_cycle_cap_pattern_formula(n):
    # caps 2 at vertices 1, 3, 7 give top degree ceil(n/2)
    caps = tuple(2 if i in (1, 3, 7) else 1 for i in range(1, n + 1))
    assert delta(cycle(n), caps) == (n + 1) // 2


@pytest.mark.parametrize("n", range(7, 13))
def test_delta_path_cap_pattern_formula(n):
    # caps 2 at vertices 3 and 7 give top degree floor(n/2)
    caps = tuple(2 if i in (3, 7) else 1 for i in range(1, n + 1))
    assert delta(path(n), caps) == n // 2


@pytest.mark.parametrize("caps", [(1, 1), (3, 2), (5, 5), (7, 2)])
def test_delta_single_edge_closed_form(caps):
    assert delta(K2, caps) == min(caps)


def test_delta_monotone_in_caps():
    rng = random.Random(5)
    for _ in range(30):
        g = random_connected_graph(rng, n_max=7)
        lo = random_caps(rng, g.n, cap_max=2)
        hi = tuple(c + rng.randint(0, 2) for c in lo)
        assert delta(g, lo) <= delta(g, hi)


# --- enumeration

def test_enumerate_triangle_fork_members():
    w = enumerate_generators(template("c3fork"), (1,) * 6)
    assert (1, 0, 1, 1, 1, 0) in w
    assert (0, 1, 1, 1, 0, 1) in w
    assert (0, 0, 1, 1, 1, 1) not in w


def test_enumerate_single_edge():
    w = enumerate_generators(K2, (2, 3))
    assert w.delta == 2
    assert w.members == frozenset({(2, 2)})


def test_enumerate_c4_all_ones():
    d, w = brute_force_oracle(cycle(4), (1, 1, 1, 1))
    assert d == 2
    assert w.members == frozenset({(1, 1, 1, 1)})
    assert enumerate_generators(cycle(4), (1, 1, 1, 1)).members == w.members


def test_member_checks():
    w = enumerate_generators(template("c3pathpend"), (1, 1, 1, 2, 1, 1, 1))
    assert member(w, (1, 1, 1, 2, 1, 0, 0))
    assert not member(w, (2, 1, 1, 1, 1, 0, 0))  # violates cap on x1
    assert not member(w, (0,) * 7)
    with pytest.raises(ValueError, match="length"):
        member(w, (1, 1))


def test_members_degree_and_caps_invariant():
    rng = random.Random(13)
    for _ in range(25):
        g = random_connected_graph(rng, n_max=7)
        caps = random_caps(rng, g.n)
        w = enumerate_generators(g, caps)
        assert len(w) >= 1 and w.delta >= 1
        assert w.delta <= sum(caps) // 2
        for vec in w.members:
            assert sum(vec) == 2 * w.delta
            assert all(e <= c for e, c in zip(vec, caps))
        validate_generator_set(w)


def test_ordered_is_descending_lex():
    w = enumerate_generators(template("c3pathpend"), (1, 1, 1, 2, 1, 1, 1))
    assert list(w.ordered) == sorted(w.members, reverse=True)


# --- decomposition

def test_decompose_single_edge():
    ems = edge_decompose(K2, (1, 1))
    assert ems.counts == (((1, 2), 1),)
    assert ems.size == 1 and ems.product(2) == (1, 1)


def test_decompose_absent():
    assert edge_decompose(template("c3fork"), (0, 0, 1, 1, 1, 1)) is None


def test_decompose_present_and_deterministic():
    g = template("c3pathpend")
    vec = (1, 0, 1, 0, 1, 1, 0)  # (x1x3)(x5x6)
    ems = edge_decompose(g, vec)
    assert ems is not None and ems.product(7) == vec
    assert ems == edge_decompose(g, vec)


def test_decompose_odd_degree_rejected():
    with pytest.raises(ValueError, match="odd"):
        edge_decompose(K2, (1, 0))


def test_decompose_refuses_entries_out_of_range():
    # a 10^9 exponent used to mean a 10^9-step multiplicity loop
    with pytest.raises(ValueError, match=r"^vec\[0\] = 1000000000 out of range 0\.\.32768$"):
        edge_decompose(path(3), (10 ** 9, 10 ** 9, 2))
    with pytest.raises(ValueError, match=r"^vec\[1\] = -1 out of range 0\.\.32768$"):
        edge_decompose(path(3), (1, -1, 2))
    with pytest.raises(ValueError, match="not an integer"):
        edge_decompose(K2, (1.0, 1))
    with pytest.raises(ValueError, match=r"^vec\[0\] = True is not an integer$"):
        edge_decompose(path(2), (True, True))
    assert edge_decompose(K2, (MAX_CAP, MAX_CAP)).counts == (((1, 2), MAX_CAP),)


def test_decompose_agrees_with_membership():
    rng = random.Random(17)
    g = random_connected_graph(rng, n_max=6)
    caps = random_caps(rng, g.n, cap_max=2)
    w = enumerate_generators(g, caps)
    for vec in w.members:
        ems = edge_decompose(g, vec)
        assert ems is not None and ems.size == w.delta


def test_membership_equals_capped_decomposability():
    # member(W, v) holds exactly when v has degree 2*delta, respects the
    # caps, and factors into edges
    from itertools import product as iproduct

    rng = random.Random(19)
    for _ in range(5):
        g = random_connected_graph(rng, n_min=3, n_max=4, extra_max=1)
        caps = random_caps(rng, g.n, cap_max=2)
        w = enumerate_generators(g, caps)
        for vec in iproduct(*(range(c + 1) for c in caps)):
            expected = (
                sum(vec) == 2 * w.delta
                and edge_decompose(g, vec) is not None
            )
            assert member(w, vec) == expected


def test_decompose_matches_brute_force_reference():
    # Members of W and random even-degree vectors, most of which are not
    # products of edges.
    rng = random.Random(23)
    pairs = nones = 0
    while pairs < 320:
        g = random_connected_graph(rng, n_max=6, extra_max=2)
        vecs = sorted(enumerate_generators(g, random_caps(rng, g.n, 2)).members)[:2]
        for _ in range(2):
            vec = [rng.randint(0, 2) for _ in range(g.n)]
            vec[0] += sum(vec) % 2
            vecs.append(tuple(vec))
        for vec in vecs:
            got = edge_decompose(g, vec)
            assert got == reference_decompose(g, vec), (g.sorted_edges, vec)
            pairs += 1
            nones += got is None
    assert nones >= 50


# --- oracle agreement

def test_oracle_bound():
    with pytest.raises(ValueError, match="sum"):
        brute_force_oracle(K2, (20, 20))


def test_oracle_matches_engine_random():
    rng = random.Random(99)
    cases = []
    for _ in range(40):
        g = random_connected_graph(rng, n_min=2, n_max=6)
        cases.append((g, random_caps(rng, g.n)))
    # dense graphs, where many edge multisets share one product
    for spec in ("multipartite:2,2,2", "multipartite:3,3"):
        g = from_spec(spec)
        drawn = 0
        while drawn < 4:
            caps = random_caps(rng, g.n)
            if sum(caps) <= 14:
                cases.append((g, caps))
                drawn += 1
    for g, caps in cases:
        d_oracle, w_oracle = brute_force_oracle(g, caps)
        w = enumerate_generators(g, caps)
        assert w.delta == d_oracle
        assert w.members == w_oracle.members


def test_generators_match_multiset_walk_on_dense_graphs():
    # the benchmark's dense pool plus seeded complete multipartite
    # instances, some past the brute-force oracle's cap-sum limit
    pool = json.loads((Path(__file__).parents[1] / "perfbench" / "expected.json").read_text())
    cases = [(e["spec"], tuple(e["caps"])) for fam in pool["dense"].values() for e in fam]
    assert len(cases) == 80
    rng = random.Random(41)
    for spec in ("multipartite:2,2,2", "multipartite:3,3", "multipartite:4,4"):
        n = from_spec(spec).n
        cases += [(spec, random_caps(rng, n, cap_max=6)) for _ in range(4)]
    assert sum(sum(caps) > ORACLE_CAP_SUM for _, caps in cases) == 3
    for spec, caps in cases:
        g = from_spec(spec)
        w, ref = enumerate_generators(g, caps), reference_generators(g, caps)
        assert (w.delta, w.members) == (ref.delta, ref.members), (spec, caps)


def test_degenerate_regime_implies_strong_pass():
    rng = random.Random(31)
    hits = 0
    for _ in range(200):
        g = random_connected_graph(rng, n_max=6)
        caps = random_caps(rng, g.n, cap_max=2)
        w = enumerate_generators(g, caps)
        if 2 * w.delta >= sum(caps) - 1:
            hits += 1
            assert check_strong_exchange(w).ok
    assert hits > 10  # regime actually exercised


# --- budgets

def test_node_budget_enforced():
    g = cycle(9)
    engine = PowerEngine(g, node_budget=10)
    with pytest.raises(BudgetError, match="budget"):
        engine.generators((2,) * 9)


def test_budget_message_names_enumeration_progress():
    engine = PowerEngine(cycle(9), node_budget=60)
    with pytest.raises(BudgetError) as exc:
        engine.generators((2,) * 9)
    assert str(exc.value) == "node budget 60 exhausted (enumeration, 8 states so far)"
    assert engine.nodes == 61
    engine = PowerEngine(from_spec("multipartite:3,3,3"), node_budget=2000)
    with pytest.raises(BudgetError) as exc:
        engine.generators((3, 1, 3, 2, 2, 3, 3, 3, 3))
    assert str(exc.value) == (
        "node budget 2000 exhausted (enumeration, 272 states so far)"
    )
    assert engine.nodes == 2001
    # exhaustion while finding delta names no enumeration progress
    engine = PowerEngine(from_spec("multipartite:3,3,3"), node_budget=700)
    with pytest.raises(BudgetError) as exc:
        engine.generators((3, 1, 3, 2, 2, 3, 3, 3, 3))
    assert str(exc.value) == "node budget 700 exhausted"
    assert engine.nodes == 701


@pytest.mark.parametrize(
    "spec, caps, nodes, memo",
    [
        ("cycle:9", (2,) * 9, 74, 65),
        ("template:c3pathpend", (1, 1, 1, 2, 1, 1, 1), 31, 19),
        ("multipartite:3,3,3", (3, 1, 3, 2, 2, 3, 3, 3, 3), 19004, 13371),
    ],
)
def test_generators_node_and_memo_counts(spec, caps, nodes, memo):
    # Enumeration visits and memoizes exactly these states; a change in
    # either count means the search itself changed.
    engine = PowerEngine(from_spec(spec))
    engine.generators(caps)
    assert (engine.nodes, len(engine._memo)) == (nodes, memo)


def test_engine_memo_shared_across_caps():
    engine = PowerEngine(cycle(6))
    a = engine.delta((1,) * 6)
    nodes_first = engine.nodes
    b = engine.delta((1,) * 6)
    assert (a, b) == (3, 3)
    assert engine.nodes == nodes_first  # fully memoized second time
    w = engine.generators((2, 1, 2, 1, 2, 1))
    nodes_first = engine.nodes
    assert engine.generators((2, 1, 2, 1, 2, 1)).members == w.members
    assert engine.nodes == nodes_first


def test_format_monomial():
    assert format_monomial((1, 0, 2)) == "x1*x3^2"
    assert format_monomial((0, 0)) == "1"
