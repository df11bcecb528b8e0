import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import edgepow
from edgepow import (
    GeneratorSet,
    GraphError,
    check_exchange,
    check_fiber_connectivity,
    check_strong_exchange,
    check_symmetric_exchange,
    classify_cycle,
    classify_path,
    complete_multipartite,
    conjecture_scan,
    cross_validate,
    cycle,
    detect_veronese,
    enumerate_generators,
    fibers,
    forked_path,
    from_spec,
    Graph,
    graph_from_edges,
    member,
    parse_graph_json,
    path,
    PowerEngine,
    search_sep_counterexample,
    star,
    star_whisker,
    sym_exchange_binomials,
    template,
)
from edgepow import exchange, fixtures, graph, powers, toric
from edgepow.corpus import all_trees, all_unicyclic, trees_up_to, unicyclic_up_to
from edgepow.exchange import ExchangeWitness, cap_grid
from helpers import (
    SubmodularFunction,
    coverage_function,
    enumerate_polymatroid_base,
    full_cap_grid,
    random_caps,
    random_connected_graph,
    random_coverage_function,
    random_member_set,
    reference_cap_grid,
    reference_check_exchange,
    reference_check_strong_exchange,
    reference_check_symmetric_exchange,
    reference_detect_veronese,
    reference_sym_exchange_binomials,
    shuffled,
)

K2 = graph_from_edges(2, [(1, 2)])
ADVERSARIAL = {(2, 0), (0, 2)}  # equal degrees, missing the middle monomial


def test_adversarial_set_fails_all_three():
    rep = check_exchange(ADVERSARIAL)
    assert not rep.ok
    # first witness in sorted order: u=(0,2), v=(2,0), xi=2, no usable rho
    assert rep.witness.u == (0, 2) and rep.witness.xi == 2
    assert rep.witness.rho is None and rep.witness.missing is None
    assert not check_symmetric_exchange(ADVERSARIAL).ok
    rep = check_strong_exchange(ADVERSARIAL)
    assert not rep.ok and rep.witness.missing == (1, 1)


def test_singleton_passes_everything():
    w = {(2, 2, 0)}
    assert check_exchange(w).ok
    assert check_symmetric_exchange(w).ok
    assert check_strong_exchange(w).ok
    decomp = detect_veronese(w)
    assert decomp is not None and decomp.degree == 0 and decomp.support == ()


def test_shared_move_kernel_matches_reference_loops():
    checks = (
        (check_exchange, reference_check_exchange),
        (check_symmetric_exchange, reference_check_symmetric_exchange),
        (check_strong_exchange, reference_check_strong_exchange),
    )
    rng = random.Random(67)
    fails = {"exchange": 0, "symmetric": 0, "strong": 0}
    mixed = 0
    for k in range(600):
        w = random_member_set(rng)
        if k % 8 == 0:  # add a few degree-5 vectors: a mixed-degree set
            n = len(next(iter(w)))
            w |= random_member_set(
                rng, n_min=n, n_max=n, deg_min=5, deg_max=5, size_max=3
            )
            mixed += 1
        for check, reference in checks:
            got = check(w).to_json()
            assert got == reference(w).to_json()
            fails[got["property"]] += got["verdict"] == "fail"
        assert sym_exchange_binomials(w) == reference_sym_exchange_binomials(w)
    assert mixed >= 50
    assert min(fails.values()) >= 100


def test_empty_set_rejected():
    with pytest.raises(ValueError, match="empty"):
        check_strong_exchange(set())


NOT_INT = "exponent vectors need one or more coordinates, ints but not bools"
MALFORMED = [
    (GeneratorSet(K2, (1, 1), 0, frozenset()), "generator set is empty"),
    (set(), "generator set is empty"),
    ({(1, 0), (1,)}, "generators have mixed lengths"),
    ({()}, NOT_INT),
    ({(1.5, 0.5), (0.5, 1.5)}, NOT_INT),
    ({(True, False), (False, True)}, NOT_INT),
    ({(2, -1), (-1, 2)}, "exponent vectors must be non-negative"),
]
GATED = [
    check_exchange,
    check_symmetric_exchange,
    check_strong_exchange,
    detect_veronese,
    sym_exchange_binomials,
    lambda w: fibers(w, 2),
    check_fiber_connectivity,
    toric._shape,
]


@pytest.mark.parametrize("w, message", MALFORMED)
@pytest.mark.parametrize("check", GATED)
def test_every_check_refuses_a_malformed_set_with_one_message(check, w, message):
    # exchange._member_set is the one gate; each check reads W through it
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check(w)


C5 = cycle(5)
GRAPH_INPUTS = [
    # the one vertex-count rule
    (lambda: graph_from_edges("5", [(1, 2)]), "vertex count must be an integer >= 2, got '5'"),
    (lambda: graph_from_edges(None, [(1, 2)]), "vertex count must be an integer >= 2, got None"),
    (lambda: graph_from_edges(True, [(1, 2)]), "vertex count must be an integer >= 2, got True"),
    (
        lambda: parse_graph_json({"n": True, "edges": [[1, 2]]}),
        "vertex count must be an integer >= 2, got True",
    ),
    (
        lambda: parse_graph_json({"n": "3", "edges": []}),
        "vertex count must be an integer >= 2, got '3'",
    ),
    # part sizes, and the one pair rule on edges and on a matching
    (lambda: graph_from_edges(3, [(1, 2), 7]), "edges[1]: 7 is not a pair"),
    (lambda: complete_multipartite([2.9, 2]), "need >= 2 parts, each of size >= 1, got (2.9, 2)"),
    (
        lambda: complete_multipartite(["2", "2"]),
        "need >= 2 parts, each of size >= 1, got ('2', '2')",
    ),
    (
        lambda: complete_multipartite([True, True]),
        "need >= 2 parts, each of size >= 1, got (True, True)",
    ),
    (
        lambda: complete_multipartite([2, 2], [(1, 3.0)]),
        "matching[0]: non-integer endpoints in (1, 3.0)",
    ),
    (
        lambda: complete_multipartite([2, 2], [(True, 3)]),
        "matching[0]: non-integer endpoints in (True, 3)",
    ),
    (lambda: complete_multipartite([2, 2], [(1, 3, 4)]), "matching[0]: (1, 3, 4) is not a pair"),
    (lambda: complete_multipartite([2, 2], [5]), "matching[0]: 5 is not a pair"),
    (lambda: complete_multipartite([2, 2], [(1, 1)]), "matching[0]: loop at vertex 1"),
    (lambda: complete_multipartite([2, 2], [(1, 9)]), "matching[0]: [1, 9] out of range 1..4"),
    # a pair or part list that is not iterable
    (lambda: Graph(3, None), "edges must be an iterable of pairs, got None"),
    (lambda: graph_from_edges(3, 7), "edges must be an iterable of pairs, got 7"),
    (lambda: complete_multipartite([2, 2], 5), "matching must be an iterable of pairs, got 5"),
    (lambda: complete_multipartite(5), "need >= 2 parts, each of size >= 1, got 5"),
    # the one count rule on each family size
    (lambda: star(True), "star needs >= 1 leaf, got True"),
    (lambda: star_whisker(True, 0), "star_whisker needs >= 1 leaf, got True"),
    (lambda: star_whisker(2, True), "whisker count must be between 0 and 2, got True"),
    (lambda: cycle(3.5), "cycle needs length >= 3, got 3.5"),
    (lambda: path(2.0), "path needs >= 2 vertices, got 2.0"),
    (lambda: path("3"), "path needs >= 2 vertices, got '3'"),
    (lambda: forked_path(2.5), "forked_path needs a path on >= 2 vertices, got 2.5"),
    (lambda: all_trees(2.5), "trees need n >= 2, got 2.5"),
    (lambda: all_unicyclic(3.5), "unicyclic graphs need n >= 3, got 3.5"),
    (lambda: unicyclic_up_to(5.5), "unicyclic graphs need n >= 3, got 5.5"),
    (lambda: unicyclic_up_to("4"), "unicyclic graphs need n >= 3, got '4'"),
    (lambda: unicyclic_up_to(2), "unicyclic graphs need n >= 3, got 2"),
    (lambda: trees_up_to(True), "trees need n >= 2, got True"),
    (lambda: trees_up_to(1), "trees need n >= 2, got 1"),
    (lambda: classify_path("9"), "paths need >= 2 vertices, got '9'"),
    (lambda: classify_cycle(8.5), "cycles need length >= 3, got 8.5"),
]
VALUE_INPUTS = [
    # integer bounds, each inside its one check
    (lambda: search_sep_counterexample(C5, 2.5), "cap_max must be >= 1, got 2.5"),
    (lambda: cross_validate(C5, 1.5), "cap_max must be >= 1, got 1.5"),
    (
        lambda: toric.check_unicyclic_scan(5.5, 2, 3),
        "max_n must be >= 3 (no unicyclic graph is smaller), got 5.5",
    ),
    (lambda: fibers({(1, 1)}, 2.0), "fiber degree must be >= 2, got 2.0"),
    (lambda: search_sep_counterexample(C5, True), "cap_max must be >= 1, got True"),
    (lambda: conjecture_scan([C5], True), "cap_max must be >= 1, got True"),
    (lambda: check_fiber_connectivity({(1, 1)}, 2.5), "m_max must be >= 2, got 2.5"),
    (lambda: conjecture_scan([C5], 2, 3.5), "m_max must be >= 2, got 3.5"),
    (lambda: check_fiber_connectivity({(1, 1)}, "3"), "m_max must be >= 2, got '3'"),
    (lambda: search_sep_counterexample(C5, "2"), "cap_max must be >= 1, got '2'"),
    (lambda: fibers({(1, 1)}, "2"), "fiber degree must be >= 2, got '2'"),
    (
        lambda: toric.check_unicyclic_scan("5", 2, 3),
        "max_n must be >= 3 (no unicyclic graph is smaller), got '5'",
    ),
    # work budgets, refused before any work
    (lambda: PowerEngine(C5, True), "node budget must be an integer, got True"),
    (lambda: PowerEngine(C5, 2.5), "node budget must be an integer, got 2.5"),
    (lambda: enumerate_generators(C5, (1,) * 5, "9"), "node budget must be an integer, got '9'"),
    (lambda: cross_validate(C5, 1, 1e6), "node budget must be an integer, got 1000000.0"),
    (
        lambda: check_fiber_connectivity({(1, 1)}, 3, 2.5),
        "fiber budget must be an integer, got 2.5",
    ),
    (
        lambda: check_fiber_connectivity({(1, 1)}, 3, True),
        "fiber budget must be an integer, got True",
    ),
    (lambda: fibers({(1, 1)}, 2, 3.5), "fiber budget must be an integer, got 3.5"),
    (
        lambda: conjecture_scan([C5], 2, 3, fiber_budget=2.5),
        "fiber budget must be an integer, got 2.5",
    ),
] + [
    # a W that is not a collection of exponent vectors, at the one gate
    (lambda check=check, w=w: check(w), "generator set must be a collection of exponent vectors")
    for check in GATED
    for w in (5, [1, 2], [[[1], [2]]])
]


@pytest.mark.parametrize(
    "build, error, message",
    [(b, GraphError, m) for b, m in GRAPH_INPUTS] + [(b, ValueError, m) for b, m in VALUE_INPUTS],
)
def test_each_outside_input_is_refused_by_its_one_rule(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as exc:
        build()
    assert type(exc.value) is error


def test_strong_fail_cycle8_paper_witness_verifies():
    caps = (2, 1, 2, 1, 1, 1, 2, 1)
    w = enumerate_generators(cycle(8), caps)
    u = (2, 1, 1, 1, 1, 1, 0, 1)
    v = (0, 1, 2, 1, 0, 1, 2, 1)
    assert member(w, u) and member(w, v)
    assert u[4] > v[4] and u[2] < v[2]  # xi=5, rho=3
    moved = (2, 1, 2, 1, 0, 1, 0, 1)
    assert not member(w, moved)
    assert not check_strong_exchange(w).ok
    assert detect_veronese(w) is None


def test_strong_pass_cycle5():
    w = enumerate_generators(cycle(5), (1,) * 5)
    assert check_strong_exchange(w).ok
    assert detect_veronese(w) is not None


def test_strong_fail_c4star_fixture():
    w = enumerate_generators(template("c4star"), (1, 2, 1, 1, 1, 1, 1))
    u = (1, 2, 1, 0, 1, 1, 0)
    v = (1, 1, 1, 1, 1, 0, 1)
    assert member(w, u) and member(w, v)
    moved = (1, 1, 1, 0, 1, 1, 1)  # u - e2 + e7
    assert not member(w, moved)
    assert not check_strong_exchange(w).ok


def test_witness_reverifies_by_membership():
    rng = random.Random(41)
    seen_fail = 0
    for _ in range(60):
        g = random_connected_graph(rng, n_max=7)
        caps = random_caps(rng, g.n, cap_max=2)
        w = enumerate_generators(g, caps)
        rep = check_strong_exchange(w)
        if rep.ok:
            continue
        seen_fail += 1
        wit = rep.witness
        assert member(w, wit.u) and member(w, wit.v)
        assert wit.u[wit.xi - 1] > wit.v[wit.xi - 1]
        assert wit.u[wit.rho - 1] < wit.v[wit.rho - 1]
        assert not member(w, wit.missing)
    assert seen_fail >= 3


def test_hierarchy_on_random_instances():
    rng = random.Random(43)
    for _ in range(40):
        g = random_connected_graph(rng, n_max=7)
        caps = random_caps(rng, g.n, cap_max=2)
        w = enumerate_generators(g, caps)
        strong = check_strong_exchange(w).ok
        symmetric = check_symmetric_exchange(w).ok
        exchange = check_exchange(w).ok
        assert exchange and symmetric  # enumerated sets always satisfy both
        if strong:
            assert symmetric and exchange


def test_report_json_shape():
    rep = check_strong_exchange(ADVERSARIAL)
    data = json.loads(json.dumps(rep.to_json()))
    assert data["property"] == "strong" and data["verdict"] == "fail"
    assert data["witness"]["xi"] == 2 and data["witness"]["rho"] == 1
    assert data["witness"]["missing"] == [1, 1]
    passing = check_strong_exchange({(1, 1)})
    assert passing.to_json() == {"property": "strong", "verdict": "pass"}


# --- Veronese detection

def test_star_is_shifted_veronese():
    # star with center cap d: members are x_center^d times all bounded
    # degree-d monomials on the leaves
    g = star(3)
    caps = (1, 2, 1, 3)
    w = enumerate_generators(g, caps)
    decomp = detect_veronese(w)
    assert decomp is not None
    assert decomp.expand() == w.members
    assert sum(decomp.base) + decomp.degree == 2 * w.delta
    assert check_strong_exchange(w).ok
    # with leaf caps (1,1,1) and center cap 2 the reduced decomposition is
    # exactly center^2 times all degree-2 monomials bounded by the leaf caps
    w = enumerate_generators(g, (1, 1, 1, 2))
    decomp = detect_veronese(w)
    assert decomp.base == (0, 0, 0, 2)
    assert decomp.degree == 2
    assert decomp.support == (1, 2, 3) and decomp.bounds == (1, 1, 1)


def test_veronese_absent_on_failures():
    caps = (2, 1, 2, 1, 1, 1, 2, 1)
    assert detect_veronese(enumerate_generators(cycle(8), caps)) is None


def test_hhv_equivalence_sample():
    rng = random.Random(47)
    for _ in range(80):
        g = random_connected_graph(rng, n_max=7)
        caps = random_caps(rng, g.n, cap_max=2)
        w = enumerate_generators(g, caps)
        assert (detect_veronese(w) is not None) == check_strong_exchange(w).ok


def test_detect_veronese_count_matches_expansion():
    # counting the candidate slice decides what listing it decides
    rng = random.Random(53)
    sets = [w for g in trees_up_to(7) + unicyclic_up_to(6) for _, w in full_cap_grid(g, 2)]
    sets += [enumerate_generators(g, caps) for g, caps in fixtures.failing_instances()]
    sets += [random_member_set(rng) for _ in range(400)]
    # mixed degrees: the slice of (2, 0)'s degree has two points, so a bare
    # count would accept this set
    sets += [{(2, 0), (0, 1)}, {(1, 1, 0), (1, 0, 0), (0, 0, 1)}]
    found = [detect_veronese(w) for w in sets]
    assert found == [reference_detect_veronese(w) for w in sets]
    assert found[-2:] == [None, None]
    assert 0 < sum(d is None for d in found) < len(found)


def test_strong_check_matches_reference_loop_over_grids():
    # check_strong_exchange passes a set of over 3 members that fills its
    # slice without the swap loop; the full loop must still agree, witness
    # included
    sets = [w for g in trees_up_to(8) for _, w in full_cap_grid(g, 2)]
    sets += [w for g in unicyclic_up_to(6) for _, w in full_cap_grid(g, 3)]
    sets += [
        enumerate_generators(fixtures.graph_of(f), f.caps) for f in fixtures.REGISTRY
    ]
    # mixed degree, two points that are not a slice, a single member
    sets += [{(1, 0), (0, 0)}, {(1, 0, 1, 0), (0, 1, 0, 1)}, {(3, 1, 2)}]
    got = [check_strong_exchange(w).to_json() for w in sets]
    assert got == [reference_check_strong_exchange(w).to_json() for w in sets]
    passes = sum(r["verdict"] == "pass" for r in got)
    assert (len(sets), passes) == (8567, 6818)


def test_spread_sets_are_refused_before_counting():
    # a bound b >= |W| means W cannot fill its slice, which takes all b + 1
    # values in that coordinate; the count is never run on such a set
    spread = {(10**9, 0), (0, 10**9)}
    assert detect_veronese(spread) is None
    rep = check_strong_exchange(spread)
    assert rep.witness == ExchangeWitness((0, 10**9), (10**9, 0), 2, 1, (1, 10**9 - 1))
    assert detect_veronese({(2, 0), (1, 1), (0, 2)}).bounds == (2, 2)


# --- counterexample search

def test_search_path7_finds_failure_in_small_grid():
    found = search_sep_counterexample(path(7), 2)
    assert found is not None
    caps, rep = found
    assert not rep.ok and max(caps) <= 2
    # the failure re-verifies from scratch
    assert not check_strong_exchange(enumerate_generators(path(7), caps)).ok


def test_search_path6_clean():
    assert search_sep_counterexample(path(6), 2) is None


def test_search_k2_clean_any_caps():
    assert search_sep_counterexample(K2, 4) is None


def test_search_deterministic_across_workers():
    # ``workers`` is accepted for compatibility and has no effect: every
    # worker count walks the same grid in lex order in one process.
    unicyclic7 = graph_from_edges(
        7, [(1, 2), (1, 5), (2, 3), (3, 4), (3, 6), (5, 6), (5, 7)]
    )
    cases = [
        (path(7), 2, (1, 1, 1, 1, 2, 1, 1)),  # cell 4
        (unicyclic7, 2, (1, 2, 1, 1, 1, 1, 1)),  # cell 32
        (path(6), 2, None),
        (cycle(5), 3, None),
    ]
    for graph, cap_max, first_hit in cases:
        results = []
        for workers in (1, 2, 3):
            found = search_sep_counterexample(graph, cap_max, workers=workers)
            results.append(None if found is None else (found[0], found[1].to_json()))
        assert results[1] == results[0] and results[2] == results[0]
        assert (results[0][0] if results[0] else None) == first_hit


def test_search_runs_in_process_at_any_worker_count(monkeypatch):
    calls = []
    original = PowerEngine.generators

    def counting(self, caps):
        calls.append(caps)
        return original(self, caps)

    monkeypatch.setattr(PowerEngine, "generators", counting)
    results = []
    for workers in (1, 2):
        calls.clear()
        found = search_sep_counterexample(cycle(10), 3, workers=workers)
        results.append((len(calls), found[0], found[1].to_json()))
    # the first hit is the ninth cell of the full walk; three of the eight
    # before it are rotations or reflections of earlier ones
    assert results[0][0] == 6
    assert results[1] == results[0]


def test_import_loads_no_pool_dataclasses_or_fixtures():
    # the package and the CLI module start no process pool, and every query
    # skips the dataclasses import chain (inspect with it) and the fixture
    # registry, which only repro and fixture: specs load
    code = (
        "import sys, edgepow, edgepow.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process', "
        "'dataclasses', 'inspect', 'edgepow.fixtures') if m in sys.modules))"
    )
    src = str(Path(edgepow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


# the package's public names: its submodules and what it re-exports from them
PUBLIC_NAMES = [
    "BudgetError", "ClassificationVerdict", "ConnectivityReport", "CrossValidation",
    "ExchangeReport", "ExchangeWitness", "Fiber", "GeneratorSet", "Graph", "GraphError",
    "PowerEngine", "ScanReport", "SymExchangeBinomial", "VeroneseDecomposition",
    "check_exchange", "check_fiber_connectivity", "check_strong_exchange",
    "check_symmetric_exchange", "classify", "classify_complete_multipartite_minus_matching",
    "classify_cycle", "classify_graph", "classify_path", "classify_tree", "classify_unicyclic",
    "complete_multipartite", "conjecture_scan", "corpus", "cross_validate", "cycle", "delta",
    "detect_veronese", "enumerate_generators", "exchange", "fibers", "forked_path",
    "format_monomial", "from_spec", "graph", "graph_from_edges", "induced_subgraph",
    "load_graph", "member", "normalize_caps", "parse_caps", "parse_graph_json", "path",
    "powers", "search_sep_counterexample", "star", "star_whisker", "structure_probe",
    "sym_exchange_binomials", "template", "template_names", "toric",
]


def fresh_interpreter(code: str):
    """The JSON value that ``code`` prints in a new interpreter on this source."""
    src = str(Path(edgepow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def test_import_loads_toric_classify_and_corpus_on_first_use():
    # queries compile graph, powers and exchange only; every public name still
    # resolves, on first access, to the object its own module holds
    code = f"""
import json, sys, types
import edgepow
listed = [n for n in dir(edgepow) if not n.startswith("_")]
import edgepow.cli
lazy = ("edgepow.classify", "edgepow.corpus", "edgepow.toric")
loaded = [m for m in lazy if m in sys.modules]
wrong = []
for name in {PUBLIC_NAMES!r}:
    value = getattr(edgepow, name)
    if isinstance(value, types.ModuleType):
        same = value is sys.modules["edgepow." + name]
    else:
        same = getattr(sys.modules[value.__module__], name) is value
    if not same or vars(edgepow)[name] is not value:
        wrong.append(name)
try:
    edgepow.no_such_name
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps([loaded, listed, wrong, unknown]))
"""
    loaded, listed, wrong, unknown = fresh_interpreter(code)
    assert loaded == []
    assert listed == PUBLIC_NAMES
    assert wrong == []
    assert unknown == "module 'edgepow' has no attribute 'no_such_name'"
    star = "from edgepow import *; import json; print(json.dumps(sorted(dir())))"
    assert [n for n in fresh_interpreter(star) if not n.startswith("_")] == sorted(
        PUBLIC_NAMES + ["json"]
    )


def test_cap_grid_matches_the_normalising_walk():
    # every normal form's first grid vector is its own fixed point, so the
    # fixed-point test yields what normalising each vector and deduplicating
    # did; the engine computes the cells that carry no automorphism, and
    # every other one names an earlier cell of its orbit
    cases = [
        (g, cap_max)
        for g in trees_up_to(8) + unicyclic_up_to(7)
        for cap_max in (1, 2, 3)
        if cap_max ** g.n <= 20_000
    ]
    cases += [(from_spec(s), 4) for s in ("star:6", "multipartite:2,2,2", "multipartite:3,3")]
    for g, cap_max in cases:
        walked = list(cap_grid(g, cap_max))
        reference = list(reference_cap_grid(g, cap_max))
        assert [c for c, _, _ in walked] == [c for c, _ in reference], (g, cap_max)
        earlier = set()
        for (caps, gens, sigma), (_, ref) in zip(walked, reference):
            if sigma is None:
                assert (gens.caps, gens.delta, gens.members) == (caps, ref.delta, ref.members)
            else:
                assert gens is None and tuple(caps[x] for x in sigma) in earlier
            earlier.add(caps)


def _engines(monkeypatch):
    """Every PowerEngine that runs ``generators``, in order of first use."""
    engines = []
    original = PowerEngine.generators

    def recording(self, caps):
        if self not in engines:
            engines.append(self)
        return original(self, caps)

    monkeypatch.setattr(PowerEngine, "generators", recording)
    return engines


def _full_walk(g, cap_max):
    """The first failure over every cell of the grid walk, as the search
    reports it, or None."""
    for caps, gens in full_cap_grid(g, cap_max):
        report = check_strong_exchange(gens)
        if not report.ok:
            return caps, report.to_json()
    return None


def test_orbit_search_matches_the_full_walk(monkeypatch):
    # the lemma in the exchange docstring: the full walk's first failure is
    # least in its orbit, so skipping every non-least cell keeps it
    cases = [(g, 2) for g in trees_up_to(9) + unicyclic_up_to(8)]
    cases += [(g, 3) for g in trees_up_to(7) + unicyclic_up_to(6)]
    named = ("multipartite:2,2,2", "multipartite:3,3", "star:6", "star_whisker:3,2", "cycle:8")
    cases += [(from_spec(s), 3) for s in named]
    rng = random.Random(22)
    cases += [(shuffled(rng, from_spec(s)), 3) for s in named for _ in range(2)]
    cases += [(shuffled(rng, g), 2) for g in trees_up_to(9)[-6:] + unicyclic_up_to(8)[-6:]]
    engines = _engines(monkeypatch)
    for g, cap_max in cases:
        engines.clear()
        want = _full_walk(g, cap_max)
        found = search_sep_counterexample(g, cap_max)
        got = None if found is None else (found[0], found[1].to_json())
        assert got == want, (g, cap_max)
        full, reduced = engines
        assert reduced.nodes <= full.nodes, (g, cap_max)


def test_orbit_search_under_a_step_bound_of_one(monkeypatch):
    # fewer automorphisms weaken the filter but never change the answer
    monkeypatch.setattr(graph, "_AUTOMORPHISM_STEPS", 1)
    for spec, cap_max in (("cycle:7", 2), ("template:c4twopath", 2), ("cycle:10", 3), ("star:6", 3)):
        g = from_spec(spec)
        found = search_sep_counterexample(g, cap_max)
        got = None if found is None else (found[0], found[1].to_json())
        assert got == _full_walk(g, cap_max), spec


def test_search_finds_no_automorphism_before_an_inversion(monkeypatch):
    # c3fork fails at its first cell, all ones, which ascends in every
    # colour class, so the search needs no automorphisms
    def refuse(*args):
        raise AssertionError("automorphisms computed")

    monkeypatch.setattr(graph, "_automorphisms", refuse)
    caps, report = search_sep_counterexample(template("c3fork"), 2)
    assert caps == (1,) * 6 and not report.ok


def test_grid_search_never_normalises(monkeypatch):
    expected = search_sep_counterexample(path(7), 2)

    def refuse(*args):
        raise AssertionError("normalize_caps called")

    for module in (exchange, powers):
        monkeypatch.setattr(module, "normalize_caps", refuse)
    found = search_sep_counterexample(path(7), 2)
    assert found[0] == expected[0] == (1, 1, 1, 1, 2, 1, 1)
    assert found[1].to_json() == expected[1].to_json()


def test_search_grid_budget():
    from edgepow import BudgetError

    with pytest.raises(BudgetError, match="grid"):
        search_sep_counterexample(cycle(8), 7)


def test_check_grid_writes_a_huge_grid_as_a_power():
    from edgepow import BudgetError
    from edgepow.exchange import check_grid

    # 2 ** 20000 has more digits than int-to-str writes by default
    with pytest.raises(BudgetError) as exc:
        search_sep_counterexample(cycle(20000), 2)
    assert str(exc.value) == "grid of 2**20000 cap vectors exceeds the limit 2000000"
    with pytest.raises(BudgetError, match=r"^grid of 3\*\*1000000000 cap vectors "):
        check_grid(10 ** 9, 3)
    # below 4,000 digits the size is written out
    with pytest.raises(BudgetError) as exc:
        check_grid(13000, 2)
    assert str(exc.value) == f"grid of {2 ** 13000} cap vectors exceeds the limit 2000000"
    with pytest.raises(ValueError, match="^enumeration is limited to 32 vertices, got 10000$"):
        check_grid(10000, 1)
    check_grid(32, 1)
    check_grid(13, 3)


# --- polymatroids

def test_free_matroid_base():
    fn = SubmodularFunction(3, tuple(bin(m).count("1") for m in range(8)))
    assert enumerate_polymatroid_base(fn) == frozenset({(1, 1, 1)})


def test_truncated_doubled_matroid():
    fn = SubmodularFunction(3, tuple(min(2 * bin(m).count("1"), 3) for m in range(8)))
    expected = {
        (2, 1, 0), (2, 0, 1), (1, 2, 0), (0, 2, 1), (1, 0, 2), (0, 1, 2), (1, 1, 1),
    }
    assert enumerate_polymatroid_base(fn) == frozenset(expected)


def test_uniform_matroid_u23():
    fn = SubmodularFunction(3, tuple(min(bin(m).count("1"), 2) for m in range(8)))
    assert enumerate_polymatroid_base(fn) == frozenset({(1, 1, 0), (1, 0, 1), (0, 1, 1)})


def test_submodular_validation():
    with pytest.raises(ValueError, match="empty set"):
        SubmodularFunction(2, (1, 1, 1, 2))
    with pytest.raises(ValueError, match="monotone"):
        SubmodularFunction(2, (0, 1, 1, 0))
    with pytest.raises(ValueError, match="submodular"):
        SubmodularFunction(2, (0, 1, 1, 3))


def test_coverage_functions_are_valid_and_bases_strong():
    rng = random.Random(53)
    for _ in range(60):
        fn = random_coverage_function(rng, 3)
        bases = enumerate_polymatroid_base(fn)
        assert bases  # integer polymatroids always have an integer base
        assert check_strong_exchange(bases).ok


def test_coverage_function_values():
    fn = coverage_function([2, 3], [[0], [1], [0, 1]])
    assert fn.values[0] == 0 and fn.rank == 5
    assert fn.value(0b001) == 2 and fn.value(0b010) == 3 and fn.value(0b100) == 5


# --- leaf-extension preserves failure

def test_leaf_extension_preserves_strong_failure():
    rng = random.Random(59)
    tested = 0
    for _ in range(80):
        g = random_connected_graph(rng, n_min=4, n_max=7, extra_max=0)
        caps = random_caps(rng, g.n, cap_max=2)
        if check_strong_exchange(enumerate_generators(g, caps)).ok:
            continue
        tested += 1
        support = g.n - 1
        big = graph_from_edges(
            g.n + 1, list(g.sorted_edges) + [(support, g.n + 1)]
        )
        lifted = list(caps)
        lifted[support - 1] += 1
        lifted.append(1)
        assert not check_strong_exchange(
            enumerate_generators(big, tuple(lifted))
        ).ok
    assert tested >= 5
