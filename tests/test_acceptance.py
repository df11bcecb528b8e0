"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All quantities are exact integer/combinatorial facts; every comparison is
exact equality.  Randomized criteria use fixed seeds so the sweep is
reproducible instance for instance.
"""
import random
import time

from edgepow import (
    check_exchange,
    check_fiber_connectivity,
    check_strong_exchange,
    check_symmetric_exchange,
    classify_cycle,
    classify_path,
    conjecture_scan,
    cross_validate,
    cycle,
    detect_veronese,
    enumerate_generators,
    path,
    search_sep_counterexample,
    sym_exchange_binomials,
    template,
)
from edgepow import corpus
from helpers import (
    brute_force_oracle,
    enumerate_polymatroid_base,
    random_caps,
    random_connected_graph,
    random_coverage_function,
    run_all,
)


def _report(num, ok, label, elapsed):
    mark = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {mark} {label} ({elapsed:.1f}s)")
    assert ok, f"criterion {num}: {label}"


# --- shared random instance pools (criteria 6 and 7 use the same pool)

_INSTANCE_POOL = None


def _instances():
    global _INSTANCE_POOL
    if _INSTANCE_POOL is None:
        rng = random.Random(20240601)
        pool = []
        while len(pool) < 500:
            g = random_connected_graph(rng, n_min=2, n_max=8, extra_max=4)
            caps = random_caps(rng, g.n, cap_max=3)
            pool.append((g, enumerate_generators(g, caps)))
        _INSTANCE_POOL = pool
    return _INSTANCE_POOL


def test_criterion_01_fixture_suite():
    t0 = time.time()
    results = run_all()
    bad = [r.fixture.name for r in results if not r.ok]
    by_name = {r.fixture.name: r.fixture for r in results}
    spot = (
        by_name["c7pend"].delta == 5
        and by_name["c4twopath"].delta == 8
        and by_name["c3fork"].delta == 2
        and by_name["cyc8"].delta == 4  # ceil(8/2)
        and by_name["cyc9"].delta == 5  # ceil(9/2)
        and by_name["path7"].delta == 3  # floor(7/2)
        and by_name["path8"].delta == 4  # floor(8/2)
    )
    n_fail_kind = sum(1 for r in results if r.fixture.strong == "fail")
    elapsed = time.time() - t0
    ok = not bad and n_fail_kind >= 20 and spot and elapsed < 30
    _report(
        1,
        ok,
        f"fixture suite: {len(results)} fixtures ({n_fail_kind} failing instances), "
        f"failures={bad}",
        elapsed,
    )


def test_criterion_02_cycle_theorem():
    t0 = time.time()
    mismatches = []
    for n in range(3, 10):
        found = search_sep_counterexample(cycle(n), 3)
        expected_sep = classify_cycle(n).sep
        if (found is None) != expected_sep:
            mismatches.append(n)
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 300
    _report(2, ok, f"cycle theorem n=3..9 @ cap_max=3, mismatches={mismatches}", elapsed)


def test_criterion_03_path_theorem():
    t0 = time.time()
    mismatches = []
    for n in range(2, 9):
        found = search_sep_counterexample(path(n), 2)
        expected_sep = classify_path(n).sep
        if (found is None) != expected_sep:
            mismatches.append(n)
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 120
    _report(3, ok, f"path theorem n=2..8 @ cap_max=2, mismatches={mismatches}", elapsed)


def test_criterion_04_tree_classification():
    t0 = time.time()
    graphs = corpus.trees_up_to(8)
    bad = []
    for g in graphs:
        cv = cross_validate(g, 2)
        if not cv.consistent:
            bad.append(g)
    elapsed = time.time() - t0
    ok = not bad and elapsed < 600
    _report(4, ok, f"tree classification: {len(graphs)} trees, inconsistent={len(bad)}", elapsed)


def test_criterion_05_unicyclic_classification():
    t0 = time.time()
    graphs = corpus.unicyclic_up_to(8)
    bad = []
    for g in graphs:
        cv = cross_validate(g, 2)
        if not cv.consistent:
            bad.append(g)
    elapsed = time.time() - t0
    ok = not bad and elapsed < 900
    _report(
        5, ok, f"unicyclic classification: {len(graphs)} graphs, inconsistent={len(bad)}", elapsed
    )


def test_criterion_06_hhv_equivalence():
    t0 = time.time()
    discrepancies = 0
    for g, w in _instances():
        present = detect_veronese(w) is not None
        strong = check_strong_exchange(w).ok
        if present != strong:
            discrepancies += 1
    elapsed = time.time() - t0
    ok = discrepancies == 0 and len(_instances()) >= 500
    _report(
        6,
        ok,
        f"Veronese <=> strong exchange on {len(_instances())} instances, "
        f"discrepancies={discrepancies}",
        elapsed,
    )


def test_criterion_07_polymatroidality():
    t0 = time.time()
    failures = 0
    for g, w in _instances():
        if not (check_exchange(w).ok and check_symmetric_exchange(w).ok):
            failures += 1
    elapsed = time.time() - t0
    ok = failures == 0
    _report(
        7,
        ok,
        f"exchange + symmetric exchange on {len(_instances())} instances, "
        f"failures={failures}",
        elapsed,
    )


def test_criterion_08_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(20240608)
    mismatches = 0
    count = 0
    while count < 200:
        g = random_connected_graph(rng, n_min=2, n_max=7, extra_max=3)
        caps = random_caps(rng, g.n, cap_max=3)
        if sum(caps) > 24:
            continue
        count += 1
        d_oracle, w_oracle = brute_force_oracle(g, caps)
        w = enumerate_generators(g, caps)
        if w.delta != d_oracle or w.members != w_oracle.members:
            mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and count >= 200
    _report(8, ok, f"oracle equivalence on {count} instances, mismatches={mismatches}", elapsed)


def test_criterion_09_three_variable_polymatroids():
    t0 = time.time()
    rng = random.Random(20240609)
    failures = 0
    count = 0
    while count < 200:
        fn = random_coverage_function(rng, 3, universe_size=5, max_weight=3)
        bases = enumerate_polymatroid_base(fn)
        if not bases:
            continue
        count += 1
        if not check_strong_exchange(bases).ok:
            failures += 1
    elapsed = time.time() - t0
    ok = failures == 0 and count >= 200
    _report(9, ok, f"3-variable polymatroid bases, {count} instances, failures={failures}", elapsed)


def test_criterion_10_final_example():
    t0 = time.time()
    w = enumerate_generators(template("c3pathpend"), (1, 1, 1, 2, 1, 1, 1))
    expected = frozenset(
        {
            (1, 1, 1, 2, 1, 0, 0),
            (1, 1, 1, 1, 1, 1, 0),
            (1, 1, 1, 1, 1, 0, 1),
            (1, 1, 1, 0, 1, 1, 1),
            (1, 1, 0, 2, 1, 0, 1),
            (1, 1, 0, 1, 1, 1, 1),
        }
    )
    members_ok = w.members == expected
    got = {(b.i, b.j, b.i0, b.j0) for b in sym_exchange_binomials(w)}
    binomials_ok = got == {(1, 4, 2, 3), (1, 6, 2, 5), (3, 6, 4, 5)}
    fibers_ok = check_fiber_connectivity(w, 3).ok
    elapsed = time.time() - t0
    ok = members_ok and binomials_ok and fibers_ok
    _report(
        10,
        ok,
        f"final example: members={members_ok}, binomials={binomials_ok}, fibers={fibers_ok}",
        elapsed,
    )


def test_criterion_11_conjecture_scan():
    t0 = time.time()
    graphs = corpus.unicyclic_up_to(7)
    report = conjecture_scan(graphs, cap_max=2, m_max=3)
    elapsed = time.time() - t0
    counts = (report.instances, report.strong_pass, report.strong_fail)
    ok = (
        report.clean
        and not report.budget_skips
        and counts == (3034, 2353, 681)
        and elapsed < 1800
    )
    _report(
        11,
        ok,
        f"conjecture scan: {report.instances} instances over {len(graphs)} graphs "
        f"(strong pass/fail {report.strong_pass}/{report.strong_fail}), "
        f"violations={len(report.violations)}, budget skips={len(report.budget_skips)}",
        elapsed,
    )
