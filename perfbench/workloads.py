"""Workload inputs, timed operations and output checks for the edgepow benchmark.

A workload is a list of units.  A unit is one call into the public API of
edgepow, made through a module attribute so that the traced run can wrap
the layers it reaches.  A unit yields one or more ops, the latencies a
user waits for, and its output is checked against ``expected.json`` after
the timed region.  ``record.py`` writes that file from the code at the
commit that defined the benchmark.

This module imports no part of edgepow at import time: ``probe.py`` times
that import itself.
"""
from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from time import perf_counter

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# Scan workloads: (max_n, m_max) with caps <= 2.  ``scan6`` sweeps every
# unicyclic graph on up to 6 vertices with fibers through degree 3, the
# degree of the criterion-11 scan; the n = 7 graphs are left out because a
# pass over them takes 2.5-4 s, too long to repeat often within one run.
# ``scan5`` is the smoke-test size.
SCANS = {"scan6": (6, 3), "scan5": (5, 3)}
SCAN_CAP_MAX = 2

# Cap grid {1, 2}^n: the largest grid, c3path2each, has 512 cap vectors.
# Every graph is searched at workers=1; graphs on at least GRID_POOL_MIN_N
# vertices (grids of 256 or more vectors, 8 of the 28) again at workers=2.
# Pool start-up costs 13-40 ms a search, so running it on every graph would
# more than double the pass.
GRID_CAP_MAX = 2
GRID_WORKERS = (1, 2)
GRID_POOL_MIN_N = 8

DENSE_FAMILIES = ("4,4", "3,3,3", "2,2,2,2", "4,3,2", "3,3,2")
# Each family's pool holds POOL_PER_FAMILY cap vectors with caps uniform in
# 1..POOL_CAP_MAX, drawn once from POOL_SEED, sorted by engine nodes.  A draw
# above POOL_NODE_CEILING nodes is redrawn, so that every query stays short
# (about 15 ms at most) and repeats often within one run.  The run seed
# picks one entry from each consecutive pair of a pool, so the inputs vary
# with the seed while the cost profile hardly does.
POOL_SEED = 20250
POOL_PER_FAMILY = 16
POOL_NODE_CEILING = 6_000
POOL_CAP_MAX = 3

WORKLOADS = ("scan6", "dense_gens", "grid_search", "scan5")


def digest(obj) -> str:
    """Short stable fingerprint of a JSON-serialisable value."""
    return hashlib.sha1(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:12]


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def dense_draws(pool: dict, seed: int) -> list:
    """The seeded dense_gens queries: one entry from each pair of each pool."""
    rng = random.Random(seed)
    return [
        entries[k + rng.randrange(2)]
        for entries in (pool[fam] for fam in DENSE_FAMILIES)
        for k in range(0, len(entries), 2)
    ]


class ScanUnit:
    """``conjecture_scan`` on one graph of the corpus; one op per instance,
    timed between successive ``on_instance`` callbacks.  The scan keeps its
    engine and its seen normal forms per graph, so scanning graph by graph
    sweeps the same instances as one call over the whole corpus."""

    def __init__(self, graph, m_max: int, expected: dict):
        self.graph = graph
        self.m_max = m_max
        self.expected = expected
        self.ops = expected["instances"]
        self.same_graph = [list(e) for e in graph.sorted_edges] == expected["edges"]

    def run(self):
        from edgepow import toric

        marks = []
        seen = []

        def on_instance(gi, norm, report):
            marks.append(perf_counter())
            seen.append((norm, report))

        start = perf_counter()
        report = toric.conjecture_scan(
            [self.graph], SCAN_CAP_MAX, self.m_max, on_instance=on_instance
        )
        latencies = [b - a for a, b in zip([start] + marks, marks)]
        return (report, seen), latencies

    def failures(self, out) -> int:
        report, seen = out
        exp = self.expected
        summary = (
            report.instances,
            report.strong_pass,
            report.strong_fail,
            len(report.budget_skips),
            len(report.violations),
        )
        wanted = (exp["instances"], exp["strong_pass"], exp["strong_fail"], 0, 0)
        if not self.same_graph or summary != wanted:
            return self.ops
        got = [digest([list(norm), rep.to_json()]) for norm, rep in seen]
        bad = sum(a != b for a, b in zip(got, exp["digests"]))
        bad += abs(len(got) - len(exp["digests"]))
        return min(bad, self.ops)


class DenseUnit:
    """What ``edgepow check --strong`` does: a fresh engine's generators for
    one cap vector, then the strong exchange check."""

    ops = 1

    def __init__(self, graph, expected: dict):
        self.graph = graph
        self.caps = tuple(expected["caps"])
        self.expected = expected

    def run(self):
        from edgepow import exchange, powers

        start = perf_counter()
        gens = powers.PowerEngine(self.graph).generators(self.caps)
        report = exchange.check_strong_exchange(gens)
        return (gens, report), [perf_counter() - start]

    def failures(self, out) -> int:
        from edgepow import exchange

        gens, report = out
        exp = self.expected
        got = (gens.delta, len(gens), report.ok, digest(sorted(gens.members)))
        if got != (exp["delta"], exp["size"], exp["strong"], exp["digest"]):
            return 1
        # Independent second check: W is a Veronese-type slice exactly when
        # the strong exchange property holds.
        return int((exchange.detect_veronese(gens) is not None) != report.ok)


class GridUnit:
    """``search_sep_counterexample`` over the cap grid {1..GRID_CAP_MAX}^n of
    one graph at a fixed worker count."""

    ops = 1

    def __init__(self, graph, workers: int, expected: dict):
        self.graph = graph
        self.workers = workers
        self.expected = expected

    def run(self):
        from edgepow import exchange

        start = perf_counter()
        found = exchange.search_sep_counterexample(
            self.graph, GRID_CAP_MAX, workers=self.workers
        )
        return found, [perf_counter() - start]

    def failures(self, out) -> int:
        got = None if out is None else [list(out[0]), out[1].to_json()]
        want = self.expected["hit"]
        return int(got != want)


def build(workload: str, seed: int, expected: dict) -> list:
    """The units of one pass of ``workload``; builds graphs with edgepow."""
    from edgepow import corpus, graph

    if workload in SCANS:
        max_n, m_max = SCANS[workload]
        rows = expected["scan"][workload]
        graphs = corpus.unicyclic_up_to(max_n)
        if len(graphs) != len(rows):
            raise RuntimeError(
                f"corpus has {len(graphs)} graphs, expected {len(rows)}"
            )
        return [ScanUnit(g, m_max, row) for g, row in zip(graphs, rows)]
    if workload == "dense_gens":
        queries = dense_draws(expected["dense"], seed)
        graphs = {}
        units = []
        for q in queries:
            if q["spec"] not in graphs:
                graphs[q["spec"]] = graph.from_spec(q["spec"])
            units.append(DenseUnit(graphs[q["spec"]], q))
        return units
    if workload == "grid_search":
        units = []
        for row in expected["grid"]:
            g = graph.from_spec(row["spec"])
            units.extend(
                GridUnit(g, w, row)
                for w in GRID_WORKERS
                if w == 1 or g.n >= GRID_POOL_MIN_N
            )
        return units
    raise ValueError(f"unknown workload {workload!r}")
