"""Write ``expected.json``: the benchmark's recorded inputs and outputs.

Run from the repository root:

    python3 perfbench/record.py

It computes, with the edgepow in ``src/``:

* ``scan``: per corpus graph of the scan workloads, its edges,
  instance and strong-exchange counts and a digest of every instance's
  connectivity report;
* ``dense``: per multipartite family, a pool of seeded cap vectors sorted
  by engine nodes, each with its delta, |W|, strong verdict and a digest
  of W;
* ``grid``: per searched graph, the first failing cap vector and its
  witness (or null), identical at every worker count.

Rerun it only when a change is meant to alter these outputs.
"""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import (  # noqa: E402
    DENSE_FAMILIES,
    EXPECTED_PATH,
    GRID_CAP_MAX,
    GRID_WORKERS,
    POOL_CAP_MAX,
    POOL_NODE_CEILING,
    POOL_PER_FAMILY,
    POOL_SEED,
    SCAN_CAP_MAX,
    SCANS,
    digest,
)

GRID_EXTRA = ("cycle:7", "cycle:10", "path:6", "path:8", "star_whisker:3,2")


def record_scan(max_n: int, m_max: int) -> list:
    from edgepow import corpus, toric

    rows = []
    for g in corpus.unicyclic_up_to(max_n):
        seen = []
        report = toric.conjecture_scan(
            [g],
            SCAN_CAP_MAX,
            m_max,
            on_instance=lambda gi, norm, rep: seen.append((norm, rep)),
        )
        if report.violations or report.budget_skips:
            raise SystemExit(f"scan of {g!r} is not clean")
        rows.append(
            {
                "edges": [list(e) for e in g.sorted_edges],
                "instances": report.instances,
                "strong_pass": report.strong_pass,
                "strong_fail": report.strong_fail,
                "digests": [digest([list(n), r.to_json()]) for n, r in seen],
            }
        )
    return rows


def dense_entry(spec: str, caps):
    """The recorded outputs of one query, or None above the node ceiling."""
    from edgepow import exchange, graph, powers

    engine = powers.PowerEngine(graph.from_spec(spec), POOL_NODE_CEILING)
    try:
        gens = engine.generators(caps)
    except powers.BudgetError:
        return None
    strong = exchange.check_strong_exchange(gens).ok
    if (exchange.detect_veronese(gens) is not None) != strong:
        raise SystemExit(f"veronese and strong verdicts disagree on {spec} {caps}")
    return {
        "spec": spec,
        "caps": list(caps),
        "nodes": engine.nodes,
        "delta": gens.delta,
        "size": len(gens),
        "strong": strong,
        "digest": digest(sorted(gens.members)),
    }


def record_dense() -> dict:
    from edgepow import graph

    rng = random.Random(POOL_SEED)
    pool = {}
    for fam in DENSE_FAMILIES:
        spec = f"multipartite:{fam}"
        n = graph.from_spec(spec).n
        entries = []
        while len(entries) < POOL_PER_FAMILY:
            caps = tuple(rng.randint(1, POOL_CAP_MAX) for _ in range(n))
            entry = dense_entry(spec, caps)
            if entry is not None:
                entries.append(entry)
        pool[fam] = sorted(entries, key=lambda e: (e["nodes"], e["caps"]))
    return pool


def record_grid() -> list:
    from edgepow import exchange, graph

    specs = [f"template:{t}" for t in graph.template_names()] + list(GRID_EXTRA)
    rows = []
    for spec in specs:
        g = graph.from_spec(spec)
        hits = []
        for w in GRID_WORKERS:
            found = exchange.search_sep_counterexample(g, GRID_CAP_MAX, workers=w)
            hits.append(None if found is None else [list(found[0]), found[1].to_json()])
        if any(h != hits[0] for h in hits):
            raise SystemExit(f"search on {spec} depends on the worker count")
        rows.append({"spec": spec, "hit": hits[0]})
    return rows


def main() -> int:
    scan = {name: record_scan(*params) for name, params in SCANS.items()}
    data = {"scan": scan, "dense": record_dense(), "grid": record_grid()}
    EXPECTED_PATH.write_text(json.dumps(data, separators=(",", ":")) + "\n")
    print(f"wrote {EXPECTED_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
