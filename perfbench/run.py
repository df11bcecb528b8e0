"""Benchmark of edgepow's public API on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload scan6 --seed 1 --seconds 30 --trace 0

Workloads (README.md says why each was chosen):

* ``scan6``: ``conjecture_scan`` over every unicyclic graph on up to 6
  vertices with caps <= 2 and fibers through degree 3, one op per instance;
* ``dense_gens``: a fresh ``PowerEngine(g).generators(caps)`` and
  ``check_strong_exchange`` per query on complete multipartite graphs;
* ``grid_search``: ``search_sep_counterexample`` over the cap grid
  {1, 2}^n of 28 graphs, each at workers=1 and then workers=2.

One process drives the library in a closed loop: the next op starts when
the previous one ends.  With ``--trace 0`` the run repeats passes over the
workload for ``--seconds`` (at least one whole pass) and reports the
end-to-end metrics.  With ``--trace 1`` it makes one untraced and one traced
pass and reports the per-layer metrics.  Every output is checked as soon as
its unit returns, outside the timed region.  The last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it repeat the metrics with their units, the
failed fraction and the machine.

Set-up time and the import metrics come from fresh interpreters running
``probe.py``, so that they include ``import edgepow``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from itertools import accumulate
from array import array
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_PROBES = 7
TAIL_LADDER = (50, 70, 75, 80, 90, 95, 99, 99.9)
TAIL_BEYOND = 10


def load_edgepow() -> None:
    """Import edgepow from this checkout's ``src``, or exit with an error."""
    if not (SRC / "edgepow" / "__init__.py").is_file():
        sys.exit(f"error: no edgepow package under {SRC}")
    sys.path.insert(0, str(SRC))
    import edgepow

    if Path(edgepow.__file__).resolve().parent != (SRC / "edgepow").resolve():
        sys.exit(f"error: imported edgepow from {edgepow.__file__}, not {SRC}")


def setup_probe(workload: str, seed: int) -> dict:
    """Import and set-up times of one fresh interpreter running probe.py."""
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize_setup(probes: list) -> dict:
    return {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "import_s": statistics.median(p["import_s"] for p in probes),
        "networkx_loaded": int(any(p["networkx_loaded"] for p in probes)),
    }


class Samples:
    """Fastest op latencies and output checks of the units run so far.

    Each op keeps only its fastest time in the run.  On a shared host other
    tenants slow the CPU by up to 1.7x in bursts from milliseconds to
    minutes long; the median of the repeats follows the bursts, while the
    fastest of many repeats of a short op is steady.  On a 2-core VM the
    fastest of 30 repeats of a 1-7 ms op spread 2-5% from window to window,
    the fastest of 10 repeats of a 0.3 ms op 22%, and the fastest of 30
    repeats of a 30 ms op 7%.  So the workloads keep ops short and passes
    under half a second, for 30 or more repeats a run.

    The fastest times live in one preallocated array, and each output is
    checked as soon as its unit returns, outside the timed region, and then
    dropped, so the harness's memory does not grow with the run length.

    The library's own repeated runs fragment the heap, so the process's
    peak resident memory keeps rising by up to 0.8 MB a pass; ``rss_mb`` is
    the peak at the end of the first pass, what one pass costs a user.
    """

    def __init__(self, units):
        self.units = units
        self.runs = [0] * len(units)  # unit index -> times run
        self.first_op = list(accumulate((u.ops for u in units), initial=0))
        self.fastest = array("d", [math.inf]) * self.first_op[-1]
        self.attempted = 0
        self.failed = 0
        self.rss_mb = None

    def run_unit(self, ui: int) -> None:
        unit = self.units[ui]
        self.attempted += unit.ops
        self.runs[ui] += 1
        try:
            out, latencies = unit.run()
        except Exception:
            traceback.print_exc()
            self.failed += unit.ops
            return
        first = self.first_op[ui]
        for k, x in enumerate(latencies[: unit.ops]):
            if x < self.fastest[first + k]:
                self.fastest[first + k] = x
        try:
            self.failed += unit.failures(out)
        except Exception:
            traceback.print_exc()
            self.failed += unit.ops
        if self.rss_mb is None and self.passes():
            self.rss_mb = peak_rss_mb()

    def run_pass(self) -> None:
        for ui in range(len(self.units)):
            self.run_unit(ui)

    def passes(self) -> int:
        """Whole passes run: the fewest runs of any unit."""
        return min(self.runs, default=0)

    def op_times(self) -> list:
        """Each op's fastest time, for the ops that completed at least once."""
        return [x for x in self.fastest if x < math.inf]

    def wall_s(self) -> float:
        """One pass: the sum of the ops' fastest times.  Summing ops rather
        than whole units keeps every term short; a scan unit's ops cover it
        up to its last instance."""
        return sum(self.op_times())


def tail_percentile(n_ops: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND ops beyond it."""
    fits = [q for q in TAIL_LADDER if n_ops * (1 - q / 100) >= TAIL_BEYOND]
    return max(fits, default=TAIL_LADDER[0])


def nearest_rank(sorted_values, q: float) -> float:
    k = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def machine(seed: int) -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        nx_version = metadata.version("networkx")
    except metadata.PackageNotFoundError:
        nx_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "networkx": nx_version,
        "seed": seed,
        "loadavg_before": list(os.getloadavg()),
    }


def end_to_end(units, samples: Samples, setup: dict) -> tuple:
    n_ops = sum(u.ops for u in units)
    ops = sorted(samples.op_times())
    q = tail_percentile(n_ops)
    metrics = {
        "setup_s": (setup["setup_s"], "s"),
        "wall_s": (samples.wall_s(), "s"),
        "op_p50_ms": (statistics.median(ops) * 1e3, "ms"),
        "op_tail_ms": (nearest_rank(ops, q) * 1e3, "ms"),
        "peak_rss_mb": (samples.rss_mb, "MB"),
    }
    notes = [f"op_tail_ms is p{q:g} over {len(ops)} ops ({n_ops} per pass)"]
    return metrics, notes


PER_LAYER = (
    ("import.edgepow_s", "s"),
    ("import.networkx_loaded", "flag"),
    ("corpus.unicyclic_up_to.s", "s"),
    ("corpus.graphs", "count"),
    ("powers.normalize_caps.calls", "count"),
    ("powers.normalize_caps.s", "s"),
    ("powers.normalize_caps.distinct_ratio", "ratio"),
    ("powers.generators.calls", "count"),
    ("powers.generators.s", "s"),
    ("powers.generators.members", "count"),
    ("powers.generators.max_members", "count"),
    ("powers.engine.nodes", "count"),
    ("exchange.check_strong_exchange.calls", "count"),
    ("exchange.check_strong_exchange.s", "s"),
    ("exchange.check_strong_exchange.fails", "count"),
    ("exchange.search.calls", "count"),
    ("exchange.search.hits", "count"),
    ("exchange.search.w1.s", "s"),
    ("exchange.search.w2.s", "s"),
    ("toric.sym_exchange_binomials.calls", "count"),
    ("toric.sym_exchange_binomials.s", "s"),
    ("toric.quadrics", "count"),
    ("toric.fibers.calls", "count"),
    ("toric.fibers.s", "s"),
    ("toric.fibers.count", "count"),
    ("toric.fibers.nontrivial", "count"),
    ("toric.fibers.multisets", "count"),
    ("toric.check_fiber_connectivity.calls", "count"),
    ("toric.check_fiber_connectivity.s", "s"),
    ("toric.check_fiber_connectivity.self_s", "s"),
    ("toric.conjecture_scan.budget_skips", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def per_layer(units, setup: dict, built: dict) -> tuple:
    """A warm-up pass, an untraced pass, then a traced pass; per-layer
    metrics of the last.  Without the warm-up the untraced pass pays the
    first-run costs and the tracing overhead reads below zero."""
    from spans import Tracer

    warmup = Samples(units)
    warmup.run_pass()
    untraced = Samples(units)
    untraced.run_pass()
    tracer = Tracer()
    traced = Samples(units)
    with tracer.installed():
        traced.run_pass()
    found = tracer.metrics()
    found["import.edgepow_s"] = setup["import_s"]
    found["import.networkx_loaded"] = setup["networkx_loaded"]
    for name in ("corpus.unicyclic_up_to.s", "corpus.graphs"):
        found[name] = built.get(name, 0)
    found["trace.wall_s"] = traced.wall_s()
    found["trace.overhead_s"] = traced.wall_s() - untraced.wall_s()
    metrics = {name: (found.get(name, 0), unit) for name, unit in PER_LAYER}
    notes = [
        "spans in forked pool workers are not collected: grid_search per-layer "
        "counts come from its workers=1 half; exchange.search.w2.s is timed "
        "in the parent"
    ]
    return metrics, notes, (warmup, untraced, traced)


def timed_run(units, workload: str, seed: int, seconds: float) -> tuple:
    """Passes over ``units`` for ``seconds`` of unit time, and at least one
    whole pass.  The set-up probes run between units, spread over the run,
    so that they do not all fall into one slow phase of the machine; their
    time does not count against ``seconds``."""
    samples = Samples(units)
    probes = []
    start = time.perf_counter()
    deadline = start + seconds
    next_probe = start
    ui = 0
    while not (samples.passes() and time.perf_counter() >= deadline):
        samples.run_unit(ui)
        ui = (ui + 1) % len(units)
        if len(probes) < SETUP_PROBES and time.perf_counter() >= next_probe:
            before = time.perf_counter()
            probes.append(setup_probe(workload, seed))
            deadline += time.perf_counter() - before
            next_probe += seconds / SETUP_PROBES
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(workload, seed))
    return samples, summarize_setup(probes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {workloads.WORKLOADS}")
    load_edgepow()
    info = machine(args.seed)
    expected = workloads.load_expected()

    if args.trace:
        from spans import Tracer

        setup = summarize_setup(
            [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        )
        # Trace this process's own build so that the corpus layer is measured.
        build_tracer = Tracer()
        with build_tracer.installed():
            units = workloads.build(args.workload, args.seed, expected)
        metrics, notes, runs = per_layer(units, setup, build_tracer.metrics())
        attempted = sum(r.attempted for r in runs)
        failed = sum(r.failed for r in runs)
        passes = len(runs)
    else:
        units = workloads.build(args.workload, args.seed, expected)
        samples, setup = timed_run(units, args.workload, args.seed, args.seconds)
        metrics, notes = end_to_end(units, samples, setup)
        attempted, failed = samples.attempted, samples.failed
        passes = samples.passes()
    info["loadavg_after"] = list(os.getloadavg())

    print(f"workload {args.workload}: {len(units)} units, {passes} whole passes")
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:.6g} {unit}")
    print(f"{'failed_frac':42s} {failed / attempted:.6g} ({failed}/{attempted} ops)")
    for note in notes:
        print(f"note: {note}")
    print("machine:", json.dumps(info))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
