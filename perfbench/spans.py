"""Spans and counts around the public calls into each edgepow layer.

The tracer wraps, from outside the library, every module attribute through
which the library calls one layer from another, plus the entry points the
benchmark calls.  Each wrapped call records one span (name, start, end,
parent index) kept in memory until the run ends, and may add to named
counts.  A span's self time is its duration minus the time its child spans
cover.

Spans recorded in forked pool workers stay in the worker and are lost, so
for ``search_sep_counterexample`` with workers > 1 only the outer
``exchange.search`` span is seen.
"""
from __future__ import annotations

import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from math import comb
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._patches = []
        self._normalized = set()
        self._engine_nodes = weakref.WeakKeyDictionary()

    def _wrap(self, name, fn, after):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, out, span)
            return out

        return traced

    def _patch(self, owner, attr, name, after=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, after))

    @contextmanager
    def installed(self):
        """Wrap the layer boundaries for the duration of the block."""
        from edgepow import corpus, exchange, powers, toric

        c = self.counts

        def on_corpus(args, kwargs, out, span):
            c["corpus.graphs"] += len(out)

        def on_normalize(args, kwargs, out, span):
            self._normalized.add((args[0], out))

        def on_generators(args, kwargs, out, span):
            engine = args[0]
            c["powers.generators.members"] += len(out)
            c["powers.generators.max_members"] = max(
                c["powers.generators.max_members"], len(out)
            )
            c["powers.engine.nodes"] += engine.nodes - self._engine_nodes.get(engine, 0)
            self._engine_nodes[engine] = engine.nodes

        def on_strong(args, kwargs, out, span):
            c["exchange.check_strong_exchange.fails"] += not out.ok

        def on_search(args, kwargs, out, span):
            workers = kwargs.get("workers", args[2] if len(args) > 2 else 1)
            c["exchange.search.hits"] += out is not None
            c[f"exchange.search.w{workers}.s"] += span[2] - span[1]

        def on_quadrics(args, kwargs, out, span):
            c["toric.quadrics"] += len(out)

        def on_fibers(args, kwargs, out, span):
            m = args[1] if len(args) > 1 else kwargs["m"]
            c["toric.fibers.count"] += len(out)
            c["toric.fibers.nontrivial"] += sum(len(f.nodes) > 1 for f in out)
            c["toric.fibers.multisets"] += comb(len(args[0]) + m - 1, m)

        def on_scan(args, kwargs, out, span):
            c["toric.conjecture_scan.budget_skips"] += len(out.budget_skips)

        try:
            self._patch(corpus, "unicyclic_up_to", "corpus.unicyclic_up_to", on_corpus)
            self._patch(powers.PowerEngine, "generators", "powers.generators", on_generators)
            for mod in (toric, exchange):
                self._patch(mod, "normalize_caps", "powers.normalize_caps", on_normalize)
                self._patch(
                    mod,
                    "check_strong_exchange",
                    "exchange.check_strong_exchange",
                    on_strong,
                )
            self._patch(exchange, "search_sep_counterexample", "exchange.search", on_search)
            self._patch(
                toric, "sym_exchange_binomials", "toric.sym_exchange_binomials", on_quadrics
            )
            self._patch(toric, "fibers", "toric.fibers", on_fibers)
            self._patch(
                toric, "check_fiber_connectivity", "toric.check_fiber_connectivity"
            )
            self._patch(toric, "conjecture_scan", "toric.conjecture_scan", on_scan)
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def metrics(self) -> dict:
        """Calls, seconds and self seconds per span name, merged with the counts."""
        calls = Counter()
        total = defaultdict(float)
        self_s = defaultdict(float)
        covered = defaultdict(float)
        for idx in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent = self.spans[idx]
            dur = end - start
            calls[name] += 1
            total[name] += dur
            self_s[name] += dur - covered[idx]
            if parent >= 0:
                covered[parent] += dur
        out = dict(self.counts)
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = self_s[name]
        norm_calls = calls["powers.normalize_caps"]
        out["powers.normalize_caps.distinct_ratio"] = (
            len(self._normalized) / norm_calls if norm_calls else 0.0
        )
        return out
