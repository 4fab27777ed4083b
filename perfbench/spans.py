"""Span recorder for the traced run.

Each traced function is replaced, in every module namespace that binds
it, by a wrapper that records a span: name, start, end, parent span and
the id of the item being processed.  Spans stay in memory; the run turns
them into per-layer metrics when it ends.  Self time is a span's
duration minus the durations of its direct children.

The program is single-threaded and has no queues, so there is no
waiting to record: every span is busy time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

SETUP_ITEM = -1


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or -1, item id]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = SETUP_ITEM
        # item id -> counter name -> value, for counts taken from results
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._restore: list[tuple[object, str, object]] = []

    def count(self, name: str, value: float = 1):
        self.counters[self.item][name] += value

    def _wrap(self, name: str, fn, on_result):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def patch(self, name: str, owners, attr: str, on_result=None):
        """Trace `attr` as `name` in each owner (module or class) binding it.

        One wrapper per distinct function, so an owner that re-exports
        another's binding gets the same wrapper and no double spans.
        """
        wrappers = {}
        for owner in owners:
            fn = getattr(owner, attr)
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(name, fn, on_result)
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, wrappers[id(fn)])

    def unpatch(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        return [rec[2] - rec[1] - c for rec, c in zip(self.spans, child)]


def install(tracer: Tracer):
    """Patch every layer boundary the benchmark reports on."""
    from threbase import circuit, cli, gates, io, linalg, passes, sk, verify

    def out_gates(counter):
        return lambda t, result: t.count(counter, len(result[0]))

    def exact_hit(t, result):
        t.count("passes.rebase_exact.exact_hits", result is not None)

    def out_len(t, result):
        t.count("sk.sk_trace.out_len", len(result[-1][0]))

    p = tracer.patch
    p("cli.transpile", [cli], "cmd_transpile")
    p("cli.verify", [cli], "cmd_verify")
    p("io.parse_net", [io], "parse_net")
    p("io.parse_circuit", [io], "parse_circuit")
    p("io.emit_circuit", [io], "emit_circuit")
    p("passes.realify_circuit", [passes, cli], "realify_circuit",
      out_gates("passes.realify_circuit.out_gates"))
    p("passes.rebase_circuit", [passes, cli], "rebase_circuit",
      out_gates("passes.rebase_circuit.out_gates"))
    p("passes.rebase_exact", [passes], "rebase_exact", exact_hit)
    p("sk.build_net", [sk], "build_net")
    p("sk.nearest", [sk], "_nearest")
    p("sk.gc_decompose", [sk], "gc_decompose")
    p("sk.sk_trace", [sk], "sk_trace", out_len)
    p("gates.inverse_labels", [gates.GateSet], "inverse_labels")
    p("linalg.dist", [linalg, sk, verify], "dist")
    p("verify.run", [verify], "run")
    p("verify.check_realified", [verify], "check_realified")
    p("verify.check_exact", [verify], "check_exact")
    p("circuit.circuit_unitary", [circuit, verify], "circuit_unitary")
    p("circuit.embed", [circuit], "embed")
