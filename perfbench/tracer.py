"""Outside-in layer tracer.

The library carries no instrumentation, so the tracer wraps it from the
outside: each listed public function is replaced by a timing wrapper in
every ``detchan`` module namespace that binds it, ``StateSet`` and
``KrausSet`` construction is wrapped through their ``__init__``, and the
``numpy.linalg`` kernels the library calls are wrapped in ``numpy.linalg``
itself.  Spans (name, start, end, parent, op id) are kept in memory and
only recorded while an operation is open; the worker opens it around the
library call alone, so the benchmark's own generator and checker never
show up.  ``restore`` puts every original
back.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import sys
import time
from collections import Counter, defaultdict

import numpy.linalg

#: Public functions (and classes, timed through construction) per layer.
LAYERS = {
    "numerics": (
        "as_complex_matrix", "frobenius", "hermitian_eig", "psd_check", "psd_factor",
        "pin_column_phases", "solve_linear",
    ),
    "states": (
        "StateSet", "gram", "linear_independence", "span_duals", "dual_states",
        "span_complement", "superpose", "fingerprint",
    ),
    "feasibility": (
        "build_ratio_matrix", "distinguishability_audit", "witness_value", "feasibility_check",
    ),
    "synthesis": (
        "KrausSet", "synthesize", "verify_completeness", "apply_channel", "state_to_density",
        "validate_density", "transform_report", "kraus_to_choi",
    ),
    "coherence": ("purity", "coherence_probe", "unitary_relation_test", "coherence_roundtrip"),
    "serialize": (
        "dumps", "load_document", "state_set_from_obj", "state_set_to_obj",
        "kraus_set_from_obj", "kraus_set_to_obj", "density_from_obj", "density_to_obj",
        "feasibility_report_to_obj", "roundtrip_to_obj",
    ),
    "cli": ("main",),
}
#: numpy.linalg calls the library makes, reported as layer ``kernel``.
KERNELS = ("eigh", "cond", "solve", "svd", "lstsq", "qr")

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Records nested spans around wrapped calls made inside an operation."""

    def __init__(self):
        #: (name, start_ns, end_ns, parent index or -1, op id)
        self.spans: list[tuple] = []
        #: Counts read off return values, e.g. audit records or dumped bytes.
        self.counters: Counter = Counter()
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # ------------------------------------------------------------ spans

    @contextlib.contextmanager
    def operation(self, op_id: int):
        self.op_id = op_id
        try:
            yield
        finally:
            self.op_id = None
            self._stack.clear()

    def _wrap(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if observe is not None:
                observe(result)
            return result

        return traced

    # ------------------------------------------------------------ install

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every listed function of ``detchan`` and the linalg kernels."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "detchan" or n.startswith("detchan."))]
        originals = {}
        for layer, names in LAYERS.items():
            module = sys.modules.get(f"detchan.{layer}")
            for name in names:
                obj = getattr(module, name, None)
                if obj is None:
                    continue
                span = f"{layer}.{name}"
                if isinstance(obj, type):
                    self._patch(obj, "__init__", self._wrap(span, obj.__init__))
                else:
                    originals[id(obj)] = (obj, self._wrap(span, obj, self._observer(span)))
        for name in KERNELS:
            fn = getattr(numpy.linalg, name)
            wrapper = self._wrap(f"kernel.{name}", fn)
            originals[id(fn)] = (fn, wrapper)
            self._patch(numpy.linalg, name, wrapper)
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _observer(self, span: str):
        counters = self.counters

        def audit(records):
            counters["feasibility.distinguishability_audit.records"] += len(records)
            counters["feasibility.distinguishability_audit.violating"] += sum(
                1 for p in records if getattr(p, "violation", True)
            )

        def kraus(ks):
            counters["synthesis.kraus_count"] += ks.kraus_count

        def dumped(text):
            counters["serialize.dumps.bytes"] += len(text.encode())

        return {
            "feasibility.distinguishability_audit": audit,
            "synthesis.synthesize": kraus,
            "serialize.dumps": dumped,
        }.get(span)

    # ------------------------------------------------------------ results

    def totals(self) -> tuple[Counter, defaultdict]:
        """Call counts and self time (ns) per span name.

        Self time is the span's duration minus the durations of its direct
        children; spans in one thread nest without overlapping.
        """
        calls: Counter = Counter()
        self_ns: defaultdict = defaultdict(int)
        for span in self.spans:
            duration = span[END] - span[START]
            calls[span[NAME]] += 1
            self_ns[span[NAME]] += duration
            if span[PARENT] >= 0:
                self_ns[self.spans[span[PARENT]][NAME]] -= duration
        return calls, self_ns

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines: [name, start_ns, end_ns, parent, op]."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
