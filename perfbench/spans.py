"""Span tracing of the incidencelab layers, installed from outside the package.

`Tracer.install` replaces each public function of the eight layer modules
with a wrapper that records one span per call: an id, the layer-qualified
name, start and end on `time.perf_counter`, and the id of the enclosing
span.  The wrapper is bound wherever a caller looks the name up, so a
function imported into another module (`harness.check_inequality`, say) is
traced there too.  Spans stay in memory until the traced process writes
them out at the end, and all spans of one process share its run id.

A layer's self time is its spans' durations minus the part of each span
that its child spans cover.  A few functions also feed counters (matrix
sizes, pair counts, repeated inputs) through hooks that see the call's
bound arguments and result.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "incidencelab"
LAYERS = ("modring", "setops", "incidence", "spectra", "charsums", "zaremba",
          "harness", "cli")

# Helpers called once per element inside a kernel loop (mat2_mul runs
# 4.2 million times in one charsums iteration, char_eval 180 thousand,
# cf_expand 60 thousand in counting).  A span per call would cost more than
# the work it times, so they stay unwrapped and their time is self time of
# the kernel that calls them.
HOT = frozenset({
    "modring.char_eval", "modring.dlog_table", "modring.inv_mod",
    "modring.mat2_det", "modring.mat2_mul", "modring.mat2_inv",
    "modring.mobius", "setops.gcd_with_modulus", "incidence.cross_ratio",
    "zaremba.cf_expand",
})

# Classes whose construction is a layer step: their __init__ is traced
# under the class name.
CLASSES = ("incidence.IncidenceInstance",)

# lru_cache tables whose hit ratio is reported.
CACHES = ("modring.dlog_table", "modring._char_values", "modring.factorize",
          "charsums._kloosterman_table", "charsums.enumerate_gl2",
          "incidence._crossratio_table")


def _matrix_key(matrix) -> bytes:
    import numpy as np
    arr = np.ascontiguousarray(getattr(matrix, "entries", matrix))
    head = f"{arr.dtype}:{arr.shape}:".encode()
    return hashlib.sha256(head + arr.tobytes()).digest()


def _count_dim3(tracer, bound, result):
    tracer.counters["spectra.eig_symmetric.dim3"] += len(bound["matrix"]) ** 3


def _count_repeat(tracer, bound, result):
    key = _matrix_key(bound["matrix"])
    tracer.counters["spectra.spectrum_report.repeats"] += key in tracer.seen
    tracer.seen.add(key)


def _count_family(tracer, bound, result):
    tracer.counters["charsums.energy_t2k.family_sq"] += len(bound["family"]) ** 2


def _count_pairs(tracer, bound, result):
    inst = bound["inst"]
    tracer.counters["incidence.pairs"] += len(inst.a) * len(inst.b)


def _count_zaremba(tracer, bound, result):
    key = (bound["q"], bound["bound"], bound["alternate"])
    tracer.zaremba_keys.add(key)


def _count_rows(tracer, bound, result):
    tracer.counters["harness.rows"] += sum(
        1 for row in result.rows if row["row_kind"] == "trial")


# Counters the hooks feed; each starts at 0 so an idle layer reports 0.
COUNTERS = ("spectra.eig_symmetric.dim3", "spectra.spectrum_report.repeats",
            "charsums.energy_t2k.family_sq", "incidence.pairs", "harness.rows")

HOOKS = {
    "spectra.eig_symmetric": _count_dim3,
    "spectra.spectrum_report": _count_repeat,
    "charsums.energy_t2k": _count_family,
    "incidence.check_inequality": _count_pairs,
    "zaremba.zaremba_set": _count_zaremba,
    "harness.run": _count_rows,
}


class Tracer:
    """Records spans and counters for one process.

    The wrappers exist in this process only: a worker process started by
    the program would run unwrapped code.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.traced = set()
        self.seen = set()
        self.zaremba_keys = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        """A wrapper of `fn` that records a span named `name` per call."""
        self.traced.add(name)
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent))
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced name in every loaded module of the package."""
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}")
                   for name in LAYERS}
        replace = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in HOT or not callable(value)
                        or inspect.isclass(value)
                        or getattr(value, "__module__", None) != module.__name__):
                    continue
                replace[id(value)] = (value, self.wrap(name, value))
        for qualified in CLASSES:
            layer, attr = qualified.split(".")
            cls = getattr(modules[layer], attr)
            self._set(cls, "__init__", self.wrap(qualified, cls.__init__))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                entry = replace.get(id(value))
                if entry is not None and entry[0] is value:
                    self._set(module, attr, entry[1])

    def _set(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def cache_ratios(self) -> dict:
        """Hit ratio of each reported lru_cache table, 0 when never called."""
        out = {}
        for qualified in CACHES:
            layer, attr = qualified.split(".")
            fn = getattr(sys.modules[f"{PACKAGE}.{layer}"], attr)
            while not hasattr(fn, "cache_info"):
                fn = fn.__wrapped__
            info = fn.cache_info()
            calls = info.hits + info.misses
            out[f"{qualified}.hit_ratio"] = info.hits / calls if calls else 0.0
        return out

    def record(self) -> dict:
        """Spans and counters in a JSON-ready form."""
        counters = dict(self.counters)
        counters["zaremba.zaremba_set.distinct"] = len(self.zaremba_keys)
        counters.update(self.cache_ratios())
        return {"run": self.run_id, "spans": self.spans, "counters": counters,
                "traced": sorted(self.traced)}


def self_times(spans) -> dict:
    """{name: (total self seconds, calls)} from (id, name, start, end, parent)
    spans: each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span_id, _, start, end, parent in spans:
        children[parent].append((start, end))
    out = defaultdict(lambda: [0.0, 0])
    for span_id, name, start, end, _ in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start = max(c_start, reach)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        entry = out[name]
        entry[0] += (end - start) - covered
        entry[1] += 1
    return {name: (total, calls) for name, (total, calls) in out.items()}
