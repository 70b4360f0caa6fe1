"""Spans and counters around the calls into each layer of potts_hodge.

The tracer wraps functions from outside the package.  It patches the names
the *calling* module binds (potts_hodge.verify imported hessian, signature,
zk_all, ... by name at import, so patching potts_hodge.potts alone would
miss every call a campaign makes).  Each wrapper records one span (layer,
start, end, parent span) in memory and bumps shared counters.

Spans recorded in forked pool workers stay in those workers and are lost,
so timed traces are taken at workers=1.  Counters live in an anonymous
shared mapping that forked workers inherit, so counts stay complete at any
worker count.
"""
from __future__ import annotations

import functools
import importlib
import json
import mmap
import multiprocessing
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

SUBSETS = "potts.subsets_visited"
SIG_DIM_SUM = "spectral.signature.dim_sum"
SIG_MAX_BITS = "spectral.signature.max_entry_bits"


def _derivative_pass(counters, matroid, c, q, alpha, *rest, **kwargs):
    # hessian/gradient visit the subsets containing alpha's inner support
    support = sum(1 for a in alpha[1:] if a)
    counters.add(SUBSETS, 1 << (matroid.n - support))


def _full_pass(counters, matroid, *rest, **kwargs):
    counters.add(SUBSETS, 1 << matroid.n)


def _matrix_size(counters, matrix, *rest, **kwargs):
    counters.add(SIG_DIM_SUM, matrix.dim)
    bits = max((max(x.numerator.bit_length(), x.denominator.bit_length())
                for row in matrix.entries for x in row), default=0)
    counters.maximum(SIG_MAX_BITS, bits)


def _targets(ph):
    """(module, attribute, layer, counter) for every patched name."""
    verify = importlib.import_module("potts_hodge.verify")
    corpus = importlib.import_module("potts_hodge.corpus")
    out = [
        (verify, "hessian", "potts.hessian", _derivative_pass),
        (verify, "gradient", "potts.gradient", _derivative_pass),
        (verify, "zk_all", "potts.strata", _full_pass),
        (verify, "f_all", "potts.strata", _full_pass),
        (verify, "z_weighted_eval", "potts.strata", _full_pass),
        (verify, "elementary_symmetric", "potts.strata", None),
        (verify, "signature", "spectral.signature", _matrix_size),
        (verify, "structure", "matroids.structure", None),
        (verify, "simplify", "matroids.structure", None),
        (verify, "independent_set_counts", "matroids.structure", None),
        (verify, "scalar_to_json", "scalars.json", None),
        (verify, "vector_to_json", "scalars.json", None),
        (ph, "generate_corpus", "corpus.generate", None),
    ]
    for name, obj in sorted(vars(verify).items()):
        if name.startswith("check_") and callable(obj):
            out.append((verify, name, "verify.check", None))
        elif getattr(obj, "__module__", None) == "potts_hodge.sampling" and callable(obj):
            out.append((verify, name, "sampling", None))
    for module in (ph, corpus):
        for name in ("make_uniform", "make_graphic", "make_linear"):
            out.append((module, name, "matroids.build", None))
    return out


class Counters:
    """Named int64 counters in an anonymous shared mapping.  Forked workers
    inherit the mapping and the lock, so their updates reach the parent."""

    def __init__(self, names):
        self._index = {name: i for i, name in enumerate(names)}
        self._map = mmap.mmap(-1, 8 * len(self._index))
        self._values = memoryview(self._map).cast("q")
        self._lock = multiprocessing.get_context("fork").Lock()

    def add(self, name, amount=1):
        i = self._index[name]
        with self._lock:
            self._values[i] += amount

    def maximum(self, name, value):
        i = self._index[name]
        with self._lock:
            if value > self._values[i]:
                self._values[i] = value

    def snapshot(self):
        return {name: self._values[i] for name, i in self._index.items()}

    def close(self):
        self._values.release()
        self._map.close()


class Tracer:
    def __init__(self, ph):
        self._targets = _targets(ph)
        layers = sorted({layer for _, _, layer, _ in self._targets})
        self.counters = Counters([f"{layer}.calls" for layer in layers]
                                 + [SUBSETS, SIG_DIM_SUM, SIG_MAX_BITS])
        self.spans = []  # (layer, start, end, parent index or -1)
        self._stack = []
        self.origin = perf_counter()

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module, name, layer, count in self._targets:
                original = getattr(module, name)
                saved.append((module, name, original))
                setattr(module, name, self._wrap(original, layer, count))
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    @contextmanager
    def span(self, layer):
        """A span around the benchmark's own call into a layer."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            self.spans[idx] = (layer, start, perf_counter(), parent)
            self._stack.pop()

    def _wrap(self, fn, layer, count):
        counters = self.counters
        calls = f"{layer}.calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counters.add(calls)
            if count is not None:
                count(counters, *args, **kwargs)
            with self.span(layer):
                return fn(*args, **kwargs)

        return traced

    def self_times(self):
        """Per layer: span durations minus the time their child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(float)
        for (layer, start, end, _), child in zip(self.spans, covered):
            out[layer] += end - start - child
        return out

    def total_time(self, layer):
        return sum(end - start for name, start, end, _ in self.spans if name == layer)

    def write(self, path):
        rows = [[layer, round(start - self.origin, 9), round(end - self.origin, 9), parent]
                for layer, start, end, parent in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["layer", "start_s", "end_s", "parent"], "spans": rows}, fh)

    def close(self):
        self.counters.close()
