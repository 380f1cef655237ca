"""Spans around the calls into each swiftcal module, recorded from outside.

The traced pass rebinds swiftcal's public entry points, in the namespaces
their callers look them up in, to timing wrappers; ``Tracer.installed``
restores the originals afterwards, so the untraced pass runs the library
untouched.  Every span records its name, layer, start, end, parent span and
job id; spans stay in memory until the benchmark writes them out.

Layers are swiftcal's modules: ``heston``, ``swift``, ``calibrate``,
``reference`` and ``experiments``.  The benchmark's own job code is the
``bench`` layer (the root span of every job).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
import types
from collections import Counter

import numpy as np

from swiftcal import QuadratureConfig

LAYERS = ("heston", "swift", "calibrate", "reference", "experiments", "bench")

_NAME, _LAYER, _START, _END, _PARENT = range(5)


class NullTracer:
    """Stands in for a tracer in the untraced pass."""

    def job(self, job_id):
        return contextlib.nullcontext()


class Tracer:
    """In-memory span recorder plus hardware-independent counters."""

    def __init__(self):
        self.spans = []     # [name, layer, start, end, parent index, job id]
        self.counts = Counter()
        self.recording = False
        self._stack = []
        self._job = None

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent, self._job])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][_END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def job(self, job_id):
        """Record one job: a root ``bench.job`` span with tracing active."""
        self._job, self.recording = job_id, True
        index = self.open("bench.job", "bench")
        try:
            yield
        finally:
            self.close(index)
            self._job, self.recording = None, False

    def reset(self) -> None:
        self.spans, self.counts = [], Counter()

    @contextlib.contextmanager
    def installed(self):
        """Rebind swiftcal's entry points to traced versions for the block."""
        saved = []
        try:
            for module, attr, replacement in _bindings(self):
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, replacement)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- analysis ---------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the time its children cover."""
        out = [s[_END] - s[_START] for s in self.spans]
        for s in self.spans:
            if s[_PARENT] >= 0:
                out[s[_PARENT]] -= s[_END] - s[_START]
        return out

    def totals(self):
        """(inclusive seconds by span name, self seconds by span name,
        self seconds by layer) summed over all recorded spans."""
        incl, by_name, by_layer = Counter(), Counter(), Counter()
        for s, own in zip(self.spans, self.self_times()):
            incl[s[_NAME]] += s[_END] - s[_START]
            by_name[s[_NAME]] += own
            by_layer[s[_LAYER]] += own
        return incl, by_name, by_layer

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,layer,start,end,parent,job\n")
            for s in self.spans:
                fh.write(f"{s[0]},{s[1]},{s[2]!r},{s[3]!r},{s[4]},{s[5]}\n")


def _traced(tracer, fn, name, layer, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        index = tracer.open(name, layer)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if count is not None:
            count(tracer.counts, args, kwargs, out)
        return out
    return wrapper


def _count_freqs(counts, args, kwargs, out):
    counts["heston.chf_freqs"] += int(np.size(args[0]))


def _count_call(key):
    def count(counts, args, kwargs, out):
        counts[key] += 1
    return count


def _count_truncation(counts, args, kwargs, out):
    counts["swift.max_m"] = max(counts["swift.max_m"], out.m)


def _count_multi_strike(counts, args, kwargs, out):
    sp = kwargs["sp"] if "sp" in kwargs else args[4]
    counts["swift.sum_jd"] += sp.j_density
    counts["swift.phase_macs"] += len(out) * sp.j_density


def _count_cp(counts, args, kwargs, out):
    qc = kwargs.get("qc", args[3] if len(args) > 3 else QuadratureConfig())
    counts["reference.cp_calls"] += 1
    counts["reference.cp_nodes"] += qc.nodes


def _count_calibrate(counts, args, kwargs, out):
    counts["calibrate.calls"] += 1
    counts["calibrate.accepted_steps"] += out.iterations


def _traced_pricer(tracer, base):
    """MultiStrikePricer with build, price and Jacobian spans."""
    build = _traced(tracer, base.__init__, "swift.pricer_build", "swift")
    prices = _traced(tracer, base.prices, "swift.price_eval", "swift")
    jacobian = _traced(tracer, base.prices_and_jacobian, "swift.jac_eval", "swift")

    class TracedPricer(base):
        def __init__(self, ctx, tau, strikes, sp):
            build(self, ctx, tau, strikes, sp)
            if tracer.recording:
                tracer.counts["swift.sum_jd"] += sp.j_density
                tracer.counts["swift.max_m"] = max(tracer.counts["swift.max_m"], sp.m)

        # complex multiply-adds of the phase product: n x J_d per price
        # column, six columns (price and five partials) per Jacobian
        def prices(self, theta):
            if tracer.recording:
                tracer.counts["swift.phase_macs"] += len(self.strikes) * self.sp.j_density
            return prices(self, theta)

        def prices_and_jacobian(self, theta):
            if tracer.recording:
                tracer.counts["swift.phase_macs"] += (6 * len(self.strikes)
                                                      * self.sp.j_density)
            return jacobian(self, theta)

    return TracedPricer


def _traced_backend(tracer, base):
    """Calibration backend whose build and evaluations are spans."""
    build = _traced(tracer, base.__init__, "calibrate.backend_build", "calibrate")
    prices = _traced(tracer, base.prices, "calibrate.backend_prices", "calibrate",
                     _count_call("calibrate.price_evals"))
    jacobian = _traced(tracer, base.prices_and_jacobian, "calibrate.backend_jac",
                       "calibrate", _count_call("calibrate.jac_evals"))

    class TracedBackend(base):
        def __init__(self, *args, **kwargs):
            build(self, *args, **kwargs)

        def prices(self, theta):
            return prices(self, theta)

        def prices_and_jacobian(self, theta):
            return jacobian(self, theta)

    return TracedBackend


def _counting_numpy(tracer):
    """A numpy stand-in for the swift module that counts its FFT calls."""
    def counted(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.recording:
                tracer.counts["swift.fft_calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    fft = types.SimpleNamespace(**{n: getattr(np.fft, n) for n in np.fft.__all__})
    for n in ("fft", "ifft", "rfft", "irfft"):
        setattr(fft, n, counted(getattr(np.fft, n)))
    proxy = types.ModuleType("numpy")
    proxy.__dict__.update(np.__dict__)
    proxy.__getattr__ = lambda name: getattr(np, name)
    proxy.fft = fft
    return proxy


def _bindings(tracer):
    """(module, attribute, traced replacement) for every wrapped entry point."""
    swift = importlib.import_module("swiftcal.swift")
    cal = importlib.import_module("swiftcal.calibrate")
    ref = importlib.import_module("swiftcal.reference")
    exp = importlib.import_module("swiftcal.experiments")

    def wrap(module, attr, name, layer, count=None):
        return module, attr, _traced(tracer, getattr(module, attr), name, layer, count)

    heston_calls = [
        ("chf_cui", "heston.chf", _count_freqs),
        ("chf_cui_parts", "heston.chf", _count_freqs),
        ("chf_gradient_from_parts", "heston.grad", None),
        ("chf_with_gradient", "heston.chf_with_gradient", _count_freqs),
        ("cumulants", "heston.cumulants", _count_call("heston.cumulants_calls")),
    ]
    out = []
    for module in (swift, ref, exp):
        for attr, name, count in heston_calls:
            if hasattr(module, attr):
                out.append(wrap(module, attr, name, "heston", count))
    for module in (cal, exp):
        out.append(wrap(module, "select_scale", "swift.select_scale", "swift",
                        _count_call("swift.select_scale_calls")))
        out.append(wrap(module, "select_truncation", "swift.select_truncation",
                        "swift", _count_truncation))
    out += [
        wrap(swift, "density_area", "swift.density_area", "swift",
             _count_call("swift.truncation_trials")),
        wrap(exp, "price_multi_strike", "swift.price_eval", "swift",
             _count_multi_strike),
        (swift, "np", _counting_numpy(tracer)),
        (cal, "MultiStrikePricer", _traced_pricer(tracer, cal.MultiStrikePricer)),
        (cal, "KswiftBackend", _traced_backend(tracer, cal.KswiftBackend)),
        wrap(cal, "calibrate", "calibrate.lm", "calibrate", _count_calibrate),
        wrap(cal, "lm_step", "calibrate.lm_step", "calibrate",
             _count_call("calibrate.lm_step_calls")),
        wrap(exp, "price_cp", "reference.cp", "reference", _count_cp),
        wrap(exp, "run_price", "experiments.run_price", "experiments"),
    ]
    return out
