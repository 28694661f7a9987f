"""Per-layer spans and counts, recorded from outside the decogauss package.

`instrument` rebinds every module attribute that names a layer's public
function, so a call is timed whichever imported name the caller looks up
(``scenarios`` imports ``evolve`` by name, so both
``decogauss.evolution.evolve`` and ``decogauss.scenarios.evolve`` are
wrapped).  Spans stay in memory until `summary`; a layer's self time is the
sum of its spans' durations minus the time their direct child spans cover.

This module imports only the standard library at load time, so the CLI
entry point (traced_cli.py) can time ``import numpy`` and ``import decogauss``
through it.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import sys
import time
import tracemalloc

# Layer names, in the order the benchmark reports them.  The stage names
# (import, config load, run(), each emitter, discretize/integrate/fit/
# eigendecompose) are meant to be reused by a user-facing timing option.
LAYERS = (
    "oracle.integrate",
    "oracle.eigendecompose",
    "oracle.fit",
    "oracle.discretize",
    "oracle.momentum_variance",
    "scenarios.load_scenario",
    "scenarios.run",
    "scenarios.emit.text",
    "scenarios.emit.csv",
    "scenarios.emit.json",
    "scenarios.tolerance_failures",
    "evolution.evolve",
    "evolution.variance",
    "spectral.summary",
    "averaging.phase_average",
    "observation.measure_profile",
    "model",
    "spectral.eigenvalue",
    "spectral.eigenstate_amplitude",
    "import.numpy",
    "import.decogauss",
    "cli.build_parser",
    "cli.main",
)

# Counts that must repeat exactly when the same inputs are traced twice.
COUNTS = (
    "oracle.integrate.fft_calls",
    "oracle.integrate.fft_points",
    "oracle.eigendecompose.n_cubed",
    "oracle.fit.lstsq_calls",
    "report.rows",
    "scenarios.emit.bytes",
)

_FFT_FUNCTIONS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)


class Tracer:
    """Spans and counters of one process.  Wrappers installed by
    `instrument` record only while `active` is true."""

    def __init__(self):
        self.active = False
        self.spans = []  # [layer, parent index or -1, start, end]
        self.counts = collections.Counter()
        self.peak_mb = 0.0
        self._open = []
        self._patches = []
        self._merged = []

    @contextlib.contextmanager
    def span(self, layer):
        if not self.active:
            yield
            return
        index = len(self.spans)
        self.spans.append([layer, self._open[-1] if self._open else -1, time.perf_counter(), None])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][3] = time.perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def paused(self):
        """Run harness code (correctness checks) without recording it."""
        previous, self.active = self.active, False
        try:
            yield
        finally:
            self.active = previous

    def current_layer(self):
        return self.spans[self._open[-1]][0] if self._open else None

    def count(self, key, amount=1):
        if self.active:
            self.counts[key] += amount

    def wrap(self, fn, layer, after=None):
        """`layer` is a name or a function of (args, kwargs) giving one;
        `after(args, result)` records counts once the call returns."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name = layer(args, kwargs) if callable(layer) else layer
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def rebind(self, namespaces, fn, wrapper):
        """Point every attribute of `namespaces` that is `fn` at `wrapper`."""
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if value is fn:
                    setattr(namespace, attr, wrapper)
                    self._patches.append((namespace, attr, fn))

    def restore(self):
        for namespace, attr, fn in reversed(self._patches):
            setattr(namespace, attr, fn)
        self._patches.clear()

    def merge(self, summary):
        """Fold in the summary of a traced subprocess."""
        self._merged.append(summary)

    def summary(self):
        """Calls and self time per layer, counts, and the integrator's peak
        traced allocation, as plain JSON-ready dicts."""
        calls = collections.Counter()
        self_s = collections.defaultdict(float)
        child = [0.0] * len(self.spans)
        for layer, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for index, (layer, _, start, end) in enumerate(self.spans):
            calls[layer] += 1
            self_s[layer] += (end - start) - child[index]
        counts = collections.Counter(self.counts)
        peak_mb = self.peak_mb
        for other in self._merged:
            calls.update(other["calls"])
            for layer, seconds in other["self_s"].items():
                self_s[layer] += seconds
            counts.update(other["counts"])
            peak_mb = max(peak_mb, other["peak_mb"])
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "counts": dict(counts),
            "peak_mb": peak_mb,
        }


def _emit_layer(args, kwargs):
    fmt = args[1] if len(args) > 1 else kwargs.get("fmt", "text")
    return f"scenarios.emit.{fmt}"


def instrument(tracer):
    """Wrap the public entry points of every decogauss layer, the FFT and
    least-squares calls the oracle makes through ``np.fft`` and
    ``np.linalg``, and return the tracer.  `Tracer.restore` undoes it."""
    import numpy as np

    from decogauss import (
        averaging,
        cli,
        evolution,
        model,
        observation,
        oracle,
        scenarios,
        spectral,
    )

    namespaces = [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "decogauss" or name.startswith("decogauss."))
    ]

    def add(layer, fn, after=None, namespaces=namespaces):
        tracer.rebind(namespaces, fn, tracer.wrap(fn, layer, after))

    def count_rows(args, report):
        tracer.count("report.rows", len(report.scalars) + len(report.trajectory) + len(report.profile))

    def count_bytes(args, data):
        tracer.count("scenarios.emit.bytes", len(data))

    def count_n_cubed(args, result):
        tracer.count("oracle.eigendecompose.n_cubed", args[0].n_points ** 3)

    integrate = oracle.integrate_master_equation
    add("oracle.integrate", integrate)
    traced_integrate = oracle.integrate_master_equation

    @functools.wraps(integrate)
    def integrate_with_peak(*args, **kwargs):
        # tracemalloc sees numpy's buffers; it runs outside the span so its
        # start and stop are not charged to the integrator
        if not tracer.active or tracemalloc.is_tracing():
            return traced_integrate(*args, **kwargs)
        tracemalloc.start()
        try:
            return traced_integrate(*args, **kwargs)
        finally:
            tracer.peak_mb = max(tracer.peak_mb, tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()

    tracer.rebind(namespaces, traced_integrate, integrate_with_peak)

    add("oracle.eigendecompose", oracle.eigendecompose_kernel, count_n_cubed)
    add("oracle.fit", oracle.extract_gaussian_coefficients)
    add("oracle.discretize", oracle.discretize)
    add("oracle.momentum_variance", oracle.GridState.momentum_variance,
        namespaces=[oracle.GridState])
    add("scenarios.load_scenario", scenarios.load_scenario)
    add("scenarios.run", scenarios.run, count_rows)
    add(_emit_layer, scenarios.emit, count_bytes)
    add("scenarios.tolerance_failures", scenarios.tolerance_failures)
    add("evolution.evolve", evolution.evolve)
    add("evolution.variance", evolution.position_variance)
    add("evolution.variance", evolution.momentum_variance)
    add("spectral.summary", spectral.spectral_summary)
    add("spectral.summary", spectral.mean_excitation)
    add("spectral.summary", spectral.von_neumann_entropy)
    add("averaging.phase_average", averaging.phase_average)
    add("observation.measure_profile", observation.measure_profile)
    for name in model.__all__:
        fn = getattr(model, name)
        if not isinstance(fn, type):
            add("model", fn)
    add("spectral.eigenvalue", spectral.eigenvalue)
    add("spectral.eigenstate_amplitude", spectral.eigenstate_amplitude)
    add("cli.build_parser", cli.build_parser)
    add("cli.main", cli.main)

    def fft_counter(fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            layer = tracer.current_layer()
            if layer is not None:
                tracer.count(f"{layer}.fft_calls")
                tracer.count(f"{layer}.fft_points", int(np.size(a)))
            return fn(a, *args, **kwargs)

        return counted

    for name in _FFT_FUNCTIONS:
        fn = getattr(np.fft, name)
        tracer.rebind([np.fft], fn, fft_counter(fn))

    lstsq = np.linalg.lstsq

    @functools.wraps(lstsq)
    def counted_lstsq(*args, **kwargs):
        layer = tracer.current_layer()
        if layer is not None:
            tracer.count(f"{layer}.lstsq_calls")
        return lstsq(*args, **kwargs)

    tracer.rebind([np.linalg], lstsq, counted_lstsq)
    return tracer
