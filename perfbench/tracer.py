"""Spans around the public functions of each cvphase layer, installed from outside.

Every public function of a ``cvphase`` module is wrapped at each name a
caller looks it up by: ``cvphase.cli.run_circuit`` and
``cvphase.grid.prepare_gaussian`` are separate bindings, so both get a
wrapper.  A span is ``(name, layer, start, end, parent, request)``, where
``request`` names the workload and the CLI call; spans stay in memory and
are reduced to per-call sums when each CLI call ends.
A layer's self time is its spans' durations minus the time covered by their
child spans.

``dj_classify`` is left unwrapped: it runs once per trial record (millions
per ``dj`` call), a span around it would double the call's time, and its
time counts in the caller's self time (``cli.cmd_self_s``).

Work the benchmark does inside a traced call (norm checks on grid stages,
the bare-draw floor) is recorded as a ``bench`` span, so it is subtracted
from the layer that surrounds it and reported on its own.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time

import numpy as np

LAYERS = ("cli", "model", "stats", "quadrature", "grid", "experiments")
GRID_STAGES = {
    "prepare_gaussian": "prepare",
    "fourier": "fourier",
    "apply_blackbox": "blackbox",
    "inverse_fourier": "inverse",
    "measure_povm": "detect",
}
_UNWRAPPED = frozenset({"dj_classify"})
_DEFAULT_QUAD_TOL = 1e-10
_clock = time.perf_counter


def _argument(sig, args, kwargs, name, default=None):
    if sig is None:
        return default
    try:
        bound = sig.bind(*args, **kwargs)
    except TypeError:
        return default
    return bound.arguments.get(name, default)


class Tracer:
    """Wraps the layers of an imported ``cvphase`` and records spans per CLI call."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.request = ""
        self.spans: list = []
        self.stack: list[int] = []
        self.sums: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.calls = 0
        self._saved: list[tuple[object, str, object]] = []
        self._modules = {
            layer: sys.modules[f"cvphase.{layer}"] for layer in LAYERS
        }

    # ------------------------------------------------------------------ install
    def install(self) -> None:
        for module in self._modules.values():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or name in _UNWRAPPED or not inspect.isfunction(obj):
                    continue
                owner = getattr(obj, "__module__", "") or ""
                if not owner.startswith("cvphase."):
                    continue
                layer = owner.split(".", 1)[1]
                if layer not in LAYERS:
                    continue
                self._replace(module, name, obj, layer)
        # scipy's integrator, as the quadrature layer looks it up: one call per segment
        quadrature = self._modules["quadrature"]
        if callable(getattr(quadrature, "quad", None)):
            self._replace(quadrature, "quad", quadrature.quad, "quadrature")

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _replace(self, module, name, fn, layer) -> None:
        self._saved.append((module, name, fn))
        setattr(module, name, self._span_wrapper(fn, name, layer, self._hook_for(name, fn)))

    def _span_wrapper(self, fn, name, layer, hook):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                spans[idx] = (name, layer, t0, t1, parent, self.request)
            if hook is not None:
                hook(args, kwargs, result, t1 - t0)
                spans.append(("check", "bench", t1, _clock(), parent, self.request))
            return result

        return wrapper

    # ------------------------------------------------------------------- hooks
    def _add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + value

    def _max(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, -math.inf):
            self.maxima[key] = value

    def _hook_for(self, name, fn):
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            sig = None
        if name in GRID_STAGES:
            def norm_hook(args, kwargs, result, dt):
                norm_sq = getattr(result, "norm_sq", None)
                if callable(norm_sq):
                    self._max("grid.norm_drift_max", abs(norm_sq() - 1.0))
            return norm_hook
        if name == "run_circuit":
            def circuit_hook(args, kwargs, result, dt):
                n = int(_argument(sig, args, kwargs, "n", 0) or 0)
                self._add("grid.circuits", 1.0)
                self._add("grid.points", float(n))
                if n > 0:
                    # state traffic model: prepare writes the state; each of the
                    # two transforms reads/writes it twice (ramps and FFT); the
                    # mask reads and writes it once; detection reads it
                    self._add("grid.bytes_computed", 16.0 * n * (1 + 4 + 2 + 4 + 1))
                    self._add("grid.fft_flops_computed", 2 * 5.0 * n * math.log2(n))
            return circuit_hook
        if name == "prob_x0_quadrature":
            def quad_hook(args, kwargs, result, dt):
                spec = _argument(sig, args, kwargs, "spec", None)
                tol = getattr(spec, "abs_tol", _DEFAULT_QUAD_TOL)
                err = getattr(result, "error_estimate", None)
                if err is not None and tol > 0:
                    self._max("quadrature.err_over_tol_max", err / tol)
            return quad_hook
        if name == "sample_outcomes":
            def sample_hook(args, kwargs, result, dt):
                n = int(_argument(sig, args, kwargs, "n", 0) or 0)
                seed = _argument(sig, args, kwargs, "seed", None)
                self._add("experiments.trials", float(n))
                self._add("experiments.sample_s", dt)
                try:
                    self._add("experiments.records_built", float(len(result)))
                except TypeError:
                    pass
                if n > 0 and seed is not None:
                    self._add("experiments.draw_floor_s", bare_draw_seconds(seed, n))
            return sample_hook
        if name == "mle_phi":
            def mle_hook(args, kwargs, result, dt):
                self._add("experiments.mle_s", dt)
            return mle_hook
        return None

    # --------------------------------------------------------------- reduction
    def begin_call(self) -> None:
        self.calls += 1
        self.request = f"{self.workload}:{self.calls}"
        self.spans.clear()
        self.stack.clear()
        self.sums.clear()
        self.maxima.clear()

    def end_call(self) -> dict:
        """Reduce the spans of the finished call to sums keyed by metric name."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[4] >= 0:
                child[span[4]] += span[3] - span[2]
        sums = dict(self.sums)

        def add(key, value):
            sums[key] = sums.get(key, 0.0) + value

        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            name, layer, t0, t1, parent, _ = span
            own = (t1 - t0) - child[idx]
            if layer == "bench":
                add("trace.bench_s", own)
                continue
            if layer == "cli" and name.startswith("cmd_"):
                add("cli.cmd_self_s", own)
            else:
                add(f"{layer}.self_s", own)
            if name != "quad":
                add(f"{layer}.calls", 1.0)
            if name == "validate_params":
                add("model.validate_calls", 1.0)
                add("model.validate_s", own)
            elif name == "quad" and layer == "quadrature":
                add("quadrature.segments", 1.0)
            elif name in GRID_STAGES:
                stage = GRID_STAGES[name]
                add(f"grid.{stage}_s", own)
                add(f"grid.{stage}_calls", 1.0)
            elif name == "sample_outcomes":
                add("experiments.sample_calls", 1.0)
            elif name == "mle_phi":
                add("experiments.mle_calls", 1.0)
        return {"sums": sums, "maxima": dict(self.maxima)}


def bare_draw_seconds(seed, n: int) -> float:
    """Time the bare Bernoulli draw the Monte-Carlo layer is built on."""
    material = tuple(int(s) for s in seed) if isinstance(seed, tuple) else int(seed)
    t0 = _clock()
    np.random.Generator(np.random.PCG64(np.random.SeedSequence(material))).random(n) < 0.5
    return _clock() - t0
