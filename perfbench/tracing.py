"""Layer tracing from outside the solver.

`instrument` wraps the public callables of each layer of a built workload
(instance methods of the stepper, its HO and LO operators, its tables, the
model, the boundary handler and the enforced domain, plus the limiter
functions the time loop calls through module globals).  Every call records
a span (name, start, end, parent) in memory; a layer's self time is its
span's duration minus the durations of its child spans.  Nothing under
`src/` changes, and leaving the context restores every wrapped callable.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import triblend.limiting
import triblend.timeloop

# (span prefix, attribute of the stepper holding the object, methods)
_OBJECT_METHODS = (
    ("timeloop", None, ("compute_dt", "rk3_step")),
    ("spatial_ho", "ho", ("compute", "interface_fluxes", "omega_weights")),
    (
        "spatial_ho",
        "tables",
        ("coefficients", "edge_traces", "centroid_values", "edge_side_gradients"),
    ),
    ("spatial_lo", "lo", ("compute", "average_fluxes", "point_residuals")),
    (
        "models",
        "model",
        (
            "flux", "flux_normal", "flux_normal_split", "jac_normal",
            "sign_jac_normal", "max_wavespeed", "jac_apply",
        ),
    ),
    ("boundary", "ho.bc", ("ho_flux", "ghost_average")),
    ("limiting", "enforce_domain", ("contains", "max_blend")),
)
# Functions the time loop reaches through module globals.
_MODULE_FUNCTIONS = (
    (triblend.timeloop, "damping_theta"),
    (triblend.timeloop, "blend_point_residuals"),
    (triblend.timeloop, "blend_average_fluxes"),
    (triblend.limiting, "damping_sigma"),
)
# Calls counted without a span, so their time stays with the caller.
_COUNTED = (("models.velocity_calls", "model", "velocity_at"),)

# Per-layer metric (ms of self time per RK3 step) -> spans it sums.
LAYER_SPANS = {
    "spatial_ho.compute_ms": ("spatial_ho.compute",),
    "spatial_ho.omega_weights_ms": ("spatial_ho.omega_weights",),
    "spatial_ho.interface_fluxes_ms": (
        "spatial_ho.interface_fluxes",
        "spatial_ho.edge_traces",
    ),
    "spatial_ho.edge_side_gradients_ms": ("spatial_ho.edge_side_gradients",),
    "boundary.ho_flux_ms": ("boundary.ho_flux",),
    "boundary.ghost_average_ms": ("boundary.ghost_average",),
    "models.sign_jac_normal_ms": ("models.sign_jac_normal",),
    "models.max_wavespeed_ms": ("models.max_wavespeed",),
    "models.flux_ms": ("models.flux",),
    "models.flux_normal_ms": ("models.flux_normal",),
    "models.jac_apply_ms": ("models.jac_apply",),
    "spatial_lo.point_residuals_ms": ("spatial_lo.point_residuals",),
    "spatial_lo.average_fluxes_ms": ("spatial_lo.average_fluxes",),
    "limiting.damping_ms": ("limiting.damping_theta", "limiting.damping_sigma"),
    "limiting.max_blend_ms": ("limiting.max_blend", "limiting.contains"),
    "limiting.blend_ms": (
        "limiting.blend_point_residuals",
        "limiting.blend_average_fluxes",
    ),
    "timeloop.compute_dt_ms": ("timeloop.compute_dt",),
    "timeloop.rk3_self_ms": ("timeloop.rk3_step",),
}
STEP_SPAN = "timeloop.rk3_step"


class Tracer:
    """Spans (name, start, end, parent index; -1 for a root) and call counts."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def counted(self, name, fn):
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def self_times(self) -> dict:
        """Total self time in seconds and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        calls = Counter()
        for (name, start, end, _), c in zip(self.spans, child):
            total[name] += end - start - c
            calls[name] += 1
        return {name: (total[name], calls[name]) for name in total}

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("name,start,end,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent}\n")


def _resolve(stepper, path):
    obj = stepper
    for part in path.split(".") if path else ():
        obj = getattr(obj, part, None)
    return obj


@contextmanager
def instrument(tracer: Tracer, stepper):
    """Wrap the layer callables of `stepper` for the duration of the block."""
    undo = []

    def patch(obj, attr, wrapper):
        if attr in vars(obj):
            undo.append(functools.partial(setattr, obj, attr, vars(obj)[attr]))
        else:
            undo.append(functools.partial(delattr, obj, attr))
        setattr(obj, attr, wrapper)

    try:
        for prefix, path, methods in _OBJECT_METHODS:
            obj = _resolve(stepper, path)
            if obj is None:
                continue
            for m in methods:
                if hasattr(obj, m):
                    patch(obj, m, tracer.wrap(f"{prefix}.{m}", getattr(obj, m)))
        for name, path, m in _COUNTED:
            obj = _resolve(stepper, path)
            if obj is not None and hasattr(obj, m):
                patch(obj, m, tracer.counted(name, getattr(obj, m)))
        for module, fn in _MODULE_FUNCTIONS:
            patch(module, fn, tracer.wrap(f"limiting.{fn}", getattr(module, fn)))
        yield tracer
    finally:
        for restore in reversed(undo):
            restore()


@contextmanager
def trace_tables(tracer: Tracer):
    """Time `Tables` construction inside `Stepper.__init__`."""
    original = triblend.timeloop.Tables
    triblend.timeloop.Tables = tracer.wrap("spatial_ho.tables_build", original)
    try:
        yield
    finally:
        triblend.timeloop.Tables = original


def layer_metrics(tracer: Tracer, wall_s: float) -> tuple[dict, dict]:
    """Per-step layer metrics of traced solves that took `wall_s` seconds.

    Returns the named layer metrics and the self time per step of every
    span, so that time outside the named layers stays visible.
    """
    st = tracer.self_times()
    steps = max(st.get(STEP_SPAN, (0.0, 0))[1], 1)
    out = {
        name: 1e3 * sum(st.get(s, (0.0, 0))[0] for s in spans) / steps
        for name, spans in LAYER_SPANS.items()
    }
    out["models.velocity_calls_per_step"] = (
        tracer.counts["models.velocity_calls"] / steps
    )
    out["limiting.max_blend_calls_per_step"] = (
        st.get("limiting.max_blend", (0.0, 0))[1] / steps
    )
    out["trace.coverage"] = sum(t for t, _ in st.values()) / wall_s
    by_span = {f"span.{name}_ms": 1e3 * t / steps for name, (t, _) in sorted(st.items())}
    return out, by_span
