"""Metric names, units and directions, and the static-memory accounting.

`END_TO_END` and `PER_LAYER` are exactly the metrics of the result line
with tracing off and on; `BENCHMARK.json` lists the same names.
"""

from __future__ import annotations

import numpy as np

from tracing import LAYER_SPANS

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("step_ms", "ms", "lower"),
    ("us_per_elem_step", "us", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# The ndarray attributes of `Tables` at the commit that defined the
# benchmark.  An array a later change removes reads 0; one it adds shows in
# the total and in the printed table.
TABLES_ARRAYS = (
    "P", "wq_vol", "PHI_V", "DPHI_V", "XY_V", "DVOL_MAT", "wq_edge", "N1D",
    "edge_dofs", "XY_E", "PHI_E", "DPHI_E", "D2PHI_E", "ORIENT_IDX", "W_EDGE",
    "W_EDGE_MAT", "edge_side_local", "PDG1", "PDG2", "EDGE_DIST",
    "VERTEX_NORMAL", "MID_NORMAL", "DOF_NORMAL", "point_count", "SUB_AREA",
    "SUB_G", "SUB_NORMAL", "SUB_CENTROID", "SUB_XY",
)

PER_LAYER = (
    ("meshgen.build_s", "s", "lower"),
    ("spatial_ho.tables_build_s", "s", "lower"),
    ("mesh.bytes_per_elem", "B", "lower"),
    ("spatial_ho.tables_bytes_per_elem", "B", "lower"),
    *((f"spatial_ho.tables_bytes_per_elem.{a}", "B", "lower") for a in TABLES_ARRAYS),
    *((name, "ms", "lower") for name in LAYER_SPANS),
    ("models.velocity_calls_per_step", "count", "lower"),
    ("limiting.max_blend_calls_per_step", "count", "lower"),
    ("spatial_ho.omega_fallback_per_step", "count", "lower"),
    ("spatial_ho.rescued_volume_per_step", "count", "lower"),
    ("spatial_ho.rescued_trace_per_step", "count", "lower"),
    ("limiting.rescued_per_step", "count", "lower"),
    ("limiting.eta_hi_frac", "ratio", "higher"),
    ("limiting.eta_lo_frac", "ratio", "lower"),
    ("limiting.theta_min", "ratio", "higher"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def unit_of(name: str) -> str:
    """Unit of any reported metric, listed or not."""
    for n, unit, _ in END_TO_END + PER_LAYER:
        if n == name:
            return unit
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_frac") else "1"


def _ndarray_bytes(obj) -> dict:
    return {k: v.nbytes for k, v in vars(obj).items() if isinstance(v, np.ndarray)}


def static_memory(mesh, tables) -> dict:
    """Bytes per triangle held by the mesh and by the tables, per array."""
    nt = mesh.num_tris
    tab = _ndarray_bytes(tables)
    out = {
        "mesh.bytes_per_elem": sum(_ndarray_bytes(mesh).values()) / nt,
        "spatial_ho.tables_bytes_per_elem": sum(tab.values()) / nt,
    }
    for name in dict.fromkeys(TABLES_ARRAYS + tuple(tab)):
        out[f"spatial_ho.tables_bytes_per_elem.{name}"] = tab.get(name, 0) / nt
    return out


def journal_metrics(journals) -> dict:
    """Limiter activity per RK3 step from the stepper's journal rows."""
    rows = [row for journal in journals for row in journal]
    if not rows:
        return {}
    n = len(rows)

    def per_step(*keys):
        return sum(row[k] for row in rows for k in keys) / n

    return {
        "spatial_ho.omega_fallback_per_step": per_step("omega_fallback"),
        "spatial_ho.rescued_volume_per_step": per_step("rescued_volume"),
        "spatial_ho.rescued_trace_per_step": per_step("rescued_trace"),
        "limiting.rescued_per_step": per_step("rescued_points", "rescued_edges"),
        "limiting.eta_hi_frac": per_step("eta_hi_frac"),
        "limiting.eta_lo_frac": per_step("eta_lo_frac"),
        "limiting.theta_min": min(row["theta_min"] for row in rows),
    }
