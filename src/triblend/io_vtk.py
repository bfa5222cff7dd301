"""Legacy ASCII VTK and CSV writers.

Two grids per solution: the averages live as cell data on linear triangles;
the point values as point data on quadratic (6-node) triangles whose
midside nodes are the edge-midpoint DoFs.  All floats print with 17
significant digits so a reread reproduces the doubles bit-for-bit.
"""

from __future__ import annotations

import csv

import numpy as np


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _scalar_fields(model, u):
    """Named scalar arrays for output; Euler adds derived quantities."""
    if u.shape[-1] == 1:
        return [("u", u[..., 0])]
    rho = u[..., 0]
    p = model.pressure(u)
    speed = np.hypot(u[..., 1], u[..., 2]) / rho
    # A state without positive pressure, which an unlimited run may accept
    # and an abort record writes, has no Mach number: it prints nan or inf.
    with np.errstate(divide="ignore", invalid="ignore"):
        mach = speed / model.sound_speed(u)
    return [
        ("density", rho),
        ("momentum_x", u[..., 1]),
        ("momentum_y", u[..., 2]),
        ("energy", u[..., 3]),
        ("pressure", p),
        ("speed", speed),
        ("mach", mach),
    ]


def _write_grid(path, title, xy, cells, cell_type, data, u, model):
    """Unstructured grid of `cells` (NT, k) over the points xy, carrying the
    scalar fields of the states u as `data` (CELL_DATA or POINT_DATA)."""
    out = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {len(xy)} double",
    ]
    out.extend(f"{_fmt(x)} {_fmt(y)} 0" for x, y in xy)
    nt, k = cells.shape
    out.append(f"CELLS {nt} {(k + 1) * nt}")
    out.extend(f"{k} " + " ".join(str(i) for i in c) for c in cells)
    out.append(f"CELL_TYPES {nt}")
    out.extend(cell_type for _ in range(nt))
    out.append(f"{data} {len(u)}")
    for name, vals in _scalar_fields(model, np.asarray(u)):
        out.append(f"SCALARS {name} double 1")
        out.append("LOOKUP_TABLE default")
        out.extend(_fmt(v) for v in vals)
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


def write_vtk_averages(path, mesh, ubar, model) -> None:
    """Linear triangles carrying the cell averages as cell data."""
    _write_grid(
        path, "cell averages", mesh.verts, mesh.tris, "5", "CELL_DATA", ubar, model
    )


def write_vtk_points(path, mesh, upt, model) -> None:
    """Quadratic triangles carrying the point-value DoFs as point data."""
    dofs = mesh.gather_points(np.arange(mesh.num_points)).T  # (NT, 6)
    _write_grid(
        path, "point values", mesh.point_xy, dofs, "22", "POINT_DATA", upt, model
    )


def _write_rows(path, rows, fmt):
    """Dict rows as CSV with their keys as the header, each value written
    as fmt(value); no rows give a header-less empty file."""
    with open(path, "w", newline="") as fh:
        if not rows:
            return
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows({k: fmt(v) for k, v in row.items()} for row in rows)


def journal_writer(fh):
    """A function that writes one per-step progress row to the open text
    file fh as CSV, after the first row's keys as the header, and flushes
    it: fh holds every row written so far, and stays empty without one."""

    def write(row):
        writer = csv.DictWriter(fh, fieldnames=list(row))
        if fh.tell() == 0:
            writer.writeheader()
        writer.writerow(row)
        fh.flush()

    return write


def write_diagnostics_csv(path, mesh, theta, eta_point, eta_edge) -> None:
    """Limiter state dump: one row per element / edge / point DoF.

    Columns kind,index,x,y,value with kind in {theta, eta_edge, eta_point};
    eta_point is the minimum over the owning elements of each point DoF.
    """
    eta_pt = np.full(mesh.num_points, np.inf)
    np.minimum.at(eta_pt, mesh.gather_points(np.arange(mesh.num_points)).T, eta_point)
    blocks = (
        ("theta", mesh.verts[mesh.tris].mean(axis=1), theta),
        ("eta_edge", mesh.edge_mid, eta_edge),
        ("eta_point", mesh.point_xy, eta_pt),
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "index", "x", "y", "value"])
        for kind, xy, values in blocks:
            for i, (x, y) in enumerate(xy):
                writer.writerow([kind, i, _fmt(x), _fmt(y), _fmt(values[i])])


def write_convergence_csv(path, rows) -> None:
    """Error table rows (from norms.convergence_rows) as CSV."""
    _write_rows(path, rows, lambda v: _fmt(v) if isinstance(v, float) else v)
