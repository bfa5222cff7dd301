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


def _header(out, title, npoints, xy):
    out.append("# vtk DataFile Version 3.0")
    out.append(title)
    out.append("ASCII")
    out.append("DATASET UNSTRUCTURED_GRID")
    out.append(f"POINTS {npoints} double")
    for x, y in xy:
        out.append(f"{_fmt(x)} {_fmt(y)} 0")


def _scalar_fields(model, u):
    """Named scalar arrays for output; Euler adds derived quantities."""
    if u.shape[-1] == 1:
        return [("u", u[..., 0])]
    rho = u[..., 0]
    p = model.pressure(u)
    speed = np.hypot(u[..., 1], u[..., 2]) / rho
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


def _data_block(out, kind, count, fields):
    out.append(f"{kind} {count}")
    for name, vals in fields:
        out.append(f"SCALARS {name} double 1")
        out.append("LOOKUP_TABLE default")
        out.extend(_fmt(v) for v in vals)


def write_vtk_averages(path, mesh, ubar, model) -> None:
    """Linear triangles carrying the cell averages as cell data."""
    out: list[str] = []
    _header(out, "cell averages", len(mesh.verts), mesh.verts)
    nt = mesh.num_tris
    out.append(f"CELLS {nt} {4 * nt}")
    for a, b, c in mesh.tris:
        out.append(f"3 {a} {b} {c}")
    out.append(f"CELL_TYPES {nt}")
    out.extend("5" for _ in range(nt))
    _data_block(out, "CELL_DATA", nt, _scalar_fields(model, np.asarray(ubar)))
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


def write_vtk_points(path, mesh, upt, model) -> None:
    """Quadratic triangles carrying the point-value DoFs as point data."""
    out: list[str] = []
    _header(out, "point values", mesh.num_points, mesh.point_xy)
    nt = mesh.num_tris
    out.append(f"CELLS {nt} {7 * nt}")
    for dofs in mesh.tri_point_dofs:
        out.append("6 " + " ".join(str(d) for d in dofs))
    out.append(f"CELL_TYPES {nt}")
    out.extend("22" for _ in range(nt))
    _data_block(
        out, "POINT_DATA", mesh.num_points, _scalar_fields(model, np.asarray(upt))
    )
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


def write_journal_csv(path, journal) -> None:
    """Per-step progress rows as CSV (no rows -> header-less empty file)."""
    with open(path, "w", newline="") as fh:
        if not journal:
            return
        writer = csv.DictWriter(fh, fieldnames=list(journal[0].keys()))
        writer.writeheader()
        writer.writerows(journal)


def write_diagnostics_csv(path, mesh, theta, eta_point, eta_edge) -> None:
    """Limiter state dump: one row per element / edge / point DoF.

    Columns kind,index,x,y,value with kind in {theta, eta_edge, eta_point};
    eta_point is the minimum over the owning elements of each point DoF.
    """
    eta_pt = np.full(mesh.num_points, np.inf)
    np.minimum.at(eta_pt, mesh.tri_point_dofs, eta_point)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "index", "x", "y", "value"])
        cent = mesh.centroids
        for k in range(mesh.num_tris):
            writer.writerow(
                ["theta", k, _fmt(cent[k, 0]), _fmt(cent[k, 1]), _fmt(theta[k])]
            )
        for e in range(mesh.num_edges):
            writer.writerow(
                [
                    "eta_edge",
                    e,
                    _fmt(mesh.edge_mid[e, 0]),
                    _fmt(mesh.edge_mid[e, 1]),
                    _fmt(eta_edge[e]),
                ]
            )
        for p in range(mesh.num_points):
            writer.writerow(
                [
                    "eta_point",
                    p,
                    _fmt(mesh.point_xy[p, 0]),
                    _fmt(mesh.point_xy[p, 1]),
                    _fmt(eta_pt[p]),
                ]
            )


def write_convergence_csv(path, rows) -> None:
    """Error table rows (from norms.convergence_rows) as CSV."""
    with open(path, "w", newline="") as fh:
        if not rows:
            return
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {
                    k: (_fmt(v) if isinstance(v, float) else v)
                    for k, v in row.items()
                }
            )
