import csv

import numpy as np

from triblend.io_vtk import (
    write_convergence_csv,
    write_diagnostics_csv,
    write_journal_csv,
    write_vtk_averages,
    write_vtk_points,
)
from triblend.mesh import Mesh
from triblend.models import Euler, LinearAdvection


def unit_square_mesh():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return Mesh(verts, np.array([[0, 1, 2], [0, 2, 3]]))


GOLDEN_AVERAGES = """\
# vtk DataFile Version 3.0
cell averages
ASCII
DATASET UNSTRUCTURED_GRID
POINTS 4 double
0 0 0
1 0 0
1 1 0
0 1 0
CELLS 2 8
3 0 1 2
3 0 2 3
CELL_TYPES 2
5
5
CELL_DATA 2
SCALARS u double 1
LOOKUP_TABLE default
0.25
0.75
"""


def test_averages_file_matches_golden_bytes(tmp_path):
    path = tmp_path / "avg.vtk"
    write_vtk_averages(
        path, unit_square_mesh(), np.array([[0.25], [0.75]]),
        LinearAdvection(np.array([1.0, 0.0])),
    )
    assert path.read_text() == GOLDEN_AVERAGES


def _section(lines, tag):
    """Values of the SCALARS block named `tag`."""
    i = next(k for k, ln in enumerate(lines) if ln.startswith(f"SCALARS {tag} "))
    vals = []
    for ln in lines[i + 2:]:
        if ln.startswith(("SCALARS", "CELL", "POINT")):
            break
        vals.append(float(ln))
    return np.array(vals)


def test_point_file_reread_is_bitwise(tmp_path):
    mesh = unit_square_mesh()
    rng = np.random.default_rng(3)
    upt = rng.normal(size=(mesh.num_points, 1)) * np.pi
    path = tmp_path / "pts.vtk"
    write_vtk_points(path, mesh, upt, LinearAdvection(np.array([1.0, 0.0])))
    lines = path.read_text().splitlines()

    # 17 significant digits: parsing must reproduce the doubles exactly.
    assert np.array_equal(_section(lines, "u"), upt[:, 0])
    i = lines.index(f"POINTS {mesh.num_points} double")
    coords = np.array(
        [[float(v) for v in ln.split()] for ln in lines[i + 1 : i + 1 + mesh.num_points]]
    )
    assert np.array_equal(coords[:, :2], mesh.point_xy)
    assert np.all(coords[:, 2] == 0.0)

    # Quadratic-triangle connectivity: 6 nodes per cell, type 22.
    i = lines.index(f"CELLS {mesh.num_tris} {7 * mesh.num_tris}")
    for k in range(mesh.num_tris):
        nodes = [int(v) for v in lines[i + 1 + k].split()]
        assert nodes[0] == 6
        nv = len(mesh.verts)
        assert nodes[1:] == [*mesh.tris[k], *(nv + mesh.tri_edges[k])]
    i = lines.index(f"CELL_TYPES {mesh.num_tris}")
    assert all(ln == "22" for ln in lines[i + 1 : i + 1 + mesh.num_tris])


def test_euler_output_carries_derived_fields(tmp_path):
    mesh = unit_square_mesh()
    model = Euler(1.4)
    rng = np.random.default_rng(9)
    rho = 1.0 + rng.random(mesh.num_points)
    vx, vy = rng.normal(size=(2, mesh.num_points))
    p = 1.0 + rng.random(mesh.num_points)
    upt = model.conserved(rho, vx, vy, p)
    path = tmp_path / "e.vtk"
    write_vtk_points(path, mesh, upt, model)
    lines = path.read_text().splitlines()

    assert np.array_equal(_section(lines, "density"), upt[:, 0])
    assert np.array_equal(_section(lines, "energy"), upt[:, 3])
    assert np.allclose(_section(lines, "pressure"), p, rtol=1e-14, atol=0)
    speed = np.hypot(vx, vy)
    assert np.allclose(_section(lines, "speed"), speed, rtol=1e-14, atol=0)
    mach = speed / np.sqrt(1.4 * p / rho)
    assert np.allclose(_section(lines, "mach"), mach, rtol=1e-13, atol=0)


def test_journal_csv_round_trip(tmp_path):
    rows = [
        {"step": 1, "t": 0.1, "dt": 0.1, "theta_min": 0.5},
        {"step": 2, "t": 0.3, "dt": 0.2, "theta_min": 1.0},
    ]
    path = tmp_path / "j.csv"
    write_journal_csv(path, rows)
    with open(path, newline="") as fh:
        got = list(csv.DictReader(fh))
    assert len(got) == 2
    assert got[0]["step"] == "1"
    assert float(got[1]["dt"]) == 0.2

    empty = tmp_path / "empty.csv"
    write_journal_csv(empty, [])
    assert empty.read_text() == ""


def test_diagnostics_csv_scatters_point_minima(tmp_path):
    mesh = unit_square_mesh()
    theta = np.array([0.25, 0.75])
    eta_edge = np.linspace(0.0, 1.0, mesh.num_edges)
    eta_point = np.array(
        [[0.1, 0.2, 0.3, 0.4, 0.5, 0.6], [0.7, 0.8, 0.9, 0.15, 0.25, 0.35]]
    )
    path = tmp_path / "d.csv"
    write_diagnostics_csv(path, mesh, theta, eta_point, eta_edge)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_kind = {}
    for r in rows:
        by_kind.setdefault(r["kind"], {})[int(r["index"])] = float(r["value"])
    assert len(by_kind["theta"]) == mesh.num_tris
    assert len(by_kind["eta_edge"]) == mesh.num_edges
    assert len(by_kind["eta_point"]) == mesh.num_points
    assert by_kind["theta"][0] == 0.25
    # Shared DoFs keep the minimum over their owning elements:
    # the point DoFs of the elements are [0,1,2,4,7,5] and [0,2,3,5,8,6].
    assert by_kind["eta_point"][0] == 0.1  # min(0.1, 0.7)
    assert by_kind["eta_point"][2] == 0.3  # min(0.3, 0.8)
    assert by_kind["eta_point"][5] == 0.15  # min(0.6, 0.15)
    assert by_kind["eta_point"][7] == 0.5  # only in the first element


def test_convergence_csv_preserves_markers(tmp_path):
    rows = [
        {"h": 1.0, "internal_l1": 0.5, "internal_l1_order": ""},
        {"h": 0.5, "internal_l1": 0.0, "internal_l1_order": "NA"},
    ]
    path = tmp_path / "c.csv"
    write_convergence_csv(path, rows)
    with open(path, newline="") as fh:
        got = list(csv.DictReader(fh))
    assert got[0]["internal_l1_order"] == ""
    assert got[1]["internal_l1_order"] == "NA"
    assert float(got[0]["internal_l1"]) == 0.5
