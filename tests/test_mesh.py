"""Mesh topology/geometry invariants and MSH parsing."""

import numpy as np
import pytest

from triblend.cli import _build, main
from triblend.config import RunConfig
from triblend.exceptions import MeshError, UnsupportedElement
from triblend.mesh import Mesh, read_msh, triangle_geometry
from triblend.meshgen import (
    ldomain_mesh,
    polygon_mesh,
    rect_mesh,
    refine4,
    write_msh2,
)
from triblend.problems import get_problem


@pytest.fixture(scope="module")
def small_mesh():
    return rect_mesh((0.0, 1.0, 0.0, 1.0), 6, seed=3)


def centroids(m):
    return m.verts[m.tris].mean(axis=1)


def test_triangle_geometry_basic():
    area, g = triangle_geometry(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert area == pytest.approx(0.5)
    assert np.allclose(g[0], [-1, -1])
    assert np.allclose(g[1], [1, 0])
    assert np.allclose(g[2], [0, 1])


def test_triangle_geometry_rejects_clockwise():
    with pytest.raises(MeshError):
        triangle_geometry(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))


def test_gradients_are_affine_duals(small_mesh):
    m = small_mesh
    pts = m.verts[m.tris]  # (NT, 3, 2)
    for i in range(3):
        for j in range(3):
            d = np.einsum(
                "td,td->t", m.grad_lambda[:, i], pts[:, j] - pts[:, i]
            )
            want = 0.0 if i == j else -1.0
            assert np.allclose(d, want, atol=1e-12)


def test_total_area(small_mesh):
    assert small_mesh.areas.sum() == pytest.approx(1.0, rel=1e-13)
    assert np.all(small_mesh.areas > 0)


def test_ccw_autofix():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    m = Mesh(verts, np.array([[0, 2, 1]]))  # clockwise input
    assert m.areas[0] == pytest.approx(0.5)


def test_edge_conventions(small_mesh):
    m = small_mesh
    # Every local edge maps to the right global edge, and the orientation
    # flag recovers the outward normal.
    for k in range(3):
        a = m.tris[:, k]
        b = m.tris[:, (k + 1) % 3]
        e = m.tri_edges[:, k]
        assert np.all(
            (np.minimum(a, b) == m.edge_verts[e].min(axis=1))
            & (np.maximum(a, b) == m.edge_verts[e].max(axis=1))
        )
    n_out = m.outward_normal()  # (NT, 3, 2)
    for k in range(3):
        mid = m.edge_mid[m.tri_edges[:, k]]
        out = np.einsum("td,td->t", n_out[:, k], mid - centroids(m))
        assert np.all(out > 0)
    assert np.allclose(np.linalg.norm(m.edge_normal, axis=1), 1.0, atol=1e-14)


def test_edge_normal_points_out_of_side0(small_mesh):
    m = small_mesh
    c0 = centroids(m)[m.edge_tris[:, 0]]
    s = np.einsum("ed,ed->e", m.edge_normal, m.edge_mid - c0)
    assert np.all(s > 0)
    interior = m.edge_tris[:, 1] >= 0
    c1 = centroids(m)[m.edge_tris[interior, 1]]
    s1 = np.einsum(
        "ed,ed->e", m.edge_normal[interior], m.edge_mid[interior] - c1
    )
    assert np.all(s1 < 0)


def test_boundary_edges_on_hull(small_mesh):
    m = small_mesh
    mids = m.edge_mid[m.boundary_edges]
    on_rim = (
        (np.abs(mids[:, 0]) < 1e-12)
        | (np.abs(mids[:, 0] - 1) < 1e-12)
        | (np.abs(mids[:, 1]) < 1e-12)
        | (np.abs(mids[:, 1] - 1) < 1e-12)
    )
    assert np.all(on_rim)
    # Euler relation for a disk-like domain: V - E + T = 1.
    assert (
        len(m.verts) - m.num_edges + m.num_tris == 1
    )


def test_point_areas(small_mesh):
    m = small_mesh
    assert np.all(m.point_area > 0)
    # Each triangle donates |K|/9 to each of its six point DoFs.
    assert m.point_area.sum() == pytest.approx(
        (2.0 / 3.0) * m.areas.sum(), rel=1e-13
    )
    # A midpoint of an interior edge is shared by exactly two triangles.
    e = int(m.edge_tris[:, 1].argmax())  # some interior edge
    k0, k1 = m.edge_tris[e]
    want = (m.areas[k0] + m.areas[k1]) / 9.0
    assert m.point_area[len(m.verts) + e] == pytest.approx(want, rel=1e-13)


def test_mesh_stores_each_fact_once():
    # Connectivity is int32 (the +-1 orientation int8), nothing that the
    # other arrays give is stored, and every attribute is an array, so
    # that the bytes below count all of the mesh.
    m = rect_mesh((0.0, 1.0, 0.0, 1.0), 32, seed=2)
    assert m.num_tris == 2048
    state = vars(m)
    assert all(isinstance(v, np.ndarray) for v in state.values())
    assert not {"tri_point_dofs", "centroids", "edge_name"} & set(state)
    ints = {k: v.dtype for k, v in state.items() if v.dtype.kind in "iu"}
    assert ints == {
        "tris": np.int32,
        "tri_edges": np.int32,
        "tri_edge_orient": np.int8,
        "edge_verts": np.int32,
        "edge_tris": np.int32,
        "boundary_edges": np.int32,
    }
    assert len(m.boundary_name) == len(m.boundary_edges)
    assert sum(v.nbytes for v in state.values()) / m.num_tris <= 200


def test_edge_keys_do_not_wrap():
    # The edge key lo (NV + 1) + hi of ids near 50,000 passes 2**31 for some
    # edges of this square and not for others, so keys formed in int32
    # would wrap and reorder its edges.  Relabelled, the square on ids
    # 42000, 42001, 49999, 50000 of a 50,001-vertex mesh is the one on ids
    # 0-3.
    xy = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    ids = np.array([42000, 42001, 49999, 50000])
    assert 42000 * 50002 + 50000 < 2**31 < 49999 * 50002 + 50000
    verts = np.zeros((50001, 2))
    verts[ids] = xy
    big, small = Mesh(verts, ids[tris]), Mesh(xy, tris)
    relabel = np.full(len(verts), -1)
    relabel[ids] = np.arange(4)
    assert np.array_equal(relabel[big.edge_verts], small.edge_verts)
    assert np.array_equal(big.edge_tris, small.edge_tris)
    assert np.array_equal(big.tri_edges, small.tri_edges)


def test_inradius(small_mesh):
    m = small_mesh
    per = np.zeros(m.num_tris)
    for k in range(3):
        per += m.edge_length[m.tri_edges[:, k]]
    assert np.allclose(m.inradius(), 2 * m.areas / per, atol=1e-15)


def test_nonmanifold_rejected():
    verts = np.array(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 1.0]]
    )
    tris = np.array([[0, 1, 2], [1, 3, 2], [0, 2, 4], [0, 1, 3]])
    # edge (0,1) would belong to triangles 0 and 3, and (1,2)/(0,2) twice too
    with pytest.raises(MeshError):
        Mesh(verts, tris)


def test_refine4(small_mesh):
    m = small_mesh
    r = refine4(m)
    assert r.num_tris == 4 * m.num_tris
    assert r.areas.sum() == pytest.approx(m.areas.sum(), rel=1e-13)
    assert r.h_max() == pytest.approx(0.5 * m.h_max(), rel=1e-12)
    # Nesting: parent vertices survive with identical coordinates.
    assert np.allclose(r.verts[: len(m.verts)], m.verts)


def test_refine4_keeps_boundary_names():
    # Both halves of a named boundary edge keep its name, so that a named
    # MSH mesh keeps its names on the finer levels.
    m = rect_mesh((0.0, 1.0, 0.0, 1.0), 4, seed=5)
    m.name_boundary(lambda mids: [f"{x:.3f},{y:.3f}" for x, y in mids])
    r = refine4(m)
    assert len(r.boundary_edges) == 2 * len(m.boundary_edges)
    for e, nm in zip(r.boundary_edges, r.boundary_name):
        # The half's end that is not a parent vertex is the parent's midpoint.
        x, y = r.verts[r.edge_verts[e].max()]
        assert nm == f"{x:.3f},{y:.3f}"


def test_msh22_roundtrip(tmp_path, small_mesh):
    m = small_mesh

    def namer(mids):
        return ["left" if x < 0.5 else "right" for x, _ in mids]

    m.name_boundary(namer)
    path = tmp_path / "unit.msh"
    write_msh2(path, m)
    back = read_msh(path)
    assert np.allclose(back.verts, m.verts)
    assert back.num_tris == m.num_tris
    assert {tuple(sorted(t)) for t in back.tris} == {
        tuple(sorted(t)) for t in m.tris
    }
    # Boundary names survive (match edges by midpoint coordinates).
    for e, nm in zip(m.boundary_edges, m.boundary_name):
        mid = m.edge_mid[e]
        i = np.argmin(
            np.linalg.norm(back.edge_mid[back.boundary_edges] - mid, axis=1)
        )
        assert back.boundary_name[i] == nm


MSH41_SAMPLE = """$MeshFormat
4.1 0 8
$EndMeshFormat
$PhysicalNames
1
1 7 "lid"
$EndPhysicalNames
$Entities
0 1 1 0
5 0 0 0 1 1 0 1 7 0
1 0 0 0 1 1 0 0 0
$EndEntities
$Nodes
2 4 1 4
1 5 0 2
1
2
0 0 0
1 0 0
2 1 0 2
3
4
1 1 0
0 1 0
$EndNodes
$Elements
2 3 1 3
1 5 1 1
1 3 4
2 1 2 2
2 1 2 3
3 1 3 4
$EndElements
"""


def test_msh41_parse(tmp_path):
    path = tmp_path / "square41.msh"
    path.write_text(MSH41_SAMPLE)
    m = read_msh(path)
    assert len(m.verts) == 4
    assert m.num_tris == 2
    assert m.areas.sum() == pytest.approx(1.0)
    named = [nm for nm in m.boundary_name if nm]
    assert named == ["lid"]


def test_ldomain_mesh():
    m = ldomain_mesh(8, seed=1)
    assert m.areas.sum() == pytest.approx(2.5, rel=1e-12)
    # The notch corner (0, 0) must be an exact mesh vertex.
    d = np.linalg.norm(m.verts, axis=1)
    assert d.min() < 1e-12
    # No triangle pokes into the notch x < 0, y < 0.
    c = centroids(m)
    assert not np.any((c[:, 0] < 0) & (c[:, 1] < 0))


def test_polygon_mesh_ramp():
    tan30 = np.tan(np.pi / 6)
    poly = [
        (-0.25, 0.0),
        (0.0, 0.0),
        (3.0, 3.0 * tan30),
        (3.0, 2.0),
        (-0.25, 2.0),
    ]
    m = polygon_mesh(poly, h=0.1, seed=2)
    # Shoelace area of the polygon.
    p = np.asarray(poly)
    want = 0.5 * np.sum(
        p[:, 0] * np.roll(p[:, 1], -1) - np.roll(p[:, 0], -1) * p[:, 1]
    )
    assert m.areas.sum() == pytest.approx(want, rel=1e-12)
    # All centroids above the ramp line y = x tan(30 deg) for x > 0.
    c = centroids(m)
    above = c[:, 1] > (c[:, 0] * tan30) - 1e-9
    assert np.all(above | (c[:, 0] < 0))

MSH22_MINIMAL = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
3
1 0 0 0
2 1 0 0
3 0 1 0
$EndNodes
$Elements
1
1 2 2 0 1 1 2 3
$EndElements
"""


def test_msh22_minimal_single_triangle(tmp_path):
    path = tmp_path / "tiny.msh"
    path.write_text(MSH22_MINIMAL)
    m = read_msh(path)
    assert m.num_tris == 1
    assert len(m.verts) == 3
    assert len(m.boundary_edges) == 3
    assert np.all(m.edge_tris[:, 1] == -1)


def test_msh22_quadrangle_rejected(tmp_path):
    text = MSH22_MINIMAL.replace(
        "$Elements\n1\n1 2 2 0 1 1 2 3\n",
        "$Nodes-ignored\n$EndNodes-ignored\n$Elements\n1\n1 3 2 0 1 1 2 3 3\n",
    )
    # A 4-node quadrangle (type 3) must be refused, not silently dropped.
    path = tmp_path / "quad.msh"
    path.write_text(text)
    with pytest.raises(UnsupportedElement):
        read_msh(path)


def test_msh41_quadrangle_rejected(tmp_path):
    text = MSH41_SAMPLE.replace("2 1 2 2\n", "2 1 3 2\n")
    path = tmp_path / "quad41.msh"
    path.write_text(text)
    with pytest.raises(UnsupportedElement):
        read_msh(path)


def test_msh22_dangling_node_reference(tmp_path):
    text = MSH22_MINIMAL.replace("1 2 2 0 1 1 2 3", "1 2 2 0 1 1 2 9")
    path = tmp_path / "dangling.msh"
    path.write_text(text)
    with pytest.raises(MeshError, match=r"unknown node 9 \(line 12\)"):
        read_msh(path)


@pytest.mark.parametrize(
    "text, line",
    [
        # An element that references an unknown node id.
        (MSH22_MINIMAL.replace("1 2 2 0 1 1 2 3", "1 2 2 0 1 1 2 9"), 12),
        # A $MeshFormat line without the file-type token.
        (MSH22_MINIMAL.replace("2.2 0 8", "2.2"), 2),
        # A non-integer token in a v4.1 element line.
        (MSH41_SAMPLE.replace("2 1 2 3\n", "2 1 two 3\n"), 31),
    ],
    ids=["unknown-node", "one-token-format", "v41-element-token"],
)
def test_malformed_msh_exits_2_with_line(tmp_path, capsys, text, line):
    path = tmp_path / "bad.msh"
    path.write_text(text)
    with pytest.raises(MeshError, match=rf"\(line {line}\)"):
        read_msh(path)
    assert main(["info", str(path)]) == 2
    assert f"(line {line})" in capsys.readouterr().err


def test_msh22_malformed_reports_line(tmp_path):
    text = MSH22_MINIMAL.replace("2 1 0 0", "2 one 0 0")
    path = tmp_path / "bad.msh"
    path.write_text(text)
    with pytest.raises(MeshError, match=r"line 7"):
        read_msh(path)


@pytest.mark.parametrize(
    "text, line",
    [
        # A non-integer node count in v2.2 $Nodes.
        (MSH22_MINIMAL.replace("$Nodes\n3\n", "$Nodes\nthree\n"), 5),
        # A v2.2 line element with one node.
        (
            MSH22_MINIMAL.replace(
                "$Elements\n1\n1 2 2 0 1 1 2 3\n",
                "$Elements\n2\n1 2 2 0 1 1 2 3\n2 1 2 0 1 1\n",
            ),
            13,
        ),
        # A non-integer block count in v4.1 $Elements.
        (MSH41_SAMPLE.replace("$Elements\n2 3 1 3\n", "$Elements\ntwo 3 1 3\n"), 27),
        # A non-integer token in v4.1 $Entities.
        (MSH41_SAMPLE.replace("5 0 0 0 1 1 0 1 7 0", "5 0 0 0 1 1 0 one 7 0"), 10),
        # A file that does not exist: no line to report.
        (None, None),
    ],
    ids=["v22-node-count", "v22-one-node-line", "v41-block-count",
         "v41-entity-token", "missing-file"],
)
def test_malformed_msh_raises_mesh_error_and_info_exits_2(
    tmp_path, capsys, text, line
):
    path = tmp_path / "bad.msh"
    if text is not None:
        path.write_text(text)
    match = rf"\(line {line}\)" if line else "cannot read mesh file"
    with pytest.raises(MeshError, match=match):
        read_msh(path)
    assert main(["info", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def with_unused_node_msh22(path, extra):
    """The MSH 2.2 file at `path` with one more node, listed first and used
    by no element, written next to it."""
    lines = path.read_text().splitlines()
    at = lines.index("$Nodes") + 1
    count = int(lines[at])
    lines[at:at + 1] = [str(count + 1), f"{count + 1} {extra[0]!r} {extra[1]!r} 0"]
    out = path.with_name("unused_" + path.name)
    out.write_text("\n".join(lines) + "\n")
    return out


@pytest.mark.parametrize("version", ["2.2", "4.1"])
def test_unused_msh_node_is_dropped(tmp_path, version):
    # gmsh lists nodes that no triangle uses, such as the centre of a
    # circular hole.  They are dropped: the mesh, its boundary names and a
    # `full` run equal those of the same file without the node.
    plain = tmp_path / "plain.msh"
    if version == "2.2":
        problem = "double-mach"
        prob = get_problem(problem)
        mesh = prob.mesh_builder(6)
        mesh.name_boundary(prob.namer)
        write_msh2(plain, mesh)
        extra = with_unused_node_msh22(plain, (1.0, 1.0))
    else:
        problem = "free-stream"
        plain.write_text(MSH41_SAMPLE)
        extra = tmp_path / "unused.msh"
        # Node 5 in a block of its own, listed first.
        extra.write_text(
            MSH41_SAMPLE.replace("2 4 1 4\n", "3 5 1 5\n2 1 0 1\n5\n0.5 0.5 0\n")
        )
    meshes = [read_msh(path) for path in (plain, extra)]
    for a in ("verts", "tris", "boundary_name"):
        assert getattr(meshes[0], a).tolist() == getattr(meshes[1], a).tolist(), a
    # The sample tags one edge "lid"; the namer names the other edges.
    roles = {"lid": "wall"} if version == "4.1" else {}
    journals = []
    for path in (plain, extra):
        cfg = RunConfig(problem=problem, mesh=str(path), boundary=roles)
        _, _, _, stepper, ubar, upt = _build(cfg)
        journals.append(stepper.run(ubar, upt, 1.0, max_steps=3)[2])
    assert len(journals[0]) == 3 and journals[0] == journals[1]
