"""Built-in mesh generation for the benchmark geometries.

All generators are deterministic given a seed.  Rectangles and convex
polygons use jittered grid points triangulated with Delaunay (so the meshes
are genuinely unstructured); the L-shaped domain is block-structured with
interior jitter because Delaunay would fill its notch.  `refine4` splits
every triangle into four congruent children, exactly halving h -- that is
what the nested convergence meshes use.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import Delaunay

from .mesh import Mesh, compact_vertices


def rect_mesh(bounds, n, jitter=0.25, seed=0) -> Mesh:
    """Unstructured mesh of [x0,x1]x[y0,y1] with about 2*n^2 triangles."""
    x0, x1, y0, y1 = bounds
    nx = ny = int(n)
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    hx = (x1 - x0) / nx
    hy = (y1 - y0) / ny
    interior = (
        (pts[:, 0] > x0 + 0.5 * hx)
        & (pts[:, 0] < x1 - 0.5 * hx)
        & (pts[:, 1] > y0 + 0.5 * hy)
        & (pts[:, 1] < y1 - 0.5 * hy)
    )
    rng = np.random.default_rng(seed)
    pts[interior] += (rng.random((interior.sum(), 2)) - 0.5) * (
        2 * jitter
    ) * np.array([hx, hy])
    tri = Delaunay(pts)
    return Mesh(pts, tri.simplices)


def refine4(mesh: Mesh) -> Mesh:
    """Uniform refinement: each triangle into four via edge midpoints.  The
    two halves of a boundary edge, which end at its midpoint, keep its name."""
    nv = len(mesh.verts)
    verts = np.vstack([mesh.verts, mesh.edge_mid])
    t = mesh.tris
    m = nv + mesh.tri_edges  # midpoints of local edges (01, 12, 20)
    children = np.concatenate(
        [
            np.stack([t[:, 0], m[:, 0], m[:, 2]], axis=1),
            np.stack([t[:, 1], m[:, 1], m[:, 0]], axis=1),
            np.stack([t[:, 2], m[:, 2], m[:, 1]], axis=1),
            m,
        ]
    )
    fine = Mesh(verts, children)
    parent = fine.edge_verts[fine.boundary_edges].max(axis=1) - nv  # parent edges
    fine.boundary_name[:] = mesh.boundary_name[
        np.searchsorted(mesh.boundary_edges, parent)
    ]
    return fine


def polygon_mesh(poly, h, jitter=0.25, seed=0) -> Mesh:
    """Delaunay mesh of a *convex* CCW polygon with target edge length h."""
    poly = np.asarray(poly, dtype=float)
    npoly = len(poly)
    bpts = []
    for k in range(npoly):
        a, b = poly[k], poly[(k + 1) % npoly]
        m = max(1, int(round(np.linalg.norm(b - a) / h)))
        t = np.arange(m) / m
        bpts.append(a + t[:, None] * (b - a))
    bpts = np.vstack(bpts)

    lo = poly.min(axis=0)
    hi = poly.max(axis=0)
    xs = np.arange(lo[0] + 0.5 * h, hi[0], h)
    ys = np.arange(lo[1] + 0.5 * h, hi[1], h)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    ipts = np.stack([X.ravel(), Y.ravel()], axis=1)
    rng = np.random.default_rng(seed)
    ipts += (rng.random(ipts.shape) - 0.5) * (2 * jitter) * h

    # Keep interior points a safe distance inside every edge line.
    keep = np.ones(len(ipts), dtype=bool)
    for k in range(npoly):
        a, b = poly[k], poly[(k + 1) % npoly]
        edge = b - a
        nrm = np.array([-edge[1], edge[0]]) / np.linalg.norm(edge)  # inward
        keep &= (ipts - a) @ nrm > 0.45 * h
    pts = np.vstack([bpts, ipts[keep]])
    tri = Delaunay(pts)
    simplices = tri.simplices
    # Convex domain: every Delaunay triangle lies inside; filter only the
    # degenerate slivers qhull occasionally emits from collinear boundary
    # points.
    p = pts[simplices]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    return Mesh(pts, simplices[np.abs(det) > 1e-12 * h * h])


def ldomain_mesh(n, jitter=0.15, seed=0) -> Mesh:
    """Block-structured mesh of [-0.5,1]x[0,1] union [0,1]x[-1,0].

    n is the number of cells per unit length.  Grid nodes interior to the L
    are jittered; the notch corner geometry is preserved exactly.
    """
    h = 1.0 / n
    xs = np.arange(-0.5, 1.0 + 0.5 * h, h)
    ys = np.arange(-1.0, 1.0 + 0.5 * h, h)
    nx, ny = len(xs), len(ys)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    idx = lambda i, j: i * ny + j  # noqa: E731

    def inside(x, y):
        return (y >= -1e-12 and -0.5 - 1e-12 <= x <= 1.0 + 1e-12) or (
            x >= -1e-12 and y <= 1e-12 and y >= -1.0 - 1e-12
        )

    tris = []
    for i in range(nx - 1):
        for j in range(ny - 1):
            cx = 0.5 * (xs[i] + xs[i + 1])
            cy = 0.5 * (ys[j] + ys[j + 1])
            if not inside(cx, cy):
                continue
            a, b = idx(i, j), idx(i + 1, j)
            c, d = idx(i + 1, j + 1), idx(i, j + 1)
            if (i + j) % 2 == 0:
                tris += [[a, b, c], [a, c, d]]
            else:
                tris += [[a, b, d], [b, c, d]]
    # Before the jitter, which draws one offset per kept node.
    pts, tris, _ = compact_vertices(pts, tris)

    # Jitter nodes strictly interior to the L.
    eps = 1e-9
    on_bnd = (
        (np.abs(pts[:, 0] - (-0.5)) < eps)
        | (np.abs(pts[:, 0] - 1.0) < eps)
        | (np.abs(pts[:, 1] - 1.0) < eps)
        | (np.abs(pts[:, 1] - (-1.0)) < eps)
        | ((np.abs(pts[:, 1]) < eps) & (pts[:, 0] < eps))
        | ((np.abs(pts[:, 0]) < eps) & (pts[:, 1] < eps))
    )
    rng = np.random.default_rng(seed)
    pts[~on_bnd] += (rng.random(((~on_bnd).sum(), 2)) - 0.5) * (
        2 * jitter
    ) * h
    return Mesh(pts, tris)


# ---------------------------------------------------------------------------
# MSH v2.2 output
# ---------------------------------------------------------------------------


def write_msh2(path, mesh: Mesh) -> None:
    """Write the mesh (with named boundary edges) as ASCII MSH v2.2."""
    blines = [
        (e, str(nm)) for e, nm in zip(mesh.boundary_edges, mesh.boundary_name) if nm
    ]
    names = sorted({nm for _, nm in blines})
    name_id = {nm: k + 1 for k, nm in enumerate(names)}
    with open(path, "w") as fh:
        fh.write("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n")
        if names:
            fh.write("$PhysicalNames\n%d\n" % len(names))
            for nm, pid in name_id.items():
                fh.write('1 %d "%s"\n' % (pid, nm))
            fh.write("$EndPhysicalNames\n")
        fh.write("$Nodes\n%d\n" % len(mesh.verts))
        for k, (x, y) in enumerate(mesh.verts):
            fh.write("%d %.17g %.17g 0\n" % (k + 1, x, y))
        fh.write("$EndNodes\n")
        fh.write("$Elements\n%d\n" % (len(blines) + len(mesh.tris)))
        eid = 1
        for e, nm in blines:
            a, b = mesh.edge_verts[e] + 1
            fh.write("%d 1 2 %d 0 %d %d\n" % (eid, name_id[nm], a, b))
            eid += 1
        for t in mesh.tris + 1:
            fh.write("%d 2 2 0 0 %d %d %d\n" % (eid, t[0], t[1], t[2]))
            eid += 1
        fh.write("$EndElements\n")
