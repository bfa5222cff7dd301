"""Conforming triangular meshes: topology, geometry, MSH file parsing.

Conventions used throughout the solver:

* Triangles are stored counter-clockwise.  Local edge k of a triangle joins
  local vertices k and (k+1) % 3, matching the midpoint DoF layout of
  `basis`.
* Each undirected edge is stored once.  Its stored direction (a -> b) is
  the traversal direction of its *side-0* element, so the unit normal
  obtained by rotating (b - a) clockwise always points out of side 0 (and,
  for boundary edges, out of the domain).  Interior edges have exactly one
  element traversing them in each direction, so the choice is unambiguous.
* Point DoF numbering: vertex v -> v, midpoint of edge e -> NV + e.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import MeshError, UnsupportedElement


def triangle_geometry(pts):
    """Areas and barycentric gradients for triangles given by vertex coords.

    pts: (..., 3, 2).  Returns (area (...,), grad_lambda (..., 3, 2)).
    Raises MeshError on non-positive (clockwise or degenerate) triangles.
    """
    pts = np.asarray(pts, dtype=float)
    d1 = pts[..., 1, :] - pts[..., 0, :]
    d2 = pts[..., 2, :] - pts[..., 0, :]
    det = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
    if np.any(det <= 0):
        raise MeshError("degenerate or clockwise triangle")
    area = 0.5 * det
    g = np.empty(pts.shape[:-2] + (3, 2))
    for m in range(3):
        a = pts[..., (m + 1) % 3, :]
        b = pts[..., (m + 2) % 3, :]
        g[..., m, 0] = (a[..., 1] - b[..., 1]) / det
        g[..., m, 1] = (b[..., 0] - a[..., 0]) / det
    return area, g


@dataclass
class Mesh:
    verts: np.ndarray  # (NV, 2)
    tris: np.ndarray  # (NT, 3) int, CCW
    # geometry
    areas: np.ndarray = field(init=False)
    centroids: np.ndarray = field(init=False)
    grad_lambda: np.ndarray = field(init=False)  # (NT, 3, 2)
    # edges
    edge_verts: np.ndarray = field(init=False)  # (NE, 2) in side-0 direction
    edge_tris: np.ndarray = field(init=False)  # (NE, 2), -1 = no side 1
    edge_length: np.ndarray = field(init=False)
    edge_normal: np.ndarray = field(init=False)  # unit, out of side 0
    edge_mid: np.ndarray = field(init=False)
    tri_edges: np.ndarray = field(init=False)  # (NT, 3)
    tri_edge_orient: np.ndarray = field(init=False)  # (NT, 3) +-1
    boundary_edges: np.ndarray = field(init=False)  # indices into edges
    edge_name: np.ndarray = field(init=False)  # (NE,) str, '' inside
    # point DoFs (vertices then edge midpoints)
    point_xy: np.ndarray = field(init=False)  # (NP, 2)
    point_area: np.ndarray = field(init=False)  # (NP,) sum of |K|/9
    tri_point_dofs: np.ndarray = field(init=False)  # (NT, 6)

    def __post_init__(self):
        self.verts = np.ascontiguousarray(self.verts, dtype=float)
        self.tris = np.ascontiguousarray(self.tris, dtype=np.int64)
        if self.verts.ndim != 2 or self.verts.shape[1] != 2:
            raise MeshError("verts must be (NV, 2)")
        if self.tris.ndim != 2 or self.tris.shape[1] != 3:
            raise MeshError("tris must be (NT, 3)")
        self._orient_ccw()
        pts = self.verts[self.tris]  # (NT, 3, 2)
        self.areas, self.grad_lambda = triangle_geometry(pts)
        self.centroids = pts.mean(axis=1)
        self._build_edges()
        self._build_points()

    # -- construction helpers ------------------------------------------------

    def _orient_ccw(self):
        pts = self.verts[self.tris]
        d1 = pts[:, 1] - pts[:, 0]
        d2 = pts[:, 2] - pts[:, 0]
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        flip = det < 0
        if np.any(flip):
            self.tris[flip] = self.tris[flip][:, [0, 2, 1]]

    def _build_edges(self):
        nt = len(self.tris)
        # local edges k: (v_k, v_{k+1})
        pairs = np.stack(
            [self.tris, np.roll(self.tris, -1, axis=1)], axis=-1
        ).reshape(-1, 2)  # (3 NT, 2) directed
        lo = pairs.min(axis=1)
        hi = pairs.max(axis=1)
        key = lo * (self.verts.shape[0] + 1) + hi
        uniq, first, inv, counts = np.unique(
            key, return_index=True, return_inverse=True, return_counts=True
        )
        if np.any(counts > 2):
            raise MeshError("non-manifold edge (more than two triangles)")
        ne = len(uniq)
        self.tri_edges = inv.reshape(nt, 3)
        forward = pairs[:, 0] == lo[first][inv]  # traverses lo -> hi
        self.tri_edge_orient = np.where(forward, 1, -1).reshape(nt, 3)

        # With all triangles CCW, a manifold interior edge is traversed once
        # in each direction; two same-direction traversals mean overlap.
        nf = np.bincount(inv[forward], minlength=ne)
        nb = np.bincount(inv[~forward], minlength=ne)
        if np.any(nf > 1) or np.any(nb > 1):
            raise MeshError("inconsistently oriented (overlapping) triangles")

        tri_of_slot = np.repeat(np.arange(nt), 3)
        edge_tris = np.full((ne, 2), -1, dtype=np.int64)
        fslots = np.flatnonzero(forward)
        bslots = np.flatnonzero(~forward)
        edge_tris[inv[fslots], 0] = tri_of_slot[fslots]
        edge_tris[inv[bslots], 1] = tri_of_slot[bslots]

        # Boundary edges traversed only hi -> lo: make that element side 0 by
        # flipping the stored direction.
        need_flip = edge_tris[:, 0] < 0
        ev = np.stack([lo[first], hi[first]], axis=1)
        ev[need_flip] = ev[need_flip][:, [1, 0]]
        if np.any(need_flip):
            edge_tris[need_flip, 0] = edge_tris[need_flip, 1]
            edge_tris[need_flip, 1] = -1
            slot_mask = need_flip[inv] & ~forward
            self.tri_edge_orient.reshape(-1)[slot_mask] = 1
        if np.any(edge_tris[:, 0] < 0):
            raise MeshError("edge without owning triangle")

        self.edge_verts = ev
        self.edge_tris = edge_tris
        d = self.verts[ev[:, 1]] - self.verts[ev[:, 0]]
        self.edge_length = np.hypot(d[:, 0], d[:, 1])
        if np.any(self.edge_length <= 0):
            raise MeshError("zero-length edge")
        self.edge_normal = (
            np.stack([d[:, 1], -d[:, 0]], axis=1)
            / self.edge_length[:, None]
        )
        self.edge_mid = 0.5 * (self.verts[ev[:, 0]] + self.verts[ev[:, 1]])
        self.boundary_edges = np.flatnonzero(edge_tris[:, 1] < 0)
        self.edge_name = np.full(ne, "", dtype=object)

    def _build_points(self):
        nv = len(self.verts)
        ne = len(self.edge_verts)
        self.point_xy = np.vstack([self.verts, self.edge_mid])
        self.tri_point_dofs = np.hstack([self.tris, nv + self.tri_edges])
        self.point_area = np.zeros(nv + ne)
        np.add.at(
            self.point_area,
            self.tri_point_dofs.ravel(),
            np.repeat(self.areas / 9.0, 6),
        )

    # -- queries -------------------------------------------------------------

    @property
    def num_tris(self) -> int:
        return len(self.tris)

    @property
    def num_points(self) -> int:
        return len(self.point_xy)

    @property
    def num_edges(self) -> int:
        return len(self.edge_verts)

    def inradius(self) -> np.ndarray:
        """2 |K| / perimeter, the classic time-step length scale."""
        per = self.edge_length[self.tri_edges].sum(axis=1)
        return 2.0 * self.areas / per

    def h_max(self) -> float:
        return float(self.edge_length.max())

    def outward_normal(self) -> np.ndarray:
        """(NT, 3, 2) unit outward normals of each triangle's local edges."""
        n = self.edge_normal[self.tri_edges]
        return n * self.tri_edge_orient[..., None]

    def name_boundary(self, namer) -> None:
        """Assign names to boundary edges: namer(midpoints (NB, 2)) -> list."""
        mids = self.edge_mid[self.boundary_edges]
        names = namer(mids)
        for e, nm in zip(self.boundary_edges, names):
            self.edge_name[e] = nm


# ---------------------------------------------------------------------------
# MSH parsing (ASCII, versions 2.2 and 4.1)
# ---------------------------------------------------------------------------


def read_msh(path) -> Mesh:
    """Parse a gmsh ASCII file (v2.2 or v4.1) into a Mesh.

    Only 2-node lines (boundary tags) and 3-node triangles are used;
    0-dimensional point elements (tagging artifacts) are skipped, and any
    other element type raises UnsupportedElement.  Physical names on lines
    become edge names of the resulting mesh.
    """
    with open(path) as fh:
        lines = [ln.strip() for ln in fh]
    # Section name -> (1-based line number of the first body line, body).
    sections: dict[str, tuple[int, list[str]]] = {}
    i = 0
    while i < len(lines):
        ln = lines[i]
        if ln.startswith("$") and not ln.startswith("$End"):
            name = ln[1:]
            j = i + 1
            body = []
            while j < len(lines) and lines[j] != f"$End{name}":
                body.append(lines[j])
                j += 1
            if j >= len(lines):
                raise MeshError(f"unterminated section ${name} (line {i + 1})")
            sections[name] = (i + 2, body)
            i = j + 1
        else:
            i += 1

    if "MeshFormat" not in sections:
        raise MeshError("missing $MeshFormat")
    fmt_start, fmt_body = sections["MeshFormat"]
    fmt = fmt_body[0].split() if fmt_body else []
    if len(fmt) < 2:
        raise MeshError(f"malformed $MeshFormat (line {fmt_start})")
    version = fmt[0]
    if fmt[1] != "0":
        raise MeshError(f"binary MSH files are not supported (line {fmt_start})")

    phys_names: dict[int, str] = {}
    if "PhysicalNames" in sections:
        for ln in sections["PhysicalNames"][1][1:]:
            parts = ln.split(maxsplit=2)
            if len(parts) == 3:
                phys_names[int(parts[1])] = parts[2].strip().strip('"')

    if version.startswith("2"):
        verts, tris, blines = _parse_msh2(sections)
    elif version.startswith("4"):
        verts, tris, blines = _parse_msh4(sections)
    else:
        raise MeshError(f"unsupported MSH version {version}")

    if len(tris) == 0:
        raise MeshError("mesh contains no triangles")
    mesh = Mesh(verts, np.asarray(tris))

    # Attach names from tagged line elements to the matching edges.
    if blines:
        nv1 = len(mesh.verts) + 1
        ekey = {
            int(a) * nv1 + int(b): e
        for e, (a, b) in enumerate(np.sort(mesh.edge_verts, axis=1))
        }
        for a, b, tag in blines:
            lo, hi = (a, b) if a < b else (b, a)
            e = ekey.get(lo * nv1 + hi)
            if e is not None:
                mesh.edge_name[e] = phys_names.get(tag, str(tag))
    return mesh


def _node_index(id2idx, n, line):
    try:
        return id2idx[n]
    except KeyError:
        raise MeshError(
            f"element references unknown node {n} (line {line})"
        ) from None


def _parse_msh2(sections):
    if "Nodes" not in sections or "Elements" not in sections:
        raise MeshError("missing $Nodes or $Elements")
    node_start, node_lines = sections["Nodes"]
    elem_start, elem_lines = sections["Elements"]
    nn = int(node_lines[0])
    ids = np.empty(nn, dtype=np.int64)
    xy = np.empty((nn, 2))
    for k in range(nn):
        try:
            parts = node_lines[1 + k].split()
            ids[k] = int(parts[0])
            xy[k] = float(parts[1]), float(parts[2])
        except (ValueError, IndexError):
            raise MeshError(
                f"malformed node entry (line {node_start + 1 + k})"
            ) from None
    id2idx = {int(i): k for k, i in enumerate(ids)}

    tris = []
    blines = []
    for off, ln in enumerate(elem_lines[1 : 1 + int(elem_lines[0])]):
        line = elem_start + 1 + off
        try:
            parts = [int(x) for x in ln.split()]
            etype = parts[1]
            ntags = parts[2]
            tags = parts[3 : 3 + ntags]
            nodes = parts[3 + ntags :]
        except (ValueError, IndexError):
            raise MeshError(f"malformed element entry (line {line})") from None
        if etype == 2:
            tris.append([_node_index(id2idx, n, line) for n in nodes[:3]])
        elif etype == 1:
            tag = tags[0] if tags else 0
            blines.append(
                (
                    _node_index(id2idx, nodes[0], line),
                    _node_index(id2idx, nodes[1], line),
                    tag,
                )
            )
        elif etype != 15:
            raise UnsupportedElement(
                f"unsupported element type {etype} "
                f"(line {elem_start + 1 + off}); only 3-node triangles and "
                "2-node boundary lines are accepted"
            )
    return xy, tris, blines


def _parse_msh4(sections):
    # Entity -> physical-tag map (dim, tag) -> phys id.
    ent_phys: dict[tuple[int, int], int] = {}
    if "Entities" in sections:
        body = sections["Entities"][1]
        counts = [int(x) for x in body[0].split()]
        row = 1
        for dim, cnt in enumerate(counts):
            for _ in range(cnt):
                parts = body[row].split()
                row += 1
                tag = int(parts[0])
                # points: tag x y z numPhys ...; curves/surfaces/volumes:
                # tag 6 bbox floats, then numPhys.
                off = 4 if dim == 0 else 7
                nphys = int(parts[off])
                if nphys > 0:
                    ent_phys[(dim, tag)] = int(parts[off + 1])

    if "Nodes" not in sections or "Elements" not in sections:
        raise MeshError("missing $Nodes or $Elements")
    node_start, node_lines = sections["Nodes"]
    elem_start, elem_lines = sections["Elements"]

    nblocks, nn = (int(x) for x in node_lines[0].split()[:2])
    ids = []
    coords = []
    row = 1
    try:
        for _ in range(nblocks):
            _, _, _, n_in = (int(x) for x in node_lines[row].split())
            row += 1
            tags = [int(node_lines[row + k]) for k in range(n_in)]
            row += n_in
            for k in range(n_in):
                parts = node_lines[row + k].split()
                coords.append((float(parts[0]), float(parts[1])))
            row += n_in
            ids.extend(tags)
    except (ValueError, IndexError):
        raise MeshError(
            f"malformed node block (line {node_start + row})"
        ) from None
    if len(ids) != nn:
        raise MeshError(f"node count mismatch in $Nodes (line {node_start})")
    xy = np.asarray(coords)
    id2idx = {i: k for k, i in enumerate(ids)}

    tris = []
    blines = []
    nblocks = int(elem_lines[0].split()[0])
    row = 1
    for _ in range(nblocks):
        try:
            edim, etag, etype, n_in = (int(x) for x in elem_lines[row].split())
        except (ValueError, IndexError):
            raise MeshError(
                f"malformed element block header (line {elem_start + row})"
            ) from None
        row += 1
        if etype not in (1, 2, 15):
            raise UnsupportedElement(
                f"unsupported element type {etype} "
                f"(line {elem_start + row - 1}); only 3-node triangles and "
                "2-node boundary lines are accepted"
            )
        for k in range(n_in):
            line = elem_start + row + k
            try:
                nodes = [int(x) for x in elem_lines[row + k].split()][1:]
            except (ValueError, IndexError):
                raise MeshError(f"malformed element entry (line {line})") from None
            if etype == 2:
                tris.append([_node_index(id2idx, n, line) for n in nodes[:3]])
            elif etype == 1:
                phys = ent_phys.get((edim, etag), 0)
                blines.append(
                    (
                        _node_index(id2idx, nodes[0], line),
                        _node_index(id2idx, nodes[1], line),
                        phys,
                    )
                )
        row += n_in
    return xy, tris, blines
