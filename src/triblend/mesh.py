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

    pts: (..., 3, 2).  Returns (area (...,), grad_lambda (2, 3, ...)), with
    component d of grad(lambda_m) in entry [d, m] (component-major).
    Raises MeshError on non-positive (clockwise or degenerate) triangles.
    """
    pts = np.asarray(pts, dtype=float)
    d1 = pts[..., 1, :] - pts[..., 0, :]
    d2 = pts[..., 2, :] - pts[..., 0, :]
    det = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
    if np.any(det <= 0):
        raise MeshError("degenerate or clockwise triangle")
    area = 0.5 * det
    g = np.empty((2, 3) + pts.shape[:-2])
    for m in range(3):
        a = pts[..., (m + 1) % 3, :]
        b = pts[..., (m + 2) % 3, :]
        g[0, m] = (a[..., 1] - b[..., 1]) / det
        g[1, m] = (b[..., 0] - a[..., 0]) / det
    return area, g


def compact_vertices(verts, tris):
    """Drop the vertices that no triangle uses: (verts, tris, remap), the
    used vertices in their order, `tris` renumbered to them, and remap, the
    new index of each old vertex or -1 for a dropped one."""
    used = np.zeros(len(verts), dtype=bool)
    used[np.ravel(tris)] = True
    remap = np.where(used, np.cumsum(used) - 1, -1)
    return verts[used], remap[np.asarray(tris)], remap


@dataclass
class Mesh:
    """A conforming triangle mesh that stores each fact once.

    Index arrays are int32 and `tri_edge_orient` is int8; index arithmetic
    that can pass 2**31 (the edge keys of `_build_edges`) runs in int64.
    Derived where read: the point DoFs of element k, `tris[k]` and then
    NV + `tri_edges[k]` (`gather_points`), its centroid, the vertex mean
    verts[tris[k]].mean(0), and the edge midpoints (`edge_mid`).  Only
    boundary edges are named.
    """

    verts: np.ndarray  # (NV, 2)
    tris: np.ndarray  # (NT, 3) int32, CCW
    # geometry
    areas: np.ndarray = field(init=False)
    grad_lambda: np.ndarray = field(init=False)  # (2, 3, NT), component-major
    # edges
    edge_verts: np.ndarray = field(init=False)  # (NE, 2) in side-0 direction
    edge_tris: np.ndarray = field(init=False)  # (NE, 2), -1 = no side 1
    edge_length: np.ndarray = field(init=False)
    edge_normal: np.ndarray = field(init=False)  # unit, out of side 0
    tri_edges: np.ndarray = field(init=False)  # (NT, 3)
    tri_edge_orient: np.ndarray = field(init=False)  # (NT, 3) int8 +-1
    boundary_edges: np.ndarray = field(init=False)  # (NB,) indices into edges
    boundary_name: np.ndarray = field(init=False)  # (NB,) str, '' if unnamed
    # point DoFs (vertices then edge midpoints; `point_xy` gives positions)
    point_area: np.ndarray = field(init=False)  # (NP,) sum of |K|/9

    def __post_init__(self):
        self.verts = np.ascontiguousarray(self.verts, dtype=float)
        self.tris = np.ascontiguousarray(self.tris, dtype=np.int32)
        if self.verts.ndim != 2 or self.verts.shape[1] != 2:
            raise MeshError("verts must be (NV, 2)")
        if self.tris.ndim != 2 or self.tris.shape[1] != 3:
            raise MeshError("tris must be (NT, 3)")
        # Clockwise triangles turn CCW by swapping their last two vertices.
        d = self.verts[self.tris[:, 1:]] - self.verts[self.tris[:, :1]]
        flip = d[:, 0, 0] * d[:, 1, 1] < d[:, 0, 1] * d[:, 1, 0]
        self.tris[flip] = self.tris[flip][:, [0, 2, 1]]
        self.areas, self.grad_lambda = triangle_geometry(self.verts[self.tris])
        self._build_edges()
        self._build_points()

    # -- construction helpers ------------------------------------------------

    def _build_edges(self):
        nt = len(self.tris)
        # local edges k: (v_k, v_{k+1})
        pairs = np.stack(
            [self.tris, np.roll(self.tris, -1, axis=1)], axis=-1
        ).reshape(-1, 2)  # (3 NT, 2) directed
        lo = pairs.min(axis=1)
        hi = pairs.max(axis=1)
        # In int32 the key would wrap once NV passes 46,340.
        key = lo.astype(np.int64) * (self.verts.shape[0] + 1) + hi
        uniq, first, inv, counts = np.unique(
            key, return_index=True, return_inverse=True, return_counts=True
        )
        if np.any(counts > 2):
            raise MeshError("non-manifold edge (more than two triangles)")
        ne = len(uniq)
        self.tri_edges = inv.reshape(nt, 3).astype(np.int32)
        forward = pairs[:, 0] == lo[first][inv]  # traverses lo -> hi
        self.tri_edge_orient = np.where(forward, 1, -1).reshape(nt, 3).astype(np.int8)

        # With all triangles CCW, a manifold interior edge is traversed once
        # in each direction; two same-direction traversals mean overlap.
        nf = np.bincount(inv[forward], minlength=ne)
        nb = np.bincount(inv[~forward], minlength=ne)
        if np.any(nf > 1) or np.any(nb > 1):
            raise MeshError("inconsistently oriented (overlapping) triangles")

        tri_of_slot = np.repeat(np.arange(nt), 3)
        edge_tris = np.full((ne, 2), -1, dtype=np.int32)
        edge_tris[inv[forward], 0] = tri_of_slot[forward]
        edge_tris[inv[~forward], 1] = tri_of_slot[~forward]

        # Boundary edges traversed only hi -> lo: make that element side 0 by
        # flipping the stored direction.
        need_flip = edge_tris[:, 0] < 0
        ev = np.stack([lo[first], hi[first]], axis=1)
        ev[need_flip] = ev[need_flip][:, ::-1]
        edge_tris[need_flip] = edge_tris[need_flip][:, ::-1]
        self.tri_edge_orient.reshape(-1)[need_flip[inv] & ~forward] = 1
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
        self.boundary_edges = np.flatnonzero(edge_tris[:, 1] < 0).astype(np.int32)
        self.boundary_name = np.full(len(self.boundary_edges), "", dtype=object)

    def _build_points(self):
        # Vertex and midpoint DoFs are disjoint points: each sum adds its
        # elements in ascending order, as one pass over all six DoFs would.
        share = np.repeat(self.areas / 9.0, 3)
        self.point_area = np.concatenate([
            np.bincount(self.tris.ravel(), share, len(self.verts)),
            np.bincount(self.tri_edges.ravel(), share, self.num_edges),
        ])

    # -- queries -------------------------------------------------------------

    @property
    def num_tris(self) -> int:
        return len(self.tris)

    @property
    def num_points(self) -> int:
        return len(self.verts) + len(self.edge_verts)

    @property
    def point_xy(self) -> np.ndarray:
        """(NP, 2) new array: the vertices, then the edge midpoints."""
        return np.vstack([self.verts, self.edge_mid])

    @property
    def edge_mid(self) -> np.ndarray:
        """(NE, 2) new array: the midpoint of each edge."""
        ev = self.edge_verts
        return 0.5 * (self.verts[ev[:, 0]] + self.verts[ev[:, 1]])

    @property
    def num_edges(self) -> int:
        return len(self.edge_verts)

    def gather_points(self, x: np.ndarray, out=None) -> np.ndarray:
        """The point values x (NP,) or (NP, nv) at each element's point
        DoFs, component-major: (6, NT) or (nv, 6, NT), written to `out` if
        given.  The vertex and the midpoint parts are gathered separately."""
        if out is None:
            out = np.empty(x.shape[1:] + (6, self.num_tris), x.dtype)
        out[..., :3, :] = np.take(x, self.tris, axis=0).T
        out[..., 3:, :] = np.take(x[len(self.verts):], self.tri_edges, axis=0).T
        return out

    def inradius(self) -> np.ndarray:
        """2 |K| / perimeter, the classic time-step length scale."""
        per = self.edge_length[self.tri_edges].sum(axis=1)
        return 2.0 * self.areas / per

    def h_max(self) -> float:
        return float(self.edge_length.max())

    def outward_normal(self) -> np.ndarray:
        """(NT, 3, 2) unit outward normals of the local edges, stored (2, 3, NT)."""
        n = np.take(self.edge_normal.T, self.tri_edges.T, axis=1)
        return (n * self.tri_edge_orient.T).T

    def name_boundary(self, namer) -> None:
        """Name the unnamed boundary edges: namer(their midpoints (n, 2)) -> list."""
        unnamed = self.boundary_name == ""
        self.boundary_name[unnamed] = namer(self.edge_mid[self.boundary_edges[unnamed]])


# ---------------------------------------------------------------------------
# MSH parsing (ASCII, versions 2.2 and 4.1)
# ---------------------------------------------------------------------------


def read_msh(path) -> Mesh:
    """Parse a gmsh ASCII file (v2.2 or v4.1) into a Mesh.

    Only 2-node lines (boundary tags) and 3-node triangles are used;
    0-dimensional point elements (tagging artifacts) are skipped, and any
    other element type raises UnsupportedElement.  Nodes that no triangle
    uses, such as the centre of a circular hole, are dropped.  Physical
    names on lines become the names of the boundary edges they tag;
    interior lines carry no name.
    """
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise MeshError(f"cannot read mesh file {path}: {exc}") from None
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
        start, body = sections["PhysicalNames"]
        for off, ln in enumerate(body[1:]):
            parts = ln.split(maxsplit=2)
            if len(parts) == 3:
                tag = _int(parts[1], "physical name", start + 1 + off)
                phys_names[tag] = parts[2].strip().strip('"')

    if version.startswith("2"):
        verts, tris, blines = _parse_msh2(sections)
    elif version.startswith("4"):
        verts, tris, blines = _parse_msh4(sections)
    else:
        raise MeshError(f"unsupported MSH version {version}")

    if len(tris) == 0:
        raise MeshError("mesh contains no triangles")
    verts, tris, remap = compact_vertices(verts, tris)
    mesh = Mesh(verts, tris)

    # Attach names from tagged line elements to the matching boundary edges;
    # a line through a dropped node (index -1) matches none.
    if blines:
        ends = np.sort(mesh.edge_verts[mesh.boundary_edges], axis=1).tolist()
        position = {(a, b): i for i, (a, b) in enumerate(ends)}
        remap = remap.tolist()
        for a, b, tag in blines:
            a, b = remap[a], remap[b]
            i = position.get((min(a, b), max(a, b)))
            if i is not None:
                mesh.boundary_name[i] = phys_names.get(tag, str(tag))
    return mesh


def _int(token, what, line):
    """int(token), or a MeshError naming `what` and the 1-based line."""
    try:
        return int(token)
    except ValueError:
        raise MeshError(f"malformed {what} (line {line})") from None


def _count(lines, start, what):
    """Leading integer of a section's first body line (1-based `start`)."""
    return _int(lines[0].split()[0] if lines and lines[0] else "", what, start)


def _element_nodes(id2idx, etype, nodes, line):
    """Mesh indices of the nodes of a 2-node line (etype 1) or a 3-node
    triangle (etype 2)."""
    need = 3 if etype == 2 else 2
    if len(nodes) < need:
        raise MeshError(
            f"element of type {etype} needs {need} nodes (line {line})"
        )
    return [_node_index(id2idx, n, line) for n in nodes[:need]]


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
    nn = _count(node_lines, node_start, "node count")
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
    ne = _count(elem_lines, elem_start, "element count")
    for off, ln in enumerate(elem_lines[1 : 1 + ne]):
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
            tris.append(_element_nodes(id2idx, etype, nodes, line))
        elif etype == 1:
            tag = tags[0] if tags else 0
            blines.append((*_element_nodes(id2idx, etype, nodes, line), tag))
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
        start, body = sections["Entities"]
        row = 0
        try:
            counts = [int(x) for x in body[0].split()]
            row = 1
            for dim, cnt in enumerate(counts):
                for _ in range(cnt):
                    parts = body[row].split()
                    tag = int(parts[0])
                    # points: tag x y z numPhys ...; curves/surfaces/volumes:
                    # tag 6 bbox floats, then numPhys.
                    off = 4 if dim == 0 else 7
                    nphys = int(parts[off])
                    if nphys > 0:
                        ent_phys[(dim, tag)] = int(parts[off + 1])
                    row += 1
        except (ValueError, IndexError):
            raise MeshError(f"malformed entity entry (line {start + row})") from None

    if "Nodes" not in sections or "Elements" not in sections:
        raise MeshError("missing $Nodes or $Elements")
    node_start, node_lines = sections["Nodes"]
    elem_start, elem_lines = sections["Elements"]

    ids = []
    coords = []
    row = 0
    try:
        nblocks, nn = (int(x) for x in node_lines[0].split()[:2])
        row = 1
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
    nblocks = _count(elem_lines, elem_start, "element block count")
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
                tris.append(_element_nodes(id2idx, etype, nodes, line))
            elif etype == 1:
                phys = ent_phys.get((edim, etag), 0)
                blines.append((*_element_nodes(id2idx, etype, nodes, line), phys))
        row += n_in
    return xy, tris, blines
