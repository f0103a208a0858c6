"""Conforming triangulations of rectangles, facet topology and metrics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class MeshError(Exception):
    """Invalid mesh data, topology, or mesh file."""


def _cross2(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """z component of the cross product of stacked 2d vectors."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


@dataclass(frozen=True)
class Mesh:
    """Conforming triangle mesh with counterclockwise connectivity."""

    vertices: np.ndarray  # (n_vertices, 2)
    triangles: np.ndarray  # (n_triangles, 3), ccw

    def __post_init__(self):
        verts = np.ascontiguousarray(np.asarray(self.vertices, dtype=float))
        tris = np.ascontiguousarray(np.asarray(self.triangles, dtype=np.int64))
        if verts.ndim != 2 or verts.shape[1] != 2:
            raise MeshError(f"vertex array must be (n, 2), got {verts.shape}")
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise MeshError(f"triangle array must be (n, 3), got {tris.shape}")
        if tris.size and (tris.min() < 0 or tris.max() >= len(verts)):
            raise MeshError("triangle vertex index out of range")
        for t, (i, j, k) in enumerate(tris):
            if i == j or j == k or i == k:
                raise MeshError(f"triangle {t} has repeated vertices")
        a, b, c = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
        signed = 0.5 * _cross2(b - a, c - a)
        if np.any(signed <= 0.0):
            t = int(np.argmax(signed <= 0.0))
            raise MeshError(
                f"triangle {t} is degenerate or clockwise (signed area {signed[t]:g})"
            )
        verts.setflags(write=False)
        tris.setflags(write=False)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "triangles", tris)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def areas(self) -> np.ndarray:
        return 0.5 * element_geometry(self)[2]


def element_geometry(mesh: Mesh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Affine maps x = vert0 + jac @ xhat from the reference triangle.

    Returns the first vertex (ne, 2), the Jacobian (ne, 2, 2) whose columns
    are the edges from it to the second and third vertex, and its
    determinant (ne,).
    """
    tri = mesh.vertices[mesh.triangles]  # (ne, 3, 2)
    jac = np.stack([tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]], axis=2)
    detj = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    return tri[:, 0], jac, detj


def generate_structured_mesh(n: int, bbox=(0.0, 0.0, 1.0, 1.0)) -> Mesh:
    """n x n grid of cells on the rectangle bbox, each split along a diagonal.

    Produces 2 n^2 counterclockwise triangles in a deterministic ordering
    (cells row by row, diagonal from lower-left to upper-right).
    """
    if n < 1:
        raise MeshError(f"subdivision count must be >= 1, got {n}")
    x0, y0, x1, y1 = map(float, bbox)
    if x1 <= x0 or y1 <= y0:
        raise MeshError(f"bounding box {bbox} has nonpositive extent")
    xs = np.linspace(x0, x1, n + 1)
    ys = np.linspace(y0, y1, n + 1)
    xx, yy = np.meshgrid(xs, ys)
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    triangles = []
    for iy in range(n):
        for ix in range(n):
            v00 = iy * (n + 1) + ix
            v10 = v00 + 1
            v01 = v00 + (n + 1)
            v11 = v01 + 1
            triangles.append((v00, v10, v11))
            triangles.append((v00, v11, v01))
    return Mesh(vertices=vertices, triangles=np.array(triangles))


@dataclass(frozen=True)
class FacetTopology:
    """Edge connectivity, orientations, normals and stabilization facets.

    Facets are numbered in order of first appearance while traversing the
    elements; each stores its vertices as (lo, hi) with lo < hi, which also
    fixes the global parametrization direction used by facet bases.
    """

    facets: np.ndarray  # (n_facets, 2) vertex ids, lo < hi
    is_interior: np.ndarray  # (n_facets,) bool
    elem_facets: np.ndarray  # (n_triangles, 3) global facet id per local facet
    elem_facet_forward: np.ndarray  # (n_triangles, 3) local orientation == global
    normals: np.ndarray  # (n_triangles, 3, 2) outward unit normals
    facet_lengths: np.ndarray  # (n_facets,)
    interior_index: np.ndarray  # (n_facets,) position among interior facets or -1
    stab_facet: np.ndarray  # (n_triangles,) local index of the stabilized facet
    n_interior: int = field(default=0)

    @property
    def n_facets(self) -> int:
        return self.facets.shape[0]


# local facet lf joins local vertices lf and lf + 1 (mod 3)
LOCAL_FACETS = ((0, 1), (1, 2), (2, 0))


def compute_facet_topology(mesh: Mesh) -> FacetTopology:
    """Build the facet tables; rejects nonconforming connectivity."""
    nt = mesh.n_triangles
    facet_id: dict[tuple[int, int], int] = {}
    facets: list[tuple[int, int]] = []
    neighbors: list[list[int]] = []
    seen_directions: list[set[tuple[int, int]]] = []
    elem_facets = np.empty((nt, 3), dtype=np.int64)
    forward = np.empty((nt, 3), dtype=bool)
    for t, tri in enumerate(mesh.triangles):
        for lf, (la, lb) in enumerate(LOCAL_FACETS):
            va, vb = int(tri[la]), int(tri[lb])
            key = (min(va, vb), max(va, vb))
            fid = facet_id.get(key)
            if fid is None:
                fid = len(facets)
                facet_id[key] = fid
                facets.append(key)
                neighbors.append([])
                seen_directions.append(set())
            if len(neighbors[fid]) >= 2:
                raise MeshError(
                    f"facet {key} shared by more than two triangles: mesh is "
                    f"nonconforming"
                )
            if (va, vb) in seen_directions[fid]:
                raise MeshError(
                    f"facet {key} traversed twice in the same direction: "
                    f"inconsistent element orientation"
                )
            seen_directions[fid].add((va, vb))
            neighbors[fid].append(t)
            elem_facets[t, lf] = fid
            forward[t, lf] = (va, vb) == key
    nf = len(facets)
    facets_arr = np.array(facets, dtype=np.int64)
    is_interior = np.array([len(elems) == 2 for elems in neighbors],
                           dtype=bool)
    lengths = np.linalg.norm(
        mesh.vertices[facets_arr[:, 1]] - mesh.vertices[facets_arr[:, 0]], axis=1
    )
    # outward normals: ccw traversal leaves the interior on the left
    normals = np.empty((nt, 3, 2))
    for lf, (la, lb) in enumerate(LOCAL_FACETS):
        tang = (
            mesh.vertices[mesh.triangles[:, lb]] - mesh.vertices[mesh.triangles[:, la]]
        )
        tang = tang / np.linalg.norm(tang, axis=1)[:, None]
        normals[:, lf, 0] = tang[:, 1]
        normals[:, lf, 1] = -tang[:, 0]
    interior_index = np.full(nf, -1, dtype=np.int64)
    interior_index[is_interior] = np.arange(int(is_interior.sum()))
    # stabilized facet: largest facet, ties broken by smallest global facet id
    stab = np.empty(nt, dtype=np.int64)
    for t in range(nt):
        fids = elem_facets[t]
        lens = lengths[fids]
        best = max(range(3), key=lambda lf: (lens[lf], -fids[lf]))
        stab[t] = best
    for arr in (facets_arr, is_interior, elem_facets, forward, normals,
                lengths, interior_index, stab):
        arr.setflags(write=False)
    return FacetTopology(
        facets=facets_arr,
        is_interior=is_interior,
        elem_facets=elem_facets,
        elem_facet_forward=forward,
        normals=normals,
        facet_lengths=lengths,
        interior_index=interior_index,
        stab_facet=stab,
        n_interior=int(is_interior.sum()),
    )


@dataclass(frozen=True)
class MeshMetrics:
    h: float  # largest element diameter
    h_min: float
    shape_regularity: float  # max over elements of diameter / inradius


def mesh_metrics(mesh: Mesh) -> MeshMetrics:
    verts = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
    e0 = np.linalg.norm(verts[:, 1] - verts[:, 0], axis=1)
    e1 = np.linalg.norm(verts[:, 2] - verts[:, 1], axis=1)
    e2 = np.linalg.norm(verts[:, 0] - verts[:, 2], axis=1)
    diam = np.maximum(e0, np.maximum(e1, e2))
    perim = e0 + e1 + e2
    inradius = 2.0 * mesh.areas() / perim
    return MeshMetrics(
        h=float(diam.max()),
        h_min=float(diam.min()),
        shape_regularity=float((diam / inradius).max()),
    )


def load_mesh(path) -> Mesh:
    """Read the plain-text mesh format.

    First line: ``vertices <n> triangles <m>``; then n lines of ``x y``
    coordinates and m lines of 0-based counterclockwise vertex triples.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise MeshError(f"{path}: empty mesh file")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "vertices" or header[2] != "triangles":
        raise MeshError(
            f"{path}: malformed header {lines[0]!r}, expected "
            f"'vertices <n> triangles <m>'"
        )
    try:
        nv, nt = int(header[1]), int(header[3])
    except ValueError as err:
        raise MeshError(f"{path}: malformed header counts {lines[0]!r}") from err
    if len(lines) != 1 + nv + nt:
        raise MeshError(
            f"{path}: expected {1 + nv + nt} content lines, found {len(lines)}"
        )
    try:
        vertices = np.array(
            [[float(tok) for tok in ln.split()] for ln in lines[1 : 1 + nv]]
        )
        triangles = np.array(
            [[int(tok) for tok in ln.split()] for ln in lines[1 + nv :]]
        )
    except ValueError as err:
        raise MeshError(f"{path}: malformed coordinate or index line") from err
    if nv and vertices.shape != (nv, 2):
        raise MeshError(f"{path}: vertex lines must hold two coordinates each")
    if nt and triangles.shape != (nt, 3):
        raise MeshError(f"{path}: triangle lines must hold three indices each")
    try:
        return Mesh(vertices=vertices, triangles=triangles)
    except MeshError as err:
        raise MeshError(f"{path}: {err}") from err


def save_mesh(mesh: Mesh, path) -> None:
    """Write the plain-text mesh format read by load_mesh."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"vertices {mesh.n_vertices} triangles {mesh.n_triangles}\n")
        for x, y in mesh.vertices:
            fh.write(f"{x:.17g} {y:.17g}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"{i} {j} {k}\n")
