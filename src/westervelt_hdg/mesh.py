"""Conforming triangle meshes, structured meshes of the unit square, facet
topology and metrics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .parameters import MAX_LEVEL_BYTES, check_parameter


class MeshError(Exception):
    """Invalid mesh data or topology."""


@dataclass(frozen=True)
class Mesh:
    """Conforming triangle mesh with counterclockwise connectivity."""

    vertices: np.ndarray  # (n_vertices, 2)
    triangles: np.ndarray  # (n_triangles, 3), ccw

    def __post_init__(self):
        verts = np.ascontiguousarray(np.asarray(self.vertices, dtype=float))
        tris = np.asarray(self.triangles)
        if verts.ndim != 2 or verts.shape[1] != 2:
            raise MeshError(f"vertex array must be (n, 2), got {verts.shape}")
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise MeshError(f"triangle array must be (n, 3), got {tris.shape}")
        bad = ~np.isfinite(verts).all(axis=1)
        if np.any(bad):
            raise MeshError(f"vertex {int(np.argmax(bad))} is not finite")
        if tris.dtype.kind not in "iu":
            raise MeshError(f"triangle indices must be integers, got {tris.dtype}")
        tris = np.ascontiguousarray(tris, dtype=np.int64)
        if tris.size and (tris.min() < 0 or tris.max() >= len(verts)):
            raise MeshError("triangle vertex index out of range")
        repeated = np.any(tris == tris[:, [1, 2, 0]], axis=1)
        if np.any(repeated):
            raise MeshError(
                f"triangle {int(np.argmax(repeated))} has repeated vertices")
        verts.setflags(write=False)
        tris.setflags(write=False)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "triangles", tris)
        signed = 0.5 * element_geometry(self)[2]
        if np.any(signed <= 0.0):
            t = int(np.argmax(signed <= 0.0))
            raise MeshError(f"triangle {t} is degenerate or clockwise "
                            f"(signed area {signed[t]:g})")

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]


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


def quadrature_points(mesh: Mesh, points: np.ndarray) -> np.ndarray:
    """Physical points (ne, nq, 2) of reference points (nq, 2)."""
    vert0, jac, _ = element_geometry(mesh)
    return vert0[:, None, :] + np.einsum("eab,qb->eqa", jac, points)


def generate_structured_mesh(n: int) -> Mesh:
    """n x n grid of cells on the unit square, each split along a diagonal.

    Produces 2 n^2 counterclockwise triangles in a deterministic ordering
    (cells row by row, diagonal from lower-left to upper-right). Refuses
    an n whose float64 vertices and int64 triangles alone would take more
    than MAX_LEVEL_BYTES.
    """
    check_parameter("levels", n, MeshError)
    if 16 * (int(n) + 1) ** 2 + 48 * int(n) ** 2 > MAX_LEVEL_BYTES:
        raise MeshError(f"levels is too large: the vertices and triangles "
                        f"would take more than {MAX_LEVEL_BYTES / 2**30:g} "
                        f"GiB")
    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs)
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    # lower-left vertex of every cell, row by row
    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    v10, v01, v11 = v00 + 1, v00 + (n + 1), v00 + (n + 2)
    triangles = np.stack([v00, v10, v11, v00, v11, v01], axis=1)
    return Mesh(vertices=vertices, triangles=triangles.reshape(-1, 3))


@dataclass(frozen=True)
class FacetTopology:
    """Edge connectivity, orientations, normals and stabilization facets.

    Facets are numbered in order of first appearance while traversing the
    elements; each runs from its lower to its higher vertex id, which fixes
    the global parametrization direction used by facet bases.
    """

    is_interior: np.ndarray  # (n_facets,) bool
    elem_facets: np.ndarray  # (n_triangles, 3) global facet id per local facet
    elem_facet_forward: np.ndarray  # (n_triangles, 3) local orientation == global
    normals: np.ndarray  # (n_triangles, 3, 2) outward unit normals
    facet_lengths: np.ndarray  # (n_facets,)
    interior_index: np.ndarray  # (n_facets,) position among interior facets or -1
    stab_facet: np.ndarray  # (n_triangles,) local index of the stabilized facet
    n_interior: int = field(default=0)


# local facet lf joins local vertices lf and lf + 1 (mod 3)
LOCAL_FACETS = ((0, 1), (1, 2), (2, 0))


def compute_facet_topology(mesh: Mesh) -> FacetTopology:
    """Build the facet tables; rejects nonconforming connectivity."""
    verts, tris = mesh.vertices, mesh.triangles
    # first and second vertex of every (element, local facet)
    first, second = tris[:, np.array(LOCAL_FACETS).T].transpose(1, 0, 2)
    lo = np.minimum(first, second).ravel()
    hi = np.maximum(first, second).ravel()
    _, first_seen, inverse, counts = np.unique(
        lo * mesh.n_vertices + hi, return_index=True, return_inverse=True,
        return_counts=True)
    # number the facets in order of first appearance
    order = np.argsort(first_seen)
    nf = order.size
    rank = np.empty_like(order)
    rank[order] = np.arange(nf)
    elem_facets = rank[inverse].reshape(-1, 3)
    starts = first_seen[order]
    facets = np.column_stack([lo[starts], hi[starts]])
    counts = counts[order]
    if np.any(counts > 2):
        key = tuple(facets[np.argmax(counts > 2)].tolist())
        raise MeshError(
            f"facet {key} shared by more than two triangles: mesh is "
            f"nonconforming")
    forward = first < second
    # a shared facet is run forward by one side and backward by the other
    n_forward = np.bincount(elem_facets.ravel(), weights=forward.ravel(),
                            minlength=nf)
    twice = (counts == 2) & (n_forward != 1)
    if np.any(twice):
        key = tuple(facets[np.argmax(twice)].tolist())
        raise MeshError(
            f"facet {key} traversed twice in the same direction: "
            f"inconsistent element orientation")
    is_interior = counts == 2
    lengths = np.linalg.norm(verts[facets[:, 1]] - verts[facets[:, 0]], axis=1)
    # outward normals: ccw traversal leaves the interior on the left
    tang = verts[second] - verts[first]
    tang = tang / np.linalg.norm(tang, axis=2)[:, :, None]
    normals = np.stack([tang[:, :, 1], -tang[:, :, 0]], axis=2)
    n_interior = int(is_interior.sum())
    interior_index = np.full(nf, -1, dtype=np.int64)
    interior_index[is_interior] = np.arange(n_interior)
    # stabilized facet: largest facet, ties broken by smallest global facet id
    side_lengths = lengths[elem_facets]
    longest = side_lengths == side_lengths.max(axis=1, keepdims=True)
    stab = np.argmin(np.where(longest, elem_facets, np.iinfo(np.int64).max),
                     axis=1)
    for arr in (is_interior, elem_facets, forward, normals,
                lengths, interior_index, stab):
        arr.setflags(write=False)
    return FacetTopology(
        is_interior=is_interior,
        elem_facets=elem_facets,
        elem_facet_forward=forward,
        normals=normals,
        facet_lengths=lengths,
        interior_index=interior_index,
        stab_facet=stab,
        n_interior=n_interior,
    )

