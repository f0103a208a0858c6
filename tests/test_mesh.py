"""Structured meshing, facet topology and mesh metric tests."""

import dataclasses
import math

import numpy as np
import pytest

import oracles
from westervelt_hdg import mesh as mesh_module
from westervelt_hdg.mesh import (
    LOCAL_FACETS,
    Mesh,
    MeshError,
    compute_facet_topology,
    element_geometry,
    generate_structured_mesh,
    mesh_size,
)


# (n, seed) of the perturbed meshes the test suite builds
PERTURBED_MESHES = (
    *((2, seed) for seed in (1, 2, 3, 4, 5, 7, 9, 11, 13, 17, 19, 23, 29,
                             31, 41, 44, 45, 59)),
    *((3, seed) for seed in (1, 2, 4, 5, 7, 8, 11, 12, 90, 91, 92)),
    (4, 11),
    *((2 + idx % 2, 700 + idx) for idx in range(50)),
)


class TestStructuredMesh:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_counts(self, n):
        mesh = generate_structured_mesh(n)
        assert mesh.n_vertices == (n + 1) ** 2
        assert mesh.n_triangles == 2 * n * n

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_partition_of_unit_square(self, n):
        mesh = generate_structured_mesh(n)
        areas = 0.5 * element_geometry(mesh)[2]
        assert np.all(areas > 0.0)
        assert np.sum(areas) == pytest.approx(1.0, rel=1.0e-14)
        assert areas.max() == pytest.approx(0.5 / n**2, rel=1.0e-14)

    def test_invalid_subdivision(self):
        with pytest.raises(MeshError, match=">= 1"):
            generate_structured_mesh(0)

    @pytest.mark.parametrize("n", [10**6, 10**30])
    def test_level_over_the_byte_cap_refused(self, n):
        with pytest.raises(MeshError, match="levels is too large"):
            generate_structured_mesh(n)

    def test_byte_cap_counts_vertices_and_triangles(self, monkeypatch):
        # (n + 1)^2 float64 vertex pairs and 2 n^2 int64 index triples
        monkeypatch.setattr(mesh_module, "MAX_LEVEL_BYTES",
                            16 * 5**2 + 48 * 4**2)
        assert generate_structured_mesh(4).n_triangles == 32
        with pytest.raises(MeshError, match="levels is too large"):
            generate_structured_mesh(5)

    def test_vertices_not_writable(self):
        mesh = generate_structured_mesh(2)
        with pytest.raises(ValueError):
            mesh.vertices[0, 0] = 2.0


class TestMeshValidation:
    def test_clockwise_triangle_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(MeshError, match="clockwise"):
            Mesh(vertices=verts, triangles=np.array([[0, 2, 1]]))

    def test_repeated_vertex_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(MeshError, match="repeated"):
            Mesh(vertices=verts, triangles=np.array([[0, 1, 1]]))

    def test_index_out_of_range_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(MeshError, match="out of range"):
            Mesh(vertices=verts, triangles=np.array([[0, 1, 3]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_vertex_rejected(self, bad):
        # a NaN signed area would pass the orientation test
        verts = np.array([[0.0, 0.0], [1.0, bad], [0.0, 1.0]])
        with pytest.raises(MeshError, match="vertex 1 is not finite"):
            Mesh(vertices=verts, triangles=np.array([[0, 1, 2]]))

    @pytest.mark.parametrize("tris", [[[0, 1, 2.7]], [[0.0, 1.0, 2.0]],
                                      [[True, False, True]]])
    def test_noninteger_index_rejected(self, tris):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(MeshError, match="triangle indices must be integers"):
            Mesh(vertices=verts, triangles=tris)


class TestFacetTopology:
    def test_two_element_counts(self):
        topo = compute_facet_topology(generate_structured_mesh(1))
        assert topo.facet_lengths.size == 5
        assert topo.n_interior == 1
        assert int(topo.is_interior.sum()) == 1

    @pytest.mark.parametrize("n,facets,interior", [(2, 16, 8), (4, 56, 40)])
    def test_counts(self, n, facets, interior):
        topo = compute_facet_topology(generate_structured_mesh(n))
        assert topo.facet_lengths.size == facets
        assert topo.n_interior == interior

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_euler_formula(self, n):
        mesh = generate_structured_mesh(n)
        topo = compute_facet_topology(mesh)
        assert (mesh.n_vertices - topo.facet_lengths.size
                + mesh.n_triangles) == 1

    def test_facets_run_lo_to_hi(self):
        mesh = generate_structured_mesh(3)
        topo = compute_facet_topology(mesh)
        ends = mesh.triangles[:, np.array(LOCAL_FACETS)]
        assert np.array_equal(topo.elem_facet_forward,
                              ends[..., 0] < ends[..., 1])

    @pytest.mark.parametrize("n", [2, 3])
    def test_normals_unit_outward(self, n):
        mesh = generate_structured_mesh(n)
        topo = compute_facet_topology(mesh)
        facets = oracles.facet_vertices(mesh, topo)
        for t in range(mesh.n_triangles):
            centroid = mesh.vertices[mesh.triangles[t]].mean(axis=0)
            for lf in range(3):
                nvec = topo.normals[t, lf]
                assert np.linalg.norm(nvec) == pytest.approx(1.0, rel=1.0e-14)
                fid = topo.elem_facets[t, lf]
                lo, hi = facets[fid]
                mid = 0.5 * (mesh.vertices[lo] + mesh.vertices[hi])
                assert np.dot(nvec, mid - centroid) > 0.0

    def test_boundary_normals_axis_aligned(self):
        mesh = generate_structured_mesh(2)
        topo = compute_facet_topology(mesh)
        facets = oracles.facet_vertices(mesh, topo)
        for t in range(mesh.n_triangles):
            for lf in range(3):
                fid = topo.elem_facets[t, lf]
                if topo.is_interior[fid]:
                    continue
                lo, hi = facets[fid]
                mid = 0.5 * (mesh.vertices[lo] + mesh.vertices[hi])
                expected = np.zeros(2)
                if mid[0] == 0.0:
                    expected[0] = -1.0
                elif mid[0] == 1.0:
                    expected[0] = 1.0
                elif mid[1] == 0.0:
                    expected[1] = -1.0
                else:
                    expected[1] = 1.0
                assert np.abs(topo.normals[t, lf] - expected).max() < 1.0e-14

    def test_interior_normals_opposite(self):
        mesh = generate_structured_mesh(3)
        topo = compute_facet_topology(mesh)
        sides = {}
        for t in range(mesh.n_triangles):
            for lf in range(3):
                fid = int(topo.elem_facets[t, lf])
                sides.setdefault(fid, []).append(topo.normals[t, lf])
        for fid, ns in sides.items():
            if topo.is_interior[fid]:
                assert len(ns) == 2
                assert np.abs(ns[0] + ns[1]).max() < 1.0e-14
            else:
                assert len(ns) == 1

    @pytest.mark.parametrize("n", [2, 4])
    def test_stab_facet_is_hypotenuse(self, n):
        mesh = generate_structured_mesh(n)
        topo = compute_facet_topology(mesh)
        hyp = math.sqrt(2.0) / n
        for t in range(mesh.n_triangles):
            fid = topo.elem_facets[t, topo.stab_facet[t]]
            assert topo.facet_lengths[fid] == pytest.approx(hyp, rel=1.0e-14)

    def test_stab_facet_tie_break_smallest_id(self):
        # tall isoceles triangle: the two legs tie as longest edge
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 2.0]])
        mesh = Mesh(vertices=verts, triangles=np.array([[0, 1, 2]]))
        topo = compute_facet_topology(mesh)
        lens = topo.facet_lengths[topo.elem_facets[0]]
        longest = np.flatnonzero(lens == lens.max())
        assert len(longest) == 2  # the construction really ties
        chosen = topo.elem_facets[0, topo.stab_facet[0]]
        assert chosen == topo.elem_facets[0, longest].min()

    def test_deterministic(self):
        mesh = oracles.perturbed_mesh(3, seed=7)
        t1 = compute_facet_topology(mesh)
        t2 = compute_facet_topology(mesh)
        assert np.array_equal(t1.elem_facets, t2.elem_facets)
        assert np.array_equal(t1.stab_facet, t2.stab_facet)

    def test_interior_index_consistent(self):
        topo = compute_facet_topology(generate_structured_mesh(3))
        interior_ids = np.flatnonzero(topo.is_interior)
        assert np.array_equal(topo.interior_index[interior_ids],
                              np.arange(topo.n_interior))
        assert np.all(topo.interior_index[~topo.is_interior] == -1)

    def test_overconnected_edge_rejected(self):
        verts = np.array([
            [0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, -1.0], [0.5, -2.0]])
        tris = np.array([[0, 1, 2], [1, 0, 3], [1, 0, 4]])
        mesh = Mesh(vertices=verts, triangles=tris)
        with pytest.raises(MeshError, match="shared"):
            compute_facet_topology(mesh)

    @pytest.mark.parametrize("mesh", [
        *(pytest.param(generate_structured_mesh(n), id=f"structured-{n}")
          for n in (1, 2, 3, 4, 8, 16)),
        *(pytest.param(oracles.perturbed_mesh(n, seed=seed),
                       id=f"perturbed-{n}-{seed}")
          for n, seed in PERTURBED_MESHES),
        pytest.param(Mesh(vertices=np.array([[0.0, 0.0], [1.0, 0.0],
                                             [0.5, 2.0]]),
                          triangles=np.array([[0, 1, 2]])), id="tie-break"),
    ])
    def test_matches_loop_reference_bit_for_bit(self, mesh):
        got = compute_facet_topology(mesh)
        want = oracles.loop_facet_topology(mesh)
        for fld in dataclasses.fields(got):
            a, b = getattr(got, fld.name), getattr(want, fld.name)
            if isinstance(b, np.ndarray):
                assert (a.dtype, a.shape) == (b.dtype, b.shape), fld.name
                assert a.tobytes() == b.tobytes(), fld.name
            else:
                assert a == b, fld.name

    def test_same_direction_traversal_rejected(self):
        # two ccw triangles traversing the same directed edge overlap
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
        tris = np.array([[0, 1, 2], [0, 1, 3]])
        mesh = Mesh(vertices=verts, triangles=tris)
        with pytest.raises(MeshError):
            compute_facet_topology(mesh)


class TestMeshSize:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_structured_values(self, n):
        h = mesh_size(generate_structured_mesh(n))
        assert h == pytest.approx(math.sqrt(2.0) / n, rel=1.0e-14)

    def test_perturbed_mesh_valid(self):
        mesh = oracles.perturbed_mesh(4, seed=11)
        assert np.all(element_geometry(mesh)[2] > 0.0)
        # the largest element diameter, edge by edge
        want = max(math.dist(mesh.vertices[a], mesh.vertices[b])
                   for tri in mesh.triangles
                   for a, b in zip(tri, np.roll(tri, 1)))
        assert mesh_size(mesh) == pytest.approx(want, rel=1.0e-14)

