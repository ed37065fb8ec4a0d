import dataclasses
import hashlib
import io
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (assert_local_dofs_match, coupled_mixed_mesh, facet_kind,
                      facet_list, facet_map_many, facet_nodes, facet_owners,
                      flat_sector_squares,
                      hybrid_mesh, is_open, jittered_quad_mesh, lowered_grid,
                      mesh_sector,
                      mesh_to_json, octahedron_mesh, open_element_pinned_first,
                      polygon_mesh, reference_congruence_classes,
                      reference_coupled_singular, reference_hex_family,
                      reference_import, reference_lattice_perm,
                      reference_local_dofs, reference_number_dofs,
                      reference_quad_family,
                      reference_singular_open_selement, relabelled,
                      sector_jacobian, sector_rows, selement_dofs,
                      selement_facets, star_shape_verdicts)
from test_cli import _in_child
from test_postproc import BATCH_CASES
from sbfem import mesh as mesh_module
from sbfem.cli import MESH_FAMILIES, build_mesh, main
from sbfem.errors import MeshError
from sbfem.mesh import (MERGE_DIRECTION, NEAR_RTOL, DofNumbering, PolytopalMesh,
                        _distinct, _merge_vertices, gen_coupled_singular,
                        gen_hex_mesh, gen_polygon_case1, gen_polyhedron_case1,
                        gen_quad_mesh, gen_refined_cube, gen_refined_square,
                        import_mesh, number_dofs, singular_open_selement)
from sbfem.polyspace import MAX_DEGREE, trace_basis
from sbfem.refgeom import FacetKind, _facet_points


TABLE_DOFS = [
    (gen_quad_mesh, 4, 1, 25), (gen_quad_mesh, 4, 2, 65),
    (gen_quad_mesh, 4, 3, 105), (gen_quad_mesh, 4, 4, 145),
    (gen_quad_mesh, 8, 1, 81), (gen_quad_mesh, 8, 2, 225),
    (gen_quad_mesh, 16, 3, 1377), (gen_quad_mesh, 32, 3, 5313),
    (gen_polygon_case1, 2, 1, 21), (gen_polygon_case1, 2, 2, 45),
    (gen_polygon_case1, 4, 1, 65), (gen_polygon_case1, 4, 2, 145),
    (gen_polygon_case1, 8, 1, 225), (gen_polygon_case1, 8, 2, 513),
    (gen_polygon_case1, 2, 4, 93),
    (gen_hex_mesh, 2, 1, 27), (gen_hex_mesh, 2, 2, 117),
    (gen_hex_mesh, 2, 3, 279), (gen_hex_mesh, 2, 4, 513),
    (gen_hex_mesh, 4, 1, 125), (gen_hex_mesh, 4, 2, 665),
    (gen_hex_mesh, 8, 1, 729),
    (gen_polyhedron_case1, 1, 1, 26), (gen_polyhedron_case1, 1, 2, 98),
    (gen_polyhedron_case1, 1, 3, 218), (gen_polyhedron_case1, 1, 4, 386),
    (gen_polyhedron_case1, 2, 1, 117), (gen_polyhedron_case1, 2, 2, 513),
]


@pytest.mark.parametrize("gen,n,k,expected", TABLE_DOFS)
def test_reference_dof_counts(gen, n, k, expected):
    assert number_dofs(gen(n), k).n_total == expected


def test_coupled_dof_counts():
    for level, k, expected in [(1, 1, 14), (2, 1, 39), (3, 1, 125),
                               (4, 1, 441), (1, 2, 39), (2, 2, 125),
                               (3, 2, 441), (1, 3, 76), (1, 4, 125)]:
        mesh = gen_coupled_singular(level)
        assert number_dofs(mesh, k).n_total == expected


def test_single_square_topology():
    mesh = gen_quad_mesh(1)
    assert len(mesh.centres) == 1
    assert len(selement_facets(mesh, 0)[0]) == 4
    assert not is_open(mesh, 0)


def test_polygon_case1_facet_count():
    mesh = gen_polygon_case1(2)
    for e in range(len(mesh.centres)):
        assert len(selement_facets(mesh, e)[0]) == 8


def test_polyhedron_case1_facet_count():
    mesh = gen_polyhedron_case1(1)
    assert len(selement_facets(mesh, 0)[0]) == 24


def test_refined_families():
    assert len(selement_facets(gen_refined_square(4), 0)[0]) == 16
    assert len(selement_facets(gen_refined_cube(2), 0)[0]) == 24


def test_conformity_owner_counts():
    for mesh in (gen_quad_mesh(3), gen_hex_mesh(2), gen_coupled_singular(2)):
        owners = facet_owners(mesh)
        boundary = 0
        for ow in owners:
            assert len(ow) in (1, 2)
            boundary += len(ow) == 1
        assert boundary == len(mesh.boundary_facet_ids())


def test_quad_mesh_interior_shared():
    mesh = gen_quad_mesh(2)
    owners = facet_owners(mesh)
    interior = [ow for ow in owners if len(ow) == 2]
    assert len(interior) == 4
    assert len(mesh.boundary_facet_ids()) == 8


def test_singular_open_element():
    for n in (1, 2, 4):
        mesh = singular_open_selement(n)
        assert len(selement_facets(mesh, 0)[0]) == 4 * n
        assert is_open(mesh, 0)
        assert mesh.centres[0] == pytest.approx([0.0, 0.0])
        nd = number_dofs(mesh, 1)
        assert nd.n_total == 4 * n + 1
    mesh = singular_open_selement(1)
    v = mesh._dirichlet[0]
    assert len(v) == 1
    assert mesh.vertices[v[0]] == pytest.approx([-1.0, 0.0])


def test_round_trip_identity():
    for mesh in (gen_quad_mesh(2), gen_hex_mesh(1), singular_open_selement(2)):
        data = json.loads(json.dumps(mesh_to_json(mesh)))
        back = import_mesh(data)
        assert np.allclose(back.vertices, mesh.vertices)
        assert len(facet_list(back)) == len(facet_list(mesh))
        for k in (1, 2):
            assert number_dofs(back, k).n_total == number_dofs(mesh, k).n_total
        assert mesh_to_json(back) == mesh_to_json(mesh)
        # an open file object imports as the dict does
        opened = import_mesh(io.StringIO(json.dumps(data)))
        assert mesh_to_json(opened) == mesh_to_json(back)


def test_two_pentagons_fixture():
    mesh = import_mesh({
        "dimension": 2,
        "vertices": [[0, 0], [2, 0], [2.6, 1.4], [1, 2.4], [-0.6, 1.4],
                     [3.8, 0.4], [4.2, 1.9], [3.2, 2.6]],
        "selements": [
            {"facets": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]},
            # shares the edge (1, 2); facets deliberately out of order
            {"facets": [[2, 1], [1, 5], [5, 6], [6, 7], [7, 2]]},
        ],
    })
    assert len(mesh.centres) == 2
    owners = facet_owners(mesh)
    shared = [ow for ow in owners if len(ow) == 2]
    assert len(shared) == 1
    nd = number_dofs(mesh, 2)
    assert nd.n_total == 8 + 9   # vertices + one interior node per facet


def test_facet_of_three_selements_is_named_with_its_first_listing():
    # each S-element alone is a star-shaped loop; all three border (0, 1)
    data = {"dimension": 2,
            "vertices": [[0, 0], [1, 0], [1, 1], [0, 1], [0, -1], [1, -1], [0.5, 0.8]],
            "selements": [{"facets": [[0, 1], [1, 2], [2, 3], [3, 0]]},
                          {"facets": [[1, 0], [0, 4], [4, 5], [5, 1]]},
                          {"facets": [[0, 1], [1, 6], [6, 0]]}]}
    with pytest.raises(MeshError, match=r"^facet 0 \(0, 1\) is shared by 3 elements$"):
        import_mesh(data)


def test_l_shape_star_violation():
    with pytest.raises(MeshError, match="star-shape"):
        polygon_mesh([[0, 0], [3, 0], [3, 1], [1, 1], [1, 3], [0, 3]])


def test_star_shape_error_names_the_lowest_selement():
    square = [[10, 0], [11, 0], [11, 1], [10, 1]]
    ell = np.array([[0, 0], [3, 0], [3, 1], [1, 1], [1, 3], [0, 3]], dtype=float)
    vertices = square + ell.tolist() + (ell + [5.0, 0.0]).tolist()
    loops = [range(4), range(4, 10), range(10, 16)]
    sels = [{"facets": [[lp[i], lp[(i + 1) % len(lp)]] for i in range(len(lp))]}
            for lp in map(list, loops)]
    sels[2]["facets"] = sels[2]["facets"][3:] + sels[2]["facets"][:3]
    with pytest.raises(MeshError, match=r"S-element 1 fails the star-shape"):
        import_mesh({"dimension": 2, "vertices": vertices, "selements": sels})


def test_nonplanar_error_names_the_lowest_facet():
    # lifting vertex 5 bends facets 1, 2 and 3
    verts = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
             [0, 0, 1], [1, 0, 1.3], [1, 1, 1], [0, 1, 1]]
    faces = [[0, 3, 2, 1], [4, 5, 6, 7], [0, 1, 5, 4],
             [1, 2, 6, 5], [2, 3, 7, 6], [3, 0, 4, 7]]
    with pytest.raises(MeshError, match=r"facet 1 is non-planar"):
        import_mesh({"dimension": 3, "vertices": verts,
                     "selements": [{"facets": faces}]})


def test_nonplanar_facet_rejected():
    verts = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
             [0, 0, 1], [1, 0, 1.3], [1, 1, 1], [0, 1, 1]]
    faces = [[0, 3, 2, 1], [4, 5, 6, 7], [0, 1, 5, 4],
             [1, 2, 6, 5], [2, 3, 7, 6], [3, 0, 4, 7]]
    with pytest.raises(MeshError, match="non-planar"):
        import_mesh({"dimension": 3, "vertices": verts,
                     "selements": [{"facets": faces}]})


@pytest.mark.parametrize("gen,message", [
    (gen_quad_mesh, "n and splits must be >= 1"),
    (gen_refined_square, "n and splits must be >= 1"),
    (gen_hex_mesh, "n and splits must be >= 1"),
    (gen_refined_cube, "n and splits must be >= 1"),
    (singular_open_selement, "n must be >= 1"),
    (gen_coupled_singular, "level must be >= 1")])
def test_generators_refuse_sizes_below_one(gen, message):
    with pytest.raises(MeshError, match=f"^{message}$"):
        gen(0)


def test_malformed_file_errors(tmp_path):
    # the dimension is an integer, read as the facet indices are
    for dimension in (4, 1, 2.7, "2", True, None, [2]):
        with pytest.raises(MeshError, match=re.escape(
                f"dimension {dimension!r} is not 2 or 3") + "$"):
            import_mesh(_square_file(dimension=dimension))
    with pytest.raises(MeshError):
        import_mesh({"vertices": [], "selements": []})
    p = tmp_path / "broken.json"
    p.write_text("{not-json")
    with pytest.raises(MeshError):
        import_mesh(str(p))


SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
SQUARE_FACETS = [[0, 1], [1, 2], [2, 3], [3, 0]]


def _square_file(**changes):
    data = {"dimension": 2, "vertices": [list(v) for v in SQUARE],
            "selements": [{"facets": [list(f) for f in SQUARE_FACETS]}]}
    data.update(changes)
    return data


@pytest.mark.parametrize("data", [
    # an unused duplicate in the middle of the vertex list
    _square_file(vertices=SQUARE[:2] + [SQUARE[1]] + SQUARE[2:],
                 selements=[{"facets": [[0, 1], [1, 3], [3, 4], [4, 0]]}]),
    # an unused duplicate at the end
    _square_file(vertices=SQUARE + [SQUARE[0]]),
    # the duplicate used in place of its first copy
    _square_file(vertices=SQUARE + [SQUARE[0]],
                 selements=[{"facets": [[4, 1], [1, 2], [2, 3], [3, 0]]}]),
], ids=["middle", "end", "used"])
def test_duplicate_vertices_import_as_the_clean_square(data, tmp_path):
    clean = import_mesh(_square_file())
    mesh = import_mesh(data)
    assert np.array_equal(mesh.vertices, clean.vertices)
    assert facet_list(mesh) == facet_list(clean)
    assert mesh_to_json(mesh) == mesh_to_json(clean)
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(data))
    assert main(["solve", "--mesh", f"file:{path}", "--k", "1",
                 "--problem", "exp2d", "--output", str(tmp_path)]) == 0


OPEN = {"dimension": 2, "vertices": [[1, 0], [1, 1], [-1, 1], [-1, 0]],
        "selements": [{"facets": [[0, 1], [1, 2], [2, 3]], "center": [0, 0]}]}

MALFORMED = {
    "index-past-end-2d": _square_file(
        selements=[{"facets": [[0, 1], [1, 2], [2, 4], [4, 0]]}]),
    "index-past-end-3d": {"dimension": 3, "vertices": [[1, 0, 0], [0, 1, 0],
                                                       [0, 0, 1], [0, 0, 0]],
                          "selements": [{"facets": [[0, 1, 2], [0, 3, 1],
                                                    [1, 3, 2], [2, 3, 4]]}]},
    "negative-index": _square_file(
        selements=[{"facets": [[0, 1], [1, 2], [2, -1], [-1, 0]]}]),
    "fractional-index": _square_file(
        selements=[{"facets": [[0, 1], [1, 2], [2, 3.5], [3, 0]]}]),
    "string-index": _square_file(
        selements=[{"facets": [[0, 1], [1, 2], [2, "x"], [3, 0]]}]),
    "non-numeric-coordinate": _square_file(
        vertices=SQUARE[:3] + [[0.0, "one"]]),
    "boundary-tags": _square_file(boundary_tags={"0": "wall"}),
    "selement-not-an-object": _square_file(selements=[[[0, 1], [1, 2]]]),
    "three-vertex-facet-2d": _square_file(
        selements=[{"facets": [[0, 1, 2], [2, 3], [3, 0]]}]),
    "two-vertex-facet-3d": {"dimension": 3, "vertices": [[1, 0, 0], [0, 1, 0],
                                                         [0, 0, 1], [0, 0, 0]],
                            "selements": [{"facets": [[0, 1, 2], [0, 3, 1],
                                                      [1, 3, 2], [2, 3],
                                                      [3, 0]]}]},
    "string-coordinates": _square_file(vertices=SQUARE[:3] + ["01"]),
    "nan-coordinate": _square_file(vertices=SQUARE[:3] + [[0.0, float("nan")]]),
    "non-numeric-center": _square_file(
        selements=[{"facets": SQUARE_FACETS, "center": [0.5, "mid"]}]),
    "two-loops-2d": _square_file(
        vertices=SQUARE + [[2, 0], [3, 0], [3, 1]],
        selements=[{"facets": [[0, 1], [1, 2], [2, 3], [3, 0],
                               [4, 5], [5, 6], [6, 4]]}]),
    "sideface-index-past-end": dict(OPEN, selements=[
        dict(OPEN["selements"][0], dirichlet_sideface_nodes=[4])]),
    "sideface-negative-index": dict(OPEN, selements=[
        dict(OPEN["selements"][0], dirichlet_sideface_nodes=[-1])]),
    "selement-without-facets": _square_file(
        selements=[{"facets": SQUARE_FACETS}, {"facets": []}]),
    # a cube whose bottom corners are moved onto one line
    "collinear-quad-facet-3d": {
        "dimension": 3, "vertices": [[0, 0, 0], [1, 0, 0], [3, 0, 0], [2, 0, 0],
                                     [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]],
        "selements": [{"facets": [[0, 3, 2, 1], [4, 5, 6, 7], [0, 1, 5, 4],
                                  [1, 2, 6, 5], [2, 3, 7, 6], [3, 0, 4, 7]]}]},
}
# the message of the cases that no other test names
MALFORMED_MESSAGES = {"selement-without-facets": "^S-element 1 has no facets$",
                      "collinear-quad-facet-3d": "^facet 0 is degenerate$"}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_entries_raise_mesh_error(name, tmp_path):
    with pytest.raises(MeshError, match=MALFORMED_MESSAGES.get(name)):
        import_mesh(MALFORMED[name])
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(MALFORMED[name]))
    assert main(["solve", "--mesh", f"file:{path}", "--k", "1",
                 "--problem", "exp2d", "--output", str(tmp_path)]) == 1


# a file of two squares whose listings hold, in file order, a float index,
# a negative one, one past the last vertex, a facet that is not a list and,
# in the second S-element, a string index
BAD_ENTRIES = [
    ((0, 0), [0, 1.0], "S-element 0 facet [0, 1.0]"),
    ((0, 1), [1, -2], "S-element 0 facet [1, -2]"),
    ((0, 2), [2, 6], "S-element 0 facet [2, 6]"),
    ((0, 3), 3, "S-element 0 facet 3"),
    ((1, 1), [4, "5"], "S-element 1 facet [4, '5']"),
]


def _two_squares(bad=(), **entry):
    data = _square_file(vertices=SQUARE + [[2.0, 0.0], [2.0, 1.0]], selements=[
        {"facets": [list(f) for f in SQUARE_FACETS]},
        dict({"facets": [[1, 4], [4, 5], [5, 2], [2, 1]]}, **entry)])
    for (e, pos), facet, _ in bad:
        data["selements"][e]["facets"][pos] = facet
    return data


def test_import_names_the_first_bad_entry_in_file_order():
    for j, (_, _, what) in enumerate(BAD_ENTRIES):
        with pytest.raises(MeshError, match=re.escape(
                f"{what} is not a list of vertex indices in 0..5") + "$"):
            import_mesh(_two_squares(BAD_ENTRIES[j:]))
    # errors other than an index wait for the listings before them, and
    # come before the listings after them
    center = "S-element 1 center [1.5, 'mid'] is not a list of numbers"
    for bad, message in (([], center), (BAD_ENTRIES[3:4], BAD_ENTRIES[3][2]),
                         (BAD_ENTRIES[4:], BAD_ENTRIES[4][2])):
        with pytest.raises(MeshError, match=f"^{re.escape(message)}"):
            import_mesh(_two_squares(bad, center=[1.5, "mid"]))
    with pytest.raises(MeshError, match=r"^S-element 1: \[\] is not an object$"):
        import_mesh(dict(_two_squares(), selements=[
            {"facets": SQUARE_FACETS}, [], {"facets": [[0, "x"]]}]))
    pinned = _two_squares(BAD_ENTRIES[4:])
    pinned["selements"][0]["dirichlet_sideface_nodes"] = [7]
    with pytest.raises(MeshError, match=re.escape(
            "S-element 0 dirichlet_sideface_nodes [7] is not a list of vertex "
            "indices in 0..5")):
        import_mesh(pinned)
    # a bool is an index, as operator.index takes it
    flags = _square_file(selements=[{"facets": [[False, True], [True, 2], [2, 3],
                                                [3, False]]}])
    assert mesh_to_json(import_mesh(flags)) == mesh_to_json(import_mesh(_square_file()))


@pytest.mark.parametrize("facets", ["ab", {}, {"0": [0, 1]}])
def test_import_rejects_a_string_or_an_object_as_facets(facets):
    # either would iterate as a list of facets: a string by its characters,
    # an object by its keys
    for n, data in enumerate((_square_file(selements=[{"facets": facets}]),
                              _two_squares(facets=facets))):
        with pytest.raises(MeshError, match=re.escape(
                f"S-element {n} facets {facets!r} is not a list") + "$"):
            import_mesh(data)


@pytest.mark.parametrize("facets", [5, None])
def test_import_rejects_facets_that_are_not_a_list(facets):
    with pytest.raises(MeshError, match=rf"^S-element 0 facets {facets} is not a list$"):
        import_mesh(_square_file(selements=[{"facets": facets}]))


def test_boundary_tags_key_rejected_by_name():
    # the problem, not the mesh file, sets the Dirichlet facets
    with pytest.raises(MeshError, match="boundary_tags"):
        import_mesh(_square_file(boundary_tags={"0": "wall"}))


def test_tiny_square_imports_as_a_square():
    # merging is relative to the coordinate extent, not to fixed decimals
    scale = 1e-13
    mesh = import_mesh(_square_file(
        vertices=[[scale * c for c in v] for v in SQUARE + [SQUARE[2]]],
        selements=[{"facets": [[0, 1], [1, 4], [2, 3], [3, 0]]}]))
    assert np.array_equal(mesh.vertices, scale * np.array(SQUARE))
    assert len(facet_list(mesh)) == 4
    assert not is_open(mesh, 0)


def test_nearly_coincident_vertices_rejected():
    # two unit squares whose shared side is listed twice, 1e-11 apart: a
    # crack, not one vertex pair
    right = [[1.0 + 1e-11, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0 + 1e-11, 1.0]]
    data = {"dimension": 2, "vertices": SQUARE + right,
            "selements": [{"facets": SQUARE_FACETS},
                          {"facets": [[4, 5], [5, 6], [6, 7], [7, 4]]}]}
    with pytest.raises(MeshError, match=r"vertices 1 and 4 .*nearly coincident"):
        import_mesh(data)
    # the same mesh scaled up by 1e6 is still cracked
    big = dict(data, vertices=[[1e6 * c for c in v] for v in data["vertices"]])
    with pytest.raises(MeshError, match="nearly coincident"):
        import_mesh(big)


def test_sideface_indices_are_file_indices():
    # a duplicate vertex shifts the mesh ids of every later file index
    data = dict(OPEN, vertices=[[1, 0], [1, 0]] + OPEN["vertices"][1:],
                selements=[{"facets": [[1, 2], [2, 3], [3, 4]],
                            "center": [0, 0], "dirichlet_sideface_nodes": [4]}])
    mesh = import_mesh(data)
    assert mesh._dirichlet == {0: (3,)}
    assert np.array_equal(mesh.vertices[3], [-1, 0])


def test_octahedron_import_and_sectors():
    mesh = octahedron_mesh()
    assert len(selement_facets(mesh, 0)[0]) == 8
    for pos in range(8):
        sector = mesh_sector(mesh, 0, pos)
        assert sector.facet_kind is FacetKind.TRIANGLE
    assert number_dofs(mesh, 1).n_total == 6
    assert number_dofs(mesh, 2).n_total == 6 + 12  # vertices + edge nodes


def test_hybrid_pyramid_tetra_import():
    mesh = hybrid_mesh()
    kinds = {facet_kind(mesh, f) for f in selement_facets(mesh, 0)[0]}
    assert kinds == {FacetKind.QUADRILATERAL, FacetKind.TRIANGLE}


def test_node_permutations_match_physical_points(rng):
    for kind, verts in [
        (FacetKind.SEGMENT, np.array([[0.0, 0.0], [1.0, 0.3]])),
        (FacetKind.QUADRILATERAL,
         np.array([[0, 0, 0], [1, 0, 0.2], [1.1, 1, 0.2], [0, 1, 0]])),
        (FacetKind.TRIANGLE, np.array([[0, 0, 0], [1, 0, 0], [0.2, 1.1, 0]])),
    ]:
        k = 3
        nodes = trace_basis(kind, k).nodes
        pts_canon = _facet_points(kind, nodes, verts)
        admissible = {
            FacetKind.SEGMENT: [(0, 1), (1, 0)],
            FacetKind.TRIANGLE: [(0, 1, 2), (1, 2, 0), (2, 0, 1),
                                 (0, 2, 1), (2, 1, 0), (1, 0, 2)],
            FacetKind.QUADRILATERAL: [(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1),
                                      (3, 0, 1, 2), (0, 3, 2, 1), (3, 2, 1, 0),
                                      (2, 1, 0, 3), (1, 0, 3, 2)],
        }[kind]
        for vperm in admissible:
            perm = reference_lattice_perm(kind, k, tuple(vperm))
            pts = _facet_points(kind, nodes, verts[list(vperm)])
            assert np.allclose(pts, pts_canon[perm], atol=1e-12)


def test_invalid_quad_vertex_order_rejected():
    with pytest.raises(MeshError):
        reference_lattice_perm(FacetKind.QUADRILATERAL, 2, (0, 2, 1, 3))
    # registration: a second listing of a quadrilateral that makes opposite
    # corners adjacent, or a listing that repeats a vertex
    cubes = gen_hex_mesh(2)
    table = np.array(cubes._table)
    key = [tuple(sorted(row)) for row in table.tolist()]
    again = next(r for r in range(len(key)) if key[r] in key[:r])
    a, b, c, d = table[key.index(key[again])]
    for row, listing, order in ((again, [a, c, b, d], (0, 2, 1, 3)),
                                (0, [a, b, b, d], (0, 1, 1, 3))):
        bad = table.copy()
        bad[row] = listing
        with pytest.raises(MeshError, match=re.escape(
                f"facet vertex order {order} is not a symmetry of the "
                "reference quadrilateral")):
            PolytopalMesh(3)._register(cubes.vertices, bad, [6] * 8)
    with pytest.raises(MeshError, match=re.escape(
            "facet vertex order (0, 0) is not a symmetry of the reference segment")):
        PolytopalMesh(2)._register(np.eye(2), np.array([[0, 1], [1, 1]]), [2])
    # a second element lists the shared quadrilateral with opposite corners
    # made adjacent
    square = {"dimension": 3,
              "vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]],
              "selements": [{"facets": [[0, 1, 2, 3]]},
                            {"facets": [[0, 2, 1, 3]]}]}
    with pytest.raises(MeshError, match="not a symmetry"):
        import_mesh(square)
    # two unit cubes sharing the face x = 1, which the second lists twisted
    verts = [[x, y, z] for z in (0, 1) for y in (0, 1) for x in (0, 1, 2)]
    v = {tuple(p): i for i, p in enumerate(verts)}

    def cube(x0, shared):
        at = {(dx, dy, dz): v[(x0 + dx, dy, dz)]
              for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)}
        faces = [[at[0, 0, 0], at[0, 1, 0], at[1, 1, 0], at[1, 0, 0]],
                 [at[0, 0, 1], at[1, 0, 1], at[1, 1, 1], at[0, 1, 1]],
                 [at[0, 0, 0], at[1, 0, 0], at[1, 0, 1], at[0, 0, 1]],
                 [at[0, 1, 0], at[0, 1, 1], at[1, 1, 1], at[1, 1, 0]],
                 [at[0, 0, 0], at[0, 0, 1], at[0, 1, 1], at[0, 1, 0]],
                 [at[1, 0, 0], at[1, 1, 0], at[1, 1, 1], at[1, 0, 1]]]
        faces[4 if shared == "left" else 5] = shared_face
        return {"facets": faces}

    shared_face = [v[1, 0, 0], v[1, 1, 0], v[1, 1, 1], v[1, 0, 1]]
    good = {"dimension": 3, "vertices": verts,
            "selements": [cube(0, "right"), cube(1, "left")]}
    assert len(facet_list(import_mesh(good))) == 11
    shared_face = [v[1, 0, 0], v[1, 1, 1], v[1, 1, 0], v[1, 0, 1]]
    twisted = {"dimension": 3, "vertices": verts,
               "selements": [good["selements"][0], cube(1, "left")]}
    with pytest.raises(MeshError, match="not a symmetry"):
        import_mesh(twisted)


STRUCTURE_MESHES = {
    "hybrid": hybrid_mesh,
    "octahedron": octahedron_mesh,
    "coupled-l2": lambda: gen_coupled_singular(2),
    "jittered-4x4": lambda: jittered_quad_mesh(4, 0.18),
    "polyhedron-case1": lambda: gen_polyhedron_case1(1),
}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(STRUCTURE_MESHES))
def test_lattice_dofs_sit_at_their_points(name, k):
    # every facet, seen in its canonical order and from each owning
    # S-element's order, and every FE quad places its lattice DOFs at the
    # mapped lattice nodes; distinct DOFs never share a point
    mesh = STRUCTURE_MESHES[name]()
    nd = number_dofs(mesh, k)

    def check(kind, vertex_ids, dofs):
        pts = _facet_points(kind, trace_basis(kind, k).nodes,
                            mesh.vertices[list(vertex_ids)])
        assert np.abs(nd.coords[dofs] - pts).max() <= 1e-12

    for fid, (vertices, kind) in enumerate(facet_list(mesh)):
        check(kind, vertices, facet_nodes(nd, fid))
    for e in range(len(mesh.centres)):
        # the full S-local set, side-face pins included
        dofs, rows = reference_local_dofs(mesh, nd, e, keep_pins=True)
        for pos, (fid, order) in enumerate(zip(*selement_facets(mesh, e))):
            check(facet_kind(mesh, fid), order, dofs[rows[pos]])
    for q, quad in enumerate(mesh._quads()):
        check(FacetKind.QUADRILATERAL, quad, nd.fe_nodes[q])
    gap = np.linalg.norm(nd.coords[:, None] - nd.coords[None], axis=-1)
    np.fill_diagonal(gap, np.inf)
    assert gap.min() > 1e-9


# sha256 (first 16 hex digits) of n_total, facet and FE nodes.  The DOF
# order fixes the layout of K and of every nodal vector, so it may only
# change on purpose.
NUMBERING_DIGESTS = [
    ("quad", 1, 3, 105, "3f1e6a55d3387304"),
    ("hex", 1, 2, 117, "a6e6b378d139cafc"),
    ("hybrid", None, 3, 74, "cc301cf6363e1bbf"),
    ("coupled-singular", 2, 2, 125, "ea0e006e982fb65b"),
]


@pytest.mark.parametrize("family,level,k,n_total,digest", NUMBERING_DIGESTS)
def test_numbering_order_is_pinned(family, level, k, n_total, digest):
    mesh = hybrid_mesh() if level is None else build_mesh(family, level)
    nd = number_dofs(mesh, k)
    h = hashlib.sha256(str(nd.n_total).encode())
    for ids in [facet_nodes(nd, f) for f in range(len(nd.facet_start) - 1)] + list(
            nd.fe_nodes):
        h.update(np.asarray(ids, dtype=np.int64).tobytes())
    assert (nd.n_total, h.hexdigest()[:16]) == (n_total, digest)


def test_neighbor_elements_share_facet_dofs():
    mesh = gen_quad_mesh(2)
    nd = number_dofs(mesh, 3)
    seen = {}
    for e in range(len(mesh.centres)):
        dofs, rows = selement_dofs(nd, e), sector_rows(mesh, nd, e)
        for pos, fid in enumerate(selement_facets(mesh, e)[0]):
            ids = dofs[rows[pos]]
            sector = mesh_sector(mesh, e, pos)
            pts = facet_map_many(sector, np.linspace(-1, 1, 4)[:, None])
            key = fid
            if key in seen:
                other_ids, other_pts = seen[key]
                # same physical nodes must carry the same global dofs
                for g, p in zip(ids, _node_points(mesh, nd, sector)):
                    j = np.argmin(np.linalg.norm(other_pts - p, axis=1))
                    assert other_ids[j] == g
            else:
                seen[key] = (ids, _node_points(mesh, nd, sector))


def _node_points(mesh, nd, sector):
    from sbfem.polyspace import trace_basis
    basis = trace_basis(sector.facet_kind, nd.k)
    return facet_map_many(sector, basis.nodes)


def test_closed_element_rejects_sideface_declaration():
    with pytest.raises(MeshError):
        import_mesh({
            "dimension": 2,
            "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
            "selements": [{"facets": [[0, 1], [1, 2], [2, 3], [3, 0]],
                           "dirichlet_sideface_nodes": [0]}],
        })


def test_sideface_vertex_must_be_endpoint():
    with pytest.raises(MeshError, match="endpoint"):
        import_mesh({
            "dimension": 2,
            "vertices": [[1, 0], [1, 1], [-1, 1], [-1, 0]],
            "selements": [{"facets": [[0, 1], [1, 2], [2, 3]],
                           "center": [0, 0],
                           "dirichlet_sideface_nodes": [1]}],
        })


def test_h_max():
    assert gen_quad_mesh(2).h_max() == pytest.approx(1.0)
    assert gen_refined_square(4).h_max() == pytest.approx(0.5)


def test_import_orients_scrambled_3d_faces(rng):
    # cube faces given with random rotations/reversals and in random order;
    # the importer must orient them consistently outward
    verts = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
             [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]]
    faces = [[0, 3, 2, 1], [4, 5, 6, 7], [0, 1, 5, 4],
             [1, 2, 6, 5], [2, 3, 7, 6], [3, 0, 4, 7]]
    for trial in range(5):
        scrambled = []
        for f in faces:
            f = list(f)
            r = int(rng.integers(4))
            f = f[r:] + f[:r]
            if rng.integers(2):
                f = [f[0]] + f[:0:-1]
            scrambled.append(f)
        order = rng.permutation(len(scrambled))
        mesh = import_mesh({"dimension": 3, "vertices": verts,
                            "selements": [{"facets":
                                           [scrambled[i] for i in order]}]})
        assert number_dofs(mesh, 2).n_total == 8 + 12 + 6
        from sbfem.polyspace import facet_quadrature
        vol = 0.0
        for pos in range(6):
            sector = mesh_sector(mesh, 0, pos)
            rule = facet_quadrature(sector.facet_kind, 4)
            _, det = sector_jacobian(sector, rule.points)
            assert det.min() > 0
            vol += float(rule.weights @ det) / 3.0
        assert vol == pytest.approx(1.0, rel=1e-12)


def test_import_orients_scrambled_2d_edges(rng):
    verts = [[0.0, 0.0], [2.0, 0.3], [2.2, 1.8], [0.9, 2.4], [-0.5, 1.2]]
    edges = [[i, (i + 1) % 5] for i in range(5)]
    for trial in range(5):
        scrambled = [list(reversed(e)) if rng.integers(2) else list(e)
                     for e in edges]
        order = rng.permutation(5)
        mesh = import_mesh({"dimension": 2, "vertices": verts,
                            "selements": [{"facets":
                                           [scrambled[i] for i in order]}]})
        from sbfem.polyspace import facet_quadrature
        area = 0.0
        for pos in range(5):
            sector = mesh_sector(mesh, 0, pos)
            rule = facet_quadrature(sector.facet_kind, 4)
            _, det = sector_jacobian(sector, rule.points)
            assert det.min() > 0
            area += float(rule.weights @ det) / 2.0
        assert area == pytest.approx(4.44, rel=1e-12)


@pytest.mark.parametrize("gen", [gen_quad_mesh, gen_hex_mesh])
def test_generators_merge_relative_to_domain_extent(gen):
    # at 1e-13 scale, fixed 12-decimal rounding would merge every vertex
    dim = 2 if gen is gen_quad_mesh else 3
    tiny = gen(2, domain=((0.0, 1e-13),) * dim)
    unit = gen(2, domain=((0.0, 1.0),) * dim)
    assert len(tiny.vertices) == len(unit.vertices) == 3 ** dim
    assert np.allclose(tiny.vertices * 1e13, unit.vertices, rtol=0, atol=1e-12)
    assert facet_list(tiny) == facet_list(unit)


# domains where rounding corners to 12 decimals of the extent split round-off
# copies of one grid line: n, domain, vertices, boundary facets
CRACKED = {
    "quad": (gen_quad_mesh, 5, ((-0.6334261879936323, 1.5954841889539755),
                                (-1.0, 1.0)), 36, 20),
    "hex": (gen_hex_mesh, 4, ((-1.1347384183896474, 1.3716648672923668),
                              (0.0, 2.506403285682014), (0.0, 2.506403285682014)),
            125, 96),
}


@pytest.mark.parametrize("name", sorted(CRACKED))
def test_generators_merge_round_off_copies_on_a_rounding_boundary(name):
    gen, n, domain, n_vertices, n_boundary = CRACKED[name]
    mesh = gen(n, domain)
    assert len(mesh.vertices) == n_vertices
    assert len(mesh.boundary_facet_ids()) == n_boundary


def _box_with_a_line_on_a_rounding_boundary(rng, n: int, dim: int) -> tuple:
    """A random box whose grid line i (0 < i < n) of the first axis sits
    halfway between two steps of 1e-12 x the box's extent."""
    lo, width = rng.uniform(-2.0, 1.0, dim), rng.uniform(0.5, 3.0, dim)
    extent = width.max()
    line = lo[0] + rng.integers(1, n) * width[0] / n
    lo[0] += (np.floor(line / extent * 1e12) + 0.5) * 1e-12 * extent - line
    return tuple((a, a + w) for a, w in zip(lo.tolist(), width.tolist()))


@pytest.mark.parametrize("gen", [gen_quad_mesh, gen_hex_mesh])
def test_generators_do_not_crack_on_rounding_boundaries(gen):
    # rounding the corners to 12 decimals cracked 10 of these quad meshes and
    # 6 of the hex meshes: each crack added vertices and boundary facets, and
    # raised nothing
    dim = 2 if gen is gen_quad_mesh else 3
    rng = np.random.default_rng(34)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        domain = _box_with_a_line_on_a_rounding_boundary(rng, n, dim)
        mesh = gen(n, domain)
        assert len(mesh.vertices) == (n + 1) ** dim, domain
        assert len(mesh.boundary_facet_ids()) == 2 * dim * n ** (dim - 1), domain


def assert_import_agrees(mesh):
    """`import_mesh` of the mesh's file gives the same vertices, sector table
    (up to the file's -1 padding) and class tables, bit for bit; the file
    schema has no FE quads, so a coupled mesh's FE rows are left out."""
    back = import_mesh(mesh_to_json(mesh))
    rows, width = mesh._counts.sum(), mesh._table.shape[1]
    assert back.vertices.tobytes() == mesh.vertices.tobytes()
    assert back._table[:, :width].tobytes() == mesh._table[:rows].tobytes()
    assert (back._table[:, width:] == -1).all()
    assert back._sel_class.tobytes() == mesh._sel_class.tobytes()
    assert back._fe_class.tobytes() == mesh._fe_class[:len(back._quads())].tobytes()


AGREE = {**{f"cracked-{name}": lambda c=c: c[0](*c[1:3]) for name, c in CRACKED.items()},
         **{f"{name}-2": lambda name=name: build_mesh(name, 2) for name in MESH_FAMILIES}}


@pytest.mark.parametrize("name", sorted(AGREE))
def test_generated_mesh_and_its_import_agree(name):
    assert_import_agrees(AGREE[name]())


def test_generators_refuse_nearly_coincident_vertices():
    # the import's rule: grid lines 5e-10 apart on a unit extent are a crack
    with pytest.raises(MeshError, match=r"vertices 0 and 3 .*nearly coincident"):
        gen_quad_mesh(2, ((0.0, 1.0), (0.0, 1e-9)))


def test_sector_stacks_built_once_and_read_only():
    mesh = gen_quad_mesh(2)
    assert not any(a.flags.writeable for arrays in mesh._stacks.values()
                   for a in arrays)


# -- one registration pass against the per-element builder ----------------------

TINY2, TINY3 = ((0.0, 1e-13),) * 2, ((0.0, 1e-13),) * 3
REGISTERED = (
    [(f"quad-{n}", lambda n=n: gen_quad_mesh(n),
      lambda n=n: reference_quad_family(n, 1)) for n in range(1, 17)]
    + [(f"polygon-case1-{n}", lambda n=n: gen_polygon_case1(n),
        lambda n=n: reference_quad_family(n, 2)) for n in range(1, 5)]
    + [(f"refined-square-{n}", lambda n=n: gen_refined_square(n),
        lambda n=n: reference_quad_family(1, n)) for n in (1, 3, 8)]
    + [(f"hex-{n}", lambda n=n: gen_hex_mesh(n),
        lambda n=n: reference_hex_family(n, 1)) for n in range(1, 5)]
    + [(f"polyhedron-case1-{n}", lambda n=n: gen_polyhedron_case1(n),
        lambda n=n: reference_hex_family(n, 2)) for n in (1, 2)]
    + [(f"refined-cube-{n}", lambda n=n: gen_refined_cube(n),
        lambda n=n: reference_hex_family(1, n)) for n in (1, 3)]
    + [(f"singular-{n}", lambda n=n: singular_open_selement(n),
        lambda n=n: reference_singular_open_selement(n)) for n in range(1, 5)]
    + [(f"coupled-singular-{n}", lambda n=n: gen_coupled_singular(n),
        lambda n=n: reference_coupled_singular(n)) for n in range(1, 7)]
    + [("quad-tiny", lambda: gen_quad_mesh(3, TINY2),
        lambda: reference_quad_family(3, 1, TINY2)),
       ("polygon-case1-tiny", lambda: gen_polygon_case1(3, TINY2),
        lambda: reference_quad_family(3, 2, TINY2)),
       ("hex-tiny", lambda: gen_hex_mesh(2, TINY3),
        lambda: reference_hex_family(2, 1, TINY3)),
       ("singular-tiny", lambda: singular_open_selement(2, TINY2),
        lambda: reference_singular_open_selement(2, TINY2))]
)


def assert_same_mesh(mesh, ref):
    """The registration arrays against the per-element builder's records,
    centres and coordinates to the bit."""
    assert mesh.dimension == ref.dimension
    assert mesh.vertices.tobytes() == ref.vertices.tobytes()
    assert mesh.vertices.shape == ref.vertices.shape
    assert facet_list(mesh) == [(f.vertices, f.kind) for f in ref.facets]
    sels, fes = ref.selements, ref.fe_elements
    assert mesh._counts.tolist() == [len(sel.facet_ids) for sel in sels]
    assert mesh._fid.tolist() == [f for sel in sels for f in sel.facet_ids] + [
        f for fe in fes for f in fe.edge_facets]
    assert [mesh._listing(r) for r in range(len(mesh._table))] == [
        order for sel in sels for order in sel.facet_orders] + [
        (v, fe.vertices[(i + 1) % 4]) for fe in fes for i, v in enumerate(fe.vertices)]
    assert mesh._quads().tolist() == [list(fe.vertices) for fe in fes]
    assert mesh.centres.tobytes() == np.array([sel.center for sel in sels]).tobytes()
    assert [is_open(mesh, e) for e in range(len(sels))] == [
        sel.dirichlet is not None for sel in sels]
    assert mesh._dirichlet == {sel.id: sel.dirichlet for sel in sels if sel.dirichlet}
    stacks = mesh._stacks
    assert list(stacks) == list(ref._stacks)
    for kind, arrays in stacks.items():
        for a, b in zip(arrays, ref._stacks[kind]):
            assert a.dtype == b.dtype and np.array_equal(a, b)
            assert a.tobytes() == b.tobytes()
    owners = facet_owners(mesh)
    assert mesh.boundary_facet_ids() == [f for f, ow in enumerate(owners)
                                         if len(ow) == 1]
    json.dumps(mesh_to_json(mesh))          # plain Python ids throughout


@pytest.mark.parametrize("build,reference", [r[1:] for r in REGISTERED],
                         ids=[r[0] for r in REGISTERED])
def test_generators_match_per_element_builder(build, reference):
    assert_same_mesh(build(), reference())


IMPORTED = {
    "jittered-6x6": lambda: mesh_to_json(jittered_quad_mesh(6, 0.18)),
    "hybrid": lambda: mesh_to_json(hybrid_mesh()),
    "octahedron": lambda: mesh_to_json(octahedron_mesh()),
    "polyhedron-case1-2": lambda: mesh_to_json(gen_polyhedron_case1(2)),
    "coupled-open": lambda: mesh_to_json(singular_open_selement(3)),
    "duplicates-uncentred": lambda: {
        "dimension": 2,
        "vertices": [[0, 0], [2, 0], [2.6, 1.4], [1, 2.4], [-0.6, 1.4],
                     [3.8, 0.4], [4.2, 1.9], [3.2, 2.6], [2, 0]],
        "selements": [{"facets": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]},
                      {"facets": [[2, 8], [8, 5], [5, 6], [6, 7], [7, 2]]}]},
    "scrambled-cube": lambda: {
        "dimension": 3,
        "vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                     [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]],
        "selements": [{"facets": [[4, 5, 6, 7], [0, 1, 2, 3], [2, 6, 5, 1],
                                  [0, 1, 5, 4], [7, 6, 2, 3], [3, 7, 4, 0]]}]},
}


@pytest.mark.parametrize("name", sorted(IMPORTED))
def test_import_matches_per_element_builder(name):
    data = IMPORTED[name]()
    assert_same_mesh(import_mesh(data), reference_import(data))


SQUARES = [[0, 0], [1, 0], [1, 1], [0, 1], [2, 0], [2, 1], [3, 0], [3, 1]]


def _register_2d(loops, dirichlet=None):
    table = np.array([(a, b) for loop in loops for a, b in loop])
    return PolytopalMesh(2)._register(np.array(SQUARES, dtype=float), table,
                                      [len(lp) for lp in loops],
                                      dirichlet=dirichlet)


CLOSED = [[(0, 1), (1, 2), (2, 3), (3, 0)], [(1, 4), (4, 5), (5, 2), (2, 1)],
          [(4, 6), (6, 7), (7, 5), (5, 4)]]


def test_registration_names_lowest_broken_chain():
    # S-element 1 lists (5, 2) twice, so vertex 5 meets three facets;
    # S-element 2 adds a diagonal to its loop
    broken = [CLOSED[0], [(1, 4), (4, 5), (5, 2), (5, 2)],
              CLOSED[2] + [(4, 7)]]
    with pytest.raises(MeshError, match=r"^S-element 1: boundary facets do not "
                                        "form a chain or loop"):
        _register_2d(broken)
    with pytest.raises(MeshError, match=r"^S-element 2: boundary facets"):
        _register_2d(CLOSED[:2] + broken[2:])


def test_registration_names_lowest_sideface_culprit():
    chain = [(4, 6), (6, 7), (7, 5)]             # open at 4 and 5
    with pytest.raises(MeshError, match=r"^S-element 1 is closed but lists"):
        _register_2d(CLOSED[:2] + [chain], dirichlet={1: (4,), 2: (6,)})
    with pytest.raises(MeshError, match=r"^S-element 2: Dirichlet side-face "
                                        r"vertex 6 is not an open-boundary "
                                        r"endpoint \[4, 5\]"):
        _register_2d(CLOSED[:2] + [chain], dirichlet={2: (4, 6)})
    # a chain error in a lower S-element is named first
    with pytest.raises(MeshError, match=r"^S-element 1: boundary facets"):
        _register_2d([CLOSED[0], CLOSED[1][:3] + [(5, 1)], chain],
                     dirichlet={2: (6,)})
    mesh = _register_2d(CLOSED[:2] + [chain], dirichlet={2: (5,)})
    assert mesh._dirichlet == {2: (5,)}
    assert [is_open(mesh, e) for e in range(3)] == [False, False, True]


@pytest.mark.parametrize("loops", [
    [CLOSED[0], CLOSED[2] + [(1, 0)]],     # a loop plus a stray segment: "open"
    [CLOSED[0], CLOSED[2] + CLOSED[0]]])   # two disjoint loops: "closed"
def test_registration_rejects_disconnected_loops(loops):
    with pytest.raises(MeshError, match=r"^S-element 1: boundary facets form 2 "
                                        "disconnected pieces$"):
        _register_2d(loops)


def test_registration_rejects_two_disjoint_closed_surfaces():
    cube = IMPORTED["scrambled-cube"]()
    faces = np.array(cube["selements"][0]["facets"])
    vertices = np.array(cube["vertices"], dtype=float)
    with pytest.raises(MeshError, match=r"^S-element 0: boundary facets form 2 "
                                        "disconnected pieces$"):
        PolytopalMesh(3)._register(np.vstack([vertices, vertices + [2.0, 0, 0]]),
                                   np.vstack([faces, faces + 8]), [12])


def test_star_shape_verdict_on_a_pulled_structured_mesh():
    # an interior vertex of a 4 x 4 grid pulled from (0, 0) into an element:
    # the element's two facets at the pulled vertex are seen from behind and,
    # turned to face the centre, meet their other neighbours tail to tail
    # and head to head
    data = mesh_to_json(gen_quad_mesh(4))
    for entry in data["selements"]:
        del entry["center"]
    v = next(i for i, p in enumerate(data["vertices"]) if p == [0.0, 0.0])
    data["vertices"][v] = [0.45, 0.45]
    with pytest.raises(MeshError, match=re.escape(
            "S-element 10 fails the star-shape check: facets (13, 12) and "
            "(13, 18) cannot both face its scaling center [0.3625 0.3625]")):
        import_mesh(data)


def test_star_shape_checks_every_copy_near_failing():
    # one congruence key for both bottom sectors: each is checked, the copy
    # as well as the first (visible, its centre 4e-14 above the facet); a
    # copy whose centre sits 5e-15 above or below the facet (relative |J|
    # below 1e-14; seen from below, the facet is turned) or on its line is
    # flat, one 2e-14 above passes
    for h1, facet in ((5e-15, "(1, 2)"), (0.0, "(1, 2)"), (-5e-15, "(2, 1)")):
        with pytest.raises(MeshError, match=re.escape(
                f"S-element 1 fails the star-shape check: facet {facet} is not "
                "fully visible")):
            import_mesh(flat_sector_squares(4e-14, h1))
    assert import_mesh(flat_sector_squares(4e-14, 2e-14))._sel_class.tolist() == [0, 0]


def dart_prism(t: float, scale: float, bottom=(0, 3, 2, 1)) -> dict:
    """The prism z in [0, 1] over the quadrilateral (0, 0), (2, 0), (t, t),
    (0, 2), scaled, its centre at (0.3, 0.3, 0.5), its bottom facet listed
    as `bottom`: for t < 1 the corner (t, t) is reflex and the bottom facet
    folds away from the centre there."""
    base = [[0, 0], [2, 0], [t, t], [0, 2]]
    return {"dimension": 3,
            "vertices": [[scale * x, scale * y, scale * z] for z in (0.0, 1.0)
                         for x, y in base],
            "selements": [{"facets": [list(bottom), [4, 5, 6, 7], [0, 1, 5, 4],
                                      [1, 2, 6, 5], [2, 3, 7, 6], [3, 0, 4, 7]],
                           "center": [0.3 * scale, 0.3 * scale, 0.5 * scale]}]}


@pytest.mark.parametrize("scale", [1.0, 2.0 ** -40, 2.0 ** 40])
def test_star_shape_is_decided_at_the_facet_corners(scale):
    # |J(1,eta)| of the bottom sector is bilinear in eta: negative at the
    # reflex corner for t < 1, zero there at the straight angle t = 1, and
    # positive on the whole facet for t > 1; whichever corner a listing
    # starts from, the straight angle is no degenerate facet
    for t in (0.95, 0.99):
        with pytest.raises(MeshError, match=re.escape(
                "S-element 0 fails the star-shape check: facet (0, 3, 2, 1) is "
                "not fully visible")):
            import_mesh(dart_prism(t, scale))
    for t, bottom in itertools.product((1.0, 1.01), ((0, 3, 2, 1), (3, 2, 1, 0))):
        import_mesh(dart_prism(t, scale, bottom))


@pytest.mark.parametrize("scale", [1e-170, 1e300])
def test_star_shape_check_is_scale_free(scale, tmp_path):
    # the check runs on the coordinates scaled exactly by a power of two to
    # an extent in [1/2, 1): the counter-clockwise unit square at 1e-170,
    # whose |J| underflowed, and at 1e300, whose |J| overflowed, is imported
    # by a child process that makes every RuntimeWarning an error
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps({
        "dimension": 2, "vertices": [[0, 0], [scale, 0], [scale, scale], [0, scale]],
        "selements": [{"facets": [[0, 1], [1, 2], [2, 3], [3, 0]]}]}))
    run = _in_child(["-W", "error::RuntimeWarning", "-c",
                     "import sys; from sbfem.mesh import import_mesh; "
                     "print(import_mesh(sys.argv[1]).centres.tolist())", str(path)], 1)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == f"{[[0.5 * scale, 0.5 * scale]]}\n"


def pulled_quad_mesh() -> dict:
    """A 4 x 4 grid with the interior vertex at (0, 0) pulled to (0.45,
    0.45), every centre the mean of its element's vertices."""
    data = mesh_to_json(gen_quad_mesh(4))
    for entry in data["selements"]:
        del entry["center"]
    v = next(i for i, p in enumerate(data["vertices"]) if p == [0.0, 0.0])
    data["vertices"][v] = [0.45, 0.45]
    return data


STAR_SHAPE_CASES = {
    **{f"{family}-l2": lambda family=family: build_mesh(family, 2)
       for family in MESH_FAMILIES},
    **{f"jittered-8x8-{amplitude}-{seed}":
       lambda amplitude=amplitude, seed=seed: jittered_quad_mesh(8, amplitude, seed)
       for amplitude, seed in ((0.18, 1), (0.6, 0), (0.8, 3))},
    **{f"flat-squares-{h1}": lambda h1=h1: import_mesh(flat_sector_squares(4e-14, h1))
       for h1 in (5e-15, 0.0, -5e-15, 2e-14)},
    **{f"dart-prism-{t}-{scale}": lambda t=t, scale=scale: import_mesh(dart_prism(t, scale))
       for t, scale in itertools.product((0.95, 1.0, 1.01), (1.0, 2.0 ** -40))},
    "pulled-quad-4x4": lambda: import_mesh(pulled_quad_mesh()),
    # copies whose bottom sector is flat, their classes' lowest members not
    "lowered-quad-4x4": lambda: import_mesh(lowered_grid(
        gen_quad_mesh(4), {9: 5e-15, 5: 0.0, 14: -5e-15})),
    "lowered-hex-3x3x3": lambda: import_mesh(lowered_grid(
        gen_hex_mesh(3), {13: 2e-15, 20: 0.0})),
    "lowered-hex-3x3x3-passes": lambda: import_mesh(lowered_grid(gen_hex_mesh(3), {})),
}


@pytest.mark.parametrize("case", sorted(STAR_SHAPE_CASES))
def test_star_shape_check_per_class_matches_the_all_sector_oracle(case, monkeypatch):
    # one member per class, and copies only where that member is within
    # reach of failing: the same verdict and culprit as evaluating every
    # sector (conftest.reference_check_star_shape)
    got, want = star_shape_verdicts(monkeypatch, STAR_SHAPE_CASES[case])
    assert got == want


def test_star_shape_copies_share_one_class():
    # the lowered grids test copies: at heights within the key grid, every
    # S-element of a structured mesh is one class
    for mesh in (gen_quad_mesh(4), gen_hex_mesh(3)):
        lowered = import_mesh(lowered_grid(mesh, {1: 2e-14}))
        assert lowered._sel_class.tolist() == [0] * len(lowered._sel_class)


@pytest.mark.parametrize("make, sectors", [
    (lambda: gen_hex_mesh(4), [6]), (lambda: gen_quad_mesh(16), [4]),
    (lambda: jittered_quad_mesh(8, 0.18), [256]), ("lowered", [4, 15])],
    ids=["hex-l2", "quad-l3", "jittered-8x8", "lowered-quad-4x4"])
def test_star_shape_evaluates_one_member_per_class(make, sectors, monkeypatch):
    # a class's lowest member's sectors, and the copies' sectors at a
    # position where one of them is within reach of failing: the 15 copies
    # of the lowered grid's nearly flat bottom; singleton classes (jittered)
    # have every sector evaluated once, as the all-sector check did
    if make == "lowered":
        make = lambda data=lowered_grid(gen_quad_mesh(4), {}): import_mesh(data)
    seen, flag = [], mesh_module._flag_sectors
    monkeypatch.setattr(mesh_module, "_flag_sectors", lambda kind, centres, *rest: (
        seen.append(len(centres)), flag(kind, centres, *rest))[1])
    make()
    assert seen == sectors


L_SHAPE = [[0, 0], [3, 0], [3, 1], [1, 1], [1, 3], [0, 3]]


@pytest.mark.parametrize("listing", ["ccw", "cw", "shuffled"])
def test_import_rejects_a_facet_seen_from_behind(listing):
    # from the mean of its corners, (4/3, 4/3), the L-shape's two facets at
    # the reentrant corner (1, 1) are seen from behind
    facets = [[i, (i + 1) % 6] for i in range(6)]
    if listing == "cw":
        facets = [f[::-1] for f in facets[::-1]]
    elif listing == "shuffled":
        facets = [facets[i][::(-1) ** i] for i in (4, 0, 3, 5, 1, 2)]
    with pytest.raises(MeshError, match=r"^S-element 0 fails the star-shape "
                                        "check: facets") as err:
        import_mesh({"dimension": 2, "vertices": L_SHAPE,
                     "selements": [{"facets": facets}]})
    named = re.findall(r"\((\d+), (\d+)\)", str(err.value))
    behind = [{2, 3}, {3, 4}]
    assert [{int(a), int(b)} in behind for a, b in named].count(True) == 1


def test_import_rejects_a_face_seen_from_behind():
    # the L-shape extruded to a prism; the two side faces at the reentrant
    # edge are seen from behind from the mean of the corners
    vertices = [p + [z] for z in (0, 1) for p in L_SHAPE]
    faces = [[0, 1, 2, 3], [0, 3, 4, 5], [6, 7, 8, 9], [6, 9, 10, 11]] + [
        [i, (i + 1) % 6, (i + 1) % 6 + 6, i + 6] for i in range(6)]
    with pytest.raises(MeshError, match=r"^S-element 0 fails the star-shape "
                                        "check: facets") as err:
        import_mesh({"dimension": 3, "vertices": vertices,
                     "selements": [{"facets": faces}]})
    named = re.findall(r"\(([\d, ]+)\)", str(err.value))
    behind = [{2, 3, 8, 9}, {3, 4, 9, 10}]
    assert [set(map(int, f.split(", "))) in behind for f in named].count(True) == 1


def test_import_rejects_two_cubes_sharing_one_vertex():
    # one surface, edge-manifold and connected through the shared vertex
    # (1, 1, 1), listed twice and merged, which is the centre: the six faces
    # through it are edge-on
    cube = IMPORTED["scrambled-cube"]()
    faces = cube["selements"][0]["facets"]
    data = dict(cube, vertices=cube["vertices"] + [
        [x + 1, y + 1, z + 1] for x, y, z in cube["vertices"]])
    with pytest.raises(MeshError, match="^S-element 0 fails the star-shape check"):
        import_mesh(dict(data, selements=[
            {"facets": faces + [[v + 8 for v in f] for f in faces]}]))


def test_registration_turns_an_inward_square_outward():
    inward = [[(b, a) for a, b in CLOSED[0][::-1]]]
    mesh = _register_2d(inward)
    assert selement_facets(mesh, 0)[1] == [(3, 0), (2, 3), (1, 2), (0, 1)]
    _, vertices, _ = mesh._stacks[FacetKind.SEGMENT]
    o = vertices - mesh.centres[0]
    assert (o[:, 0, 0] * o[:, 1, 1] - o[:, 0, 1] * o[:, 1, 0] > 0).all()


def test_import_rejects_a_file_without_selements():
    with pytest.raises(MeshError, match="^mesh file lists no S-elements$"):
        import_mesh({"dimension": 2, "vertices": SQUARE, "selements": []})


@pytest.mark.parametrize("drop,message", [
    (1, "S-element 0: open polyhedral boundaries are not supported"),
    (0, "S-element 0: non-manifold boundary surface")])
def test_registration_checks_closed_surfaces(drop, message):
    cube = IMPORTED["scrambled-cube"]()
    faces = cube["selements"][0]["facets"]
    if drop:
        faces = faces[:-1]                                  # one face open
    else:
        faces = faces + [[3, 2, 1, 0], [0, 1, 2, 3]]   # the bottom three times
    with pytest.raises(MeshError, match=message):
        import_mesh(dict(cube, selements=[{"facets": faces}]))


def test_merge_direction_separates_a_lattice():
    # with the weights (1, phi - 1, 2 - phi) the points (i + 1, j, k) and
    # (i, j + 1, k + 1) project alike, and the lag scan ran one lag per
    # lattice layer
    grid = np.stack(np.meshgrid(*[np.arange(17.0) / 16] * 3, indexing="ij"),
                    axis=-1).reshape(-1, 3)
    proj = np.sort(grid @ MERGE_DIRECTION)
    assert np.diff(proj).min() > NEAR_RTOL * 1.0 * MERGE_DIRECTION.sum()
    rng = np.random.default_rng(5)
    copies = rng.integers(0, len(grid), 2000)
    stream = np.concatenate([grid, grid[copies] + rng.uniform(-4e-13, 4e-13,
                                                               (2000, 3))])
    first = _merge_vertices(stream)
    assert np.array_equal(first, np.concatenate([np.arange(len(grid)), copies]))


def _relabelled_import(mesh, seed):
    data = mesh_to_json(mesh)
    perm = np.random.default_rng(seed).permutation(len(data["vertices"]))
    return import_mesh(relabelled(data, perm))


def _open_pair(dirichlet):
    """Two open S-elements, translated copies sharing a side, with the
    side-face Dirichlet vertices `dirichlet`."""
    vertices = np.array([[-1, 0], [-1, 1], [1, 1], [1, 0], [3, 1], [3, 0]], float)
    table = np.array([(3, 2), (2, 1), (1, 0), (5, 4), (4, 2), (2, 3)])
    return PolytopalMesh(2)._register(vertices, table, [3, 3], {0: (0, 0), 1: (2, 0)},
                                      dirichlet)


CLASS_CASES = {
    **{name: make for name, (make, _, _) in BATCH_CASES.items()},
    "jittered-6x6": lambda: jittered_quad_mesh(6, 0.18),
    "coupled-singular-3": lambda: gen_coupled_singular(3),
    "hybrid": hybrid_mesh,
    "singular-open-2": lambda: singular_open_selement(2),
    # vertex ids in no geometric order: corners ranked by id would split
    # the 16 translated squares into 12 classes and the 8 cubes into 8
    "quad-4-relabelled": lambda: _relabelled_import(gen_quad_mesh(4), 1),
    "hex-2-relabelled": lambda: _relabelled_import(gen_hex_mesh(2), 2),
    "open-pair-one-pinned": lambda: _open_pair({0: (0,)}),
    "open-pair-both-pinned": lambda: _open_pair({0: (0,), 1: (3,)}),
}
# (S-element classes, FE quad classes)
CLASS_COUNTS = {"quad-4-relabelled": (1, 0), "hex-2-relabelled": (1, 0),
                "open-pair-one-pinned": (2, 0), "open-pair-both-pinned": (1, 0),
                "coupled-mixed-fe-k2": (1, 2)}


@pytest.mark.parametrize("name", sorted(CLASS_CASES))
def test_class_table_matches_per_element_keys(name):
    mesh = CLASS_CASES[name]()
    for k in (1, 2, 3):
        sel, fe = reference_congruence_classes(mesh, number_dofs(mesh, k))
        assert np.array_equal(mesh._sel_class, sel)
        assert np.array_equal(mesh._fe_class, fe)
    if name in CLASS_COUNTS:
        assert CLASS_COUNTS[name] == (len(set(mesh._sel_class.tolist())),
                                      len(set(mesh._fe_class.tolist())))


PIN_CASES = {
    "singular-open-2": lambda: singular_open_selement(2),
    "coupled-singular-2": lambda: gen_coupled_singular(2),
    "open-pinned-first": open_element_pinned_first,
    "open-pair-one-pinned": lambda: _open_pair({0: (0,)}),
    "open-pair-both-pinned": lambda: _open_pair({0: (0,), 1: (3,)}),
}


@pytest.mark.parametrize("name", sorted(PIN_CASES))
def test_sideface_pins_have_no_slocal_index(name):
    # a side-face pin only removes trace functions: the numbering gives it
    # no S-local DOF, and the sector rows name its nodes -1
    mesh = PIN_CASES[name]()
    assert mesh._dirichlet
    for k in (1, 2, 3):
        nd = number_dofs(mesh, k)
        for e, vs in mesh._dirichlet.items():
            pins = nd.vertex_dof[list(vs)]
            assert not np.isin(selement_dofs(nd, e), pins).any()
            full, full_rows = reference_local_dofs(mesh, nd, e, keep_pins=True)
            for rows, every in zip(sector_rows(mesh, nd, e), full_rows):
                assert np.array_equal(rows == -1, np.isin(full[every], pins))
            assert len(selement_dofs(nd, e)) == len(full) - len(vs)


@pytest.mark.parametrize("name", sorted(CLASS_CASES))
def test_local_dofs_match_per_element_oracle(name):
    mesh = CLASS_CASES[name]()
    for k in (1, 2, 3, 4):
        assert_local_dofs_match(mesh, number_dofs(mesh, k))


NUMBERING_CASES = {
    **CLASS_CASES,
    **{f"coupled-singular-{level}": (lambda level=level: gen_coupled_singular(level))
       for level in (1, 2, 4)},
    "coupled-mixed": coupled_mixed_mesh,
    "polygon-case1-4": lambda: gen_polygon_case1(4),
    "polyhedron-case1-2": lambda: gen_polyhedron_case1(2),
}


@pytest.mark.parametrize("name", sorted(NUMBERING_CASES))
def test_numbering_matches_the_pair_names_oracle(name):
    # the int64 names number every lattice node as the (corner id, weight)
    # pair names do: every field equal, values and dtypes
    mesh = NUMBERING_CASES[name]()
    for k in range(1, MAX_DEGREE + 1):
        got, want = number_dofs(mesh, k), reference_number_dofs(mesh, k)
        for field in dataclasses.fields(DofNumbering):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if isinstance(b, dict):
                assert list(a) == list(b), (k, field.name)
                a, b = [a[kind] for kind in a], [b[kind] for kind in b]
            else:
                a, b = [a], [b]
            assert [(type(x), np.asarray(x).dtype, np.shape(x),
                     np.asarray(x).tobytes()) for x in a] == [
                (type(y), np.asarray(y).dtype, np.shape(y),
                 np.asarray(y).tobytes()) for y in b], (k, field.name)


@pytest.mark.parametrize("k,n_vertices", [(8, 380_000_000), (1, 2_200_000_000)])
def test_numbering_refuses_a_vertex_count_past_int64_names(k, n_vertices):
    # two-corner names need n_vertices^2 (k^2 + 1) < 2^63; a broadcast view
    # fakes the vertex count without building such a mesh
    mesh = gen_quad_mesh(1)
    mesh.vertices = np.broadcast_to(mesh.vertices[:1], (n_vertices, 2))
    with pytest.raises(MeshError, match=f"^a mesh of {n_vertices} vertices is "
                                        "too large"):
        number_dofs(mesh, k)


def test_import_names_the_selement_whose_surface_falls_apart():
    cube = IMPORTED["scrambled-cube"]()
    faces = cube["selements"][0]["facets"]
    data = dict(cube, vertices=[[x + s, y, z] for s in (0, 2, 4)
                                for x, y, z in cube["vertices"]])
    apart = [[v + 8 * s for v in f] for s in (1, 2) for f in faces]
    for sels, e in (([apart], 0), ([faces, apart], 1)):
        with pytest.raises(MeshError, match=rf"^S-element {e}: boundary facets "
                                            "form 2 disconnected pieces$"):
            import_mesh(dict(data, selements=[{"facets": f} for f in sels]))


_INT64 = np.iinfo(np.int64)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.lists(st.one_of(st.integers(-5, 5), st.integers(_INT64.min, _INT64.max),
                          st.sampled_from([_INT64.min, _INT64.min + 1, -1, 0,
                                           _INT64.max - 1, _INT64.max])),
                max_size=60))
@example([]).via("the empty array")
@example([_INT64.max]).via("one element")
@example([_INT64.max, _INT64.min, 0, _INT64.min, _INT64.max]).via("the extremes twice")
def test_distinct_matches_np_unique(values):
    # repeats, negatives and both int64 extremes: the same values, dtype
    # and layout as np.unique, bit for bit
    x = np.array(values, dtype=np.int64)
    got, want = _distinct(x), np.unique(x)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous and want.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
