"""Mesh generation, coupling detection and the text format."""
import copy
import dataclasses
import importlib.util
import re
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import darcydd.mesh
from darcydd.assembly import build_dof_map
from darcydd.cli import main
from darcydd.errors import ConfigurationError, InvalidMeshError, MeshFormatError
from darcydd.mesh import (
    ESSENTIAL,
    NATURAL,
    SIMPLEX_FACES,
    BCSpec,
    Boundary,
    Cells,
    Element,
    Mesh,
    PlaneBC,
    _read_lines,
    face_keys,
    generate_cross_fracture_cube,
    generate_unit_cube,
    generate_unit_square,
    read_mesh,
    write_mesh,
)

from support import (
    boundary_records,
    coupling_links,
    mesh_from_elements,
    meshes_equal,
    simplex_measure,
)


def facet_histogram(mesh, dim: int) -> Counter:
    """How many dim-d elements share each sorted facet node tuple."""
    cnt = Counter()
    for el in mesh.elements:
        if el.dim != dim:
            continue
        for locs in SIMPLEX_FACES[dim]:
            cnt[tuple(sorted(el.node_ids[i] for i in locs))] += 1
    return cnt


# ---------------------------------------------------------------------------
# generators


def test_square_smallest_grid():
    m = generate_unit_square(1)
    assert len(m.elements) == 2
    assert len(m.node_coords) == 4
    hist = facet_histogram(m, 2)
    assert sum(1 for c in hist.values() if c == 2) == 1


def test_square_counting():
    m = generate_unit_square(2)
    assert len(m.elements) == 8
    assert len(m.node_coords) == 9


def test_square_face_counts_brute_force(square4):
    hist = facet_histogram(square4, 2)
    boundary = sum(1 for c in hist.values() if c == 1)
    interior = sum(1 for c in hist.values() if c == 2)
    assert set(hist.values()) == {1, 2}
    assert boundary == 16
    assert interior == 40  # 24 grid edges on interior lines plus 16 diagonals


def test_square_default_boundary_conditions(square4):
    assert list(square4.boundary) == [2]
    b = square4.boundary[2]
    assert b.natural.sum() == 8
    assert (~b.natural).sum() == 8
    xs = square4.node_coords[b.nodes, 0]
    assert ((xs == 0.0).all(axis=1) | (xs == 1.0).all(axis=1))[b.natural].all()
    assert np.array_equal(b.value[b.natural], np.where(xs[b.natural, 0] == 0.0, 1.0, 0.0))
    assert (b.value[~b.natural] == 0.0).all()


def test_generators_reject_zero():
    with pytest.raises(ConfigurationError):
        generate_unit_square(0)
    with pytest.raises(ConfigurationError):
        generate_unit_cube(0)


def test_cube_counting():
    m = generate_unit_cube(1)
    assert len(m.elements) == 6
    assert len(m.node_coords) == 8
    assert len(generate_unit_cube(2).elements) == 48


def test_cube_interior_faces_two_shared(cube2):
    hist = facet_histogram(cube2, 3)
    assert set(hist.values()) == {1, 2}
    assert sum(1 for c in hist.values() if c == 1) == 48
    assert sum(1 for c in hist.values() if c == 2) == 72


@pytest.mark.parametrize("gen", ["square", "cube"])
def test_conformity(gen, square4, cube2):
    """Same-dimension elements sharing dim nodes share them as a full face."""
    mesh = square4 if gen == "square" else cube2
    dim = max(mesh.simplices)
    els = [el for el in mesh.elements if el.dim == dim]
    facets = {
        el.id: {
            tuple(sorted(el.node_ids[i] for i in locs))
            for locs in SIMPLEX_FACES[dim]
        }
        for el in els
    }
    for ea, eb in combinations(els, 2):
        shared = set(ea.node_ids) & set(eb.node_ids)
        if len(shared) >= dim:
            key = tuple(sorted(shared))
            assert key in facets[ea.id] and key in facets[eb.id]


def test_fracture_cube_counts(frac2):
    by_dim = Counter(el.dim for el in frac2.elements)
    assert by_dim == {3: 48, 2: 16, 1: 2}
    assert len(frac2.elements) == 66
    lower_dims = Counter(
        frac2.elements[l.lower_element].dim for l in coupling_links(frac2)
    )
    assert lower_dims == {2: 32, 1: 8}


def test_fracture_default_conductivities(frac2):
    for el in frac2.elements:
        k = np.asarray(el.conductivity)
        expected = {1: 10.0, 2: 1.0, 3: 0.1}[el.dim]
        assert np.array_equal(k, expected * np.eye(el.dim))


def test_fracture_triangles_link_both_sides(frac2):
    links_of = Counter(frac2.sides.lower[frac2.couplings].tolist())
    for el in frac2.elements:
        if el.dim == 2:
            assert links_of[el.id] == 2
        if el.dim == 1:
            assert links_of[el.id] == 4


def test_fracture_rejects_odd_n():
    for bad in (1, 3, 5):
        with pytest.raises(ConfigurationError):
            generate_cross_fracture_cube(bad)


def test_fracture_components(frac2):
    # the coupling links join the tet quadrants, fracture planes and channel
    assert len(frac2.components()) == 1
    assert frac2.components_without_natural_bc() == []


# ---------------------------------------------------------------------------
# coupling detection


def tet_with_face_triangle(sigma=2.5):
    coords = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    els = [
        Element(id=0, dim=3, node_ids=(0, 1, 2, 3), conductivity=np.eye(3),
                cross_section=1.0, source=0.0),
        Element(id=1, dim=2, node_ids=(0, 1, 2), conductivity=np.eye(2),
                cross_section=1.0, source=0.0),
    ]
    return mesh_from_elements(coords, els, [], transition_coefficient=sigma)


def test_single_tet_boundary_fracture_links_once():
    m = tet_with_face_triangle()
    assert len(m.couplings) == 1
    link = coupling_links(m)[0]
    assert link.lower_element == 1
    assert link.upper_element == 0
    assert link.sigma == 2.5
    assert m.coupling_weights.tolist() == [2.5 * 0.5]


def test_coupling_node_sets_match(frac2):
    for link in coupling_links(frac2):
        upper = frac2.elements[link.upper_element]
        locs = SIMPLEX_FACES[upper.dim][link.upper_local_face]
        face_nodes = sorted(upper.node_ids[i] for i in locs)
        lower_nodes = sorted(frac2.elements[link.lower_element].node_ids)
        assert face_nodes == lower_nodes


def test_coupling_order_deterministic(frac2):
    keys = [(l.lower_element, l.upper_element, l.upper_local_face)
            for l in coupling_links(frac2)]
    assert keys == sorted(keys, key=lambda t: (t[0], t[1], t[2]))


def test_isolated_lower_dim_element_warns():
    coords = np.array([
        [0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
        [5.0, 0, 0], [6, 0, 0], [5, 1, 0],
    ])
    els = [
        Element(id=0, dim=3, node_ids=(0, 1, 2, 3), conductivity=np.eye(3),
                cross_section=1.0, source=0.0),
        Element(id=1, dim=2, node_ids=(4, 5, 6), conductivity=np.eye(2),
                cross_section=1.0, source=0.0),
    ]
    with pytest.warns(UserWarning, match="matches no face"):
        mesh_from_elements(coords, els, [])


def test_purely_lower_dim_mesh_does_not_warn():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        generate_unit_square(2)


# ---------------------------------------------------------------------------
# validation


def test_measures_positive(square4, cube2, frac2):
    for mesh in (square4, cube2, frac2):
        measure = mesh.by_id("measure")
        assert len(measure) == len(mesh.elements)
        assert (measure > 0).all()


def test_duplicate_nodes_rejected():
    coords = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
    el = Element(id=0, dim=2, node_ids=(0, 1, 1), conductivity=np.eye(2),
                 cross_section=1.0, source=0.0)
    with pytest.raises(InvalidMeshError):
        mesh_from_elements(coords, [el], [])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_node_rejected_by_node(value):
    """A node with a non-finite coordinate is refused by its id, before
    any element geometry is formed from it; numpy warns of nothing."""
    coords = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
    coords[2, 1] = value
    els = [
        Element(id=i, dim=2, node_ids=nodes, conductivity=np.eye(2),
                cross_section=1.0, source=0.0)
        for i, nodes in enumerate([(0, 1, 2), (1, 3, 2)])
    ]
    with pytest.raises(InvalidMeshError, match=r"^node 2: coordinates are not finite$") as exc:
        mesh_from_elements(coords, els, [])
    assert exc.value.rejected == ("node", 2)
    assert exc.value.line is None


def test_degenerate_simplex_rejected():
    coords = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]])
    el = Element(id=0, dim=2, node_ids=(0, 1, 2), conductivity=np.eye(2),
                 cross_section=1.0, source=0.0)
    with pytest.raises(InvalidMeshError):
        mesh_from_elements(coords, [el], [])


def _square_with(changes: dict[int, dict]):
    """The elements of generate_unit_square(2), with some fields replaced."""
    base = generate_unit_square(2)
    els = [
        dataclasses.replace(el, **changes.get(el.id, {})) for el in base.elements
    ]
    return base.node_coords, els


# Each fault is placed in elements 3 and 5, after valid elements; nodes 0,
# 1, 2 and 3, 4, 5 lie on grid lines.
@pytest.mark.parametrize(
    "changes,message",
    [
        (
            {3: {"node_ids": (0, 0, 4)}, 5: {"node_ids": (1, 1, 5)}},
            "element 3: repeated node",
        ),
        (
            {3: {"node_ids": (4, 1, 0)}, 5: {"node_ids": (4, 1, 0)}},
            "elements 0 and 3 occupy the same simplex",
        ),
        (
            {3: {"node_ids": (0, 1, 2)}, 5: {"node_ids": (3, 4, 5)}},
            "element 3: degenerate simplex",
        ),
        (
            {3: {"cross_section": 0.0}, 5: {"cross_section": -1.0}},
            "element 3: cross-section must be positive",
        ),
        (
            {3: {"conductivity": np.diag([1.0, -1.0])}, 5: {"conductivity": -np.eye(2)}},
            "element 3: conductivity tensor is not positive definite",
        ),
        (
            {
                3: {"conductivity": np.diag([np.inf, 1.0])},
                5: {"conductivity": np.full((2, 2), np.nan)},
            },
            "element 3: conductivity tensor is not finite",
        ),
        (
            {3: {"cross_section": np.inf}, 5: {"cross_section": np.nan}},
            "element 3: cross-section must be positive and finite",
        ),
        (
            {3: {"source": np.nan}, 5: {"source": np.inf}},
            "element 3: source must be finite",
        ),
        (
            {3: {"source": -np.inf}, 5: {"source": np.nan}},
            "element 3: source must be finite",
        ),
    ],
)
def test_validation_names_first_offending_element(changes, message):
    coords, els = _square_with(changes)
    with pytest.raises(InvalidMeshError, match=message):
        mesh_from_elements(coords, els, [])


def _square_cells(**changes):
    """The cells of generate_unit_square(2), with some arrays replaced."""
    base = generate_unit_square(2)
    blk = base.simplices[2]
    fields = {name: getattr(blk, name) for name in Cells._fields}
    fields.update(changes)
    return base.node_coords, {2: Cells(**fields)}


@pytest.mark.parametrize(
    "changes,message",
    [
        ({"ids": np.arange(1, 9)}, "got id 1 at position 0"),
        ({"ids": [0, 1, 2, 4, 3, 5, 6, 7]}, "element 3 follows a higher id"),
        ({"nodes": np.zeros((8, 2), dtype=int)}, "element 0: expected 3 nodes, got 2"),
        ({"conductivity": np.ones((8, 3, 3))}, "element 0: conductivity must be 2x2"),
        ({"conductivity": [["x"]] * 8}, "dimension 2 are not numeric"),
    ],
)
def test_array_constructor_names_first_offending_element(changes, message):
    coords, cells = _square_cells(**changes)
    with pytest.raises(InvalidMeshError, match=message):
        Mesh(coords, cells, [])


@pytest.mark.parametrize("sigma", [np.nan, np.inf, 0.0, -1.0])
def test_transition_coefficient_must_be_finite_and_positive(sigma):
    coords, cells = _square_cells()
    message = "transition coefficient sigma must be finite and positive"
    with pytest.raises(InvalidMeshError, match=message):
        Mesh(coords, cells, [], transition_coefficient=sigma)
    with pytest.raises(InvalidMeshError, match=message):
        generate_cross_fracture_cube(2, sigma=sigma)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_boundary_value_must_be_finite(value):
    coords, cells = _square_cells()
    bcs = boundary_records([((0, 1), NATURAL, 1.0), ((1, 2), NATURAL, value)])
    with pytest.raises(InvalidMeshError, match=r"boundary condition \(1, 2\): value"):
        Mesh(coords, cells, bcs)
    spec = BCSpec(rules=(PlaneBC(axis=0, position=0.0, kind=NATURAL, value=value),))
    with pytest.raises(InvalidMeshError, match=r"boundary condition \(0, 3\): value"):
        generate_unit_square(2, bc_spec=spec)


@pytest.mark.parametrize(
    "conditions,message",
    [
        ([((0, 1), NATURAL, 1.0), ((1, 9), ESSENTIAL, 0.0)], r"\(1, 9\): dangling node 9"),
        ([((4,), NATURAL, 1.0), ((2, 1), NATURAL, 0.0)], r"node tuple \(2, 1\) is not sorted"),
        ([((0, -1, 3), NATURAL, np.inf)], r"\(0, -1, 3\): dangling node -1"),
        ([((0, 1), NATURAL, 1.0), ((1, 1), NATURAL, 0.0)], r"\(1, 1\): repeated node"),
    ],
    ids=["dangling", "unsorted", "dangling-before-value", "repeated"],
)
def test_boundary_faces_must_be_sorted_node_ids(conditions, message):
    coords, cells = _square_cells()
    with pytest.raises(InvalidMeshError, match=message):
        Mesh(coords, cells, boundary_records(conditions))


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: generate_unit_square(2, source=np.nan), "element 0: source"),
        (
            lambda: generate_unit_square(
                2, source=lambda c: np.inf if c[0] > 0.5 else 0.0
            ),
            "element 2: source",
        ),
        (lambda: generate_unit_cube(1, source=-np.inf), "element 0: source"),
        (
            lambda: generate_unit_square(2, cross_section=np.inf),
            "element 0: cross-section",
        ),
        (
            lambda: generate_cross_fracture_cube(2, delta2=np.inf),
            "element 48: cross-section",
        ),
    ],
    ids=[
        "square-source-nan",
        "square-source-inf-right-half",
        "cube-source-minus-inf",
        "square-cross-section-inf",
        "fracture-cross-section-inf",
    ],
)
def test_generators_reject_non_finite_values(make, message):
    with pytest.raises(InvalidMeshError, match=message):
        make()


def test_dimension_out_of_range_rejected():
    coords, cells = _square_cells()
    with pytest.raises(InvalidMeshError, match="element 0: dimension 4"):
        Mesh(coords, {4: cells[2]}, [])


def test_elements_view_matches_arrays(frac2):
    els = frac2.elements
    assert els is frac2.elements  # built once
    assert [el.id for el in els] == list(range(frac2.n_elements))
    for blk in frac2.simplices.values():
        for row, e in enumerate(blk.ids.tolist()):
            el = els[e]
            assert el.dim == blk.dim
            assert el.node_ids == tuple(blk.nodes[row].tolist())
            assert np.array_equal(el.conductivity, blk.conductivity[row])
            assert (el.cross_section, el.source) == (
                blk.cross_section[row], blk.source[row]
            )


def test_assigned_elements_are_what_write_mesh_writes(tmp_path):
    """Replacing ``elements`` on a shallow copy changes the written file,
    not the arrays of the mesh it was copied from."""
    base = generate_unit_square(2)
    scaled = copy.copy(base)
    scaled.elements = [
        dataclasses.replace(el, conductivity=3.0 * el.conductivity)
        for el in base.elements
    ]
    path = tmp_path / "scaled.msh"
    write_mesh(scaled, str(path))
    back = read_mesh(str(path))
    assert np.array_equal(
        back.simplices[2].conductivity, 3.0 * base.simplices[2].conductivity
    )
    assert (base.simplices[2].conductivity == np.eye(2)).all()
    assert all(np.array_equal(el.conductivity, np.eye(2)) for el in base.elements)


def test_by_id_gathers_every_dimension(frac2):
    centroid = frac2.by_id("centroid")
    measure = frac2.by_id("measure")
    assert centroid.shape == (frac2.n_elements, 3)
    for el in frac2.elements:
        pts = frac2.node_coords[list(el.node_ids)]
        assert np.array_equal(centroid[el.id], pts.mean(axis=0))
        assert measure[el.id] == simplex_measure(pts)


def test_unknown_boundary_kind_rejected():
    with pytest.raises(InvalidMeshError, match="unknown boundary kind 'robin'"):
        PlaneBC(axis=0, position=0.0, kind="robin", value=0.0)


@pytest.mark.parametrize("axis", [-1, 3])
def test_plane_axis_out_of_range_rejected(axis):
    """-1 would pick the z plane and 3 would index past it."""
    with pytest.raises(InvalidMeshError, match=f"plane axis must be 0, 1 or 2, got {axis}"):
        PlaneBC(axis=axis, position=0.0, kind=NATURAL, value=1.0)


def test_node_ids_dense(square4):
    used = np.concatenate([blk.nodes.ravel() for blk in square4.simplices.values()])
    assert np.unique(used).tolist() == list(range(len(square4.node_coords)))
    assert np.all(np.isfinite(square4.node_coords))


def test_has_natural_bc():
    assert generate_unit_square(2).has_natural_bc()
    sealed = generate_unit_square(2, bc_spec=BCSpec(rules=()))
    assert not sealed.has_natural_bc()


# ---------------------------------------------------------------------------
# text format


def test_roundtrip_square(tmp_path):
    m = generate_unit_square(2)
    path = tmp_path / "square.msh"
    write_mesh(m, str(path))
    assert meshes_equal(m, read_mesh(str(path)))


def test_roundtrip_fracture_with_params(tmp_path):
    m = generate_cross_fracture_cube(2, k1=3.0, k2=0.5, k3=7.0, sigma=4.5,
                                     gravity=True)
    path = tmp_path / "frac.msh"
    write_mesh(m, str(path))
    back = read_mesh(str(path))
    assert meshes_equal(m, back)
    assert back.gravity_enabled
    assert coupling_links(back)[0].sigma == 4.5
    assert np.array_equal(back.coupling_weights, m.coupling_weights)
    assert back.coupling_weights[0] == 4.5 * coupling_links(back)[0].measure


def test_generator_determinism(tmp_path):
    pa, pb = tmp_path / "a.msh", tmp_path / "b.msh"
    write_mesh(generate_cross_fracture_cube(2), str(pa))
    write_mesh(generate_cross_fracture_cube(2), str(pb))
    assert pa.read_bytes() == pb.read_bytes()


def _tampered(tmp_path, mutate):
    path = tmp_path / "mesh.msh"
    write_mesh(generate_unit_square(2), str(path))
    lines = path.read_text().splitlines()
    mutate(lines)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_malformed_section_header(tmp_path):
    def mutate(lines):
        lines[lines.index("$nodes")] = "$vertices"

    with pytest.raises(MeshFormatError):
        read_mesh(_tampered(tmp_path, mutate))


def test_bc_value_callable_resolution():
    spec = BCSpec(rules=(
        PlaneBC(axis=0, position=0.0, kind=NATURAL, value=lambda c: 2.0 + c[1]),
    ))
    m = generate_unit_square(2, bc_spec=spec)
    b = m.boundary[2]
    assert b.natural.sum() == 2
    mid_y = m.node_coords[b.nodes[b.natural], 1].mean(axis=1)
    assert b.value[b.natural] == pytest.approx(2.0 + mid_y)


def _on_plane(mesh, w, axis, position):
    """Which boundary faces of ``w`` nodes lie on the plane."""
    pts = mesh.node_coords[mesh.boundary[w].nodes]
    return (pts[:, :, axis] == position).all(axis=1)


@pytest.mark.parametrize("floor_first", [True, False])
def test_bc_spec_first_matching_rule_wins(floor_first):
    """The planes z = 0 and x = 0.5 both hold the channel's end point and
    the fracture edges on the floor. Those faces take the first rule's kind
    and value, and a callable value is called once per face its rule
    takes, at the face's barycenter."""
    calls = []

    def floor_value(c):
        calls.append(tuple(c.tolist()))
        return 3.0 + c[1]

    floor = PlaneBC(axis=2, position=0.0, kind=NATURAL, value=floor_value)
    plane = PlaneBC(axis=0, position=0.5, kind=ESSENTIAL, value=7.0)
    rules = (floor, plane) if floor_first else (plane, floor)
    mesh = generate_cross_fracture_cube(2, bc_spec=BCSpec(rules=rules))
    assert list(mesh.boundary) == [1, 2, 3]
    expected_calls = []
    n_both = 0
    for w, b in mesh.boundary.items():
        on_floor = _on_plane(mesh, w, 2, 0.0)
        on_plane = _on_plane(mesh, w, 0, 0.5)
        n_both += int((on_floor & on_plane).sum())
        by_floor = on_floor if floor_first else on_floor & ~on_plane
        by_plane = on_plane & ~by_floor
        center = mesh.node_coords[b.nodes[by_floor]].mean(axis=1)
        expected_calls += [tuple(c) for c in center.tolist()]
        assert b.natural[by_floor].all()
        np.testing.assert_array_equal(b.value[by_floor], 3.0 + center[:, 1])
        assert not b.natural[by_plane].any()
        assert (b.value[by_plane] == 7.0).all()
        rest = ~(on_floor | on_plane)
        assert not b.natural[rest].any() and (b.value[rest] == 0.0).all()
    assert n_both == 3  # the channel's end point and two fracture edges
    assert sorted(calls) == sorted(expected_calls)


def test_interleaved_boundary_section_reads_and_writes_by_node_count(tmp_path):
    """Boundary lines of 1, 2 and 3 nodes in mixed order, one face given
    twice: the later condition wins, and writing lists the conditions in
    ascending node count."""
    spec = BCSpec(rules=(
        PlaneBC(axis=2, position=0.0, kind=NATURAL, value=lambda c: 1.0 + c[0]),
        PlaneBC(axis=0, position=0.0, kind=NATURAL, value=2.0),
    ))
    mesh = generate_cross_fracture_cube(2, bc_spec=spec)
    assert list(mesh.boundary) == [1, 2, 3]
    path = tmp_path / "mesh.msh"
    write_mesh(mesh, str(path))
    head, rest = path.read_text().split("$boundary\n")
    lines, tail = rest.split("$end\n")
    lines = lines.splitlines()
    shuffled = [lines[k] for k in np.random.default_rng(7).permutation(len(lines))]
    twice = int(np.flatnonzero(mesh.boundary[3].natural)[0])
    face = mesh.boundary[3].nodes[twice].tolist()
    shuffled.append(" ".join([*map(str, face), NATURAL, "9.5"]))
    widths = [len(line.split()) - 2 for line in shuffled]
    assert set(widths) == {1, 2, 3} and widths != sorted(widths)
    path.write_text(head + "$boundary\n" + "\n".join(shuffled) + "\n$end\n" + tail)

    expected = build_dof_map(mesh)
    face_id = mesh.bc_faces[len(mesh.bc_faces) - len(mesh.boundary[3].nodes) + twice]
    hit = mesh.sides.face[expected.natural_sides] == face_id
    assert hit.sum() == 1
    values = np.where(hit, 9.5, expected.natural_values)
    for _ in range(2):  # the interleaved file, then the file written from it
        back = read_mesh(str(path))
        got = build_dof_map(back)
        np.testing.assert_array_equal(got.natural_sides, expected.natural_sides)
        np.testing.assert_array_equal(got.natural_values, values)
        write_mesh(back, str(path))
    section = path.read_text().split("$boundary\n")[1].split("$end\n")[0]
    widths = [len(line.split()) - 2 for line in section.splitlines()]
    assert widths == sorted(widths) and len(widths) == len(shuffled)


def test_stray_boundary_condition_names_its_face():
    """A condition on an interior face or on a face a fracture occupies is
    refused by the mesh, naming the face and the condition."""
    square = generate_unit_square(2)
    interior = boundary_records([((1, 4), NATURAL, 1.0)])  # between two triangles
    frac = generate_cross_fracture_cube(2)
    fracture = tuple(frac.simplices[2].nodes[0].tolist())
    occupied = boundary_records([(fracture, ESSENTIAL, 0.0)])
    for mesh, stray, face in ((square, interior, (1, 4)), (frac, occupied, fracture)):
        boundary = {**mesh.boundary, **stray}
        with pytest.raises(InvalidMeshError, match=re.escape(f"condition {face} ")) as exc:
            mesh_from_elements(mesh.node_coords, mesh.elements, boundary)
        # the stray record replaces the conditions of its node count
        before = sum(len(b.value) for w, b in boundary.items() if w < len(face))
        assert exc.value.rejected == ("condition", before)


def _element_line(lines, k):
    """Index of the line of element ``k`` in a written mesh file."""
    return lines.index("$elements") + 1 + k


def _node_line(lines, k):
    return lines.index("$nodes") + 1 + k


def _boundary_line(lines, k):
    return lines.index("$boundary") + 1 + k


def _edit(index_of, change):
    """A mutation applying ``change`` to the tokens of one line; returns its
    1-based line number."""

    def mutate(lines):
        idx = index_of(lines)
        toks = lines[idx].split()
        change(toks)
        lines[idx] = " ".join(toks)
        return idx + 1

    return mutate


def _set_token(index_of, pos, value):
    """A mutation replacing token ``pos`` of one line."""

    def change(toks):
        toks[pos] = value

    return _edit(index_of, change)


def _copy_token(index_of, source, target):
    def change(toks):
        toks[target] = toks[source]

    return _edit(index_of, change)


def _drop_token(lines):
    idx = _node_line(lines, 2)
    lines[idx] = " ".join(lines[idx].split()[:3])
    return idx + 1


def _extra_field(lines):
    idx = _element_line(lines, 4)
    lines[idx] += " 0"
    return idx + 1


def _duplicate_node(lines):
    return _set_token(lambda ls: _node_line(ls, 3), 0, "2")(lines)


def _unknown_param(lines):
    idx = lines.index("$params") + 1
    lines.insert(idx, "viscosity 2")
    return idx + 1


def _data_first(lines):
    lines.insert(1, "0 0 0 0")
    return 2


def _no_end(lines):
    lines.remove("$end")


def _replace(old, new):
    """A mutation replacing the line ``old`` with ``new``."""

    def mutate(lines):
        idx = lines.index(old)
        lines[idx] = new
        return idx + 1

    return mutate


def _after_end(*extra):
    """A mutation appending lines after ``$end``; the first is at fault."""

    def mutate(lines):
        lines += ["# the end", *extra]
        return len(lines) - len(extra) + 1

    return mutate


def _before_end(line):
    """A mutation adding ``line`` as the last line before ``$end``."""

    def mutate(lines):
        idx = lines.index("$end")
        lines.insert(idx, line)
        return idx + 1

    return mutate


def _swap_elements(lines):
    a, b = _element_line(lines, 0), _element_line(lines, 1)
    lines[a], lines[b] = lines[b], lines[a]
    return a + 1


# Each case: how to tamper with generate_unit_square(2)'s file, the exception
# type it raises and a pattern of its message. The mutation returns the line
# number the error must carry, or None when the error names no line.
@pytest.mark.parametrize(
    "mutate,error,message",
    [
        (
            _set_token(lambda ls: _element_line(ls, 2), 3, "1.5"),
            MeshFormatError,
            "element node '1.5' is not an integer",
        ),
        (
            _set_token(lambda ls: _node_line(ls, 5), 2, "north"),
            MeshFormatError,
            "node coordinate 'north' is not a number",
        ),
        (_drop_token, MeshFormatError, "node line needs: id x y z"),
        (_extra_field, MeshFormatError, "element line needs 10 fields, got 11"),
        (
            _set_token(lambda ls: _element_line(ls, 1), 1, "4"),
            MeshFormatError,
            "element dimension 4",
        ),
        (
            _set_token(lambda ls: _element_line(ls, 1), 1, "two"),
            MeshFormatError,
            "element dimension 'two' is not an integer",
        ),
        (_duplicate_node, MeshFormatError, "node ids must be dense and unique, got 2"),
        (
            _set_token(lambda ls: _node_line(ls, 3), 0, "99"),
            MeshFormatError,
            "node ids must be dense and unique, got 99",
        ),
        (_unknown_param, MeshFormatError, "unknown parameter 'viscosity'"),
        (_data_first, MeshFormatError, "data before any section header"),
        (_no_end, MeshFormatError, "missing \\$end marker"),
        (
            _set_token(lambda ls: _boundary_line(ls, 3), -2, "robin"),
            MeshFormatError,
            "unknown boundary kind 'robin'",
        ),
        (
            _set_token(lambda ls: _boundary_line(ls, 1), 0, "99"),
            InvalidMeshError,
            r"boundary condition \(99, 3\): dangling node 99",
        ),
        (
            _set_token(lambda ls: _boundary_line(ls, 0), 0, "1"),
            InvalidMeshError,
            r"boundary condition \(1, 1\): repeated node",
        ),
        (
            _swap_elements,
            MeshFormatError,
            "element ids must be dense and ordered; got id 1 at position 0",
        ),
        (
            _set_token(lambda ls: _node_line(ls, 4), 0, "99999999999999999999"),
            MeshFormatError,
            "node id '99999999999999999999' does not fit a 64-bit integer",
        ),
        (
            _replace("sigma 1", "sigma 1 5"),
            MeshFormatError,
            "parameter 'sigma' needs one number, got '1 5'",
        ),
        (
            _replace("gravity 0", "gravity 2"),
            MeshFormatError,
            "parameter 'gravity' needs 0 or 1, got '2'",
        ),
        (
            _replace("gravity 0", "gravity -1"),
            MeshFormatError,
            "parameter 'gravity' needs 0 or 1, got '-1'",
        ),
        (
            _replace("gravity 0", "gravity 1 0"),
            MeshFormatError,
            "parameter 'gravity' needs 0 or 1, got '1 0'",
        ),
        (
            _replace("gravity 0", "gravity"),
            MeshFormatError,
            "parameter 'gravity' needs 0 or 1, got ''",
        ),
        (
            _before_end("1 4 natural 1"),
            InvalidMeshError,
            r"boundary condition \(1, 4\) references a face that is not an "
            r"unoccupied boundary face",
        ),
        (_after_end("9 2 2 0"), MeshFormatError, "content after \\$end"),
        (_after_end("$nodes", "9 2 2 0"), MeshFormatError, "content after \\$end"),
    ],
    ids=[
        "element-node-not-int",
        "coordinate-not-numeric",
        "node-three-fields",
        "element-field-count",
        "element-dim-4",
        "element-dim-not-int",
        "duplicate-node-id",
        "node-id-out-of-range",
        "unknown-param",
        "data-before-header",
        "missing-end",
        "unknown-boundary-kind",
        "dangling-boundary-node",
        "repeated-boundary-node",
        "elements-out-of-order",
        "node-id-overflows-int64",
        "sigma-two-values",
        "gravity-2",
        "gravity-minus-1",
        "gravity-two-values",
        "gravity-no-value",
        "condition-on-interior-face",
        "node-after-end",
        "section-after-end",
    ],
)
def test_reader_error_contract(tmp_path, mutate, error, message):
    path = tmp_path / "mesh.msh"
    write_mesh(generate_unit_square(2), str(path))
    lines = path.read_text().splitlines()
    line = mutate(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(error, match=message) as exc:
        read_mesh(str(path))
    assert type(exc.value) is error
    assert exc.value.line == line


def _mesh_arrays(mesh) -> dict:
    """Every array and scalar a :class:`Mesh` holds, by name."""
    out = {
        name: getattr(mesh, name)
        for name in (
            "node_coords",
            "n_elements",
            "gravity_enabled",
            "transition_coefficient",
            "couplings",
            "coupling_weights",
            "bc_faces",
            "bc_natural",
            "bc_value",
        )
    }
    for d, blk in mesh.simplices.items():
        for f in dataclasses.fields(blk):
            out[f"simplices[{d}].{f.name}"] = getattr(blk, f.name)
    for f in dataclasses.fields(mesh.sides):
        out[f"sides.{f.name}"] = getattr(mesh.sides, f.name)
    for w, b in mesh.boundary.items():
        for name, x in zip(Boundary._fields, b):
            out[f"boundary[{w}].{name}"] = x
    return out


def _assert_same_mesh(got, want):
    """The two meshes hold the same arrays, bit for bit, with one dtype."""
    a, b = _mesh_arrays(got), _mesh_arrays(want)
    assert a.keys() == b.keys()
    for name in a:
        x, y = np.asarray(a[name]), np.asarray(b[name])
        assert (x.dtype, x.shape) == (y.dtype, y.shape), name
        assert x.tobytes() == y.tobytes(), name


def _lines(path) -> list[str]:
    """A file's lines as :func:`read_mesh` splits them."""
    with open(path) as fh:
        return fh.read().split("\n")


def _load_workloads():
    """perfbench's workload module, which writes the benchmark's files."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _spaced(path):
    """Rewrite a written file with comment lines, blank lines, trailing
    comments, tabs between tokens and CRLF line ends."""
    out = []
    for k, line in enumerate(Path(path).read_text().splitlines()):
        if k % 7 == 3:
            out += ["", "   # a comment line", "\t"]
        if k % 5 == 1:
            line = "\t" + line.replace(" ", " \t ") + "\t# trailing comment"
        out.append(line)
    Path(path).write_bytes(("\r\n".join(out) + "\r\n").encode())


@pytest.mark.parametrize(
    "source",
    ["fracture-contrast", "square-dense", "fracture-cube-4", "spaced-crlf"],
)
def test_section_parse_matches_line_scan(tmp_path, monkeypatch, source):
    """Every Mesh array that read_mesh builds from whole-section parses
    equals the one of the per-line scan: on the benchmark's files as
    perfbench writes them, on a cube whose elements have three dimensions
    and whose boundary faces have 1, 2 and 3 nodes, and on a file with
    comments, blank lines, tabs and CRLF line ends. Each of them takes
    the section parse."""
    path = tmp_path / "mesh.msh"
    if source in ("fracture-contrast", "square-dense"):
        workloads = _load_workloads()
        wl = workloads.WORKLOADS[source]
        (path,) = workloads.write_meshes(wl, wl.n, 2401, 1, tmp_path, source)
    elif source == "fracture-cube-4":
        write_mesh(generate_cross_fracture_cube(4), str(path))
    else:
        mesh = generate_cross_fracture_cube(2, sigma=3.0, gravity=True)
        write_mesh(mesh, str(path))
        _spaced(path)
        assert meshes_equal(read_mesh(str(path)), mesh)
    want = _read_lines(_lines(path))

    def no_line_scan(lines):
        raise AssertionError("the file went to the per-line scan")

    monkeypatch.setattr(darcydd.mesh, "_read_lines", no_line_scan)
    _assert_same_mesh(read_mesh(str(path)), want)


def _outcome(read, arg):
    """The mesh ``read(arg)`` returns, or the type, text and line of the
    error it raises."""
    try:
        return read(arg)
    except InvalidMeshError as exc:
        return type(exc), str(exc), exc.line


INT_TOKENS = ["1.5", "1e3", "+7", "0x10", "99999999999999999999"]
FLOAT_TOKENS = ["nan", "inf", "1e400", "1_0", "north"]


# (section header, row, token position) of one field in generate_unit_square(2)'s file
@pytest.mark.parametrize(
    "field,token",
    [
        (field, token)
        for fields, tokens in (
            (
                [("$nodes", 7, 0), ("$elements", 7, 0), ("$elements", 2, 1),
                 ("$elements", 3, 2), ("$boundary", 1, 0)],
                INT_TOKENS,
            ),
            (
                [("$nodes", 5, 2), ("$elements", 4, 5), ("$elements", 4, 8),
                 ("$elements", 4, 9), ("$boundary", 2, -1)],
                FLOAT_TOKENS,
            ),
        )
        for field in fields
        for token in tokens
    ],
    ids=lambda v: v if isinstance(v, str) else "{}-{}-{}".format(v[0][1:], *v[1:]),
)
def test_section_parse_tokens_match_line_scan(tmp_path, field, token):
    """A token in an integer or a float field gives through read_mesh the
    value, or the error and line, that the per-line scan gives: numpy's
    parsers take no token that int() or float() refuses, and a token that
    only Python's parsers take (``1_0``) sends the file to the scan."""
    header, row, pos = field
    path = tmp_path / "mesh.msh"
    write_mesh(generate_unit_square(2), str(path))
    lines = path.read_text().splitlines()
    idx = lines.index(header) + 1 + row
    toks = lines[idx].split()
    toks[pos] = token
    lines[idx] = " ".join(toks)
    path.write_text("\n".join(lines) + "\n")
    got = _outcome(read_mesh, str(path))
    want = _outcome(_read_lines, _lines(path))
    if isinstance(want, Mesh):
        assert isinstance(got, Mesh)
        _assert_same_mesh(got, want)
    else:
        assert got == want


def _condition_line(width, k):
    """Index of the ``k``-th boundary line of ``width`` nodes."""

    def index_of(lines):
        at = range(lines.index("$boundary") + 1, lines.index("$end"))
        return [i for i in at if len(lines[i].split()) == width + 2][k]

    return index_of


def _same_simplex(lines):
    """Element 50 gets the nodes of element 49, in reverse order."""
    nodes = lines[_element_line(lines, 49)].split()[2:5]

    def change(toks):
        toks[2:5] = nodes[::-1]

    return _edit(lambda ls: _element_line(ls, 50), change)(lines)


def _flatten(toks):
    """Tetrahedron nodes 0, 1, 3 and 4, which all lie in the plane z = 0."""
    toks[2:6] = ["0", "1", "3", "4"]


def _swap_face_nodes(toks):
    toks[0], toks[1] = toks[1], toks[0]


# Each case breaks one model rule in one line of generate_cross_fracture_cube(2)'s
# file, and gives a pattern of the message that must name it. Elements 0-47 are
# tetrahedra, 48-63 triangles and 64-65 segments. The boundary lines are written
# in reverse, so their file order is not Mesh's (ascending node count).
@pytest.mark.parametrize(
    "mutate,message",
    [
        (
            _set_token(lambda ls: ls.index("$params") + 2, 1, "0"),
            "transition coefficient sigma must be finite and positive, got 0.0",
        ),
        (
            _set_token(lambda ls: _node_line(ls, 5), 3, "1e400"),
            "node 5: coordinates are not finite",
        ),
        (
            _set_token(lambda ls: _element_line(ls, 5), 2, "999"),
            "element 5: dangling node reference 999",
        ),
        (
            _copy_token(lambda ls: _element_line(ls, 64), 2, 3),
            "element 64: repeated node",
        ),
        (_same_simplex, "elements 49 and 50 occupy the same simplex"),
        (
            _set_token(lambda ls: _element_line(ls, 7), 7, "nan"),
            "element 7: conductivity tensor is not finite",
        ),
        (
            _set_token(lambda ls: _element_line(ls, 9), 6, "-1"),
            "element 9: conductivity tensor is not positive definite",
        ),
        (
            _set_token(lambda ls: _element_line(ls, 50), -2, "-1"),
            "element 50: cross-section must be positive and finite",
        ),
        (
            _set_token(lambda ls: _element_line(ls, 65), -1, "inf"),
            "element 65: source must be finite",
        ),
        (
            _edit(lambda ls: _element_line(ls, 11), _flatten),
            "element 11: degenerate simplex",
        ),
        (
            _set_token(_condition_line(3, 4), 2, "999"),
            r"boundary condition \(\d+, \d+, 999\): dangling node 999",
        ),
        (
            _edit(_condition_line(2, 3), _swap_face_nodes),
            r"boundary condition node tuple \(\d+, \d+\) is not sorted",
        ),
        (
            _copy_token(_condition_line(2, 1), 0, 1),
            r"boundary condition \((\d+), \1\): repeated node",
        ),
        (
            _set_token(_condition_line(1, 1), -1, "nan"),
            r"boundary condition \(\d+,\): value nan is not finite",
        ),
    ],
    ids=[
        "sigma",
        "node-not-finite",
        "element-dangling-node",
        "element-repeated-node",
        "elements-on-one-simplex",
        "conductivity-not-finite",
        "conductivity-not-positive-definite",
        "cross-section",
        "source",
        "degenerate-simplex",
        "condition-dangling-node",
        "condition-unsorted",
        "condition-repeated-node",
        "condition-value",
    ],
)
def test_model_rule_names_its_line(tmp_path, capsys, mutate, message):
    """Mesh checks the model; read_mesh names the line of what it rejected,
    and the command line exits 3 with that line."""
    path = tmp_path / "mesh.msh"
    write_mesh(generate_cross_fracture_cube(2), str(path))
    lines = path.read_text().splitlines()
    first, end = lines.index("$boundary") + 1, lines.index("$end")
    lines[first:end] = lines[first:end][::-1]
    line = mutate(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidMeshError, match=message) as exc:
        read_mesh(str(path))
    assert type(exc.value) is InvalidMeshError
    assert exc.value.line == line
    assert str(exc.value).startswith(f"line {line}: ")
    assert main(["--mesh", str(path), "--nsub", "1", "--quiet"]) == 3
    assert capsys.readouterr().err.startswith(f"error: line {line}: ")


def _unique_numbering(rows):
    """Row-set ids as ``np.unique`` numbers the row-sorted rows."""
    _, inverse = np.unique(np.sort(rows, axis=1), axis=0, return_inverse=True)
    return inverse.reshape(-1)


@pytest.mark.parametrize("width", [1, 2, 3])
def test_face_keys_matches_unique_numbering(rng, width):
    """Random node-id rows, each repeated with its entries permuted: the
    ids equal np.unique's numbering of the sorted rows, so rows with the
    same nodes in any order share one id."""
    for n_rows in (1, 2, 7, 200):
        base = rng.integers(0, 12, size=(n_rows, width))
        copies = rng.integers(0, n_rows, size=2 * n_rows)
        rows = np.concatenate([base, rng.permuted(base[copies], axis=1)])
        rows = rows[rng.permutation(len(rows))]
        ids = face_keys(rows)
        assert ids.dtype == np.int64
        np.testing.assert_array_equal(ids, _unique_numbering(rows))
        for a, b in combinations(range(min(len(rows), 40)), 2):
            same = sorted(rows[a]) == sorted(rows[b])
            assert (ids[a] == ids[b]) == same


def test_face_keys_single_and_empty_inputs():
    np.testing.assert_array_equal(face_keys(np.array([[5, 2, 9]])), [0])
    for width in (1, 2, 3):
        empty = np.zeros((0, width), dtype=np.int64)
        ids = face_keys(empty)
        assert ids.shape == (0,) and ids.dtype == np.int64
        np.testing.assert_array_equal(ids, _unique_numbering(empty))


def test_reader_comments_blank_lines_and_section_order(tmp_path):
    mesh = generate_cross_fracture_cube(2, sigma=3.0, gravity=True)
    path = tmp_path / "mesh.msh"
    write_mesh(mesh, str(path))
    text = path.read_text()
    head, rest = text.split("$nodes\n")
    nodes, rest = rest.split("$elements\n")
    elements, rest = rest.split("$boundary\n")
    boundary, end = rest.split("$end\n")

    def annotate(block):
        out = []
        for k, line in enumerate(block.splitlines()):
            out.append(f"{line}   # row {k}" if k % 3 == 0 else line)
            if k % 5 == 0:
                out.append("")
                out.append("   # a comment line")
        return "\n".join(out) + "\n"

    path.write_text(
        head
        + "\n$boundary # moved first\n"
        + annotate(boundary)
        + "$nodes\n"
        + annotate(nodes)
        + "\n\n$elements\n"
        + annotate(elements)
        + "$end\n"
        + end
        + "\n   # a comment after the end\n"
    )
    back = read_mesh(str(path))
    assert meshes_equal(mesh, back)


def _pinned_square():
    def cond(c, dim):
        return np.array([[1.0 + c[0], 0.25 * c[1]], [0.25 * c[1], 2.0 + c[1] ** 2]])

    return generate_unit_square(
        4, conductivity=cond, source=lambda c: np.sin(3 * c[0]) * c[1]
    )


# sha256 of write_mesh output for three generated meshes, recorded before
# the generators and the reader were rewritten on arrays.
@pytest.mark.parametrize(
    "make,digest",
    [
        (
            _pinned_square,
            "b1c758827d538ee36666421a53a7a8e4075feeab9f6bf6c326b0b7c27ff699ed",
        ),
        (
            lambda: generate_unit_cube(2),
            "b595eb3546b9bf7dad024a567fb8264e553d988a07a6668e0ed482d85d99bb6b",
        ),
        (
            lambda: generate_cross_fracture_cube(4, k1=1e3, k2=1.0, k3=1e-3, sigma=2.5),
            "4b699f9f99195dd21b8e4ad91f70be140ff75d9f77977f17c0eebb001fb733a6",
        ),
    ],
    ids=["square-4-callable", "cube-2", "cross-fracture-4"],
)
def test_generator_and_writer_bytes_pinned(tmp_path, make, digest):
    import hashlib

    mesh = make()
    path = tmp_path / "mesh.msh"
    write_mesh(mesh, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    back = read_mesh(str(path))
    assert back.simplices.keys() == mesh.simplices.keys()
    for d, blk in mesh.simplices.items():
        for f in dataclasses.fields(blk):
            a, b = getattr(blk, f.name), getattr(back.simplices[d], f.name)
            assert np.asarray(a).dtype == np.asarray(b).dtype
            assert np.array_equal(a, b), (d, f.name)
    for f in dataclasses.fields(mesh.sides):
        assert np.array_equal(getattr(mesh.sides, f.name), getattr(back.sides, f.name))
    assert np.array_equal(mesh.bc_faces, back.bc_faces)
