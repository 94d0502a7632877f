"""Mesh generation, coupling detection and the text format."""
import dataclasses
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from darcydd.errors import ConfigurationError, InvalidMeshError, MeshFormatError
from darcydd.mesh import (
    ESSENTIAL,
    NATURAL,
    SIMPLEX_FACES,
    BCSpec,
    Element,
    Mesh,
    PlaneBC,
    generate_cross_fracture_cube,
    generate_unit_cube,
    generate_unit_square,
    meshes_equal,
    read_mesh,
    write_mesh,
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
    kinds = Counter(bc.kind for bc in square4.boundary_conditions)
    assert kinds[NATURAL] == 8
    assert kinds[ESSENTIAL] == 8
    coords = square4.node_coords
    for bc in square4.boundary_conditions:
        xs = coords[list(bc.face_nodes), 0]
        if bc.kind == NATURAL:
            assert np.all(xs == 0.0) or np.all(xs == 1.0)
            assert bc.value == (1.0 if xs[0] == 0.0 else 0.0)


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
    dim = mesh.max_dim()
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
        frac2.elements[l.lower_element].dim for l in frac2.couplings
    )
    assert lower_dims == {2: 32, 1: 8}


def test_fracture_default_conductivities(frac2):
    for el in frac2.elements:
        k = np.asarray(el.conductivity)
        expected = {1: 10.0, 2: 1.0, 3: 0.1}[el.dim]
        assert np.array_equal(k, expected * np.eye(el.dim))


def test_fracture_triangles_link_both_sides(frac2):
    links_of = Counter(l.lower_element for l in frac2.couplings)
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
    # planes and matrix blocks are separated until couplings reconnect them:
    # 4 tet quadrants, each fracture plane halved by the channel, 1 channel
    assert len(frac2.components(include_couplings=False)) == 9
    assert len(frac2.components(include_couplings=True)) == 1
    assert frac2.components_without_natural_bc(include_couplings=True) == []


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
    return Mesh(coords, els, [], transition_coefficient=sigma)


def test_single_tet_boundary_fracture_links_once():
    m = tet_with_face_triangle()
    assert len(m.couplings) == 1
    link = m.couplings[0]
    assert link.lower_element == 1
    assert link.upper_element == 0
    assert link.sigma == 2.5


def test_coupling_node_sets_match(frac2):
    for link in frac2.couplings:
        upper = frac2.elements[link.upper_element]
        locs = SIMPLEX_FACES[upper.dim][link.upper_local_face]
        face_nodes = sorted(upper.node_ids[i] for i in locs)
        lower_nodes = sorted(frac2.elements[link.lower_element].node_ids)
        assert face_nodes == lower_nodes


def test_coupling_order_deterministic(frac2):
    keys = [(l.lower_element, l.upper_element, l.upper_local_face)
            for l in frac2.couplings]
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
        Mesh(coords, els, [])


def test_purely_lower_dim_mesh_does_not_warn():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        generate_unit_square(2)


# ---------------------------------------------------------------------------
# validation


def test_measures_positive(square4, cube2, frac2):
    for mesh in (square4, cube2, frac2):
        for el in mesh.elements:
            assert el.measure > 0


def test_duplicate_nodes_rejected():
    coords = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
    el = Element(id=0, dim=2, node_ids=(0, 1, 1), conductivity=np.eye(2),
                 cross_section=1.0, source=0.0)
    with pytest.raises(InvalidMeshError):
        Mesh(coords, [el], [])


def test_degenerate_simplex_rejected():
    coords = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]])
    el = Element(id=0, dim=2, node_ids=(0, 1, 2), conductivity=np.eye(2),
                 cross_section=1.0, source=0.0)
    with pytest.raises(InvalidMeshError):
        Mesh(coords, [el], [])


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
    ],
)
def test_validation_names_first_offending_element(changes, message):
    coords, els = _square_with(changes)
    with pytest.raises(InvalidMeshError, match=message):
        Mesh(coords, els, [])


def test_unknown_boundary_kind_rejected():
    from darcydd.mesh import BoundaryCondition

    with pytest.raises(InvalidMeshError):
        BoundaryCondition(face_nodes=(0, 1), kind="robin", value=0.0)


def test_node_ids_dense(square4):
    ids = [node.id for node in square4.nodes]
    assert ids == list(range(len(square4.node_coords)))
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
    assert back.couplings[0].sigma == 4.5


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


def test_dangling_node_reference_reports_line(tmp_path):
    lineno = {}

    def mutate(lines):
        start = lines.index("$elements")
        idx = start + 1
        toks = lines[idx].split()
        toks[2] = "99"
        lines[idx] = " ".join(toks)
        lineno["n"] = idx + 1

    path = _tampered(tmp_path, mutate)
    with pytest.raises(MeshFormatError) as exc:
        read_mesh(path)
    assert exc.value.line == lineno["n"]


def test_non_spd_conductivity_rejected(tmp_path):
    lineno = {}

    def mutate(lines):
        start = lines.index("$elements")
        idx = start + 3  # element 2, after two valid ones
        toks = lines[idx].split()
        toks[5:8] = ["1", "2", "1"]  # eigenvalues -1 and 3
        lines[idx] = " ".join(toks)
        lineno["n"] = idx + 1

    with pytest.raises(MeshFormatError) as exc:
        read_mesh(_tampered(tmp_path, mutate))
    assert exc.value.line == lineno["n"]


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
    naturals = [bc for bc in m.boundary_conditions if bc.kind == NATURAL]
    assert len(naturals) == 2
    for bc in naturals:
        mid_y = m.node_coords[list(bc.face_nodes), 1].mean()
        assert bc.value == pytest.approx(2.0 + mid_y)
