"""Mesh generation, coupling detection and the text format."""
import copy
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
    Cells,
    Element,
    Mesh,
    PlaneBC,
    generate_cross_fracture_cube,
    generate_unit_cube,
    generate_unit_square,
    meshes_equal,
    read_mesh,
    simplex_measure,
    write_mesh,
)

from support import coupling_links, mesh_from_elements


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
    from darcydd.mesh import BoundaryCondition

    with pytest.raises(InvalidMeshError):
        BoundaryCondition(face_nodes=(0, 1), kind="robin", value=0.0)


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


def _element_line(lines, k):
    """Index of the line of element ``k`` in a written mesh file."""
    return lines.index("$elements") + 1 + k


def _node_line(lines, k):
    return lines.index("$nodes") + 1 + k


def _boundary_line(lines, k):
    return lines.index("$boundary") + 1 + k


def _set_token(index_of, pos, value):
    """A mutation replacing token ``pos`` of one line; returns its 1-based
    line number."""

    def mutate(lines):
        idx = index_of(lines)
        toks = lines[idx].split()
        toks[pos] = value
        lines[idx] = " ".join(toks)
        return idx + 1

    return mutate


def _drop_token(lines):
    idx = _node_line(lines, 2)
    lines[idx] = " ".join(lines[idx].split()[:3])
    return idx + 1


def _extra_field(lines):
    idx = _element_line(lines, 4)
    lines[idx] += " 0"
    return idx + 1


def _duplicate_node(lines):
    _set_token(lambda ls: _node_line(ls, 3), 0, "2")(lines)


def _unknown_param(lines):
    idx = lines.index("$params") + 1
    lines.insert(idx, "viscosity 2")
    return idx + 1


def _data_first(lines):
    lines.insert(1, "0 0 0 0")
    return 2


def _no_end(lines):
    lines.remove("$end")


def _swap_elements(lines):
    a, b = _element_line(lines, 0), _element_line(lines, 1)
    lines[a], lines[b] = lines[b], lines[a]


# Each case: how to tamper with generate_unit_square(2)'s file, and the
# exception type it raises. The mutation returns the line number the error
# must carry, or None when the error names no line.
@pytest.mark.parametrize(
    "mutate,error",
    [
        (_set_token(lambda ls: _element_line(ls, 2), 3, "1.5"), MeshFormatError),
        (_set_token(lambda ls: _node_line(ls, 5), 2, "north"), MeshFormatError),
        (_drop_token, MeshFormatError),
        (_extra_field, MeshFormatError),
        (_set_token(lambda ls: _element_line(ls, 1), 1, "4"), MeshFormatError),
        (_duplicate_node, MeshFormatError),
        (_unknown_param, MeshFormatError),
        (_data_first, MeshFormatError),
        (_no_end, MeshFormatError),
        (_set_token(lambda ls: _boundary_line(ls, 3), -2, "robin"), MeshFormatError),
        (_set_token(lambda ls: _boundary_line(ls, 1), 0, "99"), MeshFormatError),
        (_swap_elements, InvalidMeshError),
    ],
    ids=[
        "element-node-not-int",
        "coordinate-not-numeric",
        "node-three-fields",
        "element-field-count",
        "element-dim-4",
        "duplicate-node-id",
        "unknown-param",
        "data-before-header",
        "missing-end",
        "unknown-boundary-kind",
        "dangling-boundary-node",
        "elements-out-of-order",
    ],
)
def test_reader_error_contract(tmp_path, mutate, error):
    path = tmp_path / "mesh.msh"
    write_mesh(generate_unit_square(2), str(path))
    lines = path.read_text().splitlines()
    line = mutate(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(error) as exc:
        read_mesh(str(path))
    if error is MeshFormatError:
        assert exc.value.line == line


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
