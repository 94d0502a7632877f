"""Partitioning, interface classification, corners and weight schemes."""
import dataclasses

import numpy as np
import pytest

from darcydd.assembly import assemble
from darcydd.errors import ConfigurationError
from darcydd.mesh import (
    SIMPLEX_FACES,
    generate_cross_fracture_cube,
    generate_unit_cube,
    generate_unit_square,
)
from darcydd.partition import (
    SCHEMES,
    Glob,
    InterfaceLayout,
    Partition,
    classify_interface,
    compute_weights,
    partition_elements,
    select_corners,
)

from support import (
    classify_interface_loops,
    compute_weights_loops,
    coupling_links,
    mesh_from_elements,
    select_corners_loop,
)


def layout_of(mesh, n_sub):
    system = assemble(mesh)
    partition = partition_elements(mesh, n_sub)
    return system, partition, classify_interface(system, partition)


# ---------------------------------------------------------------------------
# partitioning


def test_single_substructure(square4):
    _, partition, layout = layout_of(square4, 1)
    assert np.array_equal(partition.assignment, np.zeros(32, dtype=np.int64))
    assert layout.n_interface == 0
    assert layout.globs == []
    assert layout.local_dofs[0].size == 0


def test_square_halves(square4):
    _, partition, layout = layout_of(square4, 2)
    assert partition.sizes().tolist() == [16, 16]
    assert layout.n_interface == 4
    assert np.allclose(layout.barycenters[:, 0], 0.5)
    assert layout.glob_counts() == {"vertex": 0, "face": 1, "edge": 0}


def test_square_quadrants(square4):
    _, _, layout = layout_of(square4, 4)
    assert layout.n_interface == 8
    assert layout.glob_counts() == {"vertex": 0, "face": 4, "edge": 0}


@pytest.mark.parametrize("n_sub", [2, 4, 8])
def test_balance_square(n_sub):
    partition = partition_elements(generate_unit_square(8), n_sub)
    sizes = partition.sizes()
    assert sizes.min() >= 1
    assert sizes.max() <= 2 * sizes.min()
    assert sizes.sum() == 128


def test_balance_cube(cube2):
    assert partition_elements(cube2, 4).sizes().tolist() == [12, 12, 12, 12]


def independent_adjacency(mesh):
    """Element adjacency rebuilt from first principles for the BFS check."""
    facet_owner = {}
    adj = [set() for _ in mesh.elements]
    occupied = {
        (el.dim, tuple(sorted(el.node_ids))) for el in mesh.elements if el.dim < 3
    }
    for el in mesh.elements:
        for locs in SIMPLEX_FACES[el.dim]:
            face_nodes = tuple(sorted(el.node_ids[i] for i in locs))
            key = (el.dim, face_nodes)
            if (el.dim - 1, face_nodes) in occupied:
                continue
            other = facet_owner.get(key)
            if other is not None:
                adj[el.id].add(other)
                adj[other].add(el.id)
            facet_owner[key] = el.id
    for link in coupling_links(mesh):
        adj[link.lower_element].add(link.upper_element)
        adj[link.upper_element].add(link.lower_element)
    return adj


@pytest.mark.parametrize(
    "mesh_name,n_sub",
    # square8 with 9 and frac4 with 8 need the repair pass
    [("square8", 6), ("frac2", 4), ("cube2", 5), ("square8", 9), ("frac4", 8)],
)
def test_substructures_connected(mesh_name, n_sub, frac2, cube2):
    mesh = {
        "square8": lambda: generate_unit_square(8),
        "frac2": lambda: frac2,
        "cube2": lambda: cube2,
        "frac4": lambda: generate_cross_fracture_cube(4),
    }[mesh_name]()
    partition = partition_elements(mesh, n_sub)
    adj = independent_adjacency(mesh)
    for s in range(n_sub):
        members = set(np.flatnonzero(partition.assignment == s).tolist())
        assert members
        seen = {min(members)}
        stack = [min(members)]
        while stack:
            e = stack.pop()
            for nb in adj[e]:
                if nb in members and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        assert seen == members, f"substructure {s} is disconnected"


def test_partition_deterministic(frac2):
    a = partition_elements(frac2, 4).assignment
    b = partition_elements(frac2, 4).assignment
    assert np.array_equal(a, b)


def test_too_many_substructures(square4):
    with pytest.raises(ConfigurationError):
        partition_elements(square4, 33)
    with pytest.raises(ConfigurationError):
        partition_elements(square4, 0)


# ---------------------------------------------------------------------------
# interface classification on the fractured cube


def test_fracture_interface(frac2):
    system, partition, layout = layout_of(frac2, 2)
    assert partition.sizes().tolist() == [33, 33]
    assert layout.n_interface == 15
    # one sharing set, split by the carrying sides' dimension and the link
    # flag: 3D sides linked to fracture elements, 2D sides linked to the
    # intersection line, and 2D sides that meet in an unoccupied face
    assert layout.glob_counts() == {"vertex": 0, "face": 3, "edge": 0}
    assert [g.sharing for g in layout.globs] == [(0, 1)] * 3
    assert [len(g.dofs) for g in layout.globs] == [8, 5, 2]
    assert layout.sub_has_natural.tolist() == [True, True]
    # most of this interface runs along fracture planes, so the sharing
    # sets must have been traced through coupling links, not just faces
    dm = system.dof_map
    linked = np.isin(layout.interface_mults, dm.side_mult[frac2.couplings])
    assert linked.sum() == 13
    assert [linked[list(g.dofs)].tolist() for g in layout.globs] == [
        [True] * 8, [True] * 5, [False] * 2
    ]


def _layered(centroid, dim):
    """A conductivity that varies from element to element and by dimension."""
    return 10.0 ** (3 * centroid[0] - 2 * centroid[1] + dim)


def _without_intersection_line(mesh):
    """The mesh without its 1D elements: the fracture planes then meet in
    unoccupied faces of four sides, so one substructure can hold several
    sides of an interface multiplier."""
    kept = [el for el in mesh.elements if el.dim > 1]
    elements = [dataclasses.replace(el, id=i) for i, el in enumerate(kept)]
    boundary = {w: b for w, b in mesh.boundary.items() if w > 1}
    return mesh_from_elements(mesh.node_coords, elements, boundary)


@pytest.mark.parametrize(
    "make,n_sub",
    [
        (lambda: generate_cross_fracture_cube(4), 8),
        (lambda: generate_unit_square(8), 6),
        (lambda: generate_unit_cube(2), 5),
        (lambda: generate_unit_square(8, conductivity=_layered), 6),
        (lambda: generate_unit_cube(2, conductivity=_layered), 5),
        (lambda: _without_intersection_line(generate_cross_fracture_cube(4)), 8),
    ],
    ids=[
        "fracture-cube-4",
        "square-8",
        "cube-2",
        "square-8-layered",
        "cube-2-layered",
        "fracture-planes-4",
    ],
)
def test_interface_and_weights_match_loop_oracles(make, n_sub):
    """The array classification and every weight scheme equal the loops
    over (element, local face) keyed sides and links, bit for bit."""
    system, partition, layout = layout_of(make(), n_sub)
    ref = classify_interface_loops(system, partition)
    assert layout.interface_mults.dtype == ref.interface_mults.dtype
    assert np.array_equal(layout.interface_mults, ref.interface_mults)
    assert layout.n_interface == ref.n_interface > 0
    assert len(layout.local_dofs) == len(ref.local_dofs) == n_sub
    for got, want in zip(layout.local_dofs, ref.local_dofs):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert layout.globs == ref.globs
    assert np.array_equal(layout.barycenters, ref.barycenters)
    assert np.array_equal(layout.sub_has_natural, ref.sub_has_natural)
    for scheme in SCHEMES:
        got = compute_weights(system, layout, scheme)
        want = compute_weights_loops(system, layout, scheme)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w), scheme


def test_fracture_quadrants(frac2):
    _, partition, layout = layout_of(frac2, 4)
    assert partition.sizes().tolist() == [16, 17, 16, 17]
    assert layout.n_interface == 26
    # a split glob left with one dof is a vertex glob
    assert layout.glob_counts() == {"vertex": 5, "face": 6, "edge": 0}


def test_local_dofs_sorted_and_consistent(cube2):
    _, _, layout = layout_of(cube2, 4)
    assert layout.n_interface == 16
    sharing = {gi: g.sharing for g in layout.globs for gi in g.dofs}
    assert sorted(sharing) == list(range(layout.n_interface))
    for s, loc in enumerate(layout.local_dofs):
        assert np.array_equal(loc, np.sort(loc))
        for gi in loc:
            assert s in sharing[int(gi)]


# ---------------------------------------------------------------------------
# corner selection


def synthetic_layout(points, globs):
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    return InterfaceLayout(
        partition=Partition(2, np.zeros(1, dtype=np.int64)),
        interface_mults=np.arange(n),
        n_interface=n,
        local_dofs=[np.arange(n), np.arange(n)],
        globs=globs,
        barycenters=pts,
        sub_has_natural=np.array([True, True]),
    )


def test_corners_on_straight_interface(square4):
    _, _, layout = layout_of(square4, 2)
    assert select_corners(layout) == [0, 1, 3]


def test_corners_collinear_synthetic():
    pts = np.zeros((10, 3))
    pts[:, 0] = np.arange(10)
    layout = synthetic_layout(
        pts, [Glob(kind="face", sharing=(0, 1), dofs=tuple(range(10)))]
    )
    # ends first, then the tie on the degenerate line distance resolves low
    assert select_corners(layout) == [0, 1, 9]


def test_small_globs_promote_fully():
    pts = np.zeros((3, 3))
    pts[:, 1] = (0.0, 1.0, 2.0)
    globs = [
        Glob(kind="face", sharing=(0, 1), dofs=(0, 1)),
        Glob(kind="vertex", sharing=(0, 1), dofs=(2,)),
    ]
    assert select_corners(synthetic_layout(pts, globs)) == [0, 1, 2]


def test_edge_globs_yield_no_corners():
    pts = np.zeros((4, 3))
    pts[:, 0] = np.arange(4)
    layout = synthetic_layout(
        pts, [Glob(kind="edge", sharing=(0, 1, 2), dofs=(0, 1, 2, 3))]
    )
    assert select_corners(layout) == []


@pytest.mark.parametrize(
    "make,n_sub",
    [
        (lambda: generate_cross_fracture_cube(4), 8),
        (lambda: generate_cross_fracture_cube(6), 16),
        (lambda: generate_unit_square(16), 16),
        (lambda: generate_unit_cube(4), 5),
        (lambda: generate_unit_cube(4), 8),
    ],
    ids=["fracture-cube-4-8", "fracture-cube-6-16", "square-16-16", "cube-4-5", "cube-4-8"],
)
def test_corners_match_loop_oracle(make, n_sub):
    """All face globs at once choose the corners that a loop over the globs
    chooses. The cube cases have globs whose segment sums round
    differently in another order of addition."""
    _, _, layout = layout_of(make(), n_sub)
    got = select_corners(layout)
    assert got == select_corners_loop(layout)
    assert all(type(c) is int for c in got)


def test_corners_ties_and_coincident_points_match_loop_oracle(rng):
    """Face globs on a coarse integer lattice, where distances tie often,
    some with all points coincident (no line through the first two),
    between vertex, edge and two-dof face globs."""
    for _ in range(20):
        sizes = rng.integers(1, 9, size=12)
        kinds = rng.choice(["face", "face", "edge", "vertex"], size=len(sizes))
        sizes[kinds == "vertex"] = 1
        pts = rng.integers(0, 3, size=(int(sizes.sum()), 3)).astype(float)
        ends = np.cumsum(sizes)
        globs = []
        for k, (kind, a, b) in enumerate(zip(kinds, ends - sizes, ends)):
            if kind == "face" and k % 4 == 0:
                pts[a:b] = pts[a]
            globs.append(Glob(kind=str(kind), sharing=(0, 1), dofs=tuple(range(a, b))))
        layout = synthetic_layout(pts, globs)
        assert select_corners(layout) == select_corners_loop(layout)


# ---------------------------------------------------------------------------
# weights


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("mesh_name", ["square6", "frac2", "cube2"])
def test_partition_of_unity(scheme, mesh_name, square6, frac2, cube2):
    mesh = {"square6": square6, "frac2": frac2, "cube2": cube2}[mesh_name]
    system, _, layout = layout_of(mesh, 4)
    weights = compute_weights(system, layout, scheme)
    total = np.zeros(layout.n_interface)
    for s, loc in enumerate(layout.local_dofs):
        assert weights[s].shape == loc.shape
        assert (weights[s] > 0).all()
        assert (weights[s] <= 1).all()
        np.add.at(total, loc, weights[s])
    assert np.abs(total - 1.0).max() <= 1e-14


def test_homogeneous_weights_are_half(square6):
    system, _, layout = layout_of(square6, 4)
    for scheme in ("arithmetic", "rho"):
        for w in compute_weights(system, layout, scheme):
            assert (w == 0.5).all()
    for w in compute_weights(system, layout, "diag"):
        assert np.abs(w - 0.5).max() <= 1e-15


def test_conductivity_weighting_exact():
    def cond(centroid, dim):
        return (3.0 if centroid[0] < 0.5 else 5.0) * np.eye(dim)

    mesh = generate_unit_square(4, conductivity=cond)
    system, partition, layout = layout_of(mesh, 2)
    low, high = compute_weights(system, layout, "rho")
    if mesh.by_id("centroid")[np.flatnonzero(partition.assignment == 0)[0], 0] > 0.5:
        low, high = high, low
    assert (low == 0.375).all()
    assert (high == 0.625).all()


def test_unknown_scheme_rejected(square4):
    system, _, layout = layout_of(square4, 2)
    with pytest.raises(ConfigurationError):
        compute_weights(system, layout, "harmonic")
