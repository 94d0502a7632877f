"""Element matrices, global block assembly and the monolithic solver."""
import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sps

import darcydd.assembly
from darcydd.assembly import (
    BlockSystem,
    assemble,
    full_solve_direct,
    mass_balance_residual,
)
from darcydd.errors import InvalidMeshError, SingularSystemError
from darcydd.mesh import (
    NATURAL,
    BCSpec,
    Element,
    PlaneBC,
    generate_cross_fracture_cube,
    generate_unit_cube,
    generate_unit_square,
)

from support import (
    boundary_records,
    coupling_links,
    element_inverse_lookup,
    mesh_from_elements,
    numbering_contract,
    rt0_local,
    rt0_quadrature_oracle,
    simplex_measure,
)


# ---------------------------------------------------------------------------
# local element matrices


def test_reference_triangle_closed_form():
    coords = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
    a, _, grav = rt0_local(2, coords, np.eye(2), 1.0)
    expected = np.array([
        [1 / 6, 0.0, 0.0],
        [0.0, 1 / 3, -1 / 6],
        [0.0, -1 / 6, 1 / 3],
    ])
    assert np.abs(a - expected).max() <= 1e-12
    assert np.abs(grav).max() == 0.0  # element lies in the z=0 plane


def random_spd(rng, d):
    m = rng.standard_normal((d, d))
    return m @ m.T + d * np.eye(d)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_quadrature_oracle_random_simplices(dim, rng):
    for _ in range(5):
        coords = np.zeros((dim + 1, 3))
        coords[:, :dim] = rng.standard_normal((dim + 1, dim))
        while True:
            vol = np.linalg.det(coords[1:, :dim] - coords[0, :dim])
            if abs(vol) > 0.05:
                break
            coords[:, :dim] = rng.standard_normal((dim + 1, dim))
        k = random_spd(rng, dim)
        delta = float(rng.uniform(0.5, 3.0))
        a, _, _ = rt0_local(dim, coords, k, delta)
        ref, _ = rt0_quadrature_oracle(dim, coords, k, delta)
        assert np.abs(a - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_embedded_triangle_isotropic(rng):
    # a tilted fracture plane: isotropic conductivity is frame independent
    base = np.array([[0.0, 0, 0], [1, 0, 0.4], [0.2, 1, 0.7]])
    k = 2.5 * np.eye(2)
    a, _, grav = rt0_local(2, base, k, 1.3)
    ref_a, ref_g = rt0_quadrature_oracle(2, base, k, 1.3)
    assert np.abs(a - ref_a).max() <= 1e-12 * np.abs(ref_a).max()
    assert np.abs(grav - ref_g).max() <= 1e-12


def test_gravity_load_tetrahedron(rng):
    coords = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    _, _, grav = rt0_local(3, coords, np.eye(3), 1.0)
    _, ref = rt0_quadrature_oracle(3, coords, np.eye(3), 1.0)
    assert np.abs(grav - ref).max() <= 1e-13
    assert np.abs(grav).max() > 0


def test_conductivity_scaling():
    coords = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
    a1, _, _ = rt0_local(2, coords, np.eye(2), 1.0)
    a4, _, _ = rt0_local(2, coords, 4.0 * np.eye(2), 1.0)
    assert np.abs(4.0 * a4 - a1).max() <= 1e-14


def test_degenerate_simplex_rejected():
    coords = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]])
    with pytest.raises(InvalidMeshError):
        rt0_local(2, coords, np.eye(2), 1.0)


def _all_natural_fracture_cube(rng):
    """Fractured cube with every side kept: random anisotropic SPD tensors,
    random sources, cross-sections other than one and gravity on."""
    spec = BCSpec(rules=tuple(
        PlaneBC(axis=a, position=p, kind=NATURAL, value=0.5 + a - p)
        for a in range(3) for p in (0.0, 1.0)
    ))
    base = generate_cross_fracture_cube(
        2, bc_spec=spec, gravity=True, delta1=0.3, delta2=0.7, delta3=1.9
    )
    els = [
        dataclasses.replace(
            el,
            conductivity=random_spd(rng, el.dim),
            source=float(rng.standard_normal()),
        )
        for el in base.elements
    ]
    return mesh_from_elements(
        base.node_coords, els, base.boundary, gravity_enabled=True
    )


def test_batched_assembly_matches_single_element_oracle(rng):
    mesh = _all_natural_fracture_cube(rng)
    system = assemble(mesh)
    dm = system.dof_map
    a = system.a.toarray()
    natural = dict(zip(dm.natural_sides.tolist(), dm.natural_values.tolist()))
    assert {el.dim for el in mesh.elements} == {1, 2, 3}
    for el in mesh.elements:
        pts = mesh.node_coords[list(el.node_ids)]
        a_e, _, g_e = rt0_local(el.dim, pts, el.conductivity, el.cross_section)
        at = np.flatnonzero(mesh.sides.element == el.id)
        vel = dm.side_vel[at]
        assert (vel >= 0).all()
        block = a[np.ix_(vel, vel)]
        assert np.abs(block - a_e).max() <= 1e-14 * np.abs(a_e).max()
        heads = np.array([natural.get(i, 0.0) for i in at.tolist()])
        expected_g = g_e - heads
        assert np.abs(system.g[vel] - expected_g).max() <= 1e-14 * max(
            1.0, np.abs(expected_g).max())
        f_e = -el.cross_section * el.source * simplex_measure(pts)
        assert abs(system.f[el.id] - f_e) <= 1e-14 * abs(f_e)


def test_numbering_contract_fracture_cube():
    mesh = generate_cross_fracture_cube(4)
    dm = assemble(mesh).dof_map
    contract = numbering_contract(mesh)
    sides = list(zip(mesh.sides.element.tolist(), mesh.sides.local_face.tolist()))
    assert sides == [(el.id, lf) for el in mesh.elements for lf in range(el.dim + 1)]
    assert dm.n_velocity == len(contract.side_of_vel)
    assert dm.n_multiplier == len(contract.mult_sides)
    assert dm.side_vel.tolist() == [contract.vel_of_side.get(x, -1) for x in sides]
    assert dm.side_mult.tolist() == [contract.mult_of_side.get(x, -1) for x in sides]
    assert dm.natural_sides.tolist() == sorted(dm.natural_sides.tolist())
    natural = [sides[i] for i in dm.natural_sides.tolist()]
    assert dict(zip(natural, dm.natural_values.tolist())) == contract.natural
    assert len(natural) == len(contract.natural)
    link_mult = dm.side_mult[mesh.couplings].tolist()
    assert link_mult == [
        contract.mult_of_side[(link.upper_element, link.upper_local_face)]
        for link in coupling_links(mesh)
    ]


# ---------------------------------------------------------------------------
# global structure


def test_full_matrix_bitwise_symmetric(frac2):
    k = assemble(frac2).full_matrix()
    assert (k != k.T).nnz == 0


def test_flux_mass_block_spd(square4, frac2):
    for mesh in (square4, frac2):
        a = assemble(mesh).a.toarray()
        sla.cholesky(a)  # raises if not positive definite


def test_divergence_column_structure(square4, frac2):
    for mesh in (square4, frac2):
        system = assemble(mesh)
        b = system.b.tocsc()
        for j in range(system.n_velocity):
            col = b.data[b.indptr[j]:b.indptr[j + 1]]
            assert col.tolist() == [-1.0]
        b_f = system.b_f.tocsc()
        for j in range(system.n_velocity):
            col = b_f.data[b_f.indptr[j]:b_f.indptr[j + 1]]
            assert len(col) <= 1
            assert all(v == 1.0 for v in col)


def test_no_fracture_means_no_penalty(square4):
    system = assemble(square4)
    assert system.c.nnz == 0
    assert system.c_f.nnz == 0
    assert system.c_t.nnz == 0


def test_penalty_form_identity(frac2, rng):
    system = assemble(frac2)
    dm = system.dof_map
    cbar = sps.bmat(
        [[system.c, system.c_f.T], [system.c_f, system.c_t]]
    ).toarray()
    n_p = system.n_pressure
    for _ in range(50):
        x = rng.standard_normal(n_p + system.n_multiplier)
        quad = x @ cbar @ x
        ref = 0.0
        for link, m in zip(coupling_links(frac2), dm.side_mult[frac2.couplings]):
            ref += link.sigma * link.measure * (x[link.lower_element] - x[n_p + m]) ** 2
        assert quad >= 0
        assert abs(quad - ref) <= 1e-12 * max(1.0, abs(ref))


def test_full_system_inertia(square4):
    system = assemble(square4)
    assert (system.n_velocity, system.n_pressure, system.n_multiplier) == (88, 32, 40)
    w = np.linalg.eigvalsh(system.full_matrix().toarray())
    zero = np.abs(w) <= len(w) * np.finfo(float).eps * np.abs(w).max()
    inertia = (int((w[~zero] > 0).sum()), int((w[~zero] < 0).sum()), int(zero.sum()))
    assert inertia == (88, 72, 0)


def test_rhs_entries():
    system = assemble(generate_unit_square(2, source=2.0))
    # two inflow faces carry head 1, everything else is zero or eliminated
    nz = system.g[system.g != 0]
    assert np.array_equal(np.sort(nz), [-1.0, -1.0])
    assert np.allclose(system.f, -2.0 * 0.125)  # - cross_section * source * area


def test_assemble_requires_natural_bc():
    sealed = generate_unit_square(2, bc_spec=BCSpec(rules=()))
    with pytest.raises(SingularSystemError):
        assemble(sealed)


# ---------------------------------------------------------------------------
# direct solves


def test_linear_pressure_reproduced():
    mesh = generate_unit_square(2)
    system = assemble(mesh)
    sol = full_solve_direct(system)
    centroids = np.array([
        mesh.node_coords[list(el.node_ids)].mean(axis=0) for el in mesh.elements
    ])
    assert np.abs(sol.p - (1.0 - centroids[:, 0])).max() <= 1e-10
    dm = system.dof_map
    mult_x = np.asarray(dm.mult_center)[:, 0]
    assert np.abs(sol.lam - (1.0 - mult_x)).max() <= 1e-10
    # unit pressure drop over unit conductivity drives unit total flow
    inflow = 0.0
    for blk in mesh.simplices.values():
        for vel, faces in zip(dm.side_vel[blk.sides], blk.face_nodes()):
            for v, face in zip(vel, faces):
                if v >= 0 and np.all(mesh.node_coords[face, 0] == 0.0):
                    inflow += sol.u[v]
    assert abs(inflow + 1.0) <= 1e-10


def test_hydrostatic_equilibrium():
    bc = BCSpec(rules=(
        PlaneBC(axis=2, position=0.0, kind=NATURAL, value=0.0),
        PlaneBC(axis=2, position=1.0, kind=NATURAL, value=-1.0),
    ))
    mesh = generate_unit_cube(2, bc_spec=bc, gravity=True)
    sol = full_solve_direct(assemble(mesh))
    centroids = np.array([
        mesh.node_coords[list(el.node_ids)].mean(axis=0) for el in mesh.elements
    ])
    assert np.abs(sol.u).max() <= 1e-10
    assert np.abs(sol.p + centroids[:, 2]).max() <= 1e-10


def _assert_solves_saddle(system, sol):
    r = system.full_rhs() - system.full_matrix() @ sol.concatenated()
    assert np.linalg.norm(r) <= 1e-10 * max(1.0, np.linalg.norm(system.full_rhs()))
    assert mass_balance_residual(system, sol).max() <= 1e-10


def test_direct_solve_residual(square4, cube2, frac2):
    for mesh in (square4, cube2, frac2):
        system = assemble(mesh)
        _assert_solves_saddle(system, full_solve_direct(system))


@pytest.mark.parametrize(
    "make",
    [
        lambda: generate_unit_square(5),
        lambda: generate_unit_cube(2, gravity=True),
        lambda: generate_cross_fracture_cube(4),
        lambda: generate_cross_fracture_cube(4, sigma=1e9),
        lambda: generate_cross_fracture_cube(2, k1=1e3, k2=1e2, k3=1e-1),
    ],
    ids=[
        "square-5",
        "cube-2-gravity",
        "fracture-cube-4",
        "fracture-cube-4-stiff",
        "fracture-cube-2-contrast",
    ],
)
def test_element_inverse_matches_sparse_lookup(make):
    """The element blocks filled from A's CSR data, the divergence entries
    and -C's diagonal give the inverse that reading them from the
    assembled velocity-pressure matrix by sparse indexing gives, bit for
    bit; the meshes have sides without a velocity (essential boundary
    faces) and elements with and without coupling penalties."""
    system = assemble(make())
    got, want = system.element_inverse(), element_inverse_lookup(system)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_direct_solve_refines_past_a_perturbed_element_inverse(
    square4, frac2, monkeypatch
):
    """The direct solve eliminates through the same ``M^-1`` as the
    substructured path; its refinement on the unreduced saddle matrix,
    which does not use ``M^-1``, still meets the residual bound when every
    entry of ``M^-1`` is off by a relative 1e-6."""
    real = BlockSystem.element_inverse
    calls = []

    def skewed(self):
        m_inv = real(self).copy()
        m_inv.data *= 1 + 1e-6
        calls.append(1)
        return m_inv

    monkeypatch.setattr(BlockSystem, "element_inverse", skewed)
    for mesh in (square4, frac2):
        system = assemble(mesh)
        _assert_solves_saddle(system, full_solve_direct(system))
    assert calls


def test_direct_solve_factors_only_the_multiplier_matrix(frac2, monkeypatch):
    """The one matrix the direct solve factors is the global multiplier
    matrix, and it is negative definite: no factorization sees the
    indefinite saddle matrix."""
    seen = []
    real = darcydd.assembly.factor_symmetric_indefinite

    def recording(matrix):
        seen.append(matrix)
        return real(matrix)

    monkeypatch.setattr(darcydd.assembly, "factor_symmetric_indefinite", recording)
    system = assemble(frac2)
    full_solve_direct(system)
    assert len(seen) == 1
    assert seen[0].shape == (system.n_multiplier, system.n_multiplier)
    np.linalg.cholesky(-seen[0].toarray())


def test_penalty_limit_scaling():
    def trace_gap(sigma):
        mesh = generate_cross_fracture_cube(2, k1=1.0, k2=1.0, k3=1.0, sigma=sigma)
        system = assemble(mesh)
        sol = full_solve_direct(system)
        dm = system.dof_map
        gap = 0.0
        for link, m in zip(coupling_links(mesh), dm.side_mult[mesh.couplings]):
            gap = max(gap, abs(sol.p[link.lower_element] - sol.lam[m]))
        return gap

    g6, g9 = trace_gap(1e6), trace_gap(1e9)
    assert g6 <= 2e-6
    assert g9 <= 1.5 * g6 / 1e3  # the trace gap shrinks like 1/sigma


def test_null_space_census_two_components():
    coords = np.array([
        [0.0, 0, 0], [1, 0, 0], [0, 1, 0],
        [5.0, 0, 0], [6, 0, 0], [5, 1, 0],
    ])
    els = [
        Element(id=0, dim=2, node_ids=(0, 1, 2), conductivity=np.eye(2),
                cross_section=1.0, source=0.0),
        Element(id=1, dim=2, node_ids=(3, 4, 5), conductivity=np.eye(2),
                cross_section=1.0, source=0.0),
    ]
    bcs = boundary_records([((0, 1), NATURAL, 1.0)])
    mesh = mesh_from_elements(coords, els, bcs)
    assert [c for c in mesh.components_without_natural_bc()] == [[1]]
    system = assemble(mesh)
    bbar = sps.vstack([system.b, system.b_f]).toarray()
    nullity = bbar.shape[0] - np.linalg.matrix_rank(bbar)
    assert nullity == 1
    # the null vector is the characteristic vector of the sealed component
    _, _, vt = np.linalg.svd(bbar @ bbar.T)
    null = vt[-1]
    assert abs(null[0]) <= 1e-10  # pressure of the component with an outlet
    assert abs(null[1]) > 0.1
    with pytest.raises(SingularSystemError):
        full_solve_direct(system)
