"""Substructure set-up and the reduced interface operator."""
import gc
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from darcydd.assembly import assemble, full_solve_direct, mass_balance_residual
from darcydd.errors import ConfigurationError, SingularSystemError
from darcydd.krylov import PcgConfig, pcg
from darcydd.mesh import (
    NATURAL,
    BoundaryCondition,
    Element,
    generate_cross_fracture_cube,
    generate_unit_square,
)
from darcydd.partition import Partition, classify_interface, partition_elements
from darcydd.subsolve import (
    InterfaceOperator,
    build_substructures,
    parallel_map,
    recover_solution,
)

from support import (
    build_pipeline,
    dense_multiplier_system,
    dense_operator,
    dense_schur_oracle,
    dense_sub_schur,
    hybridized_substructure_blocks,
    mesh_from_elements,
)


CASES = [
    ("square4", 2, {}),
    ("square4", 4, {}),
    ("square6", 4, {}),
    ("cube2", 4, {}),
    ("frac2", 2, {}),
    ("frac2", 4, {}),
    ("frac-stiff", 4, {"sigma": 1e6}),
    ("square4", 32, {}),  # one element each: no interior multipliers
]


def make_mesh(name, params, fixtures):
    if name in fixtures:
        return fixtures[name]
    assert name == "frac-stiff"
    return generate_cross_fracture_cube(2, **params)


@pytest.fixture
def fixtures(square4, square6, cube2, frac2):
    return {"square4": square4, "square6": square6, "cube2": cube2, "frac2": frac2}


def setup_case(mesh, n_sub, threads=1):
    system = assemble(mesh)
    partition = partition_elements(mesh, n_sub)
    layout = classify_interface(system, partition)
    subs = build_substructures(system, layout, threads=threads)
    op = InterfaceOperator(subs, layout)
    return system, layout, subs, op


@pytest.mark.parametrize("name,n_sub,params", CASES)
def test_reduced_operator_matches_dense_elimination(name, n_sub, params, fixtures):
    mesh = make_mesh(name, params, fixtures)
    system, layout, subs, op = setup_case(mesh, n_sub)
    s_ref, b_ref = dense_schur_oracle(system, layout)
    s_hat = dense_operator(op.apply, op.n)
    scale = max(1.0, np.abs(s_ref).max())
    assert np.abs(s_hat - s_ref).max() <= 1e-11 * scale
    b_hat = op.reduced_rhs()
    assert np.abs(b_hat - b_ref).max() <= 1e-11 * max(1.0, np.abs(b_ref).max())
    # the reduced operator is symmetric positive definite
    assert np.linalg.eigvalsh(0.5 * (s_hat + s_hat.T)).min() > 0
    # and each local contribution is at least positive semidefinite
    for sub in subs:
        s_loc = dense_sub_schur(sub)
        if s_loc.size:
            eigs = np.linalg.eigvalsh(0.5 * (s_loc + s_loc.T))
            assert eigs.min() >= -1e-9 * max(1.0, eigs.max())


@pytest.mark.parametrize("name,n_sub,params", CASES)
def test_reduced_solve_agrees_with_direct(name, n_sub, params, fixtures):
    mesh = make_mesh(name, params, fixtures)
    system, layout, subs, op = setup_case(mesh, n_sub)
    lam_gamma = sla.solve(
        dense_operator(op.apply, op.n), op.reduced_rhs(), assume_a="pos"
    )
    sol = recover_solution(system, subs, layout, lam_gamma)
    ref = full_solve_direct(system).concatenated()
    err = np.abs(sol.concatenated() - ref).max()
    assert err <= 1e-8 * max(1.0, np.abs(ref).max())
    assert mass_balance_residual(system, sol).max() <= 1e-9
    r = system.full_rhs() - system.full_matrix() @ sol.concatenated()
    assert np.linalg.norm(r) <= 1e-8 * max(1.0, np.linalg.norm(system.full_rhs()))


def test_thread_count_does_not_change_results(frac2):
    _, _, _, op1 = setup_case(frac2, 4, threads=1)
    _, _, _, op4 = setup_case(frac2, 4, threads=4)
    assert np.array_equal(
        dense_operator(op1.apply, op1.n), dense_operator(op4.apply, op4.n)
    )
    assert np.array_equal(op1.reduced_rhs(), op4.reduced_rhs())


def test_single_substructure_reduces_to_direct(square4):
    system, layout, subs, _ = setup_case(square4, 1)
    assert len(subs) == 1
    assert subs[0].n_gamma == 0
    sol = recover_solution(system, subs, layout, np.zeros(0))
    ref = full_solve_direct(system).concatenated()
    assert np.abs(sol.concatenated() - ref).max() <= 1e-10


def test_empty_substructure_rejected(square4):
    system = assemble(square4)
    partition = Partition(3, np.zeros(32, dtype=np.int64))
    layout = classify_interface(system, partition)
    with pytest.raises(ConfigurationError, match="empty"):
        build_substructures(system, layout)


def _relative_gap(got, want) -> float:
    got = got.toarray() if hasattr(got, "toarray") else np.asarray(got)
    assert got.shape == want.shape
    return float(np.abs(got - want).max(initial=0.0)) / max(
        1.0, float(np.abs(want).max(initial=0.0))
    )


@pytest.mark.parametrize(
    "mesh_of,n_sub",
    [
        (lambda: generate_cross_fracture_cube(4), 8),
        (lambda: generate_unit_square(8), 6),
    ],
    ids=["fracture-cube-4", "square-8"],
)
def test_blocks_match_per_substructure_slicing(mesh_of, n_sub):
    """The multiplier blocks cut from the one block-diagonal matrix equal
    the dense elimination of velocities and pressures from each
    substructure's saddle blocks, sliced one index set at a time, and every
    local Schur complement equals the one of those saddle blocks."""
    mesh = mesh_of()
    system, layout, subs, _ = setup_case(mesh, n_sub)
    ref = hybridized_substructure_blocks(system, layout)
    assert len(subs) == len(ref) == n_sub
    if len(mesh.couplings):
        # some link multiplier is on the interface, so penalty ownership
        # is covered
        link_mults = system.dof_map.side_mult[mesh.couplings]
        assert np.isin(layout.interface_mults, link_mults).any()
    for sub, want in zip(subs, ref):
        assert np.array_equal(sub.interior_mults, want["interior_mults"])
        for name in ("k_ii", "k_ig", "k_gg", "rhs_interior", "rhs_gamma", "schur"):
            assert _relative_gap(getattr(sub, name), want[name]) <= 1e-12, name


def test_blockwise_assembly_covers_global_matrix(frac2):
    """The local multiplier blocks and loads sum to the global multiplier
    system left by eliminating every velocity and pressure; in particular
    each interface penalty is counted once."""
    system, layout, subs, _ = setup_case(frac2, 4)
    k_ref, load_ref = dense_multiplier_system(system)
    n_l = system.n_multiplier
    total = np.zeros((n_l, n_l))
    load = np.zeros(n_l)
    for sub in subs:
        interior = sub.interior_mults
        gamma = layout.interface_mults[sub.local_gamma]
        total[np.ix_(interior, interior)] += sub.k_ii.toarray()
        total[np.ix_(interior, gamma)] += sub.k_ig.toarray()
        total[np.ix_(gamma, interior)] += sub.k_ig.toarray().T
        total[np.ix_(gamma, gamma)] += sub.k_gg.toarray()
        load[interior] += sub.rhs_interior
        load[gamma] += sub.rhs_gamma
    assert _relative_gap(total, k_ref) <= 1e-12
    assert _relative_gap(load, load_ref) <= 1e-12
    gg = np.ix_(layout.interface_mults, layout.interface_mults)
    assert _relative_gap(total[gg], k_ref[gg]) <= 1e-12


def test_stiffest_penalty_builds_and_matches_oracle():
    """At sigma = 1e9 the interior blocks are definite and the assembled
    local Schur complements match the dense elimination."""
    mesh = generate_cross_fracture_cube(4, sigma=1e9)
    system, layout, subs, _ = setup_case(mesh, 8)
    s_ref, _ = dense_schur_oracle(system, layout)
    total = np.zeros_like(s_ref)
    for sub in subs:
        assert np.linalg.eigvalsh(sub.k_ii.toarray()).max() < 0
        total[np.ix_(sub.local_gamma, sub.local_gamma)] += sub.schur
    assert _relative_gap(total, s_ref) <= 1e-11


def test_sealed_element_is_singular():
    """An element with neither a velocity nor a coupling penalty leaves its
    pressure undetermined: assembly succeeds, the substructure build
    reports a singular system."""
    coords = np.array([
        [0.0, 0, 0], [1, 0, 0], [0, 1, 0],
        [5.0, 0, 0], [6, 0, 0], [5, 1, 0],
    ])
    els = [
        Element(id=i, dim=2, node_ids=nodes, conductivity=np.eye(2),
                cross_section=1.0, source=0.0)
        for i, nodes in enumerate([(0, 1, 2), (3, 4, 5)])
    ]
    bcs = [BoundaryCondition(face_nodes=(0, 1), kind=NATURAL, value=1.0)]
    system = assemble(mesh_from_elements(coords, els, bcs))
    layout = classify_interface(system, Partition(2, np.array([0, 1])))
    with pytest.raises(SingularSystemError, match=r"element\(s\) \[1\]"):
        build_substructures(system, layout)


def test_zero_load_gives_zero_reduced_rhs(square6):
    system, layout, _, _ = setup_case(square6, 4)
    system.g[:] = 0.0
    system.f[:] = 0.0
    subs = build_substructures(system, layout)
    op = InterfaceOperator(subs, layout)
    assert np.abs(op.reduced_rhs()).max() == 0.0


def test_operator_symmetry_bilinear(cube2, rng):
    _, layout, _, op = setup_case(cube2, 4)
    for _ in range(10):
        x = rng.standard_normal(layout.n_interface)
        y = rng.standard_normal(layout.n_interface)
        lhs = x @ op.apply(y)
        rhs = y @ op.apply(x)
        bound = 1e-10 * np.linalg.norm(x) * np.linalg.norm(y)
        assert abs(lhs - rhs) <= bound


def test_recover_backward_error(frac2, rng):
    """Recovery from the stored interior solutions solves the interior
    problem to the factorization's accuracy, and every stored share of the
    reduced right-hand side matches a fresh sparse solve."""
    _, _, subs, _ = setup_case(frac2, 4)
    for sub in subs:
        x = rng.standard_normal(sub.n_gamma)
        lam_i = sub.recover(x)
        rhs = sub.rhs_interior - sub.k_ig @ x
        r = rhs - sub.k_ii @ lam_i
        assert np.linalg.norm(r) <= 1e-10 * max(1.0, np.linalg.norm(rhs))
        want = sub.k_ig.T @ spla.spsolve(sub.k_ii.tocsc(), sub.rhs_interior)
        want -= sub.rhs_gamma
        got = sub.reduced_rhs()
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_interior_factorizations_released_after_setup(frac2, monkeypatch):
    """No interior factorization outlives set-up, and the reduced
    right-hand side, PCG and recovery still match the direct solve."""
    import darcydd.subsolve

    real = darcydd.subsolve.factor_symmetric_indefinite
    refs = []

    def recording(matrix):
        fact = real(matrix)
        refs.append(weakref.ref(fact))
        return fact

    monkeypatch.setattr(darcydd.subsolve, "factor_symmetric_indefinite", recording)
    pipe = build_pipeline(frac2, 4)
    gc.collect()
    assert len(refs) == len(pipe.subs)
    assert all(ref() is None for ref in refs)
    lam, report = pcg(
        pipe.op.apply, pipe.prec.apply, pipe.op.reduced_rhs(),
        PcgConfig(rel_tol=1e-10),
    )
    assert report.converged
    sol = recover_solution(pipe.system, pipe.subs, pipe.layout, lam)
    sol = sol.concatenated()
    ref = full_solve_direct(pipe.system).concatenated()
    assert np.abs(sol - ref).max() <= 1e-8 * max(1.0, np.abs(ref).max())


def test_operator_matches_summed_local_schur(square6):
    _, layout, subs, op = setup_case(square6, 4)
    dense = dense_operator(op.apply, layout.n_interface)
    total = np.zeros_like(dense)
    for sub in subs:
        s_loc = dense_sub_schur(sub)
        total[np.ix_(sub.local_gamma, sub.local_gamma)] += s_loc
    assert np.abs(dense - total).max() <= 1e-12 * max(1.0, np.abs(dense).max())


def test_parallel_map_preserves_order():
    assert parallel_map(lambda x: 2 * x, range(6), threads=2) == [0, 2, 4, 6, 8, 10]


def test_asymmetric_schur_rejected(frac2, monkeypatch):
    import darcydd.subsolve

    real = darcydd.subsolve.factor_symmetric_indefinite

    class Skewed:
        def __init__(self, matrix):
            self.inner = real(matrix)

        def solve(self, rhs):
            x = self.inner.solve(rhs)
            if x.ndim == 2 and x.shape[1] > 1:
                x[:, 0] *= 1.0 + 1e-6  # break the symmetry of S_i
            return x

    system, layout, _, _ = setup_case(frac2, 4)
    monkeypatch.setattr(darcydd.subsolve, "factor_symmetric_indefinite", Skewed)
    with pytest.raises(SingularSystemError, match="symmetry defect"):
        build_substructures(system, layout)


def test_element_inverse_formed_once_per_solve(frac2, monkeypatch):
    """Set-up and recovery share one element inverse, and recovering with
    it gives the same solution, bit for bit, as with a fresh one."""
    import darcydd.assembly

    real = darcydd.assembly._element_inverse
    calls = []

    def counting(system):
        calls.append(system)
        return real(system)

    monkeypatch.setattr(darcydd.assembly, "_element_inverse", counting)
    pipe = build_pipeline(frac2, 4)
    lam, report = pcg(
        pipe.op.apply, pipe.prec.apply, pipe.op.reduced_rhs(),
        PcgConfig(rel_tol=1e-10),
    )
    assert report.converged
    sol = recover_solution(pipe.system, pipe.subs, pipe.layout, lam)
    assert len(calls) == 1
    pipe.system._m_inv = None  # recovery forms its own inverse again
    fresh = recover_solution(pipe.system, pipe.subs, pipe.layout, lam)
    assert len(calls) == 2
    assert np.array_equal(sol.concatenated(), fresh.concatenated())
