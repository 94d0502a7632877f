"""Substructure set-up and the reduced interface operator."""
import gc
import weakref

import numpy as np
import pytest
import scipy.linalg as sla

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
        s_loc = sub.schur
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
    """What set-up keeps of the multiplier blocks cut from the one
    block-diagonal matrix, ``W``, ``K_II^-1 rhs_I`` and the share of the
    reduced right-hand side, equals the dense elimination of the multiplier
    blocks left by eliminating velocities and pressures from each
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
        want["w"] = -sla.solve(want["k_ii"], want["k_ig"])
        want["lam_load"] = sla.solve(want["k_ii"], want["rhs_interior"])
        want["rhs_share"] = want["k_ig"].T @ want["lam_load"] - want["rhs_gamma"]
        for name in ("w", "lam_load", "rhs_share", "schur"):
            assert _relative_gap(getattr(sub, name), want[name]) <= 1e-12, name


def test_blockwise_assembly_covers_global_matrix(frac2):
    """The local interior solutions, Schur complements and load shares
    assemble to the elimination of every interior multiplier from the
    global multiplier system left by eliminating every velocity and
    pressure; in particular each interface penalty is counted once."""
    system, layout, subs, _ = setup_case(frac2, 4)
    k_ref, load_ref = dense_multiplier_system(system)
    gamma = layout.interface_mults
    interior = np.setdiff1d(np.arange(system.n_multiplier), gamma)
    k_ig = k_ref[np.ix_(interior, gamma)]
    # [W, K_II^-1 rhs_I] of the global system, interior rows only
    x_ref = sla.solve(
        k_ref[np.ix_(interior, interior)],
        np.column_stack([-k_ig, load_ref[interior]]),
    )
    n_g = layout.n_interface
    x = np.zeros((system.n_multiplier, n_g + 1))
    schur = np.zeros((n_g, n_g))
    share = np.zeros(n_g)
    for sub in subs:
        x[np.ix_(sub.interior_mults, sub.local_gamma)] = sub.w
        x[sub.interior_mults, -1] = sub.lam_load
        schur[np.ix_(sub.local_gamma, sub.local_gamma)] += sub.schur
        share[sub.local_gamma] += sub.rhs_share
    assert _relative_gap(x[interior, :-1], x_ref[:, :-1]) <= 1e-12
    assert _relative_gap(x[interior, -1], x_ref[:, -1]) <= 1e-12
    schur_ref = -(k_ref[np.ix_(gamma, gamma)] + k_ig.T @ x_ref[:, :-1])
    assert _relative_gap(schur, schur_ref) <= 1e-12
    share_ref = k_ig.T @ x_ref[:, -1] - load_ref[gamma]
    assert _relative_gap(share, share_ref) <= 1e-12


def test_stiffest_penalty_builds_and_matches_oracle():
    """At sigma = 1e9 the interior blocks are definite and the assembled
    local Schur complements match the dense elimination."""
    mesh = generate_cross_fracture_cube(4, sigma=1e9)
    system, layout, subs, _ = setup_case(mesh, 8)
    s_ref, _ = dense_schur_oracle(system, layout)
    total = np.zeros_like(s_ref)
    for sub, blk in zip(subs, hybridized_substructure_blocks(system, layout)):
        assert np.linalg.eigvalsh(blk["k_ii"]).max() < 0
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
    """Recovery from the stored interior solutions, ``lam_load + W x``,
    solves the interior problem of the hybridized substructure blocks to
    the factorization's accuracy, and every stored share of the reduced
    right-hand side matches a fresh dense solve."""
    system, layout, subs, _ = setup_case(frac2, 4)
    for sub, blk in zip(subs, hybridized_substructure_blocks(system, layout)):
        x = rng.standard_normal(sub.n_gamma)
        lam_i = sub.lam_load + sub.w @ x
        rhs = blk["rhs_interior"] - blk["k_ig"] @ x
        r = rhs - blk["k_ii"] @ lam_i
        assert np.linalg.norm(r) <= 1e-10 * max(1.0, np.linalg.norm(rhs))
        want = blk["k_ig"].T @ sla.solve(blk["k_ii"], blk["rhs_interior"])
        want -= blk["rhs_gamma"]
        got = sub.rhs_share
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


@pytest.mark.parametrize("name,n_sub", [("frac2", 4), ("square6", 4), ("cube2", 4)])
def test_interior_matrices_reach_the_factorization_as_canonical_csc(
    fixtures, monkeypatch, name, n_sub
):
    """build_substructures hands each K_II to the module-level
    factor_symmetric_indefinite, the binding a benchmark trace wraps, as a
    canonical CSC matrix equal to the dense elimination's interior block."""
    import darcydd.subsolve

    real = darcydd.subsolve.factor_symmetric_indefinite
    seen = []

    def recording(matrix):
        seen.append(matrix)
        return real(matrix)

    monkeypatch.setattr(darcydd.subsolve, "factor_symmetric_indefinite", recording)
    system, layout, subs, _ = setup_case(fixtures[name], n_sub)
    assert len(seen) == len(subs)
    for k_ii, blk in zip(seen, hybridized_substructure_blocks(system, layout)):
        assert k_ii.format == "csc"
        assert k_ii.has_canonical_format
        assert (k_ii != k_ii.T).nnz == 0
        want = blk["k_ii"]
        assert k_ii.shape == want.shape
        scale = max(1.0, np.abs(want).max(initial=0.0))
        assert np.abs(k_ii.toarray() - want).max(initial=0.0) <= 1e-12 * scale


def test_operator_matches_summed_local_schur(square6):
    system, layout, subs, op = setup_case(square6, 4)
    dense = dense_operator(op.apply, layout.n_interface)
    total = np.zeros_like(dense)
    for sub, blk in zip(subs, hybridized_substructure_blocks(system, layout)):
        s_loc = blk["schur"]
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
