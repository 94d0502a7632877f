"""Coarse space construction and the substructure preconditioner."""
import numpy as np
import pytest
import scipy.linalg as sla

from darcydd.assembly import full_solve_direct
from darcydd.bddc import BddcPreconditioner, ConstraintSet, build_constraints
from darcydd.errors import (
    ConfigurationError,
    ConstraintDeficiencyError,
    SingularSystemError,
)
from darcydd.krylov import PcgConfig, pcg
from darcydd.mesh import generate_cross_fracture_cube
from darcydd.partition import (
    Glob,
    InterfaceLayout,
    Partition,
    compute_weights,
    select_corners,
)
from darcydd.subsolve import recover_solution

from support import (
    build_pipeline,
    dense_operator,
    dense_sub_schur,
    full_constrained_saddle,
    implicit_bddc_apply,
)


CASES = [
    ("square4", 2, "arithmetic", True, True),
    ("square6", 4, "arithmetic", True, True),
    ("square6", 4, "arithmetic", False, True),
    ("square6", 4, "rho", True, True),
    ("square6", 4, "diag", True, True),
    ("cube2", 4, "arithmetic", True, True),
    ("cube2", 4, "arithmetic", True, False),
    ("frac2", 4, "arithmetic", True, True),
    ("frac2", 4, "diag", True, True),
    ("frac-hetero", 4, "rho", True, True),
]


@pytest.fixture
def meshes(square4, square6, cube2, frac2):
    return {
        "square4": square4,
        "square6": square6,
        "cube2": cube2,
        "frac2": frac2,
        "frac-hetero": generate_cross_fracture_cube(2, k1=1e3, k2=1e2, k3=1e-1),
    }


@pytest.mark.parametrize("name,n_sub,scheme,corners_on,edge_avg", CASES)
def test_preconditioner_properties(name, n_sub, scheme, corners_on, edge_avg, meshes):
    pipe = build_pipeline(
        meshes[name], n_sub, scheme=scheme, corners_on=corners_on,
        edge_averages=edge_avg,
    )
    prec = pipe.prec
    n = pipe.layout.n_interface

    for corr in prec.correctors:
        if corr.n_constraints == 0:
            continue
        d = corr.d
        # the coarse basis interpolates its own constraints
        assert np.abs(d @ corr.phi - np.eye(corr.n_constraints)).max() <= 1e-10
        # the local coarse matrix is the constrained interface energy
        s_loc = dense_sub_schur(corr.sub)
        ref = -corr.phi.T @ s_loc @ corr.phi
        scale = max(1.0, np.abs(ref).max())
        assert np.abs(corr.s_cc - ref).max() <= 1e-9 * scale
        # energy minimization: the basis is orthogonal to null(D) in S_loc
        null = sla.null_space(d)
        if null.size:
            cross = null.T @ s_loc @ corr.phi
            assert np.abs(cross).max() <= 1e-9 * max(1.0, np.abs(s_loc).max())

    m = dense_operator(prec.apply, n)
    scale = np.abs(m).max()
    assert np.abs(m - m.T).max() <= 1e-10 * scale
    assert np.linalg.eigvalsh(0.5 * (m + m.T)).min() > 0

    # all eigenvalues of the preconditioned operator sit at or above one
    s_hat = dense_operator(pipe.op.apply, pipe.op.n)
    eigs = np.linalg.eigvals(m @ s_hat)
    assert np.abs(eigs.imag).max() <= 1e-8 * np.abs(eigs).max()
    assert eigs.real.min() > 1.0 - 1e-6


@pytest.mark.parametrize("name,n_sub,scheme,corners_on,edge_avg", CASES)
def test_explicit_apply_matches_implicit_oracle(
    name, n_sub, scheme, corners_on, edge_avg, meshes, rng
):
    """The apply through the precomputed local inverses equals the apply
    that solves every constrained local saddle problem afresh."""
    pipe = build_pipeline(
        meshes[name], n_sub, scheme=scheme, corners_on=corners_on,
        edge_averages=edge_avg,
    )
    for _ in range(3):
        r = rng.standard_normal(pipe.layout.n_interface)
        ref = implicit_bddc_apply(pipe.prec, r)
        out = pipe.prec.apply(r)
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


def test_threaded_application_identical(frac2, rng):
    p1 = build_pipeline(frac2, 4, threads=1)
    p4 = build_pipeline(frac2, 4, threads=4)
    r = rng.standard_normal(p1.layout.n_interface)
    assert np.array_equal(p1.prec.apply(r), p4.prec.apply(r))


def test_two_sub_coarse_problem(square4):
    pipe = build_pipeline(square4, 2)
    prec = pipe.prec
    assert prec.n_corners == 3
    assert prec.n_coarse == 4  # three corners plus one face average
    coarse = prec.coarse_matrix.toarray()
    assert np.abs(coarse - coarse.T).max() <= 1e-12 * np.abs(coarse).max()
    assert np.linalg.eigvalsh(coarse).max() < 0
    assert prec.coarse_fact.inertia == (0, 4, 0)



@pytest.mark.parametrize("breakdown", ["singular", "indefinite"])
def test_coarse_breakdown_is_constraint_deficiency(breakdown, square4, monkeypatch):
    """A singular or wrongly signed coarse matrix is a lack of coarse
    constraints, reported as ConstraintDeficiencyError (exit code 4)."""
    import darcydd.bddc

    real = darcydd.bddc.factor_symmetric_indefinite
    pipe = build_pipeline(square4, 2, with_prec=False)
    # set-up factors one constrained matrix per substructure, in order
    # with one thread, and then the coarse matrix
    calls = []

    def coarse_fails(matrix):
        calls.append(matrix.shape)
        if len(calls) <= len(pipe.subs):  # the local constrained factorizations
            return real(matrix)
        if breakdown == "singular":
            raise SingularSystemError("forced singular coarse matrix")
        return real(-matrix)  # positive definite instead

    monkeypatch.setattr(darcydd.bddc, "factor_symmetric_indefinite", coarse_fails)
    with pytest.raises(ConstraintDeficiencyError, match="coarse matrix"):
        BddcPreconditioner(
            pipe.subs,
            pipe.layout,
            compute_weights(pipe.system, pipe.layout, "arithmetic"),
            build_constraints(pipe.layout, select_corners(pipe.layout)),
        )
    assert len(calls) == len(pipe.subs) + 1


def test_coarse_count_cross_check(frac2):
    pipe = build_pipeline(frac2, 4)
    corner_set = set(pipe.corners)
    n_avg = sum(
        1
        for g in pipe.layout.globs
        if g.kind != "vertex" and not all(d in corner_set for d in g.dofs)
    )
    assert pipe.prec.n_coarse == pipe.prec.n_corners + n_avg


def test_corners_off_leaves_only_averages(square6):
    pipe = build_pipeline(square6, 4, corners_on=False)
    assert pipe.prec.n_corners == 0
    assert pipe.prec.n_coarse == pipe.layout.n_face_globs


def test_all_corner_constraints_make_exact_preconditioner(square6, rng):
    pipe = build_pipeline(square6, 4, with_prec=False)
    all_corners = list(range(pipe.layout.n_interface))
    constraints = build_constraints(pipe.layout, all_corners)
    from darcydd.partition import compute_weights

    weights = compute_weights(pipe.system, pipe.layout, "arithmetic")
    prec = BddcPreconditioner(pipe.subs, pipe.layout, weights, constraints)
    assert prec.n_coarse == pipe.layout.n_interface  # averages all consumed
    x = rng.standard_normal(pipe.layout.n_interface)
    back = prec.apply(pipe.op.apply(x))
    assert np.abs(back - x).max() <= 1e-8 * max(1.0, np.abs(x).max())


# ---------------------------------------------------------------------------
# constraint assembly on synthetic layouts


def synthetic_layout(globs, n_dofs, sub_has_natural):
    pts = np.zeros((n_dofs, 3))
    pts[:, 0] = np.arange(n_dofs)
    n_sub = len(sub_has_natural)
    local = []
    for s in range(n_sub):
        mine = [d for g in globs if s in g.sharing for d in g.dofs]
        local.append(np.array(sorted(mine), dtype=np.int64))
    return InterfaceLayout(
        partition=Partition(n_sub, np.zeros(1, dtype=np.int64)),
        mult_sharing=[g.sharing for g in globs for _ in g.dofs],
        interface_mults=np.arange(n_dofs),
        n_interface=n_dofs,
        local_dofs=local,
        globs=globs,
        barycenters=pts,
        sub_has_natural=np.array(sub_has_natural, dtype=bool),
    )


def face5_layout(sub_has_natural=(True, False)):
    globs = [Glob(kind="face", sharing=(0, 1), dofs=tuple(range(5)))]
    return synthetic_layout(globs, 5, list(sub_has_natural))


def test_constraint_rows_mixed():
    cs = build_constraints(face5_layout(), [0, 2, 4])
    assert cs.n_corners == 3
    assert cs.n_coarse == 4
    for s in range(2):
        d = cs.matrices[s]
        assert d.shape == (4, 5)
        assert np.linalg.matrix_rank(d) == 4
        assert np.array_equal(cs.coarse_ids[s], [0, 1, 2, 3])
    # three unit rows, then the average row over the whole glob
    assert np.array_equal(cs.matrices[0][3], np.ones(5))


def test_constraint_rows_averages_only():
    cs = build_constraints(face5_layout(), [])
    assert cs.n_corners == 0
    assert cs.n_coarse == 1
    assert cs.matrices[1].shape == (1, 5)
    assert np.array_equal(cs.matrices[1][0], np.ones(5))


def test_fully_promoted_glob_drops_average():
    cs = build_constraints(face5_layout(), [0, 1, 2, 3, 4])
    assert cs.n_corners == 5
    assert cs.n_coarse == 5  # no dependent average row appears
    assert cs.matrices[0].shape == (5, 5)
    assert np.abs(cs.matrices[0] - np.eye(5)).max() == 0


def test_floating_substructure_needs_constraints():
    globs = [Glob(kind="edge", sharing=(0, 1, 2), dofs=(0, 1, 2))]
    layout = synthetic_layout(globs, 3, [True, False, True])
    with pytest.raises(ConstraintDeficiencyError, match="floating"):
        build_constraints(layout, [], edge_averages=False)
    cs = build_constraints(layout, [], edge_averages=True)
    assert cs.n_coarse == 1
    assert all(m.shape == (1, 3) for m in cs.matrices)


def test_edge_average_toggle_row_counts():
    globs = [
        Glob(kind="face", sharing=(0, 1), dofs=(0, 1, 2)),
        Glob(kind="edge", sharing=(0, 1), dofs=(3, 4)),
    ]
    layout = synthetic_layout(globs, 5, [True, True])
    on = build_constraints(layout, [0], edge_averages=True)
    off = build_constraints(layout, [0], edge_averages=False)
    assert on.matrices[0].shape[0] == 3  # corner + face avg + edge avg
    assert off.matrices[0].shape[0] == 2
    assert on.n_coarse == 3
    assert off.n_coarse == 2


def test_vertex_globs_have_no_average():
    globs = [Glob(kind="vertex", sharing=(0, 1), dofs=(0,))]
    layout = synthetic_layout(globs, 1, [True, False])
    with pytest.raises(ConstraintDeficiencyError):
        build_constraints(layout, [])
    cs = build_constraints(layout, [0])
    assert cs.n_coarse == 1
    assert cs.n_corners == 1


def test_preconditioner_rejects_empty_interface(square4):
    pipe = build_pipeline(square4, 1, with_prec=False)
    empty = ConstraintSet(0, 0, [], [])
    with pytest.raises(ConfigurationError, match="interface"):
        BddcPreconditioner(pipe.subs, pipe.layout, [np.zeros(0)], empty)


# ---------------------------------------------------------------------------
# interface-sized local problems against the full constrained saddle matrix


@pytest.mark.parametrize("name,n_sub", [("square6", 4), ("cube2", 4), ("frac2", 4)])
def test_interface_saddle_matches_full_saddle(name, n_sub, meshes, rng):
    pipe = build_pipeline(meshes[name], n_sub)
    for corr in pipe.prec.correctors:
        sub = corr.sub
        n_i, n_g, nc = len(sub.interior_mults), sub.n_gamma, corr.n_constraints
        full = full_constrained_saddle(corr).toarray()
        rhs = np.zeros((full.shape[0], nc))
        rhs[n_i + n_g :, :] = np.eye(nc)
        x = sla.solve(full, rhs)
        phi_ref = x[n_i : n_i + n_g]
        s_cc_ref = -x[n_i + n_g :]
        assert np.abs(corr.phi - phi_ref).max() <= 1e-9 * max(1.0, np.abs(phi_ref).max())
        assert np.abs(corr.s_cc - s_cc_ref).max() <= 1e-9 * max(
            1.0, np.abs(s_cc_ref).max()
        )
        r = rng.standard_normal(n_g)
        rhs = np.zeros(full.shape[0])
        rhs[n_i : n_i + n_g] = r
        eta_ref = sla.solve(full, rhs)[n_i : n_i + n_g]
        eta = corr.neumann @ r
        assert np.abs(eta - eta_ref).max() <= 1e-9 * max(1.0, np.abs(eta_ref).max())


def test_two_threads_bitwise_identical(frac2, rng):
    p1 = build_pipeline(frac2, 4, threads=1)
    p2 = build_pipeline(frac2, 4, threads=2)
    x = rng.standard_normal(p1.layout.n_interface)
    assert np.array_equal(p1.op.apply(x), p2.op.apply(x))
    assert np.array_equal(p1.prec.apply(x), p2.prec.apply(x))
    solutions = []
    for pipe in (p1, p2):
        lam, report = pcg(
            pipe.op.apply, pipe.prec.apply, pipe.op.reduced_rhs(),
            PcgConfig(rel_tol=1e-10),
        )
        sol = recover_solution(pipe.system, pipe.subs, pipe.layout, lam)
        solutions.append((sol.concatenated(), report.iterations, report.condition))
    assert np.array_equal(solutions[0][0], solutions[1][0])
    assert solutions[0][1:] == solutions[1][1:]


@pytest.mark.parametrize("sigma", [1.0, 1e3, 1e5, 1e7])
def test_stiff_penalty_substructured_matches_direct(sigma):
    """The substructured solve holds up to a stiff fracture penalty; at
    sigma = 1e7 the constrained local factorizations used to break down."""
    pipe = build_pipeline(generate_cross_fracture_cube(4, sigma=sigma), 8, scheme="diag")
    lam, report = pcg(
        pipe.op.apply, pipe.prec.apply, pipe.op.reduced_rhs(),
        PcgConfig(rel_tol=1e-10),
    )
    assert report.converged
    sol = recover_solution(pipe.system, pipe.subs, pipe.layout, lam).concatenated()
    ref = full_solve_direct(pipe.system).concatenated()
    assert np.abs(sol - ref).max() <= 1e-8 * np.abs(ref).max()


@pytest.mark.parametrize("sigma", [1e8, 1e9])
def test_stiffest_penalties_substructured(sigma):
    """At sigma = 1e8 and 1e9 every constrained local problem factors: the
    equilibrated pivot test finds no false zero pivot. The solve converges
    to rel_tol 1e-8 and lies within 1e-6 of the direct solve."""
    pipe = build_pipeline(generate_cross_fracture_cube(4, sigma=sigma), 8, scheme="diag")
    lam, report = pcg(
        pipe.op.apply, pipe.prec.apply, pipe.op.reduced_rhs(),
        PcgConfig(rel_tol=1e-8),
    )
    assert report.converged
    sol = recover_solution(pipe.system, pipe.subs, pipe.layout, lam).concatenated()
    ref = full_solve_direct(pipe.system).concatenated()
    assert np.abs(sol - ref).max() <= 1e-6 * np.abs(ref).max()


def test_asymmetric_neumann_block_rejected(frac2, monkeypatch):
    """An explicit local inverse whose interface block is not symmetric to
    rounding level is refused, as an unreliable constrained local solve."""
    import darcydd.bddc

    real = darcydd.bddc.factor_symmetric_indefinite

    class Skewed:
        def __init__(self, matrix):
            self.inner = real(matrix)

        def solve(self, rhs):
            x = self.inner.solve(rhs)
            x[0, 1] += 1e-6 * np.abs(x).max()  # break the symmetry of N_i
            return x

    pipe = build_pipeline(frac2, 4, with_prec=False)
    monkeypatch.setattr(darcydd.bddc, "factor_symmetric_indefinite", Skewed)
    with pytest.raises(SingularSystemError, match="Neumann block symmetry defect"):
        BddcPreconditioner(
            pipe.subs,
            pipe.layout,
            compute_weights(pipe.system, pipe.layout, "arithmetic"),
            build_constraints(pipe.layout, select_corners(pipe.layout)),
        )
