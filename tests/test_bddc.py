"""Coarse space construction and the substructure preconditioner."""
import numpy as np
import pytest
import scipy.linalg as sla

from darcydd.assembly import full_solve_direct
from darcydd.bddc import (
    BddcPreconditioner,
    ConstraintSet,
    build_constraints,
    constrained_inverse,
)
from darcydd.errors import (
    ConfigurationError,
    ConstraintDeficiencyError,
    SingularSystemError,
)
from darcydd.krylov import PcgConfig, pcg
from darcydd.mesh import (
    NATURAL,
    Element,
    generate_cross_fracture_cube,
    generate_unit_cube,
    generate_unit_square,
)
from darcydd.partition import (
    Glob,
    InterfaceLayout,
    Partition,
    compute_weights,
    select_corners,
)
from darcydd.subsolve import recover_solution

from support import (
    bddc_apply_loop,
    boundary_records,
    build_constraints_loop,
    build_pipeline,
    dense_operator,
    full_constrained_saddle,
    hybridized_substructure_blocks,
    implicit_bddc_apply,
    local_inverses,
    mesh_from_elements,
    mp_solve,
    sliced_substructure_blocks,
    substructure_views,
)


CASES = [
    ("square4", 2, "arithmetic", True),
    ("square6", 4, "arithmetic", True),
    ("square6", 4, "arithmetic", False),
    ("square6", 4, "rho", True),
    ("square6", 4, "diag", True),
    ("cube2", 4, "arithmetic", True),
    ("frac2", 4, "arithmetic", True),
    ("frac2", 4, "diag", True),
    ("frac-hetero", 4, "rho", True),
    ("frac-stiff", 8, "diag", True),
]

# ``mesh-nsub-scheme-corners-True``: the last field says that every face
# and edge glob carries an average, as it always does.
CASE_IDS = ["-".join(map(str, (*case, True))) for case in CASES]


@pytest.fixture
def meshes(square4, square6, cube2, frac2):
    return {
        "square4": square4,
        "square6": square6,
        "cube2": cube2,
        "frac2": frac2,
        "frac-hetero": generate_cross_fracture_cube(2, k1=1e3, k2=1e2, k3=1e-1),
        "frac-stiff": generate_cross_fracture_cube(4, sigma=1e9),
        "frac4": generate_cross_fracture_cube(4),
    }


@pytest.mark.parametrize(
    "name,n_sub,scheme,corners_on", CASES, ids=CASE_IDS
)
def test_preconditioner_properties(name, n_sub, scheme, corners_on, meshes):
    pipe = build_pipeline(meshes[name], n_sub, scheme=scheme, corners_on=corners_on)
    prec = pipe.prec
    n = pipe.layout.n_interface

    blocks = hybridized_substructure_blocks(pipe.system, pipe.layout)
    views = substructure_views(pipe.subs)
    for sub, d, blk in zip(views, pipe.constraints.matrices, blocks):
        if len(d) == 0:
            continue
        _, phi, s_cc = (
            x[0] for x in constrained_inverse(sub.schur[None], d[None], [sub.sub_id])
        )
        # the coarse basis interpolates its own constraints
        assert np.abs(d @ phi - np.eye(len(d))).max() <= 1e-10
        # the local coarse matrix is the constrained interface energy
        s_loc = blk["schur"]
        ref = -phi.T @ s_loc @ phi
        scale = max(1.0, np.abs(ref).max())
        assert np.abs(s_cc - ref).max() <= 1e-9 * scale
        # energy minimization: the basis is orthogonal to null(D) in S_loc
        null = sla.null_space(d)
        if null.size:
            cross = null.T @ s_loc @ phi
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


@pytest.mark.parametrize("name,n_sub,scheme,corners_on", CASES, ids=CASE_IDS)
def test_explicit_apply_matches_implicit_oracle(
    name, n_sub, scheme, corners_on, meshes, rng
):
    """The apply through the precomputed local inverses equals the apply
    that solves every constrained local saddle problem afresh.

    In the stiff penalty limit (σ = 1e9, where cond S_i reaches 5e10)
    float64 elimination of the saddle matrices is itself inaccurate
    (reciprocal condition 2e-16), so the oracle solves them in 50-digit
    arithmetic. There the coarse matrix's condition number is 1.6e11, and
    any float64 solve of it, Cholesky or LU, lies about 1e-9 from the exact
    coarse solution; so the oracle's coarse problem is solved by the
    preconditioner's own coarse factorization, and its assembled coarse
    matrix is checked against the preconditioner's instead."""
    pipe = build_pipeline(meshes[name], n_sub, scheme=scheme, corners_on=corners_on)
    prec = pipe.prec
    r = rng.standard_normal((3, pipe.layout.n_interface)).T
    oracle = dict(solve=sla.solve)
    coarse = []
    if name == "frac-stiff":

        def own_coarse_solve(matrix, r_c):
            coarse.append(matrix)
            return np.column_stack([prec.coarse_fact.solve(col) for col in r_c.T])

        oracle = dict(solve=mp_solve, coarse_solve=own_coarse_solve)
    ref = implicit_bddc_apply(pipe.subs, pipe.weights, pipe.constraints, r, **oracle)
    for x, want in zip(r.T, ref.T):
        out = prec.apply(x)
        assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()
    for matrix in coarse:
        own = prec.coarse_matrix.toarray()
        assert np.abs(matrix - own).max() <= 1e-12 * np.abs(own).max()


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


def test_coarse_factor_is_banded():
    """The square-dense benchmark topology (generate_unit_square(40), 64
    substructures) has 448 coarse dofs, whose half-bandwidth w is 67 in
    reverse Cuthill-McKee order: the coarse factor stores (w + 1) n entries
    with w <= 70, where a fall-back to dense storage would hold n^2."""
    pipe = build_pipeline(generate_unit_square(40), 64)
    fact = pipe.prec.coarse_fact
    n = pipe.prec.n_coarse
    w = fact._band.shape[0] - 1
    assert n == fact.n == 448
    assert fact._band.size == (w + 1) * n and w <= 70
    assert fact.inertia == (0, n, 0)


def test_stiff_coarse_solve_accuracy(meshes):
    """In the stiff penalty limit (sigma = 1e9, diag weights, 8
    substructures) the coarse matrix has 73 dofs and condition number
    1.6e11. Against a 50-digit solve, the coarse solve's backward error
    stays below 1e-12 and its forward error below 1e-8 (max norm, relative).
    The forward error measured 1.4e-9 on these three right-hand sides and
    at most 4.5e-9 over 30 (seeds 0-9); the dense Cholesky factor reached
    6.0e-10 and 1.9e-9. The first-order bound cond * eps is 1.8e-5."""
    pipe = build_pipeline(meshes["frac-stiff"], 8, scheme="diag")
    prec = pipe.prec
    assert prec.n_coarse == 73
    b = np.random.default_rng(0).standard_normal((3, 73))
    ref = mp_solve(prec.coarse_matrix.toarray(), b.T).T
    for rhs, want in zip(b, ref):
        x = prec.coarse_fact.solve(rhs)
        assert prec.coarse_fact.backward_error(rhs, x) <= 1e-12
        assert np.abs(x - want).max() <= 1e-8 * np.abs(want).max()


@pytest.mark.parametrize("breakdown", ["singular", "indefinite"])
def test_coarse_breakdown_is_constraint_deficiency(breakdown, square4, monkeypatch):
    """A singular or wrongly signed coarse matrix is a lack of coarse
    constraints, reported as ConstraintDeficiencyError (exit code 4)."""
    import darcydd.bddc

    real = darcydd.bddc.factor_negative_definite
    pipe = build_pipeline(square4, 2, with_prec=False)
    constraints = build_constraints(pipe.layout, select_corners(pipe.layout))
    calls = []

    def coarse_fails(matrix):
        calls.append(matrix.shape)
        if breakdown == "singular":
            raise SingularSystemError("forced singular coarse matrix")
        return real(-matrix)  # positive definite instead

    monkeypatch.setattr(darcydd.bddc, "factor_negative_definite", coarse_fails)
    with pytest.raises(ConstraintDeficiencyError, match="coarse matrix"):
        BddcPreconditioner(
            pipe.subs,
            pipe.layout,
            compute_weights(pipe.system, pipe.layout, "arithmetic"),
            constraints,
        )
    assert calls == [(4, 4)]


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
    """Without corners a vertex glob constrains nothing, so a substructure
    with no natural condition floats; an edge glob over the same
    substructures gives each of them its average."""
    natural = [True, False, True]
    vertex = synthetic_layout(
        [Glob(kind="vertex", sharing=(0, 1, 2), dofs=(0,))], 1, natural
    )
    with pytest.raises(ConstraintDeficiencyError, match="substructure 1 .* floating"):
        build_constraints(vertex, [])
    edge = synthetic_layout(
        [Glob(kind="edge", sharing=(0, 1, 2), dofs=(0, 1, 2))], 3, natural
    )
    cs = build_constraints(edge, [])
    assert cs.n_coarse == 1
    assert all(m.shape == (1, 3) for m in cs.matrices)


def test_face_and_edge_globs_each_get_one_average():
    globs = [
        Glob(kind="face", sharing=(0, 1), dofs=(0, 1, 2)),
        Glob(kind="edge", sharing=(0, 1), dofs=(3, 4)),
    ]
    layout = synthetic_layout(globs, 5, [True, True])
    cs = build_constraints(layout, [0])
    assert cs.matrices[0].shape[0] == 3  # corner + face avg + edge avg
    assert cs.n_coarse == 3


def test_vertex_globs_have_no_average():
    globs = [Glob(kind="vertex", sharing=(0, 1), dofs=(0,))]
    layout = synthetic_layout(globs, 1, [True, False])
    with pytest.raises(ConstraintDeficiencyError):
        build_constraints(layout, [])
    cs = build_constraints(layout, [0])
    assert cs.n_coarse == 1
    assert cs.n_corners == 1


@pytest.mark.parametrize(
    "make,n_sub",
    [
        (lambda: generate_unit_square(16), 16),
        (lambda: generate_cross_fracture_cube(4), 8),
        (lambda: generate_cross_fracture_cube(6), 16),
        (lambda: generate_unit_cube(4), 5),
        (lambda: generate_unit_square(6), 1),
    ],
    ids=[
        "square-16-16",
        "fracture-cube-4-8",
        "fracture-cube-6-16",
        "cube-4-5",
        "square-6-1",
    ],
)
def test_constraints_match_loop_oracle(make, n_sub):
    """The constraint rows of all substructures, built from one set of
    (substructure, averaged glob) pairs, equal the loop over the
    substructures bit for bit: the selected corners, none, every third
    interface dof and every one, which leaves no average."""
    layout = build_pipeline(make(), n_sub, with_prec=False).layout
    n = layout.n_interface
    for corners in (select_corners(layout), [], list(range(0, n, 3)), list(range(n))):
        got = build_constraints(layout, corners)
        want = build_constraints_loop(layout, corners)
        assert (got.n_coarse, got.n_corners) == (want.n_coarse, want.n_corners)
        assert len(got.matrices) == len(got.coarse_ids) == n_sub
        for a, b in zip(got.matrices + got.coarse_ids, want.matrices + want.coarse_ids):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("where", ["past the end", "negative"])
def test_out_of_range_corner_id_rejected(where, square4):
    """A corner id outside the interface dof range is a configuration
    error that names the id, not a coarse dof that no substructure
    touches."""
    layout = build_pipeline(square4, 2, with_prec=False).layout
    bad = layout.n_interface + 3 if where == "past the end" else -1
    with pytest.raises(ConfigurationError, match=rf"corner id {bad} "):
        build_constraints(layout, [0, bad])


def test_empty_coarse_space(rng):
    """Two triangles of the unit square, each with a natural face, share a
    single interface dof. Without corners no glob carries a constraint, so
    the coarse space is empty and each local inverse is ``-S_i^-1``."""
    coords = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    els = [
        Element(id=i, dim=2, node_ids=nodes, conductivity=np.eye(2),
                cross_section=1.0, source=0.0)
        for i, nodes in enumerate([(0, 1, 2), (0, 2, 3)])
    ]
    bcs = boundary_records([((0, 1), NATURAL, 1.0), ((2, 3), NATURAL, 0.0)])
    pipe = build_pipeline(
        mesh_from_elements(coords, els, bcs), 2, corners_on=False
    )
    prec = pipe.prec
    assert prec.n_coarse == 0
    assert prec.coarse_fact is None
    r = rng.standard_normal(pipe.layout.n_interface)
    ref = implicit_bddc_apply(pipe.subs, pipe.weights, pipe.constraints, r)
    assert np.abs(prec.apply(r) - ref).max() <= 1e-12 * np.abs(ref).max()
    loop = bddc_apply_loop(prec, pipe.subs, pipe.weights, pipe.constraints, r)
    assert np.array_equal(prec.apply(r), loop)
    lam, report = pcg(
        pipe.op.apply, prec.apply, pipe.op.reduced_rhs(),
        PcgConfig(rel_tol=1e-10),
    )
    assert report.converged
    sol = recover_solution(pipe.system, pipe.subs, pipe.layout, lam).concatenated()
    want = full_solve_direct(pipe.system).concatenated()
    assert np.abs(sol - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


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
    blocks = sliced_substructure_blocks(pipe.system, pipe.layout)
    views = substructure_views(pipe.subs)
    for sub, c, blk in zip(views, pipe.constraints.matrices, blocks):
        neumann, phi, s_cc = (
            x[0] for x in constrained_inverse(sub.schur[None], c[None], [sub.sub_id])
        )
        n_i, n_g, nc = blk["k_ii"].shape[0], sub.n_gamma, len(c)
        full = full_constrained_saddle(blk, c)
        rhs = np.zeros((full.shape[0], nc))
        rhs[n_i + n_g :, :] = np.eye(nc)
        x = sla.solve(full, rhs)
        phi_ref = x[n_i : n_i + n_g]
        s_cc_ref = -x[n_i + n_g :]
        assert np.abs(phi - phi_ref).max() <= 1e-9 * max(1.0, np.abs(phi_ref).max())
        assert np.abs(s_cc - s_cc_ref).max() <= 1e-9 * max(
            1.0, np.abs(s_cc_ref).max()
        )
        r = rng.standard_normal(n_g)
        rhs = np.zeros(full.shape[0])
        rhs[n_i : n_i + n_g] = r
        eta_ref = sla.solve(full, rhs)[n_i : n_i + n_g]
        eta = neumann @ r
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
    Cholesky certificate on the constraint null space, whose pivot test is
    relative to each diagonal entry, finds no false zero pivot. The solve
    converges to rel_tol 1e-8 and lies within 1e-6 of the direct solve."""
    pipe = build_pipeline(generate_cross_fracture_cube(4, sigma=sigma), 8, scheme="diag")
    lam, report = pcg(
        pipe.op.apply, pipe.prec.apply, pipe.op.reduced_rhs(),
        PcgConfig(rel_tol=1e-8),
    )
    assert report.converged
    sol = recover_solution(pipe.system, pipe.subs, pipe.layout, lam).concatenated()
    ref = full_solve_direct(pipe.system).concatenated()
    assert np.abs(sol - ref).max() <= 1e-6 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# condition estimates on the fractured cube

FRACTURE_COEFFS = {
    "default": {},
    "contrast": dict(k1=1e3, k2=1.0, k3=1e-3),
    "stiff": dict(sigma=1e9),
}
FRACTURE_GRID = [
    (n, n_sub, coeffs)
    for n in (6, 8, 10)
    for n_sub in (8, 16)
    for coeffs in ("default", "contrast")
] + [(4, 8, "stiff")]


def _fracture_pipeline(n, n_sub, coeffs):
    mesh = generate_cross_fracture_cube(n, **FRACTURE_COEFFS[coeffs])
    pipe = build_pipeline(mesh, n_sub, scheme="diag")
    _, report = pcg(
        pipe.op.apply, pipe.prec.apply, pipe.op.reduced_rhs(),
        PcgConfig(rel_tol=1e-8),
    )
    assert report.converged
    return pipe, report


@pytest.mark.parametrize(
    "n,n_sub,coeffs", FRACTURE_GRID, ids=["-".join(map(str, c)) for c in FRACTURE_GRID]
)
def test_fracture_condition_bounded(n, n_sub, coeffs):
    """The condition estimate stays bounded as the fractured cube is refined
    at a fixed substructure count, with fracture contrast and at a stiff
    penalty. Each glob averages multipliers of one carrying dimension and
    one link flag; globs keyed by sharing set alone, whose averages spanned
    3D face and fracture multipliers, gave up to 13,776 here, and above 10
    in 9 of these 13 cases."""
    _, report = _fracture_pipeline(n, n_sub, coeffs)
    assert report.condition <= 10.0


def test_fracture_condition_matches_exact_spectrum():
    """The Lanczos estimate of one grid case against the exact spectrum of
    the dense preconditioned operator ``M S``, whose eigenvalues are those
    of ``Lᵀ S L`` for the Cholesky factor ``L`` of ``M``."""
    pipe, report = _fracture_pipeline(6, 8, "default")
    n = pipe.layout.n_interface
    m = dense_operator(pipe.prec.apply, n)
    s = dense_operator(pipe.op.apply, n)
    lower = np.linalg.cholesky(0.5 * (m + m.T))
    eigs = np.linalg.eigvalsh(lower.T @ (0.5 * (s + s.T)) @ lower)
    assert eigs.min() > 1.0 - 1e-8
    exact = eigs.max() / eigs.min()
    assert exact <= 10.0
    # Lanczos approaches the extreme eigenvalues from inside
    assert 0.99 * exact <= report.condition <= exact * (1.0 + 1e-8)


def test_asymmetric_neumann_block_rejected(monkeypatch):
    """An explicit local inverse whose interface block is not symmetric to
    rounding level is refused, as an unreliable constrained local solve,
    naming the substructure whose block it is: a 10x10 square's four
    substructures form one group whose constraints leave a null space of
    dimension two, and the solve on it is skewed in its third member."""
    import darcydd.bddc

    real = darcydd.bddc.factor_symmetric_indefinite
    member = 2

    class Skewed:
        def __init__(self, matrix):
            self.inner = real(matrix)

        def solve(self, rhs):
            x = self.inner.solve(rhs)
            # break the symmetry of one member's N_i = Z A^-1 Z^T
            x[member, 0, 1] += 1e-6 * np.abs(x[member]).max()
            return x

    pipe = build_pipeline(generate_unit_square(10), 4, with_prec=False)
    constraints = build_constraints(pipe.layout, select_corners(pipe.layout))
    assert len({len(c) for c in constraints.matrices}) == 1
    views = substructure_views(pipe.subs)
    assert len({sub.n_gamma for sub in views}) == 1
    assert views[0].n_gamma > len(constraints.matrices[0])
    monkeypatch.setattr(darcydd.bddc, "factor_symmetric_indefinite", Skewed)
    skewed = views[member].sub_id
    with pytest.raises(
        SingularSystemError,
        match=rf"substructure {skewed}: Neumann block symmetry defect",
    ):
        BddcPreconditioner(
            pipe.subs,
            pipe.layout,
            compute_weights(pipe.system, pipe.layout, "arithmetic"),
            constraints,
        )


@pytest.mark.parametrize("name,n_sub", [("frac2", 4), ("square6", 4), ("cube2", 4)])
def test_kept_coarse_bases_own_their_data(meshes, rng, name, n_sub):
    """Every group's kept ``Phi`` and ``N`` stacks own their memory, so the
    stack of products ``Z A^-1 [Z^T, Z^T S C^+]`` they are formed from is
    freed; applying the preconditioner with each ``Phi`` stack read as a
    block of such a product stack gives the same result bit for bit."""
    pipe = build_pipeline(meshes[name], n_sub)
    prec = pipe.prec
    r = rng.standard_normal(prec.n)
    z = prec.apply(r)
    for grp in prec.groups:
        phi = grp.phi
        assert phi.base is None and phi.flags.owndata
        assert grp.neumann.base is None and grp.neumann.flags.owndata
        m, n_g, nc = phi.shape
        # each member's Phi_i in the memory layout of its block of the
        # row-major product stack, (m, n_gamma, n_gamma + n_c)
        whole = np.zeros((m, n_g, n_g + nc))
        whole[:, :, n_g:] = phi
        grp.phi = whole[:, :, n_g:]
    np.testing.assert_array_equal(prec.apply(r), z)


GROUP_CASES = [
    ("frac2", 4, True),
    ("frac2", 4, False),
    ("square6", 4, True),
    ("square6", 4, False),
    ("cube2", 4, True),
    ("cube2", 4, False),
    ("square16", 16, True),
    ("square16", 16, False),
    ("frac4", 8, True),
    ("frac4", 8, False),
]


@pytest.mark.parametrize("name,n_sub,corners_on", GROUP_CASES)
def test_grouped_apply_equals_substructure_loop(name, n_sub, corners_on, meshes, rng):
    """The preconditioner splits each interface-size group into runs of one
    constraint count; its apply equals the loop over the substructures in
    order bit for bit, on meshes with one-member groups (frac2), one group
    (square6, cube2), several groups of several members (square16) and
    two groups that split into two runs each (frac4: its two groups of 39
    and 28 interface dofs have 22/23 and 16/12 constraints with corners,
    6/7 and 5/3 without)."""
    mesh = generate_unit_square(16) if name == "square16" else meshes[name]
    pipe = build_pipeline(mesh, n_sub, corners_on=corners_on)
    prec = pipe.prec
    if name == "frac4":
        assert len(prec.groups) == len(pipe.subs.groups) + 2
    views = substructure_views(pipe.subs)
    shapes = {
        (sub.n_gamma, len(pipe.constraints.matrices[sub.sub_id])) for sub in views
    }
    assert len(prec.groups) == len(shapes)
    assert sorted(i for g in prec.groups for i in g.members) == list(range(n_sub))
    for _ in range(3):
        r = rng.standard_normal(prec.n)
        loop = bddc_apply_loop(prec, pipe.subs, pipe.weights, pipe.constraints, r)
        assert np.array_equal(prec.apply(r), loop)


@pytest.mark.parametrize("name,n_sub,corners_on", GROUP_CASES)
def test_group_inverse_equals_members_alone(name, n_sub, corners_on, meshes):
    """Inverting a group's constrained saddle matrices as one stack gives
    every member the ``N_i``, ``Phi_i`` and ``S_cc,i`` of its own group of
    one, bit for bit."""
    mesh = generate_unit_square(16) if name == "square16" else meshes[name]
    pipe = build_pipeline(mesh, n_sub, corners_on=corners_on)
    cs = pipe.constraints.matrices
    views = substructure_views(pipe.subs)
    for grp in pipe.prec.groups:
        subs = [views[i] for i in grp.members]
        ids = [sub.sub_id for sub in subs]
        stacks = constrained_inverse(
            np.array([sub.schur for sub in subs]), np.array([cs[s] for s in ids]), ids
        )
        for j, sub in enumerate(subs):
            alone = constrained_inverse(
                sub.schur[None], cs[sub.sub_id][None], [sub.sub_id]
            )
            for stack, one in zip(stacks, alone):
                assert np.array_equal(stack[j], one[0])
        assert np.array_equal(stacks[0], grp.neumann)
        assert np.array_equal(stacks[1], grp.phi)
    for (n_i, phi), sub in zip(local_inverses(pipe.prec), views):
        assert n_i.shape == (sub.n_gamma, sub.n_gamma)
        assert phi.shape == (sub.n_gamma, len(cs[sub.sub_id]))


@pytest.mark.parametrize("member", [0, 2])
def test_singular_group_member_named(member, square6):
    """A constrained local problem made singular in one member of a group
    (two equal constraint rows) raises ConstraintDeficiencyError naming
    that substructure, not the group's first member."""
    pipe = build_pipeline(square6, 4, with_prec=False)
    constraints = build_constraints(pipe.layout, select_corners(pipe.layout))
    c = constraints.matrices[member]
    c[1] = c[0]
    with pytest.raises(
        ConstraintDeficiencyError,
        match=rf"substructure {member}: constrained local problem is singular",
    ):
        BddcPreconditioner(
            pipe.subs,
            pipe.layout,
            compute_weights(pipe.system, pipe.layout, "arithmetic"),
            constraints,
        )


@pytest.mark.parametrize("member", [0, 2])
def test_floating_mode_in_constraint_null_space_named(member):
    """A member whose ``S_i`` keeps a null vector inside the null space of
    its constraints, so that ``-Z^T S_i Z`` is singular, fails the Cholesky
    certificate; the ConstraintDeficiencyError names that substructure, not
    the group's first member."""
    pipe = build_pipeline(generate_unit_square(10), 4, with_prec=False)
    constraints = build_constraints(pipe.layout, select_corners(pipe.layout))
    sub = substructure_views(pipe.subs)[member]
    v = sla.null_space(constraints.matrices[sub.sub_id])[:, 0]
    p = np.eye(sub.n_gamma) - np.outer(v, v)
    projected = p @ sub.schur @ p
    sub.schur[:] = 0.5 * (projected + projected.T)
    with pytest.raises(
        ConstraintDeficiencyError,
        match=rf"substructure {sub.sub_id}: constrained local problem is singular",
    ):
        BddcPreconditioner(
            pipe.subs,
            pipe.layout,
            compute_weights(pipe.system, pipe.layout, "arithmetic"),
            constraints,
        )
