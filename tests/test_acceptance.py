"""End-to-end acceptance gate.

Each test exercises one advertised property of the solver at its stated
tolerance and prints a single PASS/FAIL line through
:func:`support.record_criterion`; the terminal summary repeats all lines.
"""
import numpy as np
import scipy.sparse as sps

from darcydd.assembly import assemble, full_solve_direct, mass_balance_residual
from darcydd.bddc import build_constraints, constrained_inverse
from darcydd.cli import RunConfig, run
from darcydd.krylov import PcgConfig, pcg
from darcydd.mesh import (
    generate_cross_fracture_cube,
    generate_unit_cube,
    generate_unit_square,
)
from darcydd.partition import compute_weights
from darcydd.subsolve import recover_solution

from support import (
    build_pipeline,
    coupling_links,
    hybridized_substructure_blocks,
    record_criterion,
    substructure_views,
)


def test_criterion_01_matches_direct_solver():
    """The substructured solution agrees with the monolithic factorization
    on every mesh family and substructure count."""
    worst = 0.0
    cases = []
    for gen, n in (("square", 24), ("cube", 5), ("fracture-cube", 4)):
        for n_sub in (2, 4, 8):
            result = run(
                RunConfig(gen=gen, n=n, n_sub=n_sub, rel_tol=1e-8, oracle=True),
                quiet=True,
            )
            assert result.report.converged
            assert result.discrepancy is not None
            worst = max(worst, result.discrepancy)
            cases.append(f"{gen}/{n_sub}")
    record_criterion(
        1,
        "substructured solve matches direct",
        worst <= 1e-6,
        f"max relative discrepancy {worst:.3e} over {len(cases)} runs",
    )


def test_criterion_02_spd_interface_operators():
    """Reduced operator and preconditioner act symmetric positive definite."""
    rng = np.random.default_rng(2205)
    worst_sym = 0.0
    min_quad = np.inf
    for mesh in (
        generate_unit_square(8),
        generate_unit_cube(3),
        generate_cross_fracture_cube(2),
    ):
        pipe = build_pipeline(mesh, 4)
        n = pipe.layout.n_interface
        for fn in (pipe.op.apply, pipe.prec.apply):
            for _ in range(10):
                x = rng.standard_normal(n)
                y = rng.standard_normal(n)
                fx, fy = fn(x), fn(y)
                scale = max(
                    1.0,
                    np.linalg.norm(fx) / np.linalg.norm(x),
                    np.linalg.norm(fy) / np.linalg.norm(y),
                )
                sym = abs(x @ fy - y @ fx) / (
                    scale * np.linalg.norm(x) * np.linalg.norm(y)
                )
                worst_sym = max(worst_sym, sym)
                min_quad = min(min_quad, (x @ fx) / (x @ x))
    ok = worst_sym <= 1e-10 and min_quad > 0
    record_criterion(
        2,
        "interface operators are SPD",
        ok,
        f"max symmetry defect {worst_sym:.3e}, min Rayleigh {min_quad:.3e}",
    )


def test_criterion_03_coarse_space_algebra():
    """Coarse basis interpolates its constraints, reproduces the constrained
    interface energy and assembles to a negative definite coarse matrix.
    Definiteness is certified by the preconditioner's Cholesky
    factorization of the negated coarse matrix, which exists only for a
    negative definite matrix and then reports inertia ``(0, n_c, 0)``; a
    dense eigenvalue computation confirms it."""
    worst_interp = 0.0
    worst_energy = 0.0
    inertia_ok = True
    for mesh in (
        generate_unit_square(6),
        generate_unit_cube(2),
        generate_cross_fracture_cube(2),
    ):
        pipe = build_pipeline(mesh, 4)
        blocks = hybridized_substructure_blocks(pipe.system, pipe.layout)
        views = substructure_views(pipe.subs)
        for sub, d, blk in zip(views, pipe.constraints.matrices, blocks):
            if len(d) == 0:
                continue
            _, phi, s_cc = (
                x[0]
                for x in constrained_inverse(sub.schur[None], d[None], [sub.sub_id])
            )
            worst_interp = max(
                worst_interp, np.abs(d @ phi - np.eye(len(d))).max()
            )
            ref = -phi.T @ blk["schur"] @ phi
            worst_energy = max(
                worst_energy,
                np.abs(s_cc - ref).max() / max(1.0, np.abs(ref).max()),
            )
        nc = pipe.prec.n_coarse
        inertia_ok &= pipe.prec.coarse_fact.inertia == (0, nc, 0)
        inertia_ok &= (
            np.linalg.eigvalsh(pipe.prec.coarse_matrix.toarray()).max() < 0
        )
    ok = worst_interp <= 1e-10 and worst_energy <= 1e-9 and inertia_ok
    record_criterion(
        3,
        "coarse space algebra",
        ok,
        f"interpolation defect {worst_interp:.3e}, energy defect "
        f"{worst_energy:.3e}, coarse matrices negative definite (Cholesky "
        f"certificate and eigenvalues): {inertia_ok}",
    )


def test_criterion_04_weights_partition_of_unity():
    """Every weight scheme partitions unity; symmetric cases split evenly."""
    worst = 0.0
    for mesh in (generate_unit_square(6), generate_cross_fracture_cube(2)):
        pipe = build_pipeline(mesh, 4, with_prec=False)
        for scheme in ("arithmetic", "rho", "diag"):
            weights = compute_weights(pipe.system, pipe.layout, scheme)
            total = np.zeros(pipe.layout.n_interface)
            for s, loc in enumerate(pipe.layout.local_dofs):
                np.add.at(total, loc, weights[s])
            worst = max(worst, np.abs(total - 1.0).max())
    halves_exact = True
    for mesh in (generate_unit_square(6), generate_unit_cube(2)):
        pipe = build_pipeline(mesh, 4, with_prec=False)
        for scheme in ("arithmetic", "rho"):
            for w in compute_weights(pipe.system, pipe.layout, scheme):
                halves_exact &= bool((w == 0.5).all())
    ok = worst <= 1e-14 and halves_exact
    record_criterion(
        4,
        "weights partition unity",
        ok,
        f"max deviation {worst:.3e}, homogeneous halves exact: {halves_exact}",
    )


def test_criterion_05_flat_weak_scaling():
    """With a fixed substructure size the condition estimate stays near one
    as substructures multiply."""
    rng = np.random.default_rng(12345)
    conds = []
    for n_sub, n in ((2, 12), (4, 16), (8, 24), (16, 32)):
        pipe = build_pipeline(generate_unit_square(n), n_sub)
        b = rng.standard_normal(pipe.layout.n_interface)
        _, report = pcg(
            pipe.op.apply, pipe.prec.apply, b, PcgConfig(rel_tol=1e-12)
        )
        assert report.converged
        conds.append(report.condition)
    ok = max(conds) <= 10.0 and conds[-1] <= 2.0 * conds[0]
    record_criterion(
        5,
        "flat weak scaling",
        ok,
        "condition estimates "
        + ", ".join(f"{c:.4f}" for c in conds)
        + " for 2/4/8/16 substructures",
    )


def test_criterion_06_full_corner_exactness():
    """Promoting every interface dof to a corner makes the preconditioner
    an exact inverse: convergence in at most two iterations."""
    worst_its = 0
    for mesh in (generate_unit_square(6), generate_cross_fracture_cube(2)):
        pipe = build_pipeline(mesh, 4, with_prec=False)
        constraints = build_constraints(
            pipe.layout, list(range(pipe.layout.n_interface))
        )
        weights = compute_weights(pipe.system, pipe.layout, "arithmetic")
        from darcydd.bddc import BddcPreconditioner

        prec = BddcPreconditioner(pipe.subs, pipe.layout, weights, constraints)
        _, report = pcg(
            pipe.op.apply, prec.apply, pipe.op.reduced_rhs(),
            PcgConfig(rel_tol=1e-8),
        )
        assert report.converged
        worst_its = max(worst_its, report.iterations)
    record_criterion(
        6,
        "all-corner constraints are exact",
        worst_its <= 2,
        f"max iterations {worst_its}",
    )


def test_criterion_07_physical_fidelity():
    """The substructured path reproduces a linear pressure field exactly and
    conserves mass on every mesh family."""
    mesh = generate_unit_square(4)
    pipe = build_pipeline(mesh, 2)
    lam, report = pcg(
        pipe.op.apply, pipe.prec.apply, pipe.op.reduced_rhs(),
        PcgConfig(rel_tol=1e-12),
    )
    assert report.converged
    sol = recover_solution(pipe.system, pipe.subs, pipe.layout, lam)
    centroids = mesh.by_id("centroid")
    linear_err = np.abs(sol.p - (1.0 - centroids[:, 0])).max()

    worst_balance = 0.0
    for m in (
        generate_unit_square(6),
        generate_unit_cube(2),
        generate_cross_fracture_cube(2),
    ):
        pipe = build_pipeline(m, 4)
        lam, report = pcg(
            pipe.op.apply, pipe.prec.apply, pipe.op.reduced_rhs(),
            PcgConfig(rel_tol=1e-10),
        )
        assert report.converged
        sol = recover_solution(pipe.system, pipe.subs, pipe.layout, lam)
        worst_balance = max(
            worst_balance, mass_balance_residual(pipe.system, sol).max()
        )
    ok = linear_err <= 1e-10 and worst_balance <= 1e-9
    record_criterion(
        7,
        "physical fidelity",
        ok,
        f"linear-field error {linear_err:.3e}, "
        f"worst element mass defect {worst_balance:.3e}",
    )


def test_criterion_08_penalty_limit():
    """A stiff interface penalty pins fracture pressures to the neighboring
    traces while the penalty form stays positive semidefinite."""
    mesh = generate_cross_fracture_cube(2, k1=1.0, k2=1.0, k3=1.0, sigma=1e9)
    system = assemble(mesh)
    sol = full_solve_direct(system)
    dm = system.dof_map
    gap = 0.0
    for link, m in zip(coupling_links(mesh), dm.side_mult[mesh.couplings]):
        gap = max(gap, abs(sol.p[link.lower_element] - sol.lam[m]))
    cbar = sps.bmat(
        [[system.c, system.c_f.T], [system.c_f, system.c_t]], format="csr"
    )
    rng = np.random.default_rng(99)
    min_quad = min(
        float(x @ (cbar @ x))
        for x in rng.standard_normal((1000, cbar.shape[0]))
    )
    ok = gap <= 1e-3 and min_quad >= 0.0
    record_criterion(
        8,
        "stiff penalty limit",
        ok,
        f"max pressure-trace gap {gap:.3e} at penalty 1e9, "
        f"min penalty quadratic {min_quad:.3e}",
    )


def test_criterion_09_conductivity_aware_weights_win():
    """On a strongly heterogeneous problem the conductivity-aware weight
    schemes beat plain averaging, and the diagonal scheme is competitive."""
    mesh = generate_cross_fracture_cube(4, k1=1e3, k2=1.0, k3=1e-3)
    its = {}
    for n_sub in (4, 8):
        for scheme in ("arithmetic", "rho", "diag"):
            pipe = build_pipeline(mesh, n_sub, scheme=scheme)
            _, report = pcg(
                pipe.op.apply, pipe.prec.apply, pipe.op.reduced_rhs(),
                PcgConfig(rel_tol=1e-7),
            )
            its[(n_sub, scheme)] = (
                report.iterations if report.converged else np.inf
            )
    ok = True
    for n_sub in (4, 8):
        ok &= its[(n_sub, "diag")] <= 1.2 * its[(n_sub, "rho")]
        ok &= its[(n_sub, "rho")] <= its[(n_sub, "arithmetic")]
        ok &= its[(n_sub, "diag")] <= its[(n_sub, "arithmetic")]
    detail = "; ".join(
        f"{ns} subs: arithmetic {its[(ns, 'arithmetic')]}, "
        f"rho {its[(ns, 'rho')]}, diag {its[(ns, 'diag')]}"
        for ns in (4, 8)
    )
    record_criterion(9, "conductivity-aware weights win", ok, detail)


def test_criterion_10_corners_pay_off():
    """Corner constraints reduce iteration counts on the fractured cube."""
    mesh = generate_cross_fracture_cube(4)
    its = {}
    for n_sub in (8, 16):
        for corners_on in (True, False):
            pipe = build_pipeline(
                mesh, n_sub, scheme="diag", corners_on=corners_on
            )
            _, report = pcg(
                pipe.op.apply, pipe.prec.apply, pipe.op.reduced_rhs(),
                PcgConfig(rel_tol=1e-7),
            )
            assert report.converged
            its[(n_sub, corners_on)] = report.iterations
    ok = all(its[(ns, True)] <= its[(ns, False)] for ns in (8, 16))
    detail = "; ".join(
        f"{ns} subs: corners on {its[(ns, True)]}, off {its[(ns, False)]}"
        for ns in (8, 16)
    )
    record_criterion(10, "corner constraints pay off", ok, detail)
