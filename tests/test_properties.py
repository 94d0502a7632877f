"""Property tests of the substructured solve over drawn fracture problems.

Each example draws the fracture penalty, the three conductivities, the
number of substructures and the weight scheme for a cross-fracture cube,
and checks the solve against the direct solve, against itself on two
threads, and against per-element mass balance.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from darcydd.assembly import full_solve_direct, mass_balance_residual
from darcydd.krylov import PcgConfig, pcg
from darcydd.mesh import generate_cross_fracture_cube
from darcydd.partition import SCHEMES
from darcydd.subsolve import recover_solution

from support import build_pipeline, coupling_links

RTOL = 1e-10


def _log_uniform(lo: float, hi: float):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0**e)


def _substructured_solve(mesh, n_sub: int, scheme: str, threads: int):
    pipe = build_pipeline(mesh, n_sub, scheme=scheme, threads=threads)
    lam, report = pcg(
        pipe.op.apply, pipe.prec.apply, pipe.op.reduced_rhs(),
        PcgConfig(rel_tol=RTOL),
    )
    sol = recover_solution(pipe.system, pipe.subs, pipe.layout, lam)
    return pipe.system, sol, report


@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(
    sigma=_log_uniform(1.0, 1e7),
    k1=_log_uniform(1e-3, 1e3),
    k2=_log_uniform(1e-3, 1e3),
    k3=_log_uniform(1e-3, 1e3),
    n_sub=st.integers(2, 8),
    scheme=st.sampled_from(SCHEMES),
)
def test_substructured_solve_properties(sigma, k1, k2, k3, n_sub, scheme):
    mesh = generate_cross_fracture_cube(4, k1=k1, k2=k2, k3=k3, sigma=sigma)
    system, sol, report = _substructured_solve(mesh, n_sub, scheme, 1)
    x = sol.concatenated()
    ref = full_solve_direct(system).concatenated()
    # PCG bounds the reduced residual, not the error of the recovered
    # unknowns: at rel_tol 1e-10 the velocities of a draw with k = 1e3 lie
    # up to about 5e-8 from the direct solve (3e-10 at rel_tol 1e-12). A
    # stiff draw whose tolerance lies below the attainable accuracy stops
    # unconverged, and is held to the true residual it reached.
    reached = max(RTOL, report.true_residual)
    assert report.converged == (report.true_residual <= RTOL)
    assert np.abs(x - ref).max() <= 1e3 * reached * np.abs(ref).max()

    _, sol2, report2 = _substructured_solve(mesh, n_sub, scheme, 2)
    assert np.array_equal(sol2.concatenated(), x)
    assert (report2.iterations, report2.condition) == (
        report.iterations, report.condition,
    )

    # Velocities and pressures come from each element's own equations, so
    # balance holds to rounding, relative to the size of the balance terms
    # (the fluxes and the coupling inflows); rounding inside the element
    # solves grows with their conditioning.
    link_weight = max(link.sigma * link.measure for link in coupling_links(mesh))
    scale = max(
        np.abs(sol.u).max(),
        link_weight * max(np.abs(sol.lam).max(), np.abs(sol.p).max()),
    )
    assert mass_balance_residual(system, sol).max() <= 1e-10 * scale
