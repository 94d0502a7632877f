"""Substructure-local saddle problems and the reduced interface operator.

Each substructure owns the rows and columns of its elements: fluxes,
pressures, private multipliers (interior), plus its view of the shared
interface multipliers. Summing the local contributions over substructures
reproduces the global blocks exactly, because the local matrices are cut
from the assembled system rather than re-integrated.

:func:`build_substructures` orders the dofs once, every substructure's
interior dofs (velocities, pressures, private multipliers, each ascending)
as one contiguous range followed by all interface multipliers, and permutes
the assembled matrix once. ``K_II`` of a substructure is then its diagonal
block of the permuted matrix, and ``K_IG`` the same rows restricted to the
columns of the interface multipliers it sees. ``K_II`` stays sparse and is
factored by a sparse LU.

With the interior/interface splitting ``K = [[K_II, K_IG], [K_GI, K_GG]]``
of one substructure (``K_GG`` is minus its penalty diagonal), the local
interface contribution is the Schur complement

    S_i = -(K_GG + K_GI W),   K_II W = -K_IG,

which is symmetric positive semidefinite; the assembled sum over
substructures is positive definite whenever some natural boundary condition
exists. The sign convention keeps the reduced problem SPD so conjugate
gradients applies unchanged.

:meth:`SubstructureOperator.factorize` factors ``K_II`` once and forms
``S_i`` explicitly, as a dense ``n_gamma x n_gamma`` matrix, from one
multi-right-hand-side solve; applying the interface operator is then one
dense matrix-vector product per substructure, and the preconditioner's
local problems work on ``S_i`` alone. The interior factorization stays for
the reduced right-hand side and for recovering the interior unknowns.
"""
from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps
from numpy.typing import NDArray

from .assembly import BlockSystem, SolutionTriple
from .errors import ConfigurationError, SingularSystemError
from .ldlt import IndefiniteFactorization, factor_symmetric_indefinite
from .mesh import coupled_sides
from .partition import InterfaceLayout


_EXECUTORS: dict[int, ThreadPoolExecutor] = {}
_EXECUTORS_LOCK = threading.Lock()


def _executor(threads: int) -> ThreadPoolExecutor:
    """The process-wide pool of ``threads`` workers, created on first use
    and kept, so that PCG iterations start no threads."""
    with _EXECUTORS_LOCK:
        if threads not in _EXECUTORS:
            _EXECUTORS[threads] = ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix=f"darcydd-{threads}"
            )
        return _EXECUTORS[threads]


def parallel_map(fn, items, threads: int = 1) -> list:
    """Map preserving order; results are reduced by the caller in a fixed
    order, so the worker count never changes any output. ``fn`` must not
    call ``parallel_map`` itself: it would wait on its own pool."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    return list(_executor(threads).map(fn, items))


@dataclass
class SubstructureOperator:
    """One substructure's interior factorization and interface coupling."""

    sub_id: int
    element_ids: NDArray[np.int64]
    vel_ids: NDArray[np.int64]
    interior_mults: NDArray[np.int64]
    gamma_mults: NDArray[np.int64]
    local_gamma: NDArray[np.int64]  # global interface indices, ascending
    k_ii: sps.csr_matrix
    k_ig: sps.csr_matrix
    k_gg: sps.csr_matrix
    rhs_interior: NDArray
    n_u: int
    n_p: int
    n_li: int
    fact: IndefiniteFactorization | None = field(default=None, repr=False)
    schur: NDArray | None = field(default=None, repr=False)

    @property
    def n_interior(self) -> int:
        return self.n_u + self.n_p + self.n_li

    @property
    def n_gamma(self) -> int:
        return len(self.local_gamma)

    def factorize(self) -> None:
        """Factor ``K_II`` and form the dense local Schur complement."""
        try:
            self.fact = factor_symmetric_indefinite(self.k_ii)
        except SingularSystemError as exc:
            raise SingularSystemError(
                f"interior problem of substructure {self.sub_id} "
                f"is singular ({exc})"
            ) from exc
        w = self.fact.solve(-self.k_ig.toarray())
        schur = -(self.k_gg.toarray() + self.k_ig.T @ w)
        defect = float(np.abs(schur - schur.T).max(initial=0.0))
        scale = float(np.abs(schur).max(initial=0.0))
        if defect > 1e-10 * scale:
            raise SingularSystemError(
                f"substructure {self.sub_id}: local Schur complement symmetry "
                f"defect {defect:.3e} exceeds tolerance; interior solve is "
                f"unreliable"
            )
        self.schur = 0.5 * (schur + schur.T)

    def interior_solve(self, rhs: NDArray) -> NDArray:
        if self.fact is None:
            self.factorize()
        return self.fact.solve(rhs)

    def schur_apply(self, x: NDArray) -> NDArray:
        """Local interface operator action, SPD convention."""
        if self.schur is None:
            self.factorize()
        return self.schur @ x

    def reduced_rhs(self) -> NDArray:
        """This substructure's share of the reduced right-hand side."""
        w = self.interior_solve(self.rhs_interior)
        return self.k_ig.T @ w

    def recover(self, x_gamma: NDArray) -> tuple[NDArray, NDArray, NDArray]:
        """Interior unknowns for a given local interface trace."""
        sol = self.interior_solve(self.rhs_interior - self.k_ig @ x_gamma)
        return (
            sol[: self.n_u],
            sol[self.n_u : self.n_u + self.n_p],
            sol[self.n_u + self.n_p :],
        )


def build_substructures(
    system: BlockSystem, layout: InterfaceLayout, threads: int = 1
) -> list[SubstructureOperator]:
    """Cut the per-substructure blocks from one permuted copy of the
    assembled matrix and factor every interior matrix."""
    dm = system.dof_map
    mesh = system.mesh
    part = layout.partition
    n_sub = part.n_sub
    assign = part.assignment
    empty = np.flatnonzero(part.sizes() == 0)
    if len(empty):
        raise ConfigurationError(f"substructure {empty[0]} is empty")
    sides = mesh.sides
    n_u, n_p = dm.n_velocity, dm.n_pressure
    # Substructure of every dof; interface multipliers get ``n_sub``. Sides
    # run in (element, local face) order, as velocity ids do, and every
    # side of an interior multiplier lies in the one substructure sharing it.
    mult_sub = np.empty(dm.n_multiplier, dtype=np.int64)
    has_mult = dm.side_mult >= 0
    mult_sub[dm.side_mult[has_mult]] = assign[sides.element[has_mult]]
    mult_sub[layout.interface_mults] = n_sub
    dof_sub = np.concatenate(
        [assign[sides.element[dm.side_vel >= 0]], assign, mult_sub]
    )
    # A stable sort keeps velocities, pressures and interior multipliers of
    # each substructure in that order and ascending, and the interface
    # multipliers in ``layout.interface_mults`` order.
    perm = np.argsort(dof_sub, kind="stable")
    off = np.concatenate(
        [[0], np.cumsum(np.bincount(dof_sub, minlength=n_sub + 1))]
    )
    n_int = off[n_sub]
    rows = system.full_matrix()[perm[:n_int]][:, perm]
    rhs_all = system.full_rhs()[perm[:n_int]]
    # A coupling link belongs to the substructure of its lower element; that
    # substructure already receives the link's pressure and cross entries
    # from its rows of the full matrix. Giving it the multiplier penalty
    # diagonal too keeps each local contribution positive semidefinite and
    # lets the sum over substructures reproduce the assembled penalty
    # exactly (an interface multiplier is seen by every sharer, so taking
    # c_t's diagonal would count it once per sharer). Each coupled side
    # owns its multiplier, so no two links write the same entry.
    at = coupled_sides(mesh)
    pen_mult = dm.side_mult[at]
    pen_val = np.zeros(dm.n_multiplier)
    pen_val[pen_mult] = np.fromiter(
        (link.sigma * link.measure for link in mesh.couplings),
        dtype=float,
        count=len(at),
    )
    pen_sub = np.full(dm.n_multiplier, -1, dtype=np.int64)
    pen_sub[pen_mult] = assign[sides.lower[at]]
    subs: list[SubstructureOperator] = []
    for s in range(n_sub):
        lo, hi = int(off[s]), int(off[s + 1])
        dofs = perm[lo:hi]
        n_us = int(np.searchsorted(dofs, n_u))
        n_ps = int(np.searchsorted(dofs, n_u + n_p)) - n_us
        gamma = layout.interface_mults[layout.local_dofs[s]]
        block = rows[lo:hi]
        k_gg = sps.diags(
            -np.where(pen_sub[gamma] == s, pen_val[gamma], 0.0),
            shape=(len(gamma), len(gamma)),
            format="csr",
        )
        subs.append(
            SubstructureOperator(
                sub_id=s,
                element_ids=dofs[n_us : n_us + n_ps] - n_u,
                vel_ids=dofs[:n_us],
                interior_mults=dofs[n_us + n_ps :] - (n_u + n_p),
                gamma_mults=gamma,
                local_gamma=layout.local_dofs[s],
                k_ii=block[:, lo:hi],
                k_ig=block[:, n_int + layout.local_dofs[s]],
                k_gg=k_gg,
                rhs_interior=rhs_all[lo:hi],
                n_u=n_us,
                n_p=n_ps,
                n_li=hi - lo - n_us - n_ps,
            )
        )
    parallel_map(lambda sub: sub.factorize(), subs, threads)
    return subs


class InterfaceOperator:
    """Assembled action of the reduced interface operator.

    Applies every substructure's local contribution and scatter-adds the
    results in substructure order, so the operator is deterministic for any
    worker count.
    """

    def __init__(
        self,
        subs: list[SubstructureOperator],
        layout: InterfaceLayout,
        threads: int = 1,
    ):
        self.subs = subs
        self.layout = layout
        self.threads = threads
        self.n = layout.n_interface

    def apply(self, x: NDArray) -> NDArray:
        locals_ = parallel_map(
            lambda sub: sub.schur_apply(x[sub.local_gamma]), self.subs, self.threads
        )
        y = np.zeros(self.n)
        for sub, yl in zip(self.subs, locals_):
            np.add.at(y, sub.local_gamma, yl)
        return y

    def reduced_rhs(self) -> NDArray:
        locals_ = parallel_map(
            lambda sub: sub.reduced_rhs(), self.subs, self.threads
        )
        b = np.zeros(self.n)
        for sub, bl in zip(self.subs, locals_):
            np.add.at(b, sub.local_gamma, bl)
        return b

    def to_dense(self) -> NDArray:
        """Assemble the dense operator column by column (testing aid)."""
        cols = []
        for j in range(self.n):
            e = np.zeros(self.n)
            e[j] = 1.0
            cols.append(self.apply(e))
        return np.column_stack(cols) if cols else np.zeros((0, 0))


def recover_solution(
    system: BlockSystem,
    subs: list[SubstructureOperator],
    layout: InterfaceLayout,
    lam_gamma: NDArray,
    threads: int = 1,
) -> SolutionTriple:
    """Back-substitute interior unknowns from the interface solution."""
    u = np.zeros(system.n_velocity)
    p = np.zeros(system.n_pressure)
    lam = np.zeros(system.n_multiplier)
    lam[layout.interface_mults] = lam_gamma
    parts = parallel_map(
        lambda sub: sub.recover(lam_gamma[sub.local_gamma]), subs, threads
    )
    for sub, (u_loc, p_loc, lam_i) in zip(subs, parts):
        u[sub.vel_ids] = u_loc
        p[sub.element_ids] = p_loc
        lam[sub.interior_mults] = lam_i
    return SolutionTriple(u=u, p=p, lam=lam)
