"""Substructure-local saddle problems and the reduced interface operator.

Each substructure owns the rows and columns of its elements: fluxes,
pressures, private multipliers (interior), plus its view of the shared
interface multipliers. Summing the local contributions over substructures
reproduces the global blocks exactly, because the local matrices are sliced
from the assembled system rather than re-integrated.

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
    k_ii: sps.csc_matrix
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
    """Slice the assembled blocks into per-substructure saddle problems and
    factor every interior matrix."""
    dm = system.dof_map
    part = layout.partition
    n_sub = part.n_sub
    interior_of: list[list[int]] = [[] for _ in range(n_sub)]
    for m, sharing in enumerate(layout.mult_sharing):
        if len(sharing) == 1:
            interior_of[sharing[0]].append(m)
    a = system.a.tocsr()
    b = system.b.tocsr()
    b_f = system.b_f.tocsr()
    c = system.c.tocsr()
    c_f = system.c_f.tocsr()
    c_t = system.c_t.tocsr()
    # A coupling link belongs to the substructure of its lower element; that
    # substructure already receives the link's pressure and cross entries
    # through column slicing. Giving it the multiplier penalty diagonal too
    # keeps each local contribution positive semidefinite and lets the sum
    # over substructures reproduce the assembled penalty exactly (an
    # interface multiplier is sliced into every sharer, so slicing c_t
    # would count its diagonal once per sharer).
    pen_val = np.zeros(dm.n_multiplier)
    pen_sub = np.full(dm.n_multiplier, -1, dtype=np.int64)
    for link in system.mesh.couplings:
        m = dm.mult_of_side[(link.upper_element, link.upper_local_face)]
        pen_val[m] += link.sigma * link.measure
        pen_sub[m] = part.assignment[link.lower_element]
    subs: list[SubstructureOperator] = []
    for s in range(n_sub):
        element_ids = part.elements_of(s)
        if len(element_ids) == 0:
            raise ConfigurationError(f"substructure {s} is empty")
        vel_ids = np.array(
            [
                v
                for e in element_ids
                for v in dm.element_vel[e]
                if v >= 0
            ],
            dtype=np.int64,
        )
        mults_i = np.array(interior_of[s], dtype=np.int64)
        gamma = layout.interface_mults[layout.local_dofs[s]]
        a_loc = a[vel_ids][:, vel_ids]
        b_loc = b[element_ids][:, vel_ids]
        bf_i = b_f[mults_i][:, vel_ids]
        bf_g = b_f[gamma][:, vel_ids]
        c_loc = c[element_ids][:, element_ids]
        cf_i = c_f[mults_i][:, element_ids]
        cf_g = c_f[gamma][:, element_ids]
        ct_ii = c_t[mults_i][:, mults_i]
        ct_ig = c_t[mults_i][:, gamma]
        ct_gg = sps.diags(
            np.where(pen_sub[gamma] == s, pen_val[gamma], 0.0),
            shape=(len(gamma), len(gamma)),
            format="csr",
        )
        k_ii = sps.bmat(
            [
                [a_loc, b_loc.T, bf_i.T],
                [b_loc, -c_loc, -cf_i.T],
                [bf_i, -cf_i, -ct_ii],
            ],
            format="csc",
        )
        k_ig = sps.bmat(
            [[bf_g.T], [-cf_g.T], [-ct_ig]], format="csr"
        )
        k_gg = (-ct_gg).tocsr()
        rhs = np.concatenate(
            [system.g[vel_ids], system.f[element_ids], np.zeros(len(mults_i))]
        )
        subs.append(
            SubstructureOperator(
                sub_id=s,
                element_ids=element_ids,
                vel_ids=vel_ids,
                interior_mults=mults_i,
                gamma_mults=gamma,
                local_gamma=layout.local_dofs[s],
                k_ii=k_ii,
                k_ig=k_ig,
                k_gg=k_gg,
                rhs_interior=rhs,
                n_u=len(vel_ids),
                n_p=len(element_ids),
                n_li=len(mults_i),
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
