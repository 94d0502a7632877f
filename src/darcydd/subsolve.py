"""Substructure-local multiplier problems and the reduced interface operator.

In the assembled saddle system the velocity-pressure block
``M = [[A, B^T], [B, -C]]`` is block diagonal by element: ``A`` couples one
element's own flux dofs, and the penalty ``C`` sits on the diagonal of the
lower-dimensional pressures. ``BlockSystem.element_inverse`` inverts every
element block once, batched per element dimension, and keeps the result for
recovery. With ``N = [B_F, -C_F]`` the rows of the multipliers, eliminating
velocities and pressures (hybridization) leaves the multiplier system

    -(C_T + N M^-1 N^T) lam = -N M^-1 [g; f],

whose matrix is negative definite. :func:`build_substructures` relabels the
rows of ``N`` so that every substructure gets its own copy of each
multiplier it touches: its interior multipliers first, ascending, then its
interface multipliers in ``layout.local_dofs`` order. A row of ``N`` goes to
the copy of the substructure owning the element of its column, and a
coupling link's penalty on ``C_T`` to the copy of its lower element's
substructure, the same one that receives the link's ``C_F`` entry. One
sparse product then gives the block-diagonal matrix of all substructures'
local multiplier problems, which sum to the global one. Each substructure's
``K_II``, ``K_IG``, ``K_GG`` and its interior and interface loads are cut
from that matrix and its load vector.

With the interior/interface splitting ``K = [[K_II, K_IG], [K_GI, K_GG]]``
of one substructure, the local interface contribution is the Schur
complement

    S_i = -(K_GG + K_GI W),   K_II W = -K_IG,

which is symmetric positive semidefinite; the assembled sum over
substructures is positive definite whenever some natural boundary condition
exists. It equals the Schur complement of the substructure's saddle-point
problem over its velocities, pressures and multipliers, because eliminating
interior unknowns in another order does not change it. The sign convention
keeps the reduced problem SPD so conjugate gradients applies unchanged.

:meth:`SubstructureOperator.factorize` does all interior work at set-up: it
factors the sparse ``K_II``, forms ``W`` and ``S_i`` (dense, ``n_gamma x
n_gamma``) from one multi-right-hand-side solve and, in a second solve,
``K_II^-1`` times the interior load, and then lets the factorization go.
Applying the interface operator is one dense matrix-vector product per
substructure, the preconditioner's local problems work on ``S_i`` alone,
the reduced right-hand side is a sum of stored shares, and the interior
multipliers of an interface trace ``x`` are ``K_II^-1 rhs_I + W x``.
:func:`recover_solution` then gets every velocity and pressure from
``M^-1 ([g; f] - N^T lam)``.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps
from numpy.typing import NDArray

from .assembly import BlockSystem, SolutionTriple
from .errors import ConfigurationError, SingularSystemError
from .ldlt import factor_symmetric_indefinite
from .partition import InterfaceLayout


def parallel_map(fn, items, threads: int = 1) -> list:
    """Map preserving order on a pool of at most ``threads`` workers that
    lives for this call only. Callers reduce the results in a fixed order,
    so the worker count never changes any output. Only set-up uses it:
    :func:`build_substructures` and the preconditioner's local inverses."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


@dataclass
class SubstructureOperator:
    """One substructure's interface coupling on its copies of the
    multipliers it touches, with its interior solved once at set-up."""

    sub_id: int
    interior_mults: NDArray[np.int64]  # global ids, ascending
    local_gamma: NDArray[np.int64]  # global interface indices, ascending
    k_ii: sps.csr_matrix
    k_ig: sps.csr_matrix
    k_gg: sps.csr_matrix
    rhs_interior: NDArray
    rhs_gamma: NDArray
    schur: NDArray | None = field(default=None, repr=False)
    w: NDArray | None = field(default=None, repr=False)  # -K_II^-1 K_IG
    lam_load: NDArray | None = field(default=None, repr=False)  # K_II^-1 rhs_I
    rhs_share: NDArray | None = field(default=None, repr=False)

    @property
    def n_gamma(self) -> int:
        return len(self.local_gamma)

    def factorize(self) -> None:
        """Factor ``K_II``, form ``W``, the dense local Schur complement and
        the interior load's solution, and drop the factorization."""
        try:
            fact = factor_symmetric_indefinite(self.k_ii)
        except SingularSystemError as exc:
            raise SingularSystemError(
                f"interior problem of substructure {self.sub_id} "
                f"is singular ({exc})"
            ) from exc
        w = fact.solve(-self.k_ig.toarray())
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
        self.w = w
        # a solve of its own, so that the load cannot change W or S_i
        self.lam_load = fact.solve(self.rhs_interior)
        self.rhs_share = self.k_ig.T @ self.lam_load - self.rhs_gamma

    def reduced_rhs(self) -> NDArray:
        """This substructure's share of the reduced right-hand side."""
        return self.rhs_share

    def recover(self, x_gamma: NDArray) -> NDArray:
        """Interior multipliers for a given local interface trace."""
        return self.lam_load + self.w @ x_gamma


def build_substructures(
    system: BlockSystem, layout: InterfaceLayout, threads: int = 1
) -> list[SubstructureOperator]:
    """Cut the per-substructure blocks from one block-diagonal multiplier
    matrix and solve every interior problem once."""
    dm = system.dof_map
    sides = system.mesh.sides
    part = layout.partition
    n_sub = part.n_sub
    assign = part.assignment
    empty = np.flatnonzero(part.sizes() == 0)
    if len(empty):
        raise ConfigurationError(f"substructure {empty[0]} is empty")
    n_l = dm.n_multiplier
    # Substructure of every interior multiplier, ``n_sub`` for interface
    # ones; every side of an interior multiplier lies in the one
    # substructure sharing it.
    mult_sub = np.empty(n_l, dtype=np.int64)
    has_mult = dm.side_mult >= 0
    mult_sub[dm.side_mult[has_mult]] = assign[sides.element[has_mult]]
    mult_sub[layout.interface_mults] = n_sub
    # the stable sort keeps each substructure's interior multipliers ascending
    by_sub = np.argsort(mult_sub, kind="stable")
    n_int = np.bincount(mult_sub, minlength=n_sub + 1)[:n_sub]
    interior = np.split(by_sub[: n_int.sum()], np.cumsum(n_int)[:-1])
    gamma = [layout.interface_mults[d] for d in layout.local_dofs]
    copy_mult = np.concatenate(
        [m for s in range(n_sub) for m in (interior[s], gamma[s])]
    )
    n_copy = len(copy_mult)
    off = np.concatenate([[0], np.cumsum(n_int + [len(g) for g in gamma])])
    key = np.repeat(np.arange(n_sub), np.diff(off)) * n_l + copy_mult
    order = np.argsort(key)

    def copy_of(sub: NDArray, mult: NDArray) -> NDArray:
        """Position of substructure ``sub``'s copy of multiplier ``mult``."""
        return order[np.searchsorted(key, sub * n_l + mult, sorter=order)]

    # substructure of every velocity and pressure, through its element
    up_sub = np.concatenate([assign[sides.element[dm.side_vel >= 0]], assign])
    n_mat = sps.hstack([system.b_f, -system.c_f], format="coo")
    n_tilde = sps.csr_matrix(
        (n_mat.data, (copy_of(up_sub[n_mat.col], n_mat.row), n_mat.col)),
        shape=(n_copy, n_mat.shape[1]),
    )
    # A link's penalty goes to the copy that receives its C_F entry, the
    # one of its lower element's substructure.
    c_f = system.c_f.tocoo()
    pen_copy = copy_of(assign[c_f.col], c_f.row)
    penalty = sps.csr_matrix(
        (system.c_t.diagonal()[c_f.row], (pen_copy, pen_copy)),
        shape=(n_copy, n_copy),
    )
    m_inv = system.element_inverse()
    k = n_tilde @ m_inv @ n_tilde.T + penalty
    # the sum of k and its transpose is exactly symmetric, as the symmetry
    # check of factor_symmetric_indefinite requires
    k = (-0.5 * (k + k.T)).tocsr()
    load = -(n_tilde @ (m_inv @ np.concatenate([system.g, system.f])))
    subs: list[SubstructureOperator] = []
    for s in range(n_sub):
        lo, mid, hi = off[s], off[s] + n_int[s], off[s + 1]
        rows = k[lo:mid]
        subs.append(
            SubstructureOperator(
                sub_id=s,
                interior_mults=interior[s],
                local_gamma=layout.local_dofs[s],
                k_ii=rows[:, lo:mid],
                k_ig=rows[:, mid:hi],
                k_gg=k[mid:hi][:, mid:hi],
                rhs_interior=load[lo:mid],
                rhs_gamma=load[mid:hi],
            )
        )
    parallel_map(lambda sub: sub.factorize(), subs, threads)
    return subs


class InterfaceOperator:
    """Assembled action of the reduced interface operator.

    Applies every substructure's local contribution and scatter-adds the
    results in substructure order, so the operator is deterministic for any
    worker count of set-up.
    """

    def __init__(self, subs: list[SubstructureOperator], layout: InterfaceLayout):
        self.subs = subs
        self.layout = layout
        self.n = layout.n_interface

    def apply(self, x: NDArray) -> NDArray:
        y = np.zeros(self.n)
        for sub in self.subs:
            np.add.at(y, sub.local_gamma, sub.schur @ x[sub.local_gamma])
        return y

    def reduced_rhs(self) -> NDArray:
        b = np.zeros(self.n)
        for sub in self.subs:
            np.add.at(b, sub.local_gamma, sub.reduced_rhs())
        return b


def recover_solution(
    system: BlockSystem,
    subs: list[SubstructureOperator],
    layout: InterfaceLayout,
    lam_gamma: NDArray,
) -> SolutionTriple:
    """Back-substitute the interior multipliers from the interface solution,
    then every velocity and pressure element by element."""
    lam = np.zeros(system.n_multiplier)
    lam[layout.interface_mults] = lam_gamma
    for sub in subs:
        lam[sub.interior_mults] = sub.recover(lam_gamma[sub.local_gamma])
    n_mat = sps.hstack([system.b_f, -system.c_f], format="csr")
    up = system.element_inverse() @ (
        np.concatenate([system.g, system.f]) - n_mat.T @ lam
    )
    return SolutionTriple(
        u=up[: system.n_velocity], p=up[system.n_velocity :], lam=lam
    )
