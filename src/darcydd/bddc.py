"""Coarse-corrected substructure preconditioner for the interface problem.

The preconditioner combines independent substructure corrections with a
global coarse correction. Both are derived from a small set of interface
constraints per substructure: point constraints at selected corner dofs and
arithmetic averages over globs. The coarse basis functions are energy
minimizers subject to those constraints, and the coarse matrix is the
assembly of the substructure-local coarse energies.

Every local problem lives on the interface. With the explicit local Schur
complement ``S_i`` of :class:`~darcydd.subsolve.SubstructureOperator` and
the constraint matrix ``C_i``, each substructure factors one dense
``(n_gamma + n_c)`` saddle matrix ``[[-S_i, C_i^T], [C_i, 0]]``. It is the
constrained local saddle matrix ``[[K, D^T], [D, 0]]`` with the interior
unknowns eliminated exactly, so its interface and constraint rows solve the
same problems: the coarse basis, the local coarse matrix and the constrained
(Neumann) correction. :func:`constrained_inverse` inverts it explicitly,
once, and returns three blocks of the inverse: the interface block ``N_i``,
the coarse basis ``Phi_i`` and the local coarse matrix. Set-up inverts the
substructures one after another, in substructure order, keeps ``N_i`` and
``Phi_i`` and assembles the local coarse matrices into the coarse matrix,
which it factors last. An application of the preconditioner is
then two dense products per substructure, ``N_i r_i`` and ``Phi_i^T r_i``,
and one solve with the factored coarse matrix.

Sign conventions: each local saddle matrix has a negative semidefinite
interface energy, so the local coarse matrices are negative semidefinite
and their assembly is negative definite whenever any substructure touches a
natural boundary condition. The preconditioner negates the combined
corrections at the end, which makes its action symmetric positive definite
on the assembled interface space, matching the reduced operator.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps
from numpy.typing import NDArray

from .errors import (
    ConfigurationError,
    ConstraintDeficiencyError,
    SingularSystemError,
)
from .ldlt import factor_symmetric_indefinite
from .partition import InterfaceLayout
from .subsolve import SubstructureOperator


@dataclass
class ConstraintSet:
    """Per-substructure dense constraint matrices ``C_i`` (``n_c,i`` rows,
    ``n_gamma,i`` columns) with a shared coarse numbering.

    Row order is corners first (single unit entry each), then glob averages
    (unit entries over the glob members; scaling a row does not change the
    constrained space). ``coarse_ids[s]`` maps substructure ``s``'s rows to
    global coarse dof ids, shared across all substructures of a glob.
    """

    n_coarse: int
    n_corners: int
    matrices: list[NDArray]
    coarse_ids: list[NDArray[np.int64]]


def build_constraints(
    layout: InterfaceLayout,
    corners: list[int],
    edge_averages: bool = True,
) -> ConstraintSet:
    """Assemble the constraint rows for every substructure.

    ``corners`` lists global interface dof indices. Every face glob and
    (optionally) every edge glob contributes one average row, except globs
    whose dofs are all corners: their average would be linearly dependent
    on the corner rows. Vertex globs carry no average; with corner
    constraints disabled they are simply unconstrained.

    Raises :class:`ConfigurationError` for a corner id that is not an
    interface dof index, and :class:`ConstraintDeficiencyError` for a
    substructure that ends up with no constraints and no natural boundary
    condition; its local problem would have a floating pressure mode that
    nothing removes.
    """
    n_gamma = layout.n_interface
    corners = np.unique(np.asarray(corners, dtype=np.int64))
    outside = corners[(corners < 0) | (corners >= n_gamma)]
    if len(outside):
        raise ConfigurationError(
            f"corner id {outside[0]} is not an interface dof index "
            f"(0 to {n_gamma - 1})"
        )
    is_corner = np.zeros(n_gamma, dtype=bool)
    is_corner[corners] = True
    averaged = [
        g
        for g in layout.globs
        if (g.kind == "face" or g.kind == "edge" and edge_averages)
        and not is_corner[list(g.dofs)].all()
    ]
    # averages of substructure s, in glob order
    avg_of: list[list[int]] = [[] for _ in range(layout.partition.n_sub)]
    for k, g in enumerate(averaged):
        for s in g.sharing:
            avg_of[s].append(k)
    matrices: list[NDArray] = []
    coarse_ids: list[NDArray[np.int64]] = []
    for s, local in enumerate(layout.local_dofs):
        at = np.flatnonzero(is_corner[local])
        avg_ids = len(corners) + np.array(avg_of[s], dtype=np.int64)
        ids = np.concatenate([np.searchsorted(corners, local[at]), avg_ids])
        if not len(ids) and not layout.sub_has_natural[s]:
            raise ConstraintDeficiencyError(
                f"substructure {s} has no natural boundary condition and no "
                f"coarse constraints; its local problem keeps a floating "
                f"pressure mode"
            )
        c = np.zeros((len(ids), len(local)))
        c[np.arange(len(at)), at] = 1.0
        for row, k in enumerate(avg_of[s], len(at)):
            c[row, np.searchsorted(local, averaged[k].dofs)] = 1.0
        matrices.append(c)
        coarse_ids.append(ids)
    return ConstraintSet(
        n_coarse=len(corners) + len(averaged),
        n_corners=len(corners),
        matrices=matrices,
        coarse_ids=coarse_ids,
    )


def _symmetrized(block: NDArray, sub_id: int, what: str) -> NDArray:
    """``block`` made exactly symmetric, after checking that its symmetry
    defect is at rounding level."""
    defect = float(np.abs(block - block.T).max(initial=0.0))
    scale = max(1.0, float(np.abs(block).max(initial=0.0)))
    if defect > 1e-10 * scale:
        raise SingularSystemError(
            f"substructure {sub_id}: {what} symmetry defect {defect:.3e} "
            f"exceeds tolerance; constrained local solve is unreliable"
        )
    return 0.5 * (block + block.T)


def constrained_inverse(
    schur: NDArray, c: NDArray, sub_id: int
) -> tuple[NDArray, NDArray, NDArray]:
    """Invert one substructure's constrained saddle matrix
    ``[[-S_i, C_i^T], [C_i, 0]]`` once; returns ``N_i``, ``Phi_i`` and the
    local coarse matrix ``S_cc,i``.

    One solve against the identity gives the whole inverse. Its interface
    block is ``N_i``, which maps an interface residual to the constrained
    (Neumann) correction; its columns for the constraint rows hold the
    coarse basis on the interface rows and the local coarse matrix
    (negated) on the constraint rows.
    """
    n_g, nc = len(schur), len(c)
    aug = np.block([[-schur, c.T], [c, np.zeros((nc, nc))]])
    try:
        fact = factor_symmetric_indefinite(aug)
    except SingularSystemError as exc:
        raise ConstraintDeficiencyError(
            f"substructure {sub_id}: constrained local problem is "
            f"singular; its constraints do not remove every floating "
            f"pressure mode ({exc})"
        ) from exc
    x = fact.solve(np.eye(n_g + nc))
    neumann = _symmetrized(x[:n_g, :n_g], sub_id, "Neumann block")
    # a copy, so that the whole inverse is freed; "K" keeps the memory
    # layout that the products in ``apply`` see
    phi = x[:n_g, n_g:].copy(order="K")
    s_cc = _symmetrized(-x[n_g:, n_g:], sub_id, "coarse matrix")
    if float(np.abs(c @ phi - np.eye(nc)).max(initial=0.0)) > 1e-8:
        raise SingularSystemError(
            f"substructure {sub_id}: coarse basis does not satisfy its "
            f"defining constraints"
        )
    return neumann, phi, s_cc


class BddcPreconditioner:
    """Substructure corrections plus a coarse correction, SPD as an operator.

    Application: weight and restrict the residual to each substructure,
    apply the constrained local inverses, add the coarse component obtained
    from the assembled coarse matrix, weight again and scatter back, then
    negate. Both reductions accumulate in substructure order.

    Raises :class:`ConstraintDeficiencyError` when the assembled coarse
    matrix is singular or not negative definite: the coarse constraints
    are insufficient.
    """

    def __init__(
        self,
        subs: list[SubstructureOperator],
        layout: InterfaceLayout,
        weights: list[NDArray],
        constraints: ConstraintSet,
    ):
        if layout.n_interface == 0:
            raise ConfigurationError(
                "preconditioner needs a nonempty interface; "
                "use the direct solver for a single substructure"
            )
        self.n = layout.n_interface
        self.n_coarse = nc = constraints.n_coarse
        self.n_corners = constraints.n_corners
        ids = [constraints.coarse_ids[sub.sub_id] for sub in subs]
        inverses = [
            constrained_inverse(sub.schur, constraints.matrices[sub.sub_id], sub.sub_id)
            for sub in subs
        ]
        # what apply reads, per substructure
        self.local = [
            (sub.local_gamma, weights[sub.sub_id], n_i, phi, idx)
            for sub, (n_i, phi, _), idx in zip(subs, inverses, ids)
        ]
        self.coarse_matrix = sps.csr_matrix(
            (
                np.concatenate([s_cc.ravel() for _, _, s_cc in inverses]),
                (
                    np.concatenate([np.repeat(idx, len(idx)) for idx in ids]),
                    np.concatenate([np.tile(idx, len(idx)) for idx in ids]),
                ),
            ),
            shape=(nc, nc),
        )
        self.coarse_fact = None
        if nc == 0:
            return
        try:
            # dense, so that the inertia is available
            self.coarse_fact = factor_symmetric_indefinite(
                self.coarse_matrix.toarray()
            )
        except SingularSystemError as exc:
            raise ConstraintDeficiencyError(
                f"assembled coarse matrix is singular: constraints are "
                f"insufficient or no natural boundary condition exists "
                f"({exc})"
            ) from exc
        n_pos, n_neg, n_zero = self.coarse_fact.inertia
        if (n_pos, n_neg, n_zero) != (0, nc, 0):
            raise ConstraintDeficiencyError(
                f"assembled coarse matrix must be negative definite but has "
                f"inertia ({n_pos} positive, {n_neg} negative, {n_zero} "
                f"zero); constraints are insufficient or no natural "
                f"boundary condition exists"
            )

    def apply(self, r: NDArray) -> NDArray:
        """Preconditioned residual, positive definite in exact arithmetic."""
        etas = []
        r_c = np.zeros(self.n_coarse)
        for gamma, weights, n_i, phi, ids in self.local:
            r_i = weights * r[gamma]
            etas.append(n_i @ r_i)
            np.add.at(r_c, ids, phi.T @ r_i)
        eta_c = self.coarse_fact.solve(r_c) if self.n_coarse else np.zeros(0)
        out = np.zeros(self.n)
        for (gamma, weights, _, phi, ids), eta in zip(self.local, etas):
            np.subtract.at(out, gamma, weights * (eta + phi @ eta_c[ids]))
        return out
