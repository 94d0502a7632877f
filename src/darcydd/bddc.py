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
(Neumann) correction. Set-up inverts it explicitly, once, and keeps three
blocks of the inverse: the interface block ``N_i``, the coarse basis
``Phi_i`` and the local coarse matrix. An application of the preconditioner
is then two dense products per substructure, ``N_i r_i`` and
``Phi_i^T r_i``, and one solve with the factored coarse matrix.

Sign conventions: each local saddle matrix has a negative semidefinite
interface energy, so the local coarse matrices are negative semidefinite
and their assembly is negative definite whenever any substructure touches a
natural boundary condition. The preconditioner negates the combined
corrections at the end, which makes its action symmetric positive definite
on the assembled interface space, matching the reduced operator.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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
from .subsolve import SubstructureOperator, parallel_map


@dataclass
class ConstraintSet:
    """Per-substructure constraint matrices with a shared coarse numbering.

    Row order is corners first (single unit entry each), then glob averages
    (unit entries over the glob members; scaling a row does not change the
    constrained space). ``coarse_ids[s]`` maps substructure ``s``'s rows to
    global coarse dof ids, shared across all substructures of a glob.
    """

    n_coarse: int
    n_corners: int
    matrices: list[sps.csr_matrix]
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

    Raises :class:`ConstraintDeficiencyError` for a substructure that ends
    up with no constraints and no natural boundary condition; its local
    problem would have a floating pressure mode that nothing removes.
    """
    corners = sorted(set(int(c) for c in corners))
    corner_set = set(corners)
    corner_rank = {c: k for k, c in enumerate(corners)}
    n_sub = layout.partition.n_sub
    avg_id: dict[int, int] = {}
    next_id = len(corners)
    for k, glob in enumerate(layout.globs):
        if glob.kind == "vertex":
            continue
        if glob.kind == "edge" and not edge_averages:
            continue
        if all(d in corner_set for d in glob.dofs):
            continue
        avg_id[k] = next_id
        next_id += 1

    matrices: list[sps.csr_matrix] = []
    coarse_ids: list[NDArray[np.int64]] = []
    for s in range(n_sub):
        local = layout.local_dofs[s]
        pos = {int(g): i for i, g in enumerate(local)}
        rows: list[int] = []
        cols: list[int] = []
        ids: list[int] = []
        for c in corners:
            if c in pos:
                rows.append(len(ids))
                cols.append(pos[c])
                ids.append(corner_rank[c])
        for k, glob in enumerate(layout.globs):
            if k not in avg_id or s not in glob.sharing:
                continue
            r = len(ids)
            for d in glob.dofs:
                rows.append(r)
                cols.append(pos[d])
            ids.append(avg_id[k])
        if not ids and not layout.sub_has_natural[s]:
            raise ConstraintDeficiencyError(
                f"substructure {s} has no natural boundary condition and no "
                f"coarse constraints; its local problem keeps a floating "
                f"pressure mode"
            )
        matrices.append(
            sps.csr_matrix(
                (np.ones(len(rows)), (rows, cols)), shape=(len(ids), len(local))
            )
        )
        coarse_ids.append(np.array(ids, dtype=np.int64))
    return ConstraintSet(
        n_coarse=next_id,
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


@dataclass
class SubCorrector:
    """One substructure's constrained local inverse and coarse basis."""

    sub: SubstructureOperator
    weights: NDArray
    d: sps.csr_matrix
    coarse_ids: NDArray[np.int64]
    neumann: NDArray = field(repr=False, default=None)
    phi: NDArray = field(repr=False, default=None)
    s_cc: NDArray = field(repr=False, default=None)

    @property
    def n_constraints(self) -> int:
        return self.d.shape[0]

    def build(self) -> None:
        """Invert the interface-sized constrained saddle matrix once.

        One solve against the identity gives the whole inverse. Its
        interface block is ``N_i``, which maps an interface residual to the
        constrained (Neumann) correction; its columns for the constraint
        rows hold the coarse basis on the interface rows and the local
        coarse matrix (negated) on the constraint rows.
        """
        sub = self.sub
        n_g, nc = sub.n_gamma, self.n_constraints
        c = self.d.toarray()
        aug = np.block([[-sub.schur, c.T], [c, np.zeros((nc, nc))]])
        try:
            fact = factor_symmetric_indefinite(aug)
        except SingularSystemError as exc:
            raise ConstraintDeficiencyError(
                f"substructure {sub.sub_id}: constrained local problem is "
                f"singular; its constraints do not remove every floating "
                f"pressure mode ({exc})"
            ) from exc
        x = fact.solve(np.eye(n_g + nc))
        self.neumann = _symmetrized(x[:n_g, :n_g], sub.sub_id, "Neumann block")
        self.phi = x[:n_g, n_g:]
        self.s_cc = _symmetrized(-x[n_g:, n_g:], sub.sub_id, "coarse matrix")
        interp = self.d @ self.phi - np.eye(nc)
        if float(np.abs(interp).max(initial=0.0)) > 1e-8:
            raise SingularSystemError(
                f"substructure {sub.sub_id}: coarse basis does not satisfy "
                f"its defining constraints"
            )


class BddcPreconditioner:
    """Substructure corrections plus a coarse correction, SPD as an operator.

    Application: weight and restrict the residual to each substructure,
    apply the constrained local inverses, add the coarse component obtained
    from the assembled coarse matrix, weight again and scatter back, then
    negate. The local inverses are built concurrently at set-up; both
    reductions accumulate in substructure order so results do not depend on
    the worker count.

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
        threads: int = 1,
    ):
        if layout.n_interface == 0:
            raise ConfigurationError(
                "preconditioner needs a nonempty interface; "
                "use the direct solver for a single substructure"
            )
        self.layout = layout
        self.n = layout.n_interface
        self.n_coarse = constraints.n_coarse
        self.n_corners = constraints.n_corners
        self.correctors = [
            SubCorrector(
                sub=sub,
                weights=weights[sub.sub_id],
                d=constraints.matrices[sub.sub_id],
                coarse_ids=constraints.coarse_ids[sub.sub_id],
            )
            for sub in subs
        ]
        parallel_map(lambda c: c.build(), self.correctors, threads)
        self._assemble_coarse()

    def _assemble_coarse(self) -> None:
        nc = self.n_coarse
        rows: list[NDArray] = []
        cols: list[NDArray] = []
        vals: list[NDArray] = []
        for corr in self.correctors:
            idx = corr.coarse_ids
            if len(idx) == 0:
                continue
            ii, jj = np.meshgrid(idx, idx, indexing="ij")
            rows.append(ii.ravel())
            cols.append(jj.ravel())
            vals.append(corr.s_cc.ravel())
        if nc == 0:
            self.coarse_matrix = sps.csr_matrix((0, 0))
            self.coarse_fact = None
            return
        self.coarse_matrix = sps.csr_matrix(
            (
                np.concatenate(vals),
                (np.concatenate(rows), np.concatenate(cols)),
            ),
            shape=(nc, nc),
        )
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
        for corr in self.correctors:
            r_i = corr.weights * r[corr.sub.local_gamma]
            etas.append(corr.neumann @ r_i)
            np.add.at(r_c, corr.coarse_ids, corr.phi.T @ r_i)
        eta_c = (
            self.coarse_fact.solve(r_c) if self.n_coarse else np.zeros(0)
        )
        out = np.zeros(self.n)
        for corr, eta in zip(self.correctors, etas):
            comb = corr.weights * (eta + corr.phi @ eta_c[corr.coarse_ids])
            np.subtract.at(out, corr.sub.local_gamma, comb)
        return out
