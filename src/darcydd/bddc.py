"""Coarse-corrected substructure preconditioner for the interface problem.

The preconditioner combines independent substructure corrections with a
global coarse correction. Both are derived from a small set of interface
constraints per substructure: point constraints at selected corner dofs and
one arithmetic average over every face and edge glob. The coarse basis
functions are energy minimizers subject to those constraints, and the
coarse matrix is the assembly of the substructure-local coarse energies.

Every local problem lives on the interface. With the explicit local Schur
complement ``S_i`` of :class:`~darcydd.subsolve.SubstructureGroup` and the
constraint matrix ``C_i``, each substructure's constrained problem is
the energy minimization ``min 1/2 x^T S_i x`` subject to ``C_i x = d``:
the constrained saddle matrix ``[[K, D^T], [D, 0]]`` with the interior
unknowns eliminated exactly, ``[[-S_i, C_i^T], [C_i, 0]]``. It gives the
coarse basis, the local coarse matrix and the constrained (Neumann)
correction. :func:`constrained_inverse` solves it once, on the null space
``Z`` of ``C_i``, and returns three blocks of the saddle matrix's inverse:
the interface block ``N_i``, the coarse basis ``Phi_i`` and the local
coarse matrix. ``-Z^T S_i Z`` is negative definite exactly when the
constraints remove every floating mode of ``S_i``, so its Cholesky
factorization certifies the local problem; no saddle matrix is formed.

Set-up splits each interface-size group of
:func:`~darcydd.subsolve.build_substructures` into its runs of consecutive
members with one constraint count ``n_c``. It solves each run's local
problems as one ``(m, n, n)`` stack, a view of the group's ``S_i`` stack,
whose members are exactly symmetric: one batched QR of the ``C_i^T`` and one
call of the dense Cholesky factorization, which factors each member with
its own LAPACK call. Each factor must pass a probe solve (backward error at
most 1e-12, or the member is refused as an unreliable constrained local
solve), and then ``N_i`` is the Gram form of one triangular solve and one
symmetric rank-k product per member, exactly symmetric, so each member's
blocks are those of its own run of one bit for bit. Each run keeps its
``N_i`` and ``Phi_i`` as one stack each. The local coarse
matrices are assembled, in substructure order, into the sparse coarse
matrix, which is factored last, by band Cholesky in reverse
Cuthill-McKee order (:func:`~darcydd.ldlt.factor_negative_definite`, the
band path that also factors the interior problems, with the coarse matrix
as one block): its success certifies that the coarse matrix is negative
definite. The
square-dense benchmark mesh has 64 substructures in three runs, so set-up
makes three local factorizations instead of 64, and one coarse one, whose
448 coarse dofs have a half-bandwidth of 67 in that order; the 16
substructures of the fracture-contrast mesh form 15 interface-size groups
and 16 runs, as its two substructures with 137 interface dofs have 41 and
40 constraints.

An application of the preconditioner gathers the weighted residual once,
in the groups' layout, and makes two batched products per run, ``N_i r_i``
and ``Phi_i^T r_i`` for every member at once, then one coarse solve (one
band solve) and one batched ``Phi_i`` product per run. Each product
is written into its place in a buffer in the group layout, kept from
set-up. The products go back to substructure order and are added with one
``np.bincount`` per reduction, which adds in exactly the order of a loop
over the substructures.

Sign conventions: each local problem has the negative semidefinite
interface energy ``-S_i``, so the local coarse matrices are negative
semidefinite and their assembly is negative definite whenever any
substructure touches a natural boundary condition. The preconditioner
negates the combined corrections at the end, which makes its action
symmetric positive definite on the assembled interface space, matching the
reduced operator.
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
from .ldlt import PROBE_LIMIT, factor_negative_definite, factor_symmetric_indefinite
from .partition import InterfaceLayout
from .subsolve import GroupLayout, Substructures, stacked_matvec


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


def build_constraints(layout: InterfaceLayout, corners: list[int]) -> ConstraintSet:
    """Assemble the constraint rows for every substructure.

    ``corners`` lists global interface dof indices. Every face glob and
    every edge glob contributes one average row, except globs whose dofs
    are all corners: their average would be linearly dependent on the
    corner rows. Vertex globs carry no average; with no corners they are
    simply unconstrained.

    Raises :class:`ConfigurationError` for a corner id that is not an
    interface dof index, and :class:`ConstraintDeficiencyError` for a
    substructure that ends up with no constraints and no natural boundary
    condition; its local problem would have a floating pressure mode that
    nothing removes.

    Every row comes from one set of (substructure, averaged glob) pairs and
    the corner dofs of the substructures' concatenated ``local_dofs``, and
    the matrices are views of one buffer.
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
    # every face and edge glob carries an average, unless all its dofs are
    # corners
    spanning = [g for g in layout.globs if g.kind != "vertex"]
    glob_size = np.array([len(g.dofs) for g in spanning], dtype=np.int64)
    glob_dofs = np.array([d for g in spanning for d in g.dofs], dtype=np.int64)
    owner = np.repeat(np.arange(len(spanning)), glob_size)
    keep = np.bincount(owner[~is_corner[glob_dofs]], minlength=len(spanning)) > 0
    averaged = [g for g, k in zip(spanning, keep.tolist()) if k]
    glob_dofs = glob_dofs[np.repeat(keep, glob_size)]
    glob_size = glob_size[keep]
    n_sub, n_corners = layout.partition.n_sub, len(corners)
    # every (substructure, interface dof) pair, by substructure, then dof
    sizes = np.array([len(v) for v in layout.local_dofs], dtype=np.int64)
    offset = np.cumsum(sizes) - sizes
    pair_sub = np.repeat(np.arange(n_sub), sizes)
    pair_gi = np.concatenate([np.zeros(0, dtype=np.int64), *layout.local_dofs])
    # corner rows: the pairs of corner dofs
    at = np.flatnonzero(is_corner[pair_gi])
    corner_sub = pair_sub[at]
    # average rows: one (substructure, averaged glob) pair per sharer, by
    # substructure, then glob
    n_sharers = np.array([len(g.sharing) for g in averaged], dtype=np.int64)
    avg_glob = np.repeat(np.arange(len(averaged)), n_sharers)
    avg_sub = np.array([s for g in averaged for s in g.sharing], dtype=np.int64)
    order = np.lexsort((avg_glob, avg_sub))
    avg_sub, avg_glob = avg_sub[order], avg_glob[order]
    n_corner_rows = np.bincount(corner_sub, minlength=n_sub)
    n_avg_rows = np.bincount(avg_sub, minlength=n_sub)
    n_rows = n_corner_rows + n_avg_rows
    bad = np.flatnonzero((n_rows == 0) & ~layout.sub_has_natural)
    if len(bad):
        raise ConstraintDeficiencyError(
            f"substructure {bad[0]} has no natural boundary condition and no "
            f"coarse constraints; its local problem keeps a floating "
            f"pressure mode"
        )
    # each substructure's rows: its corners in dof order, then its averages
    corner_row = _rank(corner_sub, n_corner_rows)
    avg_row = n_corner_rows[avg_sub] + _rank(avg_sub, n_avg_rows)
    row_start = np.cumsum(n_rows) - n_rows
    ids = np.empty(int(n_rows.sum()), dtype=np.int64)
    ids[row_start[corner_sub] + corner_row] = np.searchsorted(corners, pair_gi[at])
    ids[row_start[avg_sub] + avg_row] = n_corners + avg_glob
    # one unit entry per corner row and per member of each averaged glob,
    # its column found by one search of the ascending pair keys
    glob_start = np.cumsum(glob_size) - glob_size
    count = glob_size[avg_glob]
    entry = np.repeat(np.arange(len(avg_sub)), count)
    dof = glob_dofs[glob_start[avg_glob][entry] + _rank(entry, count)]
    sub = avg_sub[entry]
    pos = np.searchsorted(pair_sub * n_gamma + pair_gi, sub * n_gamma + dof)
    row = np.concatenate((corner_row, avg_row[entry]))
    sub = np.concatenate((corner_sub, sub))
    col = np.concatenate((at, pos)) - offset[sub]
    # all matrices in one buffer, each C-ordered
    base = np.cumsum(n_rows * sizes) - n_rows * sizes
    flat = np.zeros(int((n_rows * sizes).sum()))
    flat[base[sub] + row * sizes[sub] + col] = 1.0
    return ConstraintSet(
        n_coarse=n_corners + len(averaged),
        n_corners=n_corners,
        matrices=[
            flat[b : b + r * c].reshape(r, c)
            for b, r, c in zip(base.tolist(), n_rows.tolist(), sizes.tolist())
        ],
        coarse_ids=[ids[a : a + r] for a, r in zip(row_start.tolist(), n_rows.tolist())],
    )


def _rank(groups: NDArray, counts: NDArray) -> NDArray[np.int64]:
    """The rank of every item within its group, for items sorted by group
    and ``counts`` items per group."""
    return np.arange(len(groups)) - (np.cumsum(counts) - counts)[groups]


def _symmetrized(blocks: NDArray, sub_ids: list[int]) -> NDArray:
    """A stack of local coarse matrices, each made exactly symmetric, after
    checking that every member's symmetry defect is at rounding level."""
    flipped = blocks.transpose(0, 2, 1)
    defect = np.abs(blocks - flipped).max(axis=(1, 2), initial=0.0)
    scale = np.abs(blocks).max(axis=(1, 2), initial=1.0)
    for j in np.flatnonzero(defect > 1e-10 * scale):
        raise SingularSystemError(
            f"substructure {sub_ids[j]}: coarse matrix symmetry defect "
            f"{defect[j]:.3e} exceeds tolerance; constrained local solve is "
            f"unreliable"
        )
    return 0.5 * (blocks + flipped)


def constrained_inverse(
    schurs: NDArray, cs: NDArray, sub_ids: list[int]
) -> tuple[NDArray, NDArray, NDArray]:
    """Solve the constrained local problems of a group of substructures
    with one interface size ``n_gamma`` and one constraint count ``n_c`` on
    the null spaces of their constraints; returns the stacks of ``N_i``,
    ``Phi_i`` and the local coarse matrices ``S_cc,i``.

    ``schurs`` holds the members' ``S_i`` and ``cs`` their ``C_i``, each a
    stack or a sequence of the members' matrices, and ``sub_ids`` names the
    members in errors; one substructure is a group of one. The complete QR
    ``C_i^T = [Q1 Z][R1; 0]`` gives ``C^+ = Q1 R1^-T``, a right inverse of
    ``C_i``, and an orthonormal basis ``Z`` of its null space. One
    Cholesky factorization ``-A_i = L_i L_i^T`` of the stack of ``A_i =
    -Z^T S_i Z`` then gives ``N_i = Z A_i^-1 Z^T = -(L_i^-1 Z^T)^T (L_i^-1
    Z^T)``, which maps an interface residual to the constrained (Neumann)
    correction, as an exactly symmetric Gram form (one ``dtrsm`` and one
    ``dsyrk`` per member), and the coarse basis ``Phi_i = C^+ + N_i S_i
    C^+``; ``S_cc,i = -Phi_i^T S_i Phi_i``. These are the blocks of the
    inverse of ``[[-S_i, C_i^T], [C_i, 0]]``.

    Raises :class:`ConstraintDeficiencyError` naming the first member whose
    constraint rows are linearly dependent (an ``R1`` diagonal entry at or
    below ``n_gamma eps`` times its row's norm) or whose ``A_i`` the
    Cholesky factorization does not certify negative definite: its
    constraints leave a floating mode of ``S_i``. Raises
    :class:`SingularSystemError` naming the first member whose factor fails
    its probe, an unrefined solve against ``A_i 1`` whose backward error
    must be at most 1e-12, whose ``S_cc,i`` is not symmetric to rounding
    level, or whose ``Phi_i`` does not meet its constraints.
    """
    schurs, cs = np.asarray(schurs), np.asarray(cs)
    nc, n_g = cs.shape[1:]
    q, r = np.linalg.qr(cs.transpose(0, 2, 1), mode="complete")
    r1 = r[:, :nc]
    pivots = np.abs(np.diagonal(r1, axis1=1, axis2=2))
    dependent = pivots <= n_g * np.finfo(float).eps * np.linalg.norm(cs, axis=2)
    for j in np.flatnonzero(dependent.any(axis=1)):
        raise ConstraintDeficiencyError(
            f"substructure {sub_ids[j]}: constrained local problem is "
            f"singular; its constraint rows are linearly dependent"
        )
    # C^+ = Q1 R1^-T, from R1 C^+^T = Q1^T: an upper triangular R1 takes no
    # row exchanges, so this is the triangular solve
    c_plus = np.linalg.solve(r1, q[:, :, :nc].transpose(0, 2, 1)).transpose(0, 2, 1)
    z = q[:, :, nc:]
    a = z.transpose(0, 2, 1) @ schurs @ z
    a = -0.5 * (a + a.transpose(0, 2, 1))
    try:
        fact = factor_symmetric_indefinite(a)
    except SingularSystemError as exc:
        raise ConstraintDeficiencyError(
            f"substructure {sub_ids[exc.member]}: constrained local problem "
            f"is singular; its constraints do not remove every floating "
            f"pressure mode ({exc})"
        ) from exc
    for j, err in enumerate(fact.probe()):
        if err > PROBE_LIMIT:
            raise SingularSystemError(
                f"substructure {sub_ids[j]}: backward error {err:.3e} of a "
                f"probe solve exceeds {PROBE_LIMIT:.0e}; constrained local "
                f"solve is unreliable"
            )
    # N_i = Z A_i^-1 Z^T = -Z (-A_i)^-1 Z^T, exactly symmetric
    neumann = np.negative(fact.inverse_forms(z.transpose(0, 2, 1)))
    del a, fact
    phi = c_plus + neumann @ (schurs @ c_plus)
    s_cc = _symmetrized(-(phi.transpose(0, 2, 1) @ (schurs @ phi)), sub_ids)
    defect = np.abs(cs @ phi - np.eye(nc)).max(axis=(1, 2), initial=0.0)
    for j in np.flatnonzero(defect > 1e-8):
        raise SingularSystemError(
            f"substructure {sub_ids[j]}: coarse basis does not satisfy its "
            f"defining constraints"
        )
    return neumann, phi, s_cc


@dataclass
class LocalGroup:
    """A run of consecutive members of one interface-size group with one
    constraint count, with their constrained local inverses as one stack
    each."""

    members: NDArray[np.int64]  # substructure ids, ascending
    neumann: NDArray  # N_i, (m, n_gamma, n_gamma)
    phi: NDArray  # Phi_i, (m, n_gamma, n_c)
    block: slice  # the members' entries in the interface group layout


class BddcPreconditioner:
    """Substructure corrections plus a coarse correction, SPD as an operator.

    Set-up splits each interface-size group into runs of consecutive members
    with one constraint count and solves each run's constrained local
    problems as one stack; the run's ``N_i`` and ``Phi_i`` stay as one
    stack each.

    Application: weight and restrict the residual to each substructure,
    apply the constrained local inverses, add the coarse component obtained
    from the band Cholesky factor of the assembled coarse matrix, weight
    again and scatter back, then negate. The residual is gathered once,
    through the interface layout of set-up, and each run applies its stacks
    in batched products into buffers kept from set-up; both reductions
    accumulate in substructure order.

    Raises :class:`ConstraintDeficiencyError` when the band Cholesky
    factorization of the assembled coarse matrix fails, because it is
    singular or not negative definite: the coarse constraints are
    insufficient.
    """

    def __init__(
        self,
        subs: Substructures,
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
        ids = constraints.coarse_ids
        n_rows = np.array([len(i) for i in ids])
        # what apply reads: the runs' stacks, in the groups' order
        self.groups: list[LocalGroup] = []
        s_cc = [None] * len(ids)
        for grp, block in zip(subs.groups, subs.gamma.blocks):
            n_g = grp.schurs.shape[1]
            cut = (np.flatnonzero(np.diff(n_rows[grp.members])) + 1).tolist()
            for a, b in zip([0, *cut], [*cut, len(grp.members)]):
                members = grp.members[a:b]
                sub_ids = members.tolist()
                neumann, phi, s_cc_run = constrained_inverse(
                    grp.schurs[a:b], [constraints.matrices[s] for s in sub_ids], sub_ids
                )
                at = slice(block.start + a * n_g, block.start + b * n_g)
                self.groups.append(LocalGroup(members, neumann, phi, at))
                for s, local in zip(sub_ids, s_cc_run):
                    s_cc[s] = local
        self.gamma = subs.gamma
        members = [g.members for g in self.groups]
        self.coarse = GroupLayout(ids, members, nc)
        self.weights = np.concatenate([weights[s] for s in np.concatenate(members)])
        self.coarse_matrix = sps.csr_matrix(
            (
                np.concatenate([block.ravel() for block in s_cc]),
                (
                    np.concatenate([np.repeat(idx, len(idx)) for idx in ids]),
                    np.concatenate([np.tile(idx, len(idx)) for idx in ids]),
                ),
            ),
            shape=(nc, nc),
        )
        # apply's products, in the group layouts
        self._r_w = np.empty(len(self.weights))
        self._eta = np.empty(len(self.weights))
        self._phi_e = np.empty(len(self.weights))
        self._r_c = np.empty(len(self.coarse.index))
        self.coarse_fact = None
        if nc == 0:
            return
        try:
            self.coarse_fact = factor_negative_definite(self.coarse_matrix)
        except SingularSystemError as exc:
            raise ConstraintDeficiencyError(
                f"assembled coarse matrix is not negative definite: "
                f"constraints are insufficient or no natural boundary "
                f"condition exists ({exc})"
            ) from exc

    def apply(self, r: NDArray) -> NDArray:
        """Preconditioned residual, positive definite in exact arithmetic.

        Every product is written into its place in a buffer in the group
        layout, kept from set-up, in the same arithmetic order as a loop
        over the substructures; the coarse solve is one band solve with
        the band Cholesky factor. Not reentrant: concurrent calls would
        share the buffers.
        """
        r_w, eta, phi_e, r_c = self._r_w, self._eta, self._phi_e, self._r_c
        np.take(r, self.gamma.gather, out=r_w)
        r_w *= self.weights
        for grp, at_c in zip(self.groups, self.coarse.blocks):
            stacked_matvec(grp.neumann, r_w[grp.block], out=eta[grp.block])
            stacked_matvec(grp.phi.transpose(0, 2, 1), r_w[grp.block], out=r_c[at_c])
        r_c = self.coarse.scatter(r_c)
        eta_c = self.coarse_fact.solve(r_c) if self.n_coarse else np.zeros(0)
        e_c = eta_c[self.coarse.gather]
        for grp, at_c in zip(self.groups, self.coarse.blocks):
            stacked_matvec(grp.phi, e_c[at_c], out=phi_e[grp.block])
        z = np.add(eta, phi_e, out=eta)
        z *= self.weights
        # subtracting each substructure's share is adding its negation
        return self.gamma.scatter(np.negative(z, out=z))
