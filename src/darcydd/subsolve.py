"""Substructure-local multiplier problems and the reduced interface operator.

In the assembled saddle system the velocity-pressure block
``M = [[A, B^T], [B, -C]]`` is block diagonal by element: ``A`` couples one
element's own flux dofs, and the penalty ``C`` sits on the diagonal of the
lower-dimensional pressures. ``BlockSystem.element_inverse`` inverts every
element block once, batched per element dimension, and keeps the result for
recovery. With ``N = [B_F, -C_F]`` the rows of the multipliers
(``BlockSystem.multiplier_rows``), eliminating velocities and pressures
(hybridization) leaves the multiplier system

    -(C_T + N M^-1 N^T) lam = -N M^-1 [g; f],

whose matrix is negative definite. ``full_solve_direct`` factors it whole;
:func:`build_substructures` relabels the rows of ``N`` so that every
substructure gets its own copy of each multiplier it touches. The
substructures with one interface size ``n_gamma`` form a group, and the
copies are numbered group by group: the interior copies of every member
(ascending multipliers), then the interface copies of every member (in
``layout.local_dofs`` order). A row of ``N`` goes to the copy of the
substructure owning the element of its column, and a coupling link's
penalty on ``C_T`` to the copy of its lower element's substructure, the
same one that receives the link's ``C_F`` entry. One sparse product then
gives the block-diagonal matrix of all substructures' local multiplier
problems, which sum to the global one. Each group's ``K_II``, ``K_IG``,
``K_GG`` and its interior and interface loads are cut from that matrix and
its load vector, from its CSR arrays with no sparse slicing; the group's
``K_II`` is the block-diagonal matrix of its members' interior blocks.

With the interior/interface splitting ``K = [[K_II, K_IG], [K_GI, K_GG]]``
of one substructure, the local interface contribution is the Schur
complement

    S_i = -(K_GG - K_GI K_II^-1 K_IG),

which is symmetric positive semidefinite; the assembled sum over
substructures is positive definite whenever some natural boundary condition
exists. It equals the Schur complement of the substructure's saddle-point
problem over its velocities, pressures and multipliers, because eliminating
interior unknowns in another order does not change it. The sign convention
keeps the reduced problem SPD so conjugate gradients applies unchanged.

:func:`build_substructures` does all interior work at set-up, one group
at a time, with one call of ``factor_symmetric_indefinite`` on the group's
``K_II`` as a :class:`~darcydd.ldlt.BlockDiagonal` matrix: each member's
block gets its own band Cholesky factor ``-P K_II P^T = L L^T`` in its own
reverse Cuthill-McKee order, certified negative definite, so a member that
is not certified is named. Each factor is then probed with one unrefined
solve against ``K_II 1``; a backward error above 1e-12 refuses the member
("interior solve is unreliable"). A blocked triangular band solve per
member, with Level-3 BLAS on column blocks of the band's half-width, gives
``X = L^-1 P K_IG`` and one symmetric rank-k product ``X^T X``, so

    S_i = -(K_GG + X^T X)

is exactly symmetric; a group's ``S_i`` form one ``(m, n_gamma,
n_gamma)`` stack. One more solve gives the interior loads' share of the
reduced right-hand side. Every member's factor and results are bit for bit
those of factoring its own ``K_II`` alone. Each :class:`SubstructureGroup`
keeps the band factors, its ``K_IG`` and its interior load, and no dense
``K_II^-1 K_IG``. On the square-dense benchmark mesh, 64 substructures
with three interface sizes, set-up makes three factorization calls instead
of 64.

The groups reach every consumer as they were built, with one
:class:`GroupLayout` of the members' interface dofs.
:class:`InterfaceOperator` applies each stack in one batched product, the
preconditioner's local problems work on the stacks alone, and the reduced
right-hand side is a scatter of stored shares. :func:`recover_solution`
solves ``K_II lam_I = rhs_I - K_IG lam_Gamma`` for every member of a group
at once with the kept factors, under the factorization's accuracy contract,
and then gets every velocity and pressure from ``M^-1 ([g; f] - N^T lam)``
with ``BlockSystem.back_substitute``, as the direct solve does.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps
from numpy.typing import NDArray

from .assembly import BlockSystem, SolutionTriple, multiplier_matrix
from .errors import ConfigurationError, SingularSystemError
from .ldlt import (
    PROBE_LIMIT,
    BandFactorization,
    BlockDiagonal,
    factor_symmetric_indefinite,
)
from .partition import InterfaceLayout


def parallel_map(fn, items, threads: int = 1) -> list:
    """Map preserving order on a pool of at most ``threads`` workers that
    lives for this call only. Callers reduce the results in a fixed order,
    so the worker count never changes any output. Only
    :func:`build_substructures` uses it, for the interior solves of its
    groups."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def stacked_matvec(mats: NDArray, vec: NDArray, out: NDArray | None = None) -> NDArray:
    """The products of a stack of ``m`` matrices with the ``m`` consecutive
    blocks of ``vec``, concatenated, in one batched product, written into
    the contiguous vector ``out`` when given. numpy makes the same BLAS
    call for each member as for its plain 2-D product, so every product is
    bit for bit the member's own; a stack of one makes the plain product."""
    m = len(mats)
    if m == 1:
        return np.matmul(mats[0], vec, out=out)
    if out is not None:
        out = out.reshape(m, -1, 1)
    return np.matmul(mats, vec.reshape(m, -1, 1), out=out).ravel()


class GroupLayout:
    """Per-substructure index arrays laid out group by group, and the
    scatter back in substructure order.

    ``index[s]`` lists the positions in a vector of length ``size`` that
    substructure ``s`` touches. ``gather`` concatenates them group by group,
    members in group order, so ``v[gather]`` reads a vector for every group
    at once, and group ``g``'s entries are its slice ``blocks[g]``.
    ``scatter`` adds values in that layout into a vector of length ``size``
    with one ``np.bincount`` over the substructures in order, which adds in
    exactly the order that ``np.add.at`` substructure by substructure does.
    """

    def __init__(self, index: list[NDArray], groups: list[NDArray], size: int):
        length = np.array([len(i) for i in index], dtype=np.int64)
        order = np.concatenate(groups)
        end = np.cumsum(length[order])  # of each member in the group layout
        bounds = [0] + end[np.cumsum([len(g) for g in groups]) - 1].tolist()
        self.blocks = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        # how far each substructure's entries move from substructure order
        # to the group layout
        shift = np.empty_like(length)
        shift[order] = end - length[order]
        shift -= np.cumsum(length) - length
        self.index = np.concatenate(index)
        # position in the group layout of every entry, in substructure order
        self.to_sub = np.arange(len(self.index)) + np.repeat(shift, length)
        self.gather = np.empty_like(self.index)
        self.gather[self.to_sub] = self.index
        self.size = size

    def scatter(self, values: NDArray) -> NDArray:
        """The sum of ``values``, given in the group layout, at their
        positions."""
        return np.bincount(self.index, weights=values[self.to_sub], minlength=self.size)


@dataclass
class SubstructureGroup:
    """The substructures of one interface size ``n_gamma``, with the band
    Cholesky factors of their interior problems.

    Member ``j``, substructure ``members[j]``, owns rows ``start[j]:start[j
    + 1]`` of ``interior_mults``, ``k_ig`` and ``load`` and block ``j`` of
    ``interior``, columns ``j n_gamma : (j + 1) n_gamma`` of ``k_ig``, row
    ``j`` of ``schurs`` and entries ``j n_gamma : (j + 1) n_gamma`` of
    ``rhs_share``."""

    members: NDArray[np.int64]  # substructure ids, ascending
    interior_mults: NDArray[np.int64]  # global ids, each member's ascending
    start: NDArray[np.int64]  # member row offsets, m + 1 of them
    schurs: NDArray = field(repr=False)  # S_i, (m, n_gamma, n_gamma)
    interior: BandFactorization = field(repr=False)  # of every member's K_II
    k_ig: sps.csr_matrix = field(repr=False)  # K_IG, member j's block as above
    load: NDArray = field(repr=False)  # rhs_I
    rhs_share: NDArray = field(repr=False)  # K_GI K_II^-1 rhs_I - rhs_G


@dataclass
class Substructures:
    """What set-up keeps: the interface-size groups, by descending size, and
    the :class:`GroupLayout` of their members' ``local_dofs``, group by
    group, which every consumer gathers and scatters through."""

    groups: list[SubstructureGroup]
    gamma: GroupLayout


def build_substructures(
    system: BlockSystem, layout: InterfaceLayout, threads: int = 1
) -> Substructures:
    """Cut the per-substructure blocks from one block-diagonal multiplier
    matrix and factor every interior problem by band Cholesky, with one
    factorization call per interface size."""
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
    # The substructures with one interface size form a group, members by
    # ascending id. Groups go by descending size, so that the widest
    # transient arrays of the interior solves come while the fewest results
    # are kept: on the fracture-contrast benchmark mesh, where two of the
    # widest substructures share a size, the set-up then peaks about 2 MB
    # lower than in ascending order. The copies are numbered group by group:
    # the interior copies of every member, then the interface copies of
    # every member.
    sizes, group_of = np.unique([len(g) for g in gamma], return_inverse=True)
    groups = np.split(
        np.argsort(group_of, kind="stable"), np.cumsum(np.bincount(group_of))[:-1]
    )
    groups, sizes = groups[::-1], sizes[::-1]
    blocks = [of[s] for grp in groups for of in (interior, gamma) for s in grp]
    copy_mult = np.concatenate(blocks)
    n_copy = len(copy_mult)
    copy_sub = np.concatenate([grp for grp in groups for _ in (interior, gamma)])
    key = np.repeat(copy_sub, [len(b) for b in blocks]) * n_l + copy_mult
    order = np.argsort(key)
    # group g's interior copies are edge[2g]:edge[2g+1], and its interface
    # copies edge[2g+1]:edge[2g+2]
    edge = np.concatenate(
        [[0], np.cumsum([(n_int[g].sum(), len(g) * n) for g, n in zip(groups, sizes)])]
    )

    def copy_of(sub: NDArray, mult: NDArray) -> NDArray:
        """Position of substructure ``sub``'s copy of multiplier ``mult``."""
        return order[np.searchsorted(key, sub * n_l + mult, sorter=order)]

    # substructure of every velocity and pressure, through its element
    up_sub = np.concatenate([assign[sides.element[dm.side_vel >= 0]], assign])
    n_mat = system.multiplier_rows().tocoo()
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
    k = multiplier_matrix(n_tilde, m_inv, penalty).tocsr()
    k.sum_duplicates()  # sorted columns in every row
    load = -(n_tilde @ (m_inv @ np.concatenate([system.g, system.f])))
    # Every entry of k lies in its substructure's diagonal block; whether
    # its row and its column are interface copies tells the block's part.
    # ``cut`` lists one part's entries in row order, with a row pointer.
    on_gamma = np.repeat(np.arange(len(edge) - 1) % 2 == 1, np.diff(edge))
    entry_row = np.repeat(np.arange(n_copy), np.diff(k.indptr))
    row_gamma, col_gamma = on_gamma[entry_row], on_gamma[k.indices]

    def cut(part: NDArray) -> tuple[NDArray, NDArray]:
        take = np.flatnonzero(part)
        count = np.bincount(entry_row[take], minlength=n_copy)
        return take, np.concatenate([[0], np.cumsum(count)])

    cut_ii = cut(~row_gamma & ~col_gamma)
    cut_ig = cut(~row_gamma & col_gamma)
    cut_gg = cut(row_gamma & col_gamma)

    def rows_of(block: tuple[NDArray, NDArray], r0: int, r1: int, c0: int):
        """Values, columns less ``c0``, and row pointer of rows ``r0:r1``,
        the index arrays int32 as scipy keeps them."""
        take, ptr = block
        pick = take[ptr[r0] : ptr[r1]]
        return (
            k.data[pick],
            (k.indices[pick] - c0).astype(np.int32),
            (ptr[r0 : r1 + 1] - ptr[r0]).astype(np.int32),
        )

    def interior_matrix(r0: int, r1: int) -> sps.csc_matrix:
        """``K_II`` of the interior copies ``r0:r1`` as a canonical CSC
        matrix: k is exactly symmetric, so its rows are its columns."""
        return sps.csc_matrix(rows_of(cut_ii, r0, r1, r0), shape=(r1 - r0,) * 2)

    def solve_group(g: int) -> SubstructureGroup:
        """Cut group ``g``'s blocks, factor its members' ``K_II`` by band
        Cholesky, probe each factor, and form every member's dense local
        Schur complement and share of the reduced right-hand side; the
        group keeps the factors, ``K_IG`` and the interior load."""
        members, n_g = groups[g], int(sizes[g])
        lo, mid, hi = (int(e) for e in edge[2 * g : 2 * g + 3])
        # member j's interior rows, less lo, are start[j]:start[j + 1]; its
        # interface copies are columns j n_g : (j + 1) n_g of the group's K_IG
        start = np.concatenate([[0], np.cumsum(n_int[members])])
        try:
            fact = factor_symmetric_indefinite(
                BlockDiagonal(interior_matrix(lo, mid), start)
            )
        except SingularSystemError as exc:
            raise SingularSystemError(
                f"interior problem of substructure {members[exc.member]} is "
                f"singular ({exc})"
            ) from exc
        for j, err in enumerate(fact.probe()):
            if err > PROBE_LIMIT:
                raise SingularSystemError(
                    f"substructure {members[j]}: backward error {err:.3e} of "
                    f"a probe solve exceeds {PROBE_LIMIT:.0e}; interior "
                    f"solve is unreliable"
                )
        k_ig = sps.csr_matrix(
            rows_of(cut_ig, lo, mid, mid), shape=(mid - lo, hi - mid)
        )
        val, col, ptr = rows_of(cut_gg, mid, hi, mid)
        entry = np.repeat(np.arange(hi - mid), np.diff(ptr))
        first = np.arange(len(members)) * n_g  # member j's first column
        k_gg = np.zeros((hi - mid, n_g))
        k_gg[entry, col - np.repeat(first, n_g)[entry]] = val
        # -K_GI K_II^-1 K_IG = K_GI P^T L^-T L^-1 P K_IG, exactly symmetric
        forms = fact.inverse_forms(k_ig, n_g)
        schur = -(k_gg.reshape(len(members), n_g, n_g) + forms)
        load_i = load[lo:mid]
        share = k_ig.T @ fact.solve(load_i) - load[mid:hi]
        return SubstructureGroup(
            members, copy_mult[lo:mid], start, schur, fact, k_ig, load_i, share
        )

    return Substructures(
        parallel_map(solve_group, range(len(groups)), threads),
        GroupLayout(layout.local_dofs, groups, layout.n_interface),
    )


class InterfaceOperator:
    """Assembled action of the reduced interface operator.

    Each interface-size group applies its stack of ``S_i``, as
    :func:`build_substructures` made it, in one batched product. The
    interface vector is gathered once in the groups' layout and the products
    are scatter-added in substructure order, so the operator is
    deterministic for any worker count of set-up.
    """

    def __init__(self, subs: Substructures, layout: InterfaceLayout):
        self.subs = subs
        self.n = layout.n_interface
        self.stacks = [grp.schurs for grp in subs.groups]
        self.layout = subs.gamma

    def apply(self, x: NDArray) -> NDArray:
        xg = x[self.layout.gather]
        return self.layout.scatter(
            np.concatenate(
                [
                    stacked_matvec(stack, xg[at])
                    for stack, at in zip(self.stacks, self.layout.blocks)
                ]
            )
        )

    def reduced_rhs(self) -> NDArray:
        return self.layout.scatter(
            np.concatenate([grp.rhs_share for grp in self.subs.groups])
        )


def recover_solution(
    system: BlockSystem,
    subs: Substructures,
    layout: InterfaceLayout,
    lam_gamma: NDArray,
) -> SolutionTriple:
    """Back-substitute the interior multipliers from the interface solution,
    then every velocity and pressure element by element."""
    lam = np.zeros(system.n_multiplier)
    lam[layout.interface_mults] = lam_gamma
    lam_g = lam_gamma[subs.gamma.gather]
    for grp, block in zip(subs.groups, subs.gamma.blocks):
        # K_II lam_I = rhs_I - K_IG lam_Gamma, every member at once
        rhs = grp.load - grp.k_ig @ lam_g[block]
        lam[grp.interior_mults] = grp.interior.solve(rhs)
    up = system.back_substitute(lam, np.concatenate([system.g, system.f]))
    u, p = np.split(up, [system.n_velocity])
    return SolutionTriple(u=u, p=p, lam=lam)
