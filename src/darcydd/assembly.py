"""Mixed-hybrid discretization: broken RT0 velocities, elementwise constant
pressures, and pressure-trace multipliers on inter-element faces.

Velocity unknowns are total outward fluxes, one per element side; every
element keeps its own copy of each face dof, and continuity is enforced
weakly by the multiplier rows. The resulting symmetric block system is

    [ A   B^T  BF^T ] [u  ]   [g]
    [ B  -C   -CF^T ] [p  ] = [f]
    [ BF -CF  -CT   ] [lam]   [0]

where A is SPD block diagonal (one block per element), B rows express mass
balance, BF rows tie side fluxes together, and the C blocks carry the
pressure-jump penalty sigma * |F| * (p_lower - lam_side)^2 of every
lower-dimensional coupling. The quadratic-form structure makes
[[C, CF^T], [CF, CT]] positive semidefinite by construction.

Degrees of freedom at faces:

* side on an uncoupled interior face: one velocity dof, one multiplier
  shared by all sides of the face (three or more sides form a star and
  still share one multiplier);
* side on a face occupied by a lower-dimensional element: one velocity dof
  and an unshared multiplier per side, so flow may jump across the fracture;
* natural boundary side: velocity dof only, prescribed pressure enters the
  right-hand side;
* essential boundary side: no dofs, zero flux eliminated at assembly.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps
from numpy.typing import NDArray

from .errors import ConfigurationError, SingularSystemError
from .ldlt import factor_symmetric_indefinite
from .mesh import (
    NATURAL,
    Mesh,
    simplex_measure,
    tangent_frame,
    tangent_frames,
)


def rt0_local(
    dim: int,
    coords: NDArray,
    conductivity: NDArray,
    cross_section: float = 1.0,
) -> tuple[NDArray, NDArray, NDArray]:
    """Element matrices of the lowest-order flux basis on one simplex.

    With the dof of face j defined as the total outward flux through face j,
    the basis function is ``w_j(x) = (x - x_j) / (d |T|)``. Returns

    * ``a_e``: the (d+1)x(d+1) weighted velocity mass matrix
      ``(1/delta) integral of k^-1 w_i . w_j``, exactly symmetric and SPD;
    * ``b_signs``: the divergence-row contribution, -1 per side, because the
      total outward flux of w_j is one;
    * ``g_rhs``: minus the integral of the vertical component of each basis
      function, the gravity load when enabled.

    The integral has the closed form
    ``(|T| c_i^T k^-1 c_j + tr(k^-1 J)) / (delta d^2 |T|^2)`` with ``c_i``
    the vector from vertex i to the centroid and J the second moment of the
    simplex about its centroid.
    """
    pts = np.asarray(coords, dtype=float)
    if pts.shape != (dim + 1, 3):
        raise ValueError(f"expected {(dim + 1, 3)} coordinates, got {pts.shape}")
    if dim == 3:
        local = pts
    else:
        frame = tangent_frame(pts, dim)
        local = (pts - pts[0]) @ frame
    measure = simplex_measure(pts)
    centroid = local.mean(axis=0)
    c = local - centroid  # rows: centroid-to-vertex offsets (negated)
    kinv = np.linalg.inv(np.asarray(conductivity, dtype=float))
    second_moment = measure / ((dim + 1) * (dim + 2)) * (c.T @ c)
    gram = measure * (c @ kinv @ c.T) + np.trace(kinv @ second_moment)
    a_e = gram / (cross_section * dim**2 * measure**2)
    a_e = 0.5 * (a_e + a_e.T)
    b_signs = -np.ones(dim + 1)
    z_centroid = pts[:, 2].mean()
    g_rhs = -(z_centroid - pts[:, 2]) / dim
    return a_e, b_signs, g_rhs


def rt0_blocks(
    dim: int,
    pts: NDArray,
    conductivity: NDArray,
    cross_section: NDArray,
    measure: NDArray,
) -> tuple[NDArray, NDArray]:
    """:func:`rt0_local` for a stack of ``n`` simplices of one dimension.

    ``pts`` has shape ``(n, dim + 1, 3)``, ``conductivity`` ``(n, dim, dim)``;
    ``cross_section`` and ``measure`` have shape ``(n,)``. Returns the
    velocity mass matrices ``(n, dim + 1, dim + 1)`` and the gravity loads
    ``(n, dim + 1)``, by the closed form in :func:`rt0_local`.

    Every step performs the same floating-point operations as
    :func:`rt0_local`, so each block equals its result bit for bit: stacked
    ``matmul`` rounds like the 2D products there, where ``einsum`` would
    sum in another order.
    """
    if dim == 3:
        local = pts
    else:
        local = (pts - pts[:, :1]) @ tangent_frames(pts)
    c = local - local.mean(axis=1, keepdims=True)
    c_t = c.transpose(0, 2, 1)
    kinv = np.linalg.inv(conductivity)
    scale = (measure / ((dim + 1) * (dim + 2)))[:, None, None]
    second_moment = scale * (c_t @ c)
    gram = measure[:, None, None] * (c @ kinv @ c_t)
    gram += np.trace(kinv @ second_moment, axis1=1, axis2=2)[:, None, None]
    # float_power calls libm pow, as Python's float ** 2 in rt0_local does;
    # numpy's ** 2 squares, which differs in the last bit for some inputs.
    measure_sq = np.float_power(measure, 2)
    a = gram / (cross_section * dim**2 * measure_sq)[:, None, None]
    a = 0.5 * (a + a.transpose(0, 2, 1))
    z = pts[:, :, 2]
    g = -(z.mean(axis=1, keepdims=True) - z) / dim
    return a, g


# ---------------------------------------------------------------------------
# degree-of-freedom map


@dataclass
class DofMap:
    """Dense numbering of velocity, pressure and multiplier unknowns.

    Pressure dof ids equal element ids. Velocity ids follow the element
    sides in (element, local face) order; multiplier ids follow the order
    in which that walk first meets each multiplier. ``side_vel`` and
    ``side_mult`` hold both per position in ``mesh.sides`` (-1 for none);
    the multiplier of coupling link ``i`` is
    ``side_mult[mesh.couplings[i]]``. ``natural_sides`` lists the
    positions of the natural boundary sides in ascending order and
    ``natural_values`` their prescribed pressures. ``mult_center`` is the
    barycenter of each multiplier's face.
    """

    n_velocity: int = 0
    n_pressure: int = 0
    n_multiplier: int = 0
    side_vel: NDArray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    side_mult: NDArray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    natural_sides: NDArray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    natural_values: NDArray = field(default_factory=lambda: np.zeros(0))
    mult_center: NDArray = field(default_factory=lambda: np.zeros((0, 3)))


def build_dof_map(mesh: Mesh) -> DofMap:
    """Number all unknowns and resolve boundary conditions.

    A side occupied by a lower-dimensional element gets a velocity dof and
    a multiplier of its own. A side sharing its face with others gets a
    velocity dof and the face's multiplier. A side alone on its face is a
    boundary side: natural ones get a velocity dof, essential ones nothing.

    Raises :class:`ConfigurationError` when an explicit boundary condition
    targets a face that is not an unoccupied boundary face (interior faces
    and fracture-coupled faces cannot carry one).
    """
    s = mesh.sides
    n_side = len(s.face)
    coupled = s.lower >= 0
    boundary = ~coupled & (s.count == 1)
    bcs = mesh.boundary_conditions
    # the last condition given for a face wins
    bc_of_face = np.full(s.n_faces, -1, dtype=np.int64)
    named = np.flatnonzero(mesh.bc_faces >= 0)
    np.maximum.at(bc_of_face, mesh.bc_faces[named], named)
    consumed = np.zeros(s.n_faces, dtype=bool)
    consumed[s.face[boundary]] = True
    stray = (mesh.bc_faces < 0) | ~consumed[mesh.bc_faces]
    if stray.any():
        tuples = dict.fromkeys(bc.face_nodes for bc, bad in zip(bcs, stray) if bad)
        raise ConfigurationError(
            f"boundary conditions reference faces that are not unoccupied "
            f"boundary faces: {list(tuples)[:5]}"
        )
    bc_of_side = np.where(boundary, bc_of_face[s.face], -1)
    is_natural = np.array([bc.kind == NATURAL for bc in bcs] + [False])
    natural = is_natural[bc_of_side]  # index -1 reads the trailing False
    has_vel = ~boundary | natural
    side_vel = np.where(has_vel, np.cumsum(has_vel) - 1, -1)
    # A coupled side owns its multiplier; other sides share their face's.
    has_mult = ~boundary
    owner = np.where(coupled, s.n_faces + np.arange(n_side), s.face)[has_mult]
    _, first, inverse = np.unique(owner, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    side_mult = np.full(n_side, -1, dtype=np.int64)
    side_mult[has_mult] = rank[inverse.reshape(-1)]
    n_mult = len(first)

    natural_sides = np.flatnonzero(natural)
    center = np.empty((n_side, 3))
    for blk in mesh.simplices.values():
        center[blk.sides] = mesh.node_coords[blk.face_nodes()].mean(axis=2)
    return DofMap(
        n_velocity=int(has_vel.sum()),
        n_pressure=mesh.n_elements,
        n_multiplier=n_mult,
        side_vel=side_vel,
        side_mult=side_mult,
        natural_sides=natural_sides,
        natural_values=np.array([bc.value for bc in bcs], dtype=float)[
            bc_of_side[natural_sides]
        ],
        mult_center=center[np.flatnonzero(has_mult)[np.sort(first)]],
    )


# ---------------------------------------------------------------------------
# block system


@dataclass
class SolutionTriple:
    """Velocity fluxes, element pressures and face pressure traces."""

    u: NDArray
    p: NDArray
    lam: NDArray

    def concatenated(self) -> NDArray:
        return np.concatenate([self.u, self.p, self.lam])


@dataclass
class BlockSystem:
    """Assembled blocks of the saddle system plus the dof map behind them."""

    a: sps.csr_matrix
    b: sps.csr_matrix
    b_f: sps.csr_matrix
    c: sps.csr_matrix
    c_f: sps.csr_matrix
    c_t: sps.csr_matrix
    g: NDArray
    f: NDArray
    dof_map: DofMap
    mesh: Mesh
    _full: sps.csr_matrix | None = field(default=None, repr=False)
    _m_inv: sps.csr_matrix | None = field(default=None, repr=False)

    @property
    def n_velocity(self) -> int:
        return self.dof_map.n_velocity

    @property
    def n_pressure(self) -> int:
        return self.dof_map.n_pressure

    @property
    def n_multiplier(self) -> int:
        return self.dof_map.n_multiplier

    @property
    def n_total(self) -> int:
        return self.n_velocity + self.n_pressure + self.n_multiplier

    def full_matrix(self) -> sps.csr_matrix:
        """The symmetric indefinite system matrix, cached."""
        if self._full is None:
            self._full = sps.bmat(
                [
                    [self.a, self.b.T, self.b_f.T],
                    [self.b, -self.c, -self.c_f.T],
                    [self.b_f, -self.c_f, -self.c_t],
                ],
                format="csr",
            )
        return self._full

    def element_inverse(self) -> sps.csr_matrix:
        """``M^-1`` of the velocity-pressure block, from
        :func:`_element_inverse`, cached: substructure set-up and recovery
        share one."""
        if self._m_inv is None:
            self._m_inv = _element_inverse(self)
        return self._m_inv

    def full_rhs(self) -> NDArray:
        return np.concatenate([self.g, self.f, np.zeros(self.n_multiplier)])

    def split(self, x: NDArray) -> SolutionTriple:
        nu, npr = self.n_velocity, self.n_pressure
        return SolutionTriple(
            u=x[:nu], p=x[nu : nu + npr], lam=x[nu + npr :]
        )


def _element_inverse(system: BlockSystem) -> sps.csr_matrix:
    """``M^-1`` for the velocity-pressure block ``M = [[A, B^T], [B, -C]]``,
    inverted element by element, one batched inverse per element dimension.

    Each element block spans the element's sides that carry a velocity and
    its pressure. A side without one gets a unit diagonal entry, which
    keeps the blocks of one dimension equally sized and drops out again.
    Every inverse is symmetrized, so the result is bitwise symmetric.

    Raises :class:`SingularSystemError` when an element block is singular,
    as for an element with neither a velocity nor a coupling penalty.
    """
    n_u = system.n_velocity
    n_up = n_u + system.n_pressure
    side_vel = system.dof_map.side_vel
    m = sps.bmat([[system.a, system.b.T], [system.b, -system.c]], format="csr")
    vals, rows, cols = [], [], []
    for blk in system.mesh.simplices.values():
        dofs = np.concatenate([side_vel[blk.sides], n_u + blk.ids[:, None]], axis=1)
        kept = dofs >= 0
        pair = kept[:, :, None] & kept[:, None, :]
        row = np.broadcast_to(dofs[:, :, None], pair.shape)[pair]
        col = np.broadcast_to(dofs[:, None, :], pair.shape)[pair]
        local = np.zeros(pair.shape)
        local[pair] = np.asarray(m[row, col]).ravel()
        el, face = np.nonzero(~kept)
        local[el, face, face] = 1.0
        try:
            inv = np.linalg.inv(local)
        except np.linalg.LinAlgError as exc:
            singular = blk.ids[np.linalg.matrix_rank(local) < local.shape[1]]
            raise SingularSystemError(
                f"velocity-pressure block of element(s) {singular[:6].tolist()} "
                f"is singular; their pressure is not determined"
            ) from exc
        inv = 0.5 * (inv + inv.transpose(0, 2, 1))
        vals.append(inv[pair])
        rows.append(row)
        cols.append(col)
    return sps.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_up, n_up),
    )


def assemble(mesh: Mesh) -> BlockSystem:
    """Assemble all blocks of the saddle system for one mesh.

    Element matrices come from :func:`rt0_blocks`, one call per element
    dimension, and each block is built from one coordinate list.

    Refuses meshes without a single natural boundary face: every pressure
    would only be determined up to a constant per component and the matrix
    is singular.
    """
    if not mesh.has_natural_bc():
        raise SingularSystemError(
            "mesh has no natural boundary condition anywhere; the system "
            "matrix is singular (component pressures are determined only up "
            "to constants)"
        )
    dm = build_dof_map(mesh)
    nu, npr, nl = dm.n_velocity, dm.n_pressure, dm.n_multiplier
    a_parts, b_parts, bf_parts = [], [], []
    g = np.zeros(nu)
    g[dm.side_vel[dm.natural_sides]] -= dm.natural_values
    f = np.zeros(npr)
    for blk in mesh.simplices.values():
        a_e, g_e = rt0_blocks(
            blk.dim,
            mesh.node_coords[blk.nodes],
            blk.conductivity,
            blk.cross_section,
            blk.measure,
        )
        vel = dm.side_vel[blk.sides]
        kept = vel >= 0
        pair = kept[:, :, None] & kept[:, None, :]
        a_parts.append((
            a_e[pair],
            np.broadcast_to(vel[:, :, None], pair.shape)[pair],
            np.broadcast_to(vel[:, None, :], pair.shape)[pair],
        ))
        b_parts.append((np.broadcast_to(blk.ids[:, None], vel.shape)[kept], vel[kept]))
        mult = dm.side_mult[blk.sides]
        tied = mult >= 0
        bf_parts.append((mult[tied], vel[tied]))
        if mesh.gravity_enabled:
            g[vel[kept]] += g_e[kept]
        f[blk.ids] = -blk.cross_section * blk.source * blk.measure
    lower = mesh.sides.lower[mesh.couplings]
    w = mesh.coupling_weights
    link_mult = dm.side_mult[mesh.couplings]
    system = BlockSystem(
        a=_coo(a_parts, (nu, nu)),
        b=_coo([(-np.ones(len(v)), r, v) for r, v in b_parts], (npr, nu)),
        b_f=_coo([(np.ones(len(v)), m, v) for m, v in bf_parts], (nl, nu)),
        c=sps.csr_matrix((w, (lower, lower)), shape=(npr, npr)),
        c_f=sps.csr_matrix((-w, (link_mult, lower)), shape=(nl, npr)),
        c_t=sps.csr_matrix((w, (link_mult, link_mult)), shape=(nl, nl)),
        g=g,
        f=f,
        dof_map=dm,
        mesh=mesh,
    )
    return system


def _coo(parts: list[tuple[NDArray, NDArray, NDArray]], shape) -> sps.csr_matrix:
    """One CSR matrix from (values, rows, cols) pieces."""
    vals, rows, cols = (
        np.concatenate([p[k] for p in parts]) if parts else np.zeros(0)
        for k in range(3)
    )
    return sps.csr_matrix((vals, (rows.astype(np.int64), cols.astype(np.int64))), shape=shape)


def full_solve_direct(system: BlockSystem) -> SolutionTriple:
    """Factor the full saddle matrix and solve, refining to backward error
    below 1e-10 (relative to the problem scale, so extreme penalty
    coefficients do not defeat the check).

    A singular factorization triggers a diagnosis of connected components
    whose boundary carries no natural condition.
    """
    mat = system.full_matrix().tocsc()
    rhs = system.full_rhs()
    try:
        fact = factor_symmetric_indefinite(mat)
    except SingularSystemError as exc:
        comps = system.mesh.components_without_natural_bc(include_couplings=True)
        if comps:
            raise SingularSystemError(
                f"system is singular: {len(comps)} connected component(s) "
                f"have no natural boundary condition; the constant pressure "
                f"on each is unconstrained (first example: elements "
                f"{comps[0][:6]})"
            ) from exc
        raise
    x = fact.solve(rhs)
    for _ in range(3):
        if fact.backward_error(rhs, x) <= 1e-10:
            break
        x = x + fact.solve(rhs - mat @ x)
    err = fact.backward_error(rhs, x)
    if err > 1e-6:
        raise SingularSystemError(
            f"direct solve stalled at backward error {err:.2e}; "
            f"system is singular or catastrophically ill-conditioned"
        )
    return system.split(x)


def mass_balance_residual(system: BlockSystem, sol: SolutionTriple) -> NDArray:
    """Per-element defect of discrete mass balance.

    For every element: sum of outward side fluxes minus the source integral
    minus the inflow received through its own coupling links (an element
    acting as the lower side of links receives sigma |F| (lam - p) per
    link). Exactly zero in exact arithmetic for any solution of the system.
    """
    dm = system.dof_map
    mesh = system.mesh
    sides = mesh.sides
    res = np.zeros(mesh.n_elements)
    has_vel = dm.side_vel >= 0
    np.add.at(res, sides.element[has_vel], sol.u[dm.side_vel[has_vel]])
    for blk in mesh.simplices.values():
        res[blk.ids] -= blk.cross_section * blk.source * blk.measure
    at = mesh.couplings
    lower = sides.lower[at]
    w = mesh.coupling_weights
    np.subtract.at(res, lower, w * (sol.lam[dm.side_mult[at]] - sol.p[lower]))
    return np.abs(res)
