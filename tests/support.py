"""Shared helpers for the test suite.

Keeps the independent oracles (quadrature rules, dense Schur complements)
and the pipeline plumbing out of the individual test modules.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import mpmath
import numpy as np
from numpy.typing import NDArray
import scipy.linalg as sla
import scipy.sparse as sps

from darcydd.assembly import assemble
from darcydd.bddc import BddcPreconditioner, ConstraintSet, build_constraints
from darcydd.errors import ConfigurationError
from darcydd.mesh import (
    NATURAL,
    SIMPLEX_FACES,
    Boundary,
    Cells,
    Mesh,
    _dot,
    simplex_measures,
    tangent_frames,
)
from darcydd.partition import (
    SCHEMES,
    Glob,
    InterfaceLayout,
    _row_norms,
    classify_interface,
    compute_weights,
    partition_elements,
    select_corners,
)
from darcydd.subsolve import InterfaceOperator, build_substructures

# one formatted line per acceptance criterion, echoed by the terminal hook
ACCEPTANCE_LINES: list[str] = []


def record_criterion(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


# ---------------------------------------------------------------------------
# meshes from element records


def boundary_records(conditions) -> dict[int, Boundary]:
    """:class:`darcydd.mesh.Boundary` records of ``(face_nodes, kind,
    value)`` triples, grouped per node count in list order."""
    out = {}
    for w in sorted({len(face) for face, _, _ in conditions}):
        group = [c for c in conditions if len(c[0]) == w]
        out[w] = Boundary(
            nodes=[face for face, _, _ in group],
            natural=[kind == NATURAL for _, kind, _ in group],
            value=[value for _, _, value in group],
        )
    return out


def mesh_from_elements(coords, elements, boundary=(), **options) -> Mesh:
    """A mesh of :class:`darcydd.mesh.Element` records, grouped per
    dimension in list order, with ``boundary`` as in :class:`Mesh`."""
    cells = {}
    for d in sorted({el.dim for el in elements}):
        group = [el for el in elements if el.dim == d]
        cells[d] = Cells(
            ids=[el.id for el in group],
            nodes=[el.node_ids for el in group],
            conductivity=[el.conductivity for el in group],
            cross_section=[el.cross_section for el in group],
            source=[el.source for el in group],
        )
    return Mesh(coords, cells, boundary, **options)


def coupling_links(mesh) -> list[SimpleNamespace]:
    """The coupling links in link order, read from ``mesh.couplings``:
    lower and upper element, the upper element's local face, the sorted
    nodes and measure of the lower element, and the transition
    coefficient."""
    s = mesh.sides
    at = mesh.couplings
    measure = mesh.by_id("measure")
    return [
        SimpleNamespace(
            lower_element=lower,
            upper_element=upper,
            upper_local_face=lf,
            face_nodes=tuple(sorted(mesh.elements[lower].node_ids)),
            measure=float(measure[lower]),
            sigma=mesh.transition_coefficient,
        )
        for lower, upper, lf in zip(
            s.lower[at].tolist(), s.element[at].tolist(), s.local_face[at].tolist()
        )
    ]


# ---------------------------------------------------------------------------
# quadrature oracles, independent of the assembly code


def _quad_points(dim: int, coords: np.ndarray):
    """Points and weights of a rule exact for quadratics on a simplex.

    Segment: Simpson. Triangle: edge midpoints. Tetrahedron: vertices with
    weight -1/20 plus edge midpoints with weight 1/5. Weights sum to one
    and multiply the simplex measure.
    """
    v = coords
    if dim == 1:
        return [v[0], 0.5 * (v[0] + v[1]), v[1]], [1 / 6, 4 / 6, 1 / 6]
    if dim == 2:
        mids = [0.5 * (v[i] + v[j]) for i in range(3) for j in range(i + 1, 3)]
        return mids, [1 / 3] * 3
    pts = list(v)
    wts = [-1 / 20] * 4
    for i in range(4):
        for j in range(i + 1, 4):
            pts.append(0.5 * (v[i] + v[j]))
            wts.append(1 / 5)
    return pts, wts


def simplex_measure_oracle(dim: int, coords: np.ndarray) -> float:
    edges = coords[1:] - coords[0]
    gram = edges @ edges.T
    from math import factorial

    return float(np.sqrt(max(np.linalg.det(gram), 0.0))) / factorial(dim)


def local_frame(dim: int, coords: np.ndarray) -> np.ndarray:
    """Orthonormal in-plane axes via QR of the edge vectors."""
    edges = (coords[1:] - coords[0]).T
    q, r = np.linalg.qr(edges)
    q = q[:, :dim] * np.sign(np.diag(r))[None, :dim]
    return q.T


def rt0_quadrature_oracle(
    dim: int,
    coords: np.ndarray,
    conductivity: np.ndarray,
    cross_section: float = 1.0,
):
    """Flux-mass matrix and gravity load by numerical quadrature.

    The basis function of face j (the face opposite vertex j) is
    (x - x_j) / (dim * measure), which carries unit total outward flux
    through its own face and none through the others. Integrands are
    quadratic, which the rules above integrate exactly.
    """
    coords = np.asarray(coords, dtype=float)
    meas = simplex_measure_oracle(dim, coords)
    # volume elements keep ambient axes; flat ones get an in-plane frame
    frame = np.eye(3) if dim == 3 else local_frame(dim, coords)
    local = coords if dim == 3 else (coords - coords[0]) @ frame.T
    kinv = np.linalg.inv(np.asarray(conductivity, dtype=float))
    pts, wts = _quad_points(dim, local)
    a = np.zeros((dim + 1, dim + 1))
    grav = np.zeros(dim + 1)
    for pt, wt in zip(pts, wts):
        w = np.array([(pt - local[j]) / (dim * meas) for j in range(dim + 1)])
        a += (wt * meas / cross_section) * (w @ kinv @ w.T)
        w3 = w @ frame  # back to ambient coordinates for the z-component
        grav -= wt * meas * w3[:, 2]
    return a, grav


# ---------------------------------------------------------------------------
# dense reference operators


def dense_schur_oracle(system, layout):
    """Interface operator and reduced load by dense block elimination."""
    k = system.full_matrix().toarray()
    rhs = system.full_rhs()
    n_up = system.n_velocity + system.n_pressure
    gamma = n_up + layout.interface_mults
    mask = np.ones(system.n_total, bool)
    mask[gamma] = False
    interior = np.flatnonzero(mask)
    k_ii = k[np.ix_(interior, interior)]
    k_ig = k[np.ix_(interior, gamma)]
    k_gg = k[np.ix_(gamma, gamma)]
    s = -(k_gg - k_ig.T @ sla.solve(k_ii, k_ig))
    b = k_ig.T @ sla.solve(k_ii, rhs[interior])
    return s, b


def eliminate_leading(k: np.ndarray, rhs: np.ndarray, n: int):
    """Matrix and load left by dense elimination of the first ``n``
    unknowns of ``k x = rhs``."""
    cross = k[n:, :n]
    x = sla.solve(k[:n, :n], np.column_stack([cross.T, rhs[:n]]))
    return k[n:, n:] - cross @ x[:, :-1], rhs[n:] - cross @ x[:, -1]


def dense_multiplier_system(system):
    """The global multiplier matrix and load, by dense elimination of all
    velocities and pressures from the full saddle system."""
    n_up = system.n_velocity + system.n_pressure
    return eliminate_leading(
        system.full_matrix().toarray(), system.full_rhs(), n_up
    )


def _dense(a) -> np.ndarray:
    return a.toarray() if sps.issparse(a) else a


def dense_sub_schur(blocks: dict) -> np.ndarray:
    """Local Schur complement by dense elimination of the interior blocks
    ``k_ii``, ``k_ig`` and ``k_gg`` of ``blocks``."""
    k_ig = _dense(blocks["k_ig"])
    w = sla.solve(_dense(blocks["k_ii"]), k_ig)
    return -(_dense(blocks["k_gg"]) - k_ig.T @ w)


def full_constrained_saddle(blocks: dict, c: np.ndarray) -> np.ndarray:
    """One substructure's constrained saddle matrix ``[[K, D^T], [D, 0]]``
    over all its unknowns, the interior ones of ``blocks`` first, then
    interface, then the constraint rows ``D = [0, C_i]``; the
    preconditioner solves the same problem with the interior eliminated."""
    n_i, nc = blocks["k_ii"].shape[0], len(c)
    k_ig = _dense(blocks["k_ig"])
    return np.block(
        [
            [_dense(blocks["k_ii"]), k_ig, np.zeros((n_i, nc))],
            [k_ig.T, _dense(blocks["k_gg"]), c.T],
            [np.zeros((nc, n_i)), c, np.zeros((nc, nc))],
        ]
    )


def mp_solve(a: np.ndarray, b: np.ndarray, digits: int = 50) -> np.ndarray:
    """``a x = b`` by Gaussian elimination with partial pivoting in
    ``digits``-digit arithmetic (mpmath), rounded to float64 at the end.
    Its rounding errors stay far below float64's even where the condition
    number of ``a`` approaches 1/eps, where float64 elimination does not."""
    n = len(a)
    with mpmath.workdps(digits):
        rows = [
            [mpmath.mpf(x) for x in ra + rb]
            for ra, rb in zip(a.tolist(), b.reshape(n, -1).tolist())
        ]
        for k in range(n):
            pivot = max(range(k, n), key=lambda i: abs(rows[i][k]))
            rows[k], rows[pivot] = rows[pivot], rows[k]
            top = rows[k]
            for row in rows[k + 1 :]:
                f = row[k] / top[k]
                for j in range(k + 1, len(top)):
                    row[j] -= f * top[j]
        x = [None] * n
        for i in reversed(range(n)):
            row = rows[i]
            x[i] = [
                (row[c] - mpmath.fsum(row[j] * x[j][c - n] for j in range(i + 1, n)))
                / row[i]
                for c in range(n, len(row))
            ]
        return np.array([[float(v) for v in xi] for xi in x]).reshape(b.shape)


# ---------------------------------------------------------------------------
# one substructure's part of set-up's groups


@dataclass
class SubstructureView:
    """One substructure's rows of its interface-size group, all views."""

    sub_id: int
    interior_mults: NDArray[np.int64]
    local_gamma: NDArray[np.int64]
    schur: NDArray
    w: NDArray
    lam_load: NDArray
    rhs_share: NDArray

    @property
    def n_gamma(self) -> int:
        return len(self.local_gamma)


def substructure_views(subs) -> list[SubstructureView]:
    """Every substructure's part of the groups that
    :func:`build_substructures` returns, in substructure order, as views
    of the groups' arrays and of their interface layout's ``gather``."""
    out = {}
    for grp, block in zip(subs.groups, subs.gamma.blocks):
        n_g = grp.schurs.shape[1]
        for j, s in enumerate(grp.members.tolist()):
            a, b = grp.start[j], grp.start[j + 1]
            at = block.start + j * n_g
            out[s] = SubstructureView(
                sub_id=s,
                interior_mults=grp.interior_mults[a:b],
                local_gamma=subs.gamma.gather[at : at + n_g],
                schur=grp.schurs[j],
                w=grp.w[a:b],
                lam_load=grp.lam_load[a:b],
                rhs_share=grp.rhs_share[j * n_g : (j + 1) * n_g],
            )
    return [out[s] for s in range(len(out))]


def implicit_bddc_apply(
    subs, weights, constraints, r: np.ndarray, solve=sla.solve, coarse_solve=None
) -> np.ndarray:
    """The preconditioner's action with every constrained local problem
    solved afresh: each substructure's ``[[-S_i, C_i^T], [C_i, 0]]`` solved
    densely against ``[r_i; 0]`` and against ``[0; I]``, which gives the
    coarse basis and the local coarse matrix, and the assembled coarse
    problem solved densely; a reference for the precomputed ``N_i``,
    ``Phi_i`` and factored coarse matrix of ``BddcPreconditioner.apply``.

    ``r`` is one vector or several as columns. ``solve`` solves the dense
    systems: ``sla.solve``, or :func:`mp_solve` in the stiff penalty limit,
    where the saddle matrices are too ill-conditioned for float64.
    ``coarse_solve(coarse, r_c)``, by default ``solve``, solves the
    assembled coarse problem."""
    cols = r.reshape(len(r), -1)
    k = cols.shape[1]
    n_c = constraints.n_coarse
    coarse = np.zeros((n_c, n_c))
    r_c = np.zeros((n_c, k))
    parts = []
    for sub in substructure_views(subs):
        c = constraints.matrices[sub.sub_id]
        ids = constraints.coarse_ids[sub.sub_id]
        w = weights[sub.sub_id][:, None]
        n_g, nc = sub.n_gamma, len(c)
        aug = np.block([[-sub.schur, c.T], [c, np.zeros((nc, nc))]])
        r_i = w * cols[sub.local_gamma]
        rhs = np.zeros((n_g + nc, k + nc))
        rhs[:n_g, :k] = r_i
        rhs[n_g:, k:] = np.eye(nc)
        x = solve(aug, rhs)
        phi = x[:n_g, k:]
        coarse[np.ix_(ids, ids)] -= x[n_g:, k:]
        r_c[ids] += phi.T @ r_i
        parts.append((sub.local_gamma, w, x[:n_g, :k], phi, ids))
    eta_c = (coarse_solve or solve)(coarse, r_c) if n_c else np.zeros((0, k))
    out = np.zeros((len(r), k))
    for gamma, w, eta, phi, ids in parts:
        np.subtract.at(out, gamma, w * (eta + phi @ eta_c[ids]))
    return out.reshape(r.shape)


# ---------------------------------------------------------------------------
# the applies substructure by substructure: oracles for the grouped applies


def interface_apply_loop(subs, n: int, x: np.ndarray) -> np.ndarray:
    """``InterfaceOperator.apply`` as one product and one ``np.add.at`` per
    substructure, in substructure order."""
    y = np.zeros(n)
    for sub in substructure_views(subs):
        np.add.at(y, sub.local_gamma, sub.schur @ x[sub.local_gamma])
    return y


def reduced_rhs_loop(subs, n: int) -> np.ndarray:
    """``InterfaceOperator.reduced_rhs`` as one ``np.add.at`` per
    substructure."""
    b = np.zeros(n)
    for sub in substructure_views(subs):
        np.add.at(b, sub.local_gamma, sub.rhs_share)
    return b


def local_inverses(prec) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every substructure's ``(N_i, Phi_i)``, rows of its run's stacks, in
    substructure order."""
    out = [None] * sum(len(g.members) for g in prec.groups)
    for g in prec.groups:
        for i, n_i, phi in zip(g.members, g.neumann, g.phi):
            out[i] = (n_i, phi)
    return out


def bddc_apply_loop(prec, subs, weights, constraints, r: np.ndarray) -> np.ndarray:
    """``BddcPreconditioner.apply`` substructure by substructure, with the
    preconditioner's own ``N_i``, ``Phi_i`` and coarse factorization: two
    products and an ``np.add.at`` per substructure, the coarse solve, then
    a product and an ``np.subtract.at`` per substructure."""
    ids = constraints.coarse_ids
    local = [
        (sub.local_gamma, weights[sub.sub_id], n_i, phi, ids[sub.sub_id])
        for sub, (n_i, phi) in zip(substructure_views(subs), local_inverses(prec))
    ]
    etas = []
    r_c = np.zeros(prec.n_coarse)
    for gamma, w, n_i, phi, ids in local:
        r_i = w * r[gamma]
        etas.append(n_i @ r_i)
        np.add.at(r_c, ids, phi.T @ r_i)
    eta_c = prec.coarse_fact.solve(r_c) if prec.n_coarse else np.zeros(0)
    out = np.zeros(prec.n)
    for (gamma, w, _, phi, ids), eta in zip(local, etas):
        np.subtract.at(out, gamma, w * (eta + phi @ eta_c[ids]))
    return out


def sliced_substructure_blocks(system, layout) -> list[dict]:
    """Every substructure's interior ids, blocks and load, sliced from the
    assembled blocks one index set at a time; the oracle for the single
    permuted matrix that :func:`build_substructures` cuts them from."""
    dm = system.dof_map
    part = layout.partition
    interior_of: list[list[int]] = [[] for _ in range(part.n_sub)]
    for m, sharing in enumerate(mult_sharing_loops(system, part)):
        if len(sharing) == 1:
            interior_of[sharing[0]].append(m)
    a = system.a.tocsr()
    b = system.b.tocsr()
    b_f = system.b_f.tocsr()
    c = system.c.tocsr()
    c_f = system.c_f.tocsr()
    c_t = system.c_t.tocsr()
    pen_val = np.zeros(dm.n_multiplier)
    pen_sub = np.full(dm.n_multiplier, -1, dtype=np.int64)
    link_mult = dm.side_mult[system.mesh.couplings].tolist()
    for link, m in zip(coupling_links(system.mesh), link_mult):
        pen_val[m] += link.sigma * link.measure
        pen_sub[m] = part.assignment[link.lower_element]
    out = []
    for s in range(part.n_sub):
        element_ids = np.flatnonzero(part.assignment == s)
        vel_ids = dm.side_vel[np.isin(system.mesh.sides.element, element_ids)]
        vel_ids = vel_ids[vel_ids >= 0]
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
        out.append(
            dict(
                vel_ids=vel_ids,
                element_ids=element_ids,
                interior_mults=mults_i,
                k_ii=sps.bmat(
                    [
                        [a_loc, b_loc.T, bf_i.T],
                        [b_loc, -c_loc, -cf_i.T],
                        [bf_i, -cf_i, -ct_ii],
                    ],
                    format="csc",
                ),
                k_ig=sps.bmat([[bf_g.T], [-cf_g.T], [-ct_ig]], format="csr"),
                k_gg=(-ct_gg).tocsr(),
                rhs_interior=np.concatenate(
                    [system.g[vel_ids], system.f[element_ids], np.zeros(len(mults_i))]
                ),
            )
        )
    return out


def hybridized_substructure_blocks(system, layout) -> list[dict]:
    """Every substructure's multiplier blocks and loads, by dense
    elimination of its velocities and pressures from the saddle blocks of
    :func:`sliced_substructure_blocks`; the oracle for the element-wise
    elimination in :func:`build_substructures`. ``schur`` is the local
    Schur complement of the saddle blocks themselves."""
    out = []
    for saddle in sliced_substructure_blocks(system, layout):
        k_ig = saddle["k_ig"]
        k = sps.bmat(
            [[saddle["k_ii"], k_ig], [k_ig.T, saddle["k_gg"]]]
        ).toarray()
        rhs = np.concatenate([saddle["rhs_interior"], np.zeros(k_ig.shape[1])])
        n_up = len(saddle["vel_ids"]) + len(saddle["element_ids"])
        k_l, load = eliminate_leading(k, rhs, n_up)
        n_i = len(saddle["interior_mults"])
        out.append(
            dict(
                interior_mults=saddle["interior_mults"],
                k_ii=k_l[:n_i, :n_i],
                k_ig=k_l[:n_i, n_i:],
                k_gg=k_l[n_i:, n_i:],
                rhs_interior=load[:n_i],
                rhs_gamma=load[n_i:],
                schur=dense_sub_schur(saddle),
            )
        )
    return out


# ---------------------------------------------------------------------------
# numbering and interface oracles, keyed by (element, local face)


def numbering_contract(mesh) -> SimpleNamespace:
    """The dof numbering, by a walk over sides in (element, local face)
    order: velocities numbered as met, multipliers on first encounter.

    Returns the side of every velocity (``side_of_vel``) and its inverse
    (``vel_of_side``), the multiplier of every side (``mult_of_side``), the
    prescribed pressure of every natural side (``natural``), and per
    multiplier the sides (``mult_sides``) and coupling links
    (``mult_links``) that carry it.
    """
    groups = {}
    for el in mesh.elements:
        for locs in SIMPLEX_FACES[el.dim]:
            key = (el.dim, tuple(sorted(el.node_ids[i] for i in locs)))
            groups[key] = groups.get(key, 0) + 1
    links = coupling_links(mesh)
    coupled = {(l.upper_element, l.upper_local_face) for l in links}
    # the last condition given for a face wins
    bcs = {
        tuple(face): (natural, value)
        for b in mesh.boundary.values()
        for face, natural, value in zip(
            b.nodes.tolist(), b.natural.tolist(), b.value.tolist()
        )
    }
    side_of_vel, mult_of_side, natural, mult_sides, shared = [], {}, {}, [], {}
    for el in mesh.elements:
        for lf, locs in enumerate(SIMPLEX_FACES[el.dim]):
            side = (el.id, lf)
            key = (el.dim, tuple(sorted(el.node_ids[i] for i in locs)))
            if side not in coupled and groups[key] == 1:
                is_natural, value = bcs.get(key[1], (False, 0.0))
                if is_natural:
                    side_of_vel.append(side)
                    natural[side] = value
                continue
            side_of_vel.append(side)
            if side in coupled or key not in shared:
                mult_sides.append([])
                if side not in coupled:
                    shared[key] = len(mult_sides) - 1
            m = len(mult_sides) - 1 if side in coupled else shared[key]
            mult_of_side[side] = m
            mult_sides[m].append(side)
    mult_links = [[] for _ in mult_sides]
    for li, link in enumerate(links):
        mult_links[mult_of_side[(link.upper_element, link.upper_local_face)]].append(li)
    return SimpleNamespace(
        side_of_vel=side_of_vel,
        vel_of_side={side: v for v, side in enumerate(side_of_vel)},
        mult_of_side=mult_of_side,
        natural=natural,
        mult_sides=mult_sides,
        mult_links=mult_links,
    )


def mult_sharing_loops(system, partition) -> list[tuple[int, ...]]:
    """The ascending sharing set of every multiplier: the substructures of
    the elements whose sides carry it and of the lower-dimensional elements
    linked to it, by a loop over :func:`numbering_contract`."""
    mesh = system.mesh
    contract = numbering_contract(mesh)
    lower = [link.lower_element for link in coupling_links(mesh)]
    assign = partition.assignment
    sharing_all: list[tuple[int, ...]] = []
    for m in range(system.dof_map.n_multiplier):
        subs = {int(assign[e]) for e, _ in contract.mult_sides[m]}
        for li in contract.mult_links[m]:
            subs.add(int(assign[lower[li]]))
        sharing_all.append(tuple(sorted(subs)))
    return sharing_all


def classify_interface_loops(system, partition) -> InterfaceLayout:
    """:func:`classify_interface` by a loop over multipliers, reading their
    sides and links from :func:`numbering_contract`: a glob holds the
    interface dofs of one sharing set whose sides belong to elements of one
    dimension and which are all linked, or all not linked, to a
    lower-dimensional element."""
    dm = system.dof_map
    mesh = system.mesh
    contract = numbering_contract(mesh)
    assign = partition.assignment
    sharing_all = mult_sharing_loops(system, partition)
    interface = [m for m, tup in enumerate(sharing_all) if len(tup) > 1]
    local: list[list[int]] = [[] for _ in range(partition.n_sub)]
    by_key: dict[tuple, list[int]] = {}
    for gi, m in enumerate(interface):
        tup = sharing_all[m]
        for s in tup:
            local[s].append(gi)
        dims = {mesh.elements[e].dim for e, _ in contract.mult_sides[m]}
        assert len(dims) == 1, "the sides of a multiplier have one dimension"
        linked = len(contract.mult_links[m]) > 0
        by_key.setdefault((tup, dims.pop(), linked), []).append(gi)
    globs = []
    for (tup, _, _), dofs in sorted(by_key.items(), key=lambda kv: kv[1][0]):
        if len(dofs) == 1:
            kind = "vertex"
        elif len(tup) == 2:
            kind = "face"
        else:
            kind = "edge"
        globs.append(Glob(kind=kind, sharing=tup, dofs=tuple(dofs)))
    barycenters = (
        np.array([dm.mult_center[m] for m in interface])
        if interface
        else np.zeros((0, 3))
    )
    sub_has_natural = np.zeros(partition.n_sub, dtype=bool)
    for (e, _lf) in contract.natural:
        sub_has_natural[assign[e]] = True
    return InterfaceLayout(
        partition=partition,
        interface_mults=np.array(interface, dtype=np.int64),
        n_interface=len(interface),
        local_dofs=[np.array(v, dtype=np.int64) for v in local],
        globs=globs,
        barycenters=barycenters,
        sub_has_natural=sub_has_natural,
    )


def compute_weights_loops(system, layout, scheme: str) -> list[np.ndarray]:
    """:func:`compute_weights` by a loop over interface dofs and their
    sharers, reading sides and links from :func:`numbering_contract`."""
    if scheme not in SCHEMES:
        raise ConfigurationError(f"unknown weight scheme {scheme!r}")
    mesh = system.mesh
    contract = numbering_contract(mesh)
    all_links = coupling_links(mesh)
    assign = layout.partition.assignment
    a_diag = system.a.diagonal()

    def rho(e):
        el = mesh.elements[e]
        return el.dim / float(np.trace(np.linalg.inv(el.conductivity)))

    sharing_all = mult_sharing_loops(system, layout.partition)
    weights = [np.zeros(len(v)) for v in layout.local_dofs]
    pos_of = [{int(g): i for i, g in enumerate(v)} for v in layout.local_dofs]
    for gi, m in enumerate(layout.interface_mults):
        sharing = sharing_all[m]
        sides = contract.mult_sides[m]
        links = [all_links[li] for li in contract.mult_links[m]]
        if scheme == "arithmetic":
            scores = {s: 1.0 for s in sharing}
        else:
            scores = {}
            for s in sharing:
                if scheme == "rho":
                    cands = [rho(e) for e, _ in sides if assign[e] == s]
                    cands += [
                        rho(link.lower_element)
                        for link in links
                        if assign[link.lower_element] == s
                    ]
                    scores[s] = max(cands)
                else:  # diag
                    val = 0.0
                    for link in links:
                        if assign[link.lower_element] == s:
                            val += link.sigma * link.measure
                    for side in sides:
                        if assign[side[0]] == s:
                            val += 1.0 / a_diag[contract.vel_of_side[side]]
                    scores[s] = val
        total = sum(scores.values())
        for s in sharing:
            weights[s][pos_of[s][gi]] = scores[s] / total
    return weights


def select_corners_loop(layout) -> list[int]:
    """:func:`select_corners` by a loop over the face globs: per glob, the
    barycenters' mean and one ``argmax`` per chosen dof."""
    corners = {g.dofs[0] for g in layout.globs if g.kind == "vertex"}
    for glob in layout.globs:
        if glob.kind != "face":
            continue
        if len(glob.dofs) <= 2:
            corners.update(glob.dofs)
            continue
        pts = layout.barycenters[list(glob.dofs)]
        # argmax takes the first, lowest-index dof on ties
        c1 = np.argmax(_row_norms(pts - pts.mean(axis=0)))
        v = pts - pts[c1]
        dist = _row_norms(v)
        dist[c1] = -np.inf
        c2 = np.argmax(dist)
        nt = np.linalg.norm(v[c2])
        if nt > 0:  # distance to the line through c1 and c2
            that = v[c2] / nt
            v = v - _dot(v, that[None])[:, None] * that
        dist = _row_norms(v)
        dist[[c1, c2]] = -np.inf
        c3 = np.argmax(dist)
        corners.update(glob.dofs[c] for c in (c1, c2, c3))
    return sorted(corners)


def build_constraints_loop(layout, corners) -> ConstraintSet:
    """:func:`build_constraints` by a loop over the substructures: per
    substructure, its corner rows, then one average row per averaged glob
    it shares, each located by its own ``searchsorted``."""
    n_gamma = layout.n_interface
    corners = np.unique(np.asarray(corners, dtype=np.int64))
    is_corner = np.zeros(n_gamma, dtype=bool)
    is_corner[corners] = True
    averaged = [
        g
        for g in layout.globs
        if g.kind != "vertex" and not is_corner[list(g.dofs)].all()
    ]
    avg_of: list[list[int]] = [[] for _ in range(layout.partition.n_sub)]
    for k, g in enumerate(averaged):
        for s in g.sharing:
            avg_of[s].append(k)
    matrices, coarse_ids = [], []
    for s, local in enumerate(layout.local_dofs):
        at = np.flatnonzero(is_corner[local])
        avg_ids = len(corners) + np.array(avg_of[s], dtype=np.int64)
        ids = np.concatenate([np.searchsorted(corners, local[at]), avg_ids])
        c = np.zeros((len(ids), len(local)))
        c[np.arange(len(at)), at] = 1.0
        for row, k in enumerate(avg_of[s], len(at)):
            c[row, np.searchsorted(local, averaged[k].dofs)] = 1.0
        matrices.append(c)
        coarse_ids.append(ids)
    return ConstraintSet(len(corners) + len(averaged), len(corners), matrices, coarse_ids)


def element_inverse_lookup(system) -> sps.csr_matrix:
    """``M^-1`` of the velocity-pressure block as ``_element_inverse``
    forms it, with every element block read from the assembled
    ``M = [[A, B^T], [B, -C]]`` by sparse fancy indexing."""
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
        inv = np.linalg.inv(local)
        inv = 0.5 * (inv + inv.transpose(0, 2, 1))
        vals.append(inv[pair])
        rows.append(row)
        cols.append(col)
    return sps.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_up, n_up),
    )


def dense_operator(apply_fn, n: int) -> np.ndarray:
    eye = np.eye(n)
    return np.column_stack([apply_fn(eye[:, j]) for j in range(n)])


# ---------------------------------------------------------------------------
# pipeline plumbing


def build_pipeline(
    mesh,
    n_sub: int,
    scheme: str = "arithmetic",
    corners_on: bool = True,
    threads: int = 1,
    with_prec: bool = True,
) -> SimpleNamespace:
    """Assemble, partition and set up the interface solver for a mesh;
    ``threads`` caps the workers of :func:`build_substructures`."""
    system = assemble(mesh)
    part = partition_elements(mesh, n_sub)
    layout = classify_interface(system, part)
    subs = build_substructures(system, layout, threads=threads)
    op = InterfaceOperator(subs, layout)
    ns = SimpleNamespace(
        mesh=mesh,
        system=system,
        partition=part,
        layout=layout,
        subs=subs,
        op=op,
        corners=None,
        constraints=None,
        weights=None,
        prec=None,
    )
    if with_prec and layout.n_interface:
        ns.corners = select_corners(layout) if corners_on else []
        ns.constraints = build_constraints(layout, ns.corners)
        ns.weights = compute_weights(system, layout, scheme)
        ns.prec = BddcPreconditioner(subs, layout, ns.weights, ns.constraints)
    return ns


# ---------------------------------------------------------------------------
# single-element geometry and element matrices, and mesh identity: the
# per-element forms that the batched library code is checked against


def simplex_measure(coords: NDArray) -> float:
    """Length, area or volume of the simplex spanned by ``coords``, shape
    ``(d + 1, 3)``; see :func:`simplex_measures`."""
    return float(simplex_measures(np.asarray(coords, dtype=float)[None])[0])


def tangent_frame(coords: NDArray, dim: int) -> NDArray:
    """Orthonormal basis of one element's tangent space, shape ``(3, dim)``;
    see :func:`tangent_frames`."""
    return tangent_frames(np.asarray(coords, dtype=float)[None, : dim + 1])[0]


def meshes_equal(a: Mesh, b: Mesh) -> bool:
    """Exact field-for-field identity of the input data, used by round-trip
    tests."""
    if (
        not np.array_equal(a.node_coords, b.node_coords)
        or a.simplices.keys() != b.simplices.keys()
        or a.gravity_enabled != b.gravity_enabled
        or a.transition_coefficient != b.transition_coefficient
    ):
        return False
    for d, sa in a.simplices.items():
        sb = b.simplices[d]
        for name in Cells._fields:
            if not np.array_equal(getattr(sa, name), getattr(sb, name)):
                return False
    return a.boundary.keys() == b.boundary.keys() and all(
        np.array_equal(x, y)
        for w, ba in a.boundary.items()
        for x, y in zip(ba, b.boundary[w])
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
