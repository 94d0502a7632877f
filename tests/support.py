"""Shared helpers for the test suite.

Keeps the independent oracles (quadrature rules, dense Schur complements)
and the pipeline plumbing out of the individual test modules.
"""
from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sps

from darcydd.assembly import assemble
from darcydd.bddc import BddcPreconditioner, build_constraints
from darcydd.errors import ConfigurationError
from darcydd.ldlt import factor_symmetric_indefinite
from darcydd.mesh import NATURAL, SIMPLEX_FACES, Cells, Mesh
from darcydd.partition import (
    SCHEMES,
    Glob,
    InterfaceLayout,
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


def mesh_from_elements(coords, elements, boundary_conditions=(), **options) -> Mesh:
    """A mesh of :class:`darcydd.mesh.Element` records, grouped per
    dimension in list order."""
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
    return Mesh(coords, cells, boundary_conditions, **options)


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


def dense_sub_schur(sub) -> np.ndarray:
    """Local Schur complement by dense elimination of the interior blocks,
    independent of the explicit ``sub.schur`` the solver forms."""
    k_ig = sub.k_ig.toarray()
    w = sla.solve(sub.k_ii.toarray(), k_ig)
    return -(sub.k_gg.toarray() - k_ig.T @ w)


def full_constrained_saddle(corr) -> sps.csc_matrix:
    """One substructure's constrained saddle matrix ``[[K, D^T], [D, 0]]``
    over all its unknowns, interior first, then interface, then constraint
    rows; the preconditioner solves the same problem with the interior
    eliminated."""
    sub = corr.sub
    k_full = sps.bmat(
        [[sub.k_ii, sub.k_ig], [sub.k_ig.T, sub.k_gg]], format="csc"
    )
    nc = corr.n_constraints
    if nc == 0:
        return k_full
    d_all = sps.hstack(
        [sps.csr_matrix((nc, len(sub.interior_mults))), sps.csr_matrix(corr.d)],
        format="csr",
    )
    return sps.bmat([[k_full, d_all.T], [d_all, None]], format="csc")


def implicit_bddc_apply(prec, r: np.ndarray) -> np.ndarray:
    """The preconditioner's action with every constrained local problem
    solved afresh: one factorization of each substructure's
    ``[[-S_i, C_i^T], [C_i, 0]]`` solved against ``[r_i; 0]``, and the
    coarse problem solved densely; a reference for the precomputed
    ``N_i`` and ``Phi_i`` of ``prec.apply``."""
    r_c = np.zeros(prec.n_coarse)
    etas = []
    for corr in prec.correctors:
        n_g, nc = corr.sub.n_gamma, corr.n_constraints
        c = corr.d
        aug = np.block([[-corr.sub.schur, c.T], [c, np.zeros((nc, nc))]])
        r_i = corr.weights * r[corr.sub.local_gamma]
        rhs = np.zeros(n_g + nc)
        rhs[:n_g] = r_i
        etas.append(factor_symmetric_indefinite(aug).solve(rhs)[:n_g])
        np.add.at(r_c, corr.coarse_ids, corr.phi.T @ r_i)
    eta_c = np.linalg.solve(prec.coarse_matrix.toarray(), r_c)
    out = np.zeros(prec.n)
    for corr, eta in zip(prec.correctors, etas):
        comb = corr.weights * (eta + corr.phi @ eta_c[corr.coarse_ids])
        np.subtract.at(out, corr.sub.local_gamma, comb)
    return out


def sliced_substructure_blocks(system, layout) -> list[dict]:
    """Every substructure's interior ids, blocks and load, sliced from the
    assembled blocks one index set at a time; the oracle for the single
    permuted matrix that :func:`build_substructures` cuts them from."""
    dm = system.dof_map
    part = layout.partition
    interior_of: list[list[int]] = [[] for _ in range(part.n_sub)]
    for m, sharing in enumerate(layout.mult_sharing):
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
                schur=dense_sub_schur(SimpleNamespace(**saddle)),
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
    bcs = {bc.face_nodes: bc for bc in mesh.boundary_conditions}
    side_of_vel, mult_of_side, natural, mult_sides, shared = [], {}, {}, [], {}
    for el in mesh.elements:
        for lf, locs in enumerate(SIMPLEX_FACES[el.dim]):
            side = (el.id, lf)
            key = (el.dim, tuple(sorted(el.node_ids[i] for i in locs)))
            if side not in coupled and groups[key] == 1:
                bc = bcs.get(key[1])
                if bc is not None and bc.kind == NATURAL:
                    side_of_vel.append(side)
                    natural[side] = bc.value
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


def classify_interface_loops(system, partition) -> InterfaceLayout:
    """:func:`classify_interface` by a loop over multipliers, reading their
    sides and links from :func:`numbering_contract`."""
    dm = system.dof_map
    mesh = system.mesh
    contract = numbering_contract(mesh)
    lower = [link.lower_element for link in coupling_links(mesh)]
    assign = partition.assignment
    sharing_all: list[tuple[int, ...]] = []
    interface: list[int] = []
    for m in range(dm.n_multiplier):
        subs = {int(assign[e]) for e, _ in contract.mult_sides[m]}
        for li in contract.mult_links[m]:
            subs.add(int(assign[lower[li]]))
        tup = tuple(sorted(subs))
        sharing_all.append(tup)
        if len(tup) > 1:
            interface.append(m)
    local: list[list[int]] = [[] for _ in range(partition.n_sub)]
    by_sharing: dict[tuple[int, ...], list[int]] = {}
    for gi, m in enumerate(interface):
        tup = sharing_all[m]
        for s in tup:
            local[s].append(gi)
        by_sharing.setdefault(tup, []).append(gi)
    globs = []
    for tup, dofs in sorted(by_sharing.items(), key=lambda kv: kv[1][0]):
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
        mult_sharing=sharing_all,
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

    weights = [np.zeros(len(v)) for v in layout.local_dofs]
    pos_of = [{int(g): i for i, g in enumerate(v)} for v in layout.local_dofs]
    for gi, m in enumerate(layout.interface_mults):
        sharing = layout.mult_sharing[m]
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
    edge_averages: bool = True,
    threads: int = 1,
    with_prec: bool = True,
) -> SimpleNamespace:
    """Assemble, partition and set up the interface solver for a mesh."""
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
        ns.constraints = build_constraints(
            layout, ns.corners, edge_averages=edge_averages
        )
        ns.weights = compute_weights(system, layout, scheme)
        ns.prec = BddcPreconditioner(
            subs, layout, ns.weights, ns.constraints, threads=threads
        )
    return ns
