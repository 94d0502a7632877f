"""Element partitioning and interface bookkeeping for substructuring.

Elements of every dimension are divided into substructures by recursive
coordinate bisection of their centroids. Pressure-trace multipliers shared
by elements of different substructures form the interface; the rest of each
substructure's unknowns (fluxes, pressures, its private multipliers) stay
interior. Interface dofs are grouped into globs by their sharing set:

* vertex: a glob containing a single dof;
* face: a glob whose dofs are shared by exactly two substructures;
* edge: a glob shared by three or more substructures.

Corner selection follows a farthest-point heuristic per face glob, and three
diagonal weight schemes distribute interface values among sharers.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps
from numpy.typing import NDArray
from scipy.sparse.csgraph import connected_components

from .assembly import BlockSystem
from .errors import ConfigurationError
from .mesh import Mesh

SCHEMES = ("arithmetic", "rho", "diag")


@dataclass
class Partition:
    """Assignment of every element to exactly one substructure."""

    n_sub: int
    assignment: NDArray[np.int64]

    def sizes(self) -> NDArray[np.int64]:
        return np.bincount(self.assignment, minlength=self.n_sub)


def _rcb(centroids: NDArray, ids: NDArray, k: int, out: NDArray, next_sub: int) -> int:
    """Recursive coordinate bisection; returns the next unused sub id."""
    if k == 1:
        out[ids] = next_sub
        return next_sub + 1
    k_left = k // 2
    n = len(ids)
    n_left = int(round(n * k_left / k))
    n_left = max(n_left, k_left)
    n_left = min(n_left, n - (k - k_left))
    box = centroids[ids]
    extents = box.max(axis=0) - box.min(axis=0)
    axis = int(np.argmax(extents))  # argmax takes the lowest axis on ties
    order = ids[np.lexsort((ids, centroids[ids, axis]))]
    next_sub = _rcb(centroids, order[:n_left], k_left, out, next_sub)
    return _rcb(centroids, order[n_left:], k - k_left, out, next_sub)


def _pieces(graph: sps.csr_matrix, assignment: NDArray) -> NDArray[np.int64]:
    """Connected-component label of every element within its substructure."""
    coo = graph.tocoo()
    keep = assignment[coo.row] == assignment[coo.col]
    within = sps.csr_matrix(
        (coo.data[keep], (coo.row[keep], coo.col[keep])), shape=graph.shape
    )
    return connected_components(within, directed=False)[1]


def partition_elements(mesh: Mesh, n_sub: int) -> Partition:
    """Partition all elements into ``n_sub`` connected substructures.

    Recursive coordinate bisection: split the longest bounding-box axis of
    the current subset at the median, ties resolved by element id, target
    counts proportional. The procedure is fully deterministic. A repair
    pass then reattaches any disconnected fragment to the neighboring
    substructure it shares the most adjacency edges with (the lowest
    substructure id on ties).
    """
    n_el = mesh.n_elements
    if n_sub < 1:
        raise ConfigurationError("n_sub must be at least 1")
    if n_sub > n_el:
        raise ConfigurationError(
            f"cannot split {n_el} elements into {n_sub} substructures"
        )
    centroids = mesh.by_id("centroid")
    assignment = np.full(n_el, -1, dtype=np.int64)
    _rcb(centroids, np.arange(n_el), n_sub, assignment, 0)

    graph = mesh.element_graph(include_couplings=True)
    for _ in range(20):
        moved = False
        labels = _pieces(graph, assignment)
        for s in range(n_sub):
            members = np.flatnonzero(assignment == s)
            found, piece = np.unique(labels[members], return_inverse=True)
            if len(found) <= 1:
                continue
            comps = sorted(
                (members[piece.reshape(-1) == k] for k in range(len(found))),
                key=lambda c: (-len(c), c[0]),
            )
            for orphan in comps[1:]:
                t = assignment[graph[orphan].indices]
                counts = np.bincount(t[t != s], minlength=n_sub)
                if not counts.any():
                    continue  # isolated in the mesh itself; leave in place
                assignment[orphan] = np.argmax(counts)
                moved = True
            labels = _pieces(graph, assignment)
        if not moved:
            break
    else:
        warnings.warn("partition repair did not converge; a substructure "
                      "may remain disconnected")
    if (np.bincount(assignment, minlength=n_sub) == 0).any():
        raise ConfigurationError("partition produced an empty substructure")
    return Partition(n_sub=n_sub, assignment=assignment)


# ---------------------------------------------------------------------------
# interface classification


@dataclass(frozen=True)
class Glob:
    """Maximal set of interface dofs with one common sharing set."""

    kind: str  # vertex | face | edge
    sharing: tuple[int, ...]
    dofs: tuple[int, ...]  # global interface indices


@dataclass
class InterfaceLayout:
    """Interface numbering, per-substructure restrictions and globs.

    ``local_dofs[s]`` lists the global interface indices visible to
    substructure ``s`` in ascending order; it realizes the restriction of a
    global interface vector to the substructure (gather) and its transpose
    (scatter-add).
    """

    partition: Partition
    mult_sharing: list[tuple[int, ...]]
    interface_mults: NDArray[np.int64]
    n_interface: int
    local_dofs: list[NDArray[np.int64]]
    globs: list[Glob]
    barycenters: NDArray
    sub_has_natural: NDArray[np.bool_]

    @property
    def n_face_globs(self) -> int:
        return sum(1 for g in self.globs if g.kind == "face")

    def glob_counts(self) -> dict[str, int]:
        out = {"vertex": 0, "face": 0, "edge": 0}
        for g in self.globs:
            out[g.kind] += 1
        return out


def _touches(system: BlockSystem) -> tuple[NDArray, NDArray, NDArray]:
    """Every incidence of a multiplier with an element: the coupling links
    first, in link order, with their lower-dimensional element, then the
    element sides that carry a multiplier, in side order. Returns the
    multipliers, the elements and the positions of those sides in
    ``mesh.sides``."""
    dm = system.dof_map
    sides = system.mesh.sides
    links = system.mesh.couplings
    at = np.flatnonzero(dm.side_mult >= 0)
    mult = dm.side_mult[np.concatenate((links, at))]
    element = np.concatenate((sides.lower[links], sides.element[at]))
    return mult, element, at


def classify_interface(system: BlockSystem, partition: Partition) -> InterfaceLayout:
    """Find interface multipliers, their sharing sets and glob structure.

    A multiplier's sharing set holds the substructures of the elements whose
    sides carry it and of the lower-dimensional elements linked to it.
    """
    dm = system.dof_map
    n_sub = partition.n_sub
    mult, element, _ = _touches(system)
    pairs = np.unique(mult * n_sub + partition.assignment[element])
    pair_mult, pair_sub = pairs // n_sub, pairs % n_sub
    n_sharers = np.bincount(pair_mult, minlength=dm.n_multiplier)
    ends = np.cumsum(n_sharers).tolist()
    subs = pair_sub.tolist()
    sharing_all = [tuple(subs[a:b]) for a, b in zip([0] + ends, ends)]
    interface_mults = np.flatnonzero(n_sharers > 1)
    n_interface = len(interface_mults)
    shared = n_sharers[pair_mult] > 1
    gi_of = np.cumsum(n_sharers > 1) - 1
    pair_gi, pair_sub = gi_of[pair_mult[shared]], pair_sub[shared]
    by_sub = np.argsort(pair_sub, kind="stable")
    cuts = np.cumsum(np.bincount(pair_sub, minlength=n_sub))[:-1]
    by_sharing: dict[tuple[int, ...], list[int]] = {}
    for gi, m in enumerate(interface_mults.tolist()):
        by_sharing.setdefault(sharing_all[m], []).append(gi)
    globs = []
    for tup, dofs in sorted(by_sharing.items(), key=lambda kv: kv[1][0]):
        if len(dofs) == 1:
            kind = "vertex"
        elif len(tup) == 2:
            kind = "face"
        else:
            kind = "edge"
        globs.append(Glob(kind=kind, sharing=tup, dofs=tuple(dofs)))
    sub_has_natural = np.zeros(n_sub, dtype=bool)
    natural_elements = system.mesh.sides.element[dm.natural_sides]
    sub_has_natural[partition.assignment[natural_elements]] = True
    return InterfaceLayout(
        partition=partition,
        mult_sharing=sharing_all,
        interface_mults=interface_mults,
        n_interface=n_interface,
        local_dofs=np.split(pair_gi[by_sub], cuts),
        globs=globs,
        barycenters=dm.mult_center[interface_mults],
        sub_has_natural=sub_has_natural,
    )


def select_corners(layout: InterfaceLayout) -> list[int]:
    """Choose corner dofs: every vertex glob, plus up to three
    well-distributed dofs per face glob.

    Per face glob: the dof farthest from the glob centroid, the dof farthest
    from the first, and the dof farthest from the line through the first
    two (selected even when collinearity makes the distance zero). All ties
    resolve to the lowest dof index, so selection is deterministic.
    """
    pts = layout.barycenters
    corners: set[int] = set()
    for glob in layout.globs:
        if glob.kind == "vertex":
            corners.add(glob.dofs[0])
            continue
        if glob.kind != "face":
            continue
        dofs = list(glob.dofs)
        if len(dofs) <= 2:
            corners.update(dofs)
            continue
        centroid = pts[dofs].mean(axis=0)

        def farthest(cands, dist):
            # strict > keeps the first (lowest-index) candidate on ties
            best, best_d = None, -np.inf
            for d in cands:
                x = dist(pts[d])
                if x > best_d:
                    best, best_d = d, x
            return best

        c1 = farthest(dofs, lambda p: float(np.linalg.norm(p - centroid)))
        rest = [d for d in dofs if d != c1]
        c2 = farthest(rest, lambda p: float(np.linalg.norm(p - pts[c1])))
        rest = [d for d in rest if d != c2]
        t = pts[c2] - pts[c1]
        nt = np.linalg.norm(t)
        if nt > 0:
            that = t / nt

            def line_dist(p):
                v = p - pts[c1]
                return float(np.linalg.norm(v - (v @ that) * that))

        else:
            def line_dist(p):
                return float(np.linalg.norm(p - pts[c1]))

        c3 = farthest(rest, line_dist)
        corners.update(x for x in (c1, c2, c3) if x is not None)
    return sorted(corners)


# ---------------------------------------------------------------------------
# interface weights


def compute_weights(
    system: BlockSystem, layout: InterfaceLayout, scheme: str
) -> list[NDArray]:
    """Diagonal interface weights per substructure, a partition of unity.

    ``arithmetic`` divides equally by the number of sharers. ``rho`` weighs
    each side by the conductivity indicator d/tr(k^-1) of its adjoining
    element (the strongest one, under star junctions). ``diag`` weighs by
    the sharer's contribution to the interface operator diagonal,
    approximated by its penalty diagonal plus the reciprocal flux-mass
    diagonal of each adjoining side. Every scheme is normalized so the
    weights of each dof sum to one.
    """
    if scheme not in SCHEMES:
        raise ConfigurationError(
            f"unknown weight scheme {scheme!r}; choose from {SCHEMES}"
        )
    mesh = system.mesh
    n_interface = layout.n_interface
    # one score per (substructure, interface dof) pair, in local_dofs order
    sizes = [len(v) for v in layout.local_dofs]
    pair_sub = np.repeat(np.arange(layout.partition.n_sub), sizes)
    pair_gi = np.concatenate(layout.local_dofs)
    if scheme == "arithmetic":
        score = np.ones(len(pair_gi))
    else:
        mult, element, at = _touches(system)
        gi_of = np.full(system.n_multiplier, -1, dtype=np.int64)
        gi_of[layout.interface_mults] = np.arange(n_interface)
        gi = gi_of[mult]
        on = gi >= 0
        key = layout.partition.assignment[element] * n_interface + gi
        pos = np.searchsorted(pair_sub * n_interface + pair_gi, key[on])
        score = np.zeros(len(pair_gi))
        if scheme == "rho":
            rho = np.empty(mesh.n_elements)
            for blk in mesh.simplices.values():
                kinv = np.linalg.inv(blk.conductivity)
                rho[blk.ids] = blk.dim / np.trace(kinv, axis1=1, axis2=2)
            np.maximum.at(score, pos, rho[element[on]])
        else:  # diag: the links' penalty terms first, then the sides'
            side_w = 1.0 / system.a.diagonal()[system.dof_map.side_vel[at]]
            np.add.at(score, pos, np.concatenate((mesh.coupling_weights, side_w))[on])
    total = np.zeros(n_interface)
    np.add.at(total, pair_gi, score)
    return np.split(score / total[pair_gi], np.cumsum(sizes)[:-1])
