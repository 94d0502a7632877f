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
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .assembly import BlockSystem
from .errors import ConfigurationError
from .mesh import Mesh

SCHEMES = ("arithmetic", "rho", "diag")


@dataclass
class Partition:
    """Assignment of every element to exactly one substructure."""

    n_sub: int
    assignment: NDArray[np.int64]

    def elements_of(self, sub: int) -> NDArray[np.int64]:
        return np.flatnonzero(self.assignment == sub)

    def sizes(self) -> NDArray[np.int64]:
        return np.bincount(self.assignment, minlength=self.n_sub)


def _adjacency(mesh: Mesh) -> list[set[int]]:
    """Element adjacency through shared unknowns.

    Same-dimension elements sharing an unoccupied face also share a
    multiplier; coupling links tie a lower-dimensional element to its hosts.
    Sides of a fracture-occupied face are connected only through the
    fracture element, which the link edges reproduce.
    """
    adj: list[set[int]] = [set() for _ in mesh.elements]
    first, second = mesh.face_neighbors()
    for a, b in zip(first.tolist(), second.tolist()):
        adj[a].add(b)
    for link in mesh.couplings:
        adj[link.lower_element].add(link.upper_element)
        adj[link.upper_element].add(link.lower_element)
    return adj


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


def _components_within(ids: list[int], adj: list[set[int]], member: NDArray) -> list[list[int]]:
    seen: set[int] = set()
    comps = []
    for start in ids:
        if start in seen:
            continue
        stack = [start]
        comp = []
        seen.add(start)
        while stack:
            e = stack.pop()
            comp.append(e)
            for nb in adj[e]:
                if member[nb] and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        comps.append(sorted(comp))
    return comps


def partition_elements(mesh: Mesh, n_sub: int, seed: int = 0) -> Partition:
    """Partition all elements into ``n_sub`` connected substructures.

    Recursive coordinate bisection: split the longest bounding-box axis of
    the current subset at the median, ties resolved by element id, target
    counts proportional. The procedure is fully deterministic; ``seed`` is
    accepted for interface stability and recorded by callers but drives no
    randomness. A repair pass then reattaches any disconnected fragment to
    the neighboring substructure it shares the most adjacency edges with.
    """
    n_el = len(mesh.elements)
    if n_sub < 1:
        raise ConfigurationError("n_sub must be at least 1")
    if n_sub > n_el:
        raise ConfigurationError(
            f"cannot split {n_el} elements into {n_sub} substructures"
        )
    centroids = np.array([el.centroid for el in mesh.elements])
    assignment = np.full(n_el, -1, dtype=np.int64)
    _rcb(centroids, np.arange(n_el), n_sub, assignment, 0)

    adj = _adjacency(mesh)
    for _ in range(20):
        moved = False
        for s in range(n_sub):
            ids = list(np.flatnonzero(assignment == s))
            if not ids:
                continue
            member = assignment == s
            comps = _components_within(ids, adj, member)
            if len(comps) <= 1:
                continue
            comps.sort(key=lambda c: (-len(c), c[0]))
            for orphan in comps[1:]:
                counts: dict[int, int] = {}
                for e in orphan:
                    for nb in adj[e]:
                        t = int(assignment[nb])
                        if t != s:
                            counts[t] = counts.get(t, 0) + 1
                if not counts:
                    continue  # isolated in the mesh itself; leave in place
                best = max(sorted(counts), key=lambda t: counts[t])
                assignment[orphan] = best
                moved = True
        if not moved:
            break
    else:
        warnings.warn("partition repair did not converge; a substructure "
                      "may remain disconnected")
    if (np.bincount(assignment, minlength=n_sub) == 0).any():
        raise ConfigurationError("partition produced an empty substructure")
    return Partition(n_sub=n_sub, assignment=assignment)


def save_partition(partition: Partition, path: str) -> None:
    """Write one ``element_id substructure_id`` pair per line."""
    with open(path, "w") as fh:
        for e, s in enumerate(partition.assignment):
            fh.write(f"{e} {s}\n")


def load_partition(path: str) -> Partition:
    pairs = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tok = line.split()
            if len(tok) != 2:
                raise ConfigurationError(
                    f"{path}:{lineno}: expected 'element sub', got {line!r}"
                )
            pairs.append((int(tok[0]), int(tok[1])))
    n = len(pairs)
    assignment = np.full(n, -1, dtype=np.int64)
    for e, s in pairs:
        if not 0 <= e < n or assignment[e] != -1:
            raise ConfigurationError(f"element {e} missing or repeated")
        assignment[e] = s
    if assignment.min() < 0:
        raise ConfigurationError("partition file does not cover all elements")
    return Partition(n_sub=int(assignment.max()) + 1, assignment=assignment)


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


def classify_interface(system: BlockSystem, partition: Partition) -> InterfaceLayout:
    """Find interface multipliers, their sharing sets and glob structure."""
    dm = system.dof_map
    mesh = system.mesh
    assign = partition.assignment
    sharing_all: list[tuple[int, ...]] = []
    interface: list[int] = []
    for m in range(dm.n_multiplier):
        subs = {int(assign[e]) for e, _ in dm.mult_sides[m]}
        for li in dm.mult_links[m]:
            subs.add(int(assign[mesh.couplings[li].lower_element]))
        tup = tuple(sorted(subs))
        sharing_all.append(tup)
        if len(tup) > 1:
            interface.append(m)
    interface_mults = np.array(interface, dtype=np.int64)
    n_interface = len(interface)
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
    for (e, _lf) in dm.natural_of_side:
        sub_has_natural[assign[e]] = True
    return InterfaceLayout(
        partition=partition,
        mult_sharing=sharing_all,
        interface_mults=interface_mults,
        n_interface=n_interface,
        local_dofs=[np.array(v, dtype=np.int64) for v in local],
        globs=globs,
        barycenters=barycenters,
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


def _rho(el) -> float:
    return el.dim / float(np.trace(np.linalg.inv(el.conductivity)))


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
    dm = system.dof_map
    mesh = system.mesh
    assign = layout.partition.assignment
    a_diag = system.a.diagonal()
    weights = [np.zeros(len(layout.local_dofs[s])) for s in range(layout.partition.n_sub)]
    pos_of = [
        {int(g): i for i, g in enumerate(layout.local_dofs[s])}
        for s in range(layout.partition.n_sub)
    ]
    for gi, m in enumerate(layout.interface_mults):
        sharing = layout.mult_sharing[m]
        if scheme == "arithmetic":
            scores = {s: 1.0 for s in sharing}
        else:
            scores = {}
            for s in sharing:
                if scheme == "rho":
                    cands = [
                        _rho(mesh.elements[e])
                        for e, _ in dm.mult_sides[m]
                        if assign[e] == s
                    ]
                    cands += [
                        _rho(mesh.elements[mesh.couplings[li].lower_element])
                        for li in dm.mult_links[m]
                        if assign[mesh.couplings[li].lower_element] == s
                    ]
                    scores[s] = max(cands)
                else:  # diag
                    val = 0.0
                    for li in dm.mult_links[m]:
                        link = mesh.couplings[li]
                        if assign[link.lower_element] == s:
                            val += link.sigma * link.measure
                    for e, lf in dm.mult_sides[m]:
                        if assign[e] == s:
                            val += 1.0 / a_diag[dm.vel_of_side[(e, lf)]]
                    scores[s] = val
        total = sum(scores.values())
        for s in sharing:
            weights[s][pos_of[s][gi]] = scores[s] / total
    return weights
