"""Mixed-dimensional simplicial meshes for flow in fractured porous media.

A mesh holds simplices of dimension 1, 2 and 3 at once. Lower-dimensional
elements (fracture planes, intersection channels) geometrically coincide
with faces of higher-dimensional elements: a 2D fracture triangle occupies a
tetrahedral face, a 1D channel segment occupies a triangle edge. Coincidence
is exact, by shared node ids, and is discovered by :func:`detect_couplings`.

Conventions
-----------
* Node coordinates are always stored in 3D; planar and linear meshes embed.
* An element of dimension ``d`` has ``d + 1`` vertices and ``d + 1`` faces;
  local face ``j`` is the facet opposite local vertex ``j``.
* Conductivity tensors are ``dim x dim`` and interpreted in the element's
  local tangent frame (Gram-Schmidt on its edge vectors); for isotropic
  tensors the frame is irrelevant.
* Boundary conditions attach to faces by their sorted node tuple. ``natural``
  prescribes the pressure on the face, ``essential`` prescribes zero normal
  flux. Faces without an explicit condition default to essential.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sps
from numpy.typing import NDArray
from scipy.sparse.csgraph import connected_components

from .errors import ConfigurationError, InvalidMeshError, MeshFormatError

NATURAL = "natural"
ESSENTIAL = "essential"

# Geometric coincidence tolerance for generator plane matching.
_PLANE_TOL = 1e-12


@dataclass(frozen=True)
class Node:
    """A mesh vertex: dense integer id plus 3D coordinates."""

    id: int
    coords: NDArray[np.float64]


@dataclass
class Element:
    """A simplex of dimension 1, 2 or 3.

    Parameters are the raw input data; ``measure`` and ``centroid`` are
    derived from node coordinates when the owning mesh is constructed.
    """

    id: int
    dim: int
    node_ids: tuple[int, ...]
    conductivity: NDArray[np.float64]
    cross_section: float = 1.0
    source: float = 0.0
    measure: float = field(default=0.0, compare=False)
    centroid: NDArray[np.float64] = field(
        default_factory=lambda: np.zeros(3), compare=False
    )


@dataclass(frozen=True)
class ElementFace:
    """One facet of one element, with its sorted node tuple.

    ``outward_normal_sign`` relates the element's outward normal to the
    facet's canonical orientation (see :func:`_outward_sign`); it is a
    diagnostic quantity, degree-of-freedom values never depend on it because
    each side of a face carries its own outward-flux unknown.
    """

    element_id: int
    local_face: int
    node_ids: tuple[int, ...]
    measure: float
    outward_normal_sign: int


@dataclass(frozen=True)
class CouplingLink:
    """Geometric coincidence of a lower-dim element with one element face.

    One lower-dimensional element generates one link per adjoining side, so
    a fracture triangle interior to a tetrahedral mesh generates two links.
    ``sigma`` is the pressure-jump transition coefficient of the link and
    ``measure`` the area (or length) of the shared face.
    """

    lower_element: int
    upper_element: int
    upper_local_face: int
    face_nodes: tuple[int, ...]
    measure: float
    sigma: float


@dataclass(frozen=True)
class BoundaryCondition:
    """Condition on one boundary face, identified by sorted node tuple."""

    face_nodes: tuple[int, ...]
    kind: str
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in (NATURAL, ESSENTIAL):
            raise InvalidMeshError(f"unknown boundary kind {self.kind!r}")


# Local faces of a d-simplex: face j is opposite local vertex j.
SIMPLEX_FACES: dict[int, tuple[tuple[int, ...], ...]] = {
    1: ((1,), (0,)),
    2: ((1, 2), (0, 2), (0, 1)),
    3: ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)),
}
_FACE_INDEX = {d: np.array(faces) for d, faces in SIMPLEX_FACES.items()}


def _dot(u: NDArray, v: NDArray) -> NDArray:
    """Row-wise dot products of two ``(n, 3)`` stacks.

    A stacked ``matmul`` rounds each product exactly as ``u[i] @ v[i]``
    does, which ``einsum`` and axis reductions do not; the batched geometry
    below therefore reproduces single-element results bit for bit.
    """
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def simplex_measures(pts: NDArray) -> NDArray:
    """Lengths, areas or volumes of a stack of simplices.

    ``pts`` has shape ``(n, k + 1, 3)``. A single point has measure 1 by
    convention (integration over a point is evaluation).
    """
    k = pts.shape[1] - 1
    if k == 0:
        return np.ones(len(pts))
    edges = pts[:, 1:] - pts[:, :1]
    if k == 1:
        return np.sqrt(_dot(edges[:, 0], edges[:, 0]))
    if k == 2:
        normal = np.cross(edges[:, 0], edges[:, 1])
        return 0.5 * np.sqrt(_dot(normal, normal))
    if k == 3:
        return np.abs(np.linalg.det(edges)) / 6.0
    raise InvalidMeshError(f"unsupported simplex dimension {k}")


def simplex_measure(coords: NDArray) -> float:
    """Length, area or volume of the simplex spanned by ``coords``, shape
    ``(d + 1, 3)``; see :func:`simplex_measures`."""
    return float(simplex_measures(np.asarray(coords, dtype=float)[None])[0])


def tangent_frames(pts: NDArray) -> NDArray:
    """Orthonormal bases of the tangent spaces of a stack of simplices.

    ``pts`` has shape ``(n, d + 1, 3)``; the result has shape ``(n, 3, d)``.
    Deterministic Gram-Schmidt on the edge vectors from vertex 0. The first
    axis always points along the first edge.
    """
    edges = pts[:, 1:] - pts[:, :1]
    q: list[NDArray] = []
    for j in range(edges.shape[1]):
        v = edges[:, j].copy()
        for u in q:
            v -= _dot(u, v)[:, None] * u
        nrm = np.sqrt(_dot(v, v))
        if not (nrm > 0.0).all():
            raise InvalidMeshError("degenerate simplex: edges are dependent")
        q.append(v / nrm[:, None])
    return np.stack(q, axis=2)


def tangent_frame(coords: NDArray, dim: int) -> NDArray:
    """Orthonormal basis of one element's tangent space, shape ``(3, dim)``;
    see :func:`tangent_frames`."""
    return tangent_frames(np.asarray(coords, dtype=float)[None, : dim + 1])[0]


def face_keys(rows: NDArray) -> NDArray[np.int64]:
    """Number node-id rows as sets: rows with the same nodes in any order
    get the same id, and ids are dense, ascending with the sorted rows."""
    _, inverse = np.unique(np.sort(rows, axis=1), axis=0, return_inverse=True)
    return inverse.reshape(-1)


def _outward_sign(el: Element, local_face: int, coords: NDArray) -> int:
    """Sign of the element's outward normal against a canonical orientation.

    For triangle faces of tetrahedra the canonical normal is the cross
    product of the sorted-node edge vectors, which is element independent.
    For lower dimensions a fully element-independent convention does not
    exist (an edge in 3D has no canonical in-plane normal), so the sign is
    taken in the element's own tangent frame. Diagnostic use only.
    """
    pts = coords[list(el.node_ids)]
    face_local = SIMPLEX_FACES[el.dim][local_face]
    face_ids = sorted(el.node_ids[i] for i in face_local)
    fpts = coords[face_ids]
    opposite = pts[local_face]
    if el.dim == 3:
        canon = np.cross(fpts[1] - fpts[0], fpts[2] - fpts[0])
        return 1 if canon @ (fpts.mean(axis=0) - opposite) > 0 else -1
    if el.dim == 2:
        plane_n = np.cross(pts[1] - pts[0], pts[2] - pts[0])
        canon = np.cross(plane_n, fpts[1] - fpts[0])
        return 1 if canon @ (fpts.mean(axis=0) - opposite) > 0 else -1
    # Point face of a segment: +1 when outward means increasing node id.
    return 1 if face_ids[0] > min(el.node_ids) else -1


@dataclass(frozen=True)
class Simplices:
    """The elements of one dimension as arrays, in ascending element id.

    Row ``i`` describes element ``ids[i]``; ``sides[i, j]`` is the position
    of its local face ``j`` in the mesh's :class:`Sides` table.
    """

    dim: int
    ids: NDArray[np.int64]  # (E,)
    nodes: NDArray[np.int64]  # (E, dim + 1)
    conductivity: NDArray[np.float64]  # (E, dim, dim)
    cross_section: NDArray[np.float64]  # (E,)
    source: NDArray[np.float64]  # (E,)
    measure: NDArray[np.float64]  # (E,)
    centroid: NDArray[np.float64]  # (E, 3)
    sides: NDArray[np.int64]  # (E, dim + 1)

    def face_nodes(self) -> NDArray[np.int64]:
        """Sorted node ids of every local face, shape ``(E, dim + 1, dim)``."""
        return np.sort(self.nodes[:, _FACE_INDEX[self.dim]], axis=2)


@dataclass(frozen=True)
class Sides:
    """Every element side, in (element id, local face) order.

    Two sides have the same ``face`` id exactly when their elements have
    the same dimension and the faces the same nodes; ``count`` is the
    number of sides on the face. ``lower`` is the lower-dimensional element
    occupying the face, or -1. ``n_faces`` bounds the face ids.
    """

    element: NDArray[np.int64]
    local_face: NDArray[np.int64]
    face: NDArray[np.int64]
    count: NDArray[np.int64]
    lower: NDArray[np.int64]
    n_faces: int


def _reject(hits: Iterable[NDArray], message: Callable[[int], str]) -> None:
    """Raise for the lowest element id among ``hits``, if there is one."""
    bad = [h for h in hits if len(h)]
    if bad:
        raise InvalidMeshError(message(int(min(h.min() for h in bad))))


class Mesh:
    """Immutable-by-contract container of nodes, elements and conditions.

    Validation and derived data happen at construction: the per-dimension
    :class:`Simplices` arrays (``simplices``), the side table (``sides``),
    each element's ``measure`` and ``centroid``, and the coupling links.
    ``bc_faces`` holds the face id of every boundary condition, or -1 when
    its nodes form no element face. Afterwards the mesh must not be
    mutated, which makes concurrent read access safe.
    """

    def __init__(
        self,
        node_coords: NDArray,
        elements: Sequence[Element],
        boundary_conditions: Sequence[BoundaryCondition] = (),
        gravity_enabled: bool = False,
        transition_coefficient: float = 1.0,
    ):
        self.node_coords = np.asarray(node_coords, dtype=float).reshape(-1, 3)
        self.elements = list(elements)
        self.boundary_conditions = list(boundary_conditions)
        self.gravity_enabled = bool(gravity_enabled)
        self.transition_coefficient = float(transition_coefficient)
        self._build()
        self.couplings: list[CouplingLink] = detect_couplings(self)

    # -- validation and derived arrays -----------------------------------

    def _build(self) -> None:
        els = self.elements
        n_nodes = len(self.node_coords)
        ids = [el.id for el in els]
        if ids != list(range(len(els))):
            pos = next(p for p, eid in enumerate(ids) if eid != p)
            raise InvalidMeshError(
                f"element ids must be dense and ordered; "
                f"got id {ids[pos]} at position {pos}"
            )
        groups: dict[int, list[Element]] = {1: [], 2: [], 3: []}
        for el in els:
            if el.dim not in groups:
                raise InvalidMeshError(f"element {el.id}: dimension {el.dim}")
            if len(el.node_ids) != el.dim + 1:
                raise InvalidMeshError(
                    f"element {el.id}: expected {el.dim + 1} nodes, "
                    f"got {len(el.node_ids)}"
                )
            groups[el.dim].append(el)
        groups = {d: g for d, g in groups.items() if g}
        gid = {d: np.array([el.id for el in g]) for d, g in groups.items()}
        nodes = {
            d: np.array([el.node_ids for el in g], dtype=np.int64)
            for d, g in groups.items()
        }
        _reject(
            (gid[d][((v < 0) | (v >= n_nodes)).any(axis=1)] for d, v in nodes.items()),
            lambda e: f"element {e}: dangling node reference "
            f"{next(n for n in els[e].node_ids if not 0 <= n < n_nodes)}",
        )
        _reject(
            (
                gid[d][(np.diff(np.sort(v, axis=1), axis=1) == 0).any(axis=1)]
                for d, v in nodes.items()
            ),
            lambda e: f"element {e}: repeated node",
        )
        sides, cells, n_faces = self._number_faces(nodes)
        first_of: dict[int, NDArray] = {}
        for d, cell in cells.items():
            _, first, inverse = np.unique(cell, return_index=True, return_inverse=True)
            first_of[d] = gid[d][first[inverse]]
        _reject(
            (gid[d][first_of[d] != gid[d]] for d in cells),
            lambda e: f"elements {first_of[els[e].dim][gid[els[e].dim] == e][0]} "
            f"and {e} occupy the same simplex",
        )
        offset = np.concatenate(
            ([0], np.cumsum([el.dim + 1 for el in els], dtype=np.int64))
        )
        side_at = {d: offset[e][:, None] + np.arange(d + 1) for d, e in gid.items()}
        self.sides = self._side_table(offset, gid, side_at, sides, cells, n_faces)
        cond = {d: self._conductivities(g, d) for d, g in groups.items()}
        _reject(
            (gid[d][~_symmetric(k)] for d, k in cond.items()),
            lambda e: f"element {e}: conductivity tensor is not symmetric",
        )
        _reject(
            (gid[d][~(np.linalg.eigvalsh(k).min(axis=1) > 0.0)] for d, k in cond.items()),
            lambda e: f"element {e}: conductivity tensor is not positive definite",
        )
        cross = {
            d: np.array([el.cross_section for el in g], dtype=float)
            for d, g in groups.items()
        }
        _reject(
            (gid[d][~(c > 0.0)] for d, c in cross.items()),
            lambda e: f"element {e}: cross-section must be positive",
        )
        pts = {d: self.node_coords[v] for d, v in nodes.items()}
        measure = {d: simplex_measures(p) for d, p in pts.items()}
        _reject(
            (gid[d][~((m > 0.0) & np.isfinite(m))] for d, m in measure.items()),
            lambda e: f"element {e}: degenerate simplex",
        )
        for bc in self.boundary_conditions:
            for nid in bc.face_nodes:
                if not 0 <= nid < n_nodes:
                    raise InvalidMeshError(
                        f"boundary condition {bc.face_nodes}: dangling node {nid}"
                    )
            if tuple(sorted(bc.face_nodes)) != tuple(bc.face_nodes):
                raise InvalidMeshError(
                    f"boundary condition node tuple {bc.face_nodes} is not sorted"
                )
        self.simplices: dict[int, Simplices] = {}
        for d, g in groups.items():
            blk = Simplices(
                dim=d,
                ids=gid[d],
                nodes=nodes[d],
                conductivity=cond[d],
                cross_section=cross[d],
                source=np.array([el.source for el in g], dtype=float),
                measure=measure[d],
                centroid=pts[d].mean(axis=1),
                sides=side_at[d],
            )
            self.simplices[d] = blk
            for el, k, m, c in zip(g, blk.conductivity, blk.measure.tolist(), blk.centroid):
                el.conductivity = k
                el.measure = m
                el.centroid = c

    def _number_faces(
        self, nodes: dict[int, NDArray]
    ) -> tuple[dict[int, NDArray], dict[int, NDArray], int]:
        """Give every element face, every element's own node set and every
        boundary condition a face id.

        Faces of d-dimensional elements, (d-1)-dimensional elements and
        conditions with d nodes are numbered together, so equal ids mean
        coincidence. Returns the ids of the faces ``(E_d, d + 1)`` and of the
        elements ``(E_d,)`` per dimension, and the number of ids; sets
        ``bc_faces``.
        """
        bcs = self.boundary_conditions
        width = np.array([len(bc.face_nodes) for bc in bcs], dtype=np.int64)
        self.bc_faces = np.full(len(bcs), -1, dtype=np.int64)
        sides: dict[int, NDArray] = {}
        cells: dict[int, NDArray] = {}
        n_faces = 0
        for w in range(1, 5):
            on_bc = np.flatnonzero(width == w)
            parts = []
            if w in nodes:
                parts.append(nodes[w][:, _FACE_INDEX[w]].reshape(-1, w))
            if w - 1 in nodes:
                parts.append(nodes[w - 1])
            if len(on_bc):
                parts.append(np.array([bcs[i].face_nodes for i in on_bc], dtype=np.int64))
            if not parts:
                continue
            keys = face_keys(np.concatenate(parts)) + n_faces
            n_faces = int(keys.max()) + 1
            start = 0
            if w in nodes:
                start = nodes[w].size
                sides[w] = keys[:start].reshape(-1, w + 1)
            if w - 1 in nodes:
                cells[w - 1] = keys[start : start + len(nodes[w - 1])]
            self.bc_faces[on_bc] = keys[len(keys) - len(on_bc) :]
        return sides, cells, n_faces

    def _side_table(self, offset, gid, side_at, sides, cells, n_faces) -> Sides:
        total = int(offset[-1])
        element = np.repeat(np.arange(len(self.elements)), np.diff(offset))
        face = np.empty(total, dtype=np.int64)
        for d, at in side_at.items():
            face[at] = sides[d]
        occupant = np.full(n_faces, -1, dtype=np.int64)
        for d, cell in cells.items():
            if d < 3:
                occupant[cell] = gid[d]
        return Sides(
            element=element,
            local_face=np.arange(total) - offset[element],
            face=face,
            count=np.bincount(face, minlength=n_faces)[face],
            lower=occupant[face],
            n_faces=n_faces,
        )

    @staticmethod
    def _conductivities(group: list[Element], dim: int) -> NDArray:
        """Stack the group's tensors, naming the first malformed one."""
        try:
            k = np.array([el.conductivity for el in group], dtype=float)
        except (ValueError, TypeError):
            k = None
        if k is None or k.shape != (len(group), dim, dim):
            for el in group:
                shape = np.shape(el.conductivity)
                if shape != (dim, dim):
                    raise InvalidMeshError(
                        f"element {el.id}: conductivity must be "
                        f"{dim}x{dim}, got {shape}"
                    )
            raise InvalidMeshError(f"conductivities of dimension {dim} are not numeric")
        return k

    # -- derived views ---------------------------------------------------

    @property
    def nodes(self) -> list[Node]:
        return [Node(i, c) for i, c in enumerate(self.node_coords)]

    def element_faces(self, el: Element) -> list[ElementFace]:
        """All facets of one element, with measures and diagnostic signs."""
        out = []
        for lf, locs in enumerate(SIMPLEX_FACES[el.dim]):
            ids = tuple(sorted(el.node_ids[i] for i in locs))
            out.append(
                ElementFace(
                    element_id=el.id,
                    local_face=lf,
                    node_ids=ids,
                    measure=simplex_measure(self.node_coords[list(ids)]),
                    outward_normal_sign=_outward_sign(el, lf, self.node_coords),
                )
            )
        return out

    def face_neighbors(self) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
        """Pairs of same-dimension elements sharing a face that no
        lower-dimensional element occupies; such elements share that face's
        multiplier. Both orders of each pair are listed."""
        s = self.sides
        keep = (s.lower < 0) & (s.count > 1)
        incidence = sps.csr_matrix(
            (np.ones(int(keep.sum())), (s.element[keep], s.face[keep])),
            shape=(len(self.elements), s.n_faces),
        )
        pairs = (incidence @ incidence.T).tocoo()
        off = pairs.row != pairs.col
        return pairs.row[off].astype(np.int64), pairs.col[off].astype(np.int64)

    def max_dim(self) -> int:
        return max(self.simplices)

    def has_natural_bc(self) -> bool:
        return any(bc.kind == NATURAL for bc in self.boundary_conditions)

    def element_graph(self, include_couplings: bool) -> sps.csr_matrix:
        """Symmetric adjacency matrix of the elements that share an unknown.

        Edges join same-dimension elements sharing an unoccupied face (those
        share a pressure-trace unknown). With ``include_couplings`` the two
        ends of every coupling link join as well. Each row lists every
        neighbor once.
        """
        a, b = self.face_neighbors()
        if include_couplings:
            at = coupled_sides(self)
            lower, upper = self.sides.lower[at], self.sides.element[at]
            a, b = np.concatenate((a, lower, upper)), np.concatenate((b, upper, lower))
        n = len(self.elements)
        return sps.csr_matrix((np.ones(len(a)), (a, b)), shape=(n, n))

    def components(self, include_couplings: bool) -> list[list[int]]:
        """Connected components of :meth:`element_graph`, as ascending
        element-id lists ordered by their first element.

        With the coupling links, components are the right notion for
        solvability diagnostics; without them, components separated by
        fractures stay separate.
        """
        graph = self.element_graph(include_couplings)
        n_comp, labels = connected_components(graph, directed=False)
        order = np.argsort(labels, kind="stable")
        comps = np.split(order, np.cumsum(np.bincount(labels, minlength=n_comp))[:-1])
        return sorted((c.tolist() for c in comps if len(c)), key=lambda c: c[0])

    def components_without_natural_bc(self, include_couplings: bool) -> list[list[int]]:
        """Components whose boundary carries no natural condition."""
        natural = [bc.kind == NATURAL for bc in self.boundary_conditions]
        faces = self.bc_faces[np.array(natural, dtype=bool)]
        touched = set(self.sides.element[np.isin(self.sides.face, faces)].tolist())
        return [
            comp
            for comp in self.components(include_couplings)
            if not any(e in touched for e in comp)
        ]


def _symmetric(k: NDArray) -> NDArray[np.bool_]:
    """Which stacked tensors are finite and symmetric to 1e-12 of their
    largest entry (at least 1e-12 absolute)."""
    scale = 1e-12 * np.maximum(1.0, np.abs(k).max(axis=(1, 2)))
    return (np.abs(k - k.transpose(0, 2, 1)) <= scale[:, None, None]).all(axis=(1, 2))


def coupled_sides(mesh: Mesh) -> NDArray[np.int64]:
    """Positions in ``mesh.sides`` of the sides occupied by a lower-dim
    element, in coupling-link order: by lower element, upper element, then
    local face."""
    s = mesh.sides
    at = np.flatnonzero(s.lower >= 0)
    return at[np.lexsort((s.local_face[at], s.element[at], s.lower[at]))]


def detect_couplings(mesh: Mesh, sigma: float | None = None) -> list[CouplingLink]:
    """Find all lower-dim-element / element-face coincidences.

    Matching is exact on node sets: a d-dimensional element couples to
    every side of a (d+1)-dimensional element whose facet has the same
    vertices. A lower-dim element matching nothing, in a mesh that does
    contain elements one dimension up, draws a diagnostic warning: it looks
    like a fracture that failed to attach. Purely lower-dimensional meshes
    (a standalone 2D problem, say) warn about nothing.
    """
    if sigma is None:
        sigma = mesh.transition_coefficient
    s = mesh.sides
    at = coupled_sides(mesh)
    matched = np.bincount(s.lower[at], minlength=len(mesh.elements))
    for d in (1, 2):
        if d in mesh.simplices and d + 1 in mesh.simplices:
            ids = mesh.simplices[d].ids
            for eid in ids[matched[ids] == 0].tolist():
                warnings.warn(
                    f"element {eid} (dim {d}) matches no face of any "
                    f"dim-{d + 1} element; it will not exchange flow with them",
                    stacklevel=2,
                )
    links = []
    for lower, upper, lf in zip(
        s.lower[at].tolist(), s.element[at].tolist(), s.local_face[at].tolist()
    ):
        el = mesh.elements[lower]
        links.append(
            CouplingLink(
                lower_element=lower,
                upper_element=upper,
                upper_local_face=lf,
                face_nodes=tuple(sorted(el.node_ids)),
                measure=el.measure,
                sigma=float(sigma),
            )
        )
    return links




# ---------------------------------------------------------------------------
# boundary-condition rules for generators


@dataclass(frozen=True)
class PlaneBC:
    """Marks boundary faces lying on an axis-aligned plane.

    ``value`` may be a constant or a callable evaluated at the face
    barycenter (useful for manufactured solutions).
    """

    axis: int
    position: float
    kind: str
    value: float | Callable[[NDArray], float] = 0.0


@dataclass(frozen=True)
class BCSpec:
    """Ordered plane rules; first match wins, the rest default to essential."""

    rules: tuple[PlaneBC, ...]

    def resolve(self, face_nodes: tuple[int, ...], coords: NDArray) -> BoundaryCondition:
        pts = coords[list(face_nodes)]
        for rule in self.rules:
            if np.all(np.abs(pts[:, rule.axis] - rule.position) <= _PLANE_TOL):
                value = rule.value
                if callable(value):
                    value = float(value(pts.mean(axis=0)))
                return BoundaryCondition(face_nodes, rule.kind, float(value))
        return BoundaryCondition(face_nodes, ESSENTIAL, 0.0)


def default_bc_spec() -> BCSpec:
    """Unit pressure drop along x: p=1 at x=0, p=0 at x=1, no-flow elsewhere."""
    return BCSpec(
        rules=(
            PlaneBC(axis=0, position=0.0, kind=NATURAL, value=1.0),
            PlaneBC(axis=0, position=1.0, kind=NATURAL, value=0.0),
        )
    )


def _as_tensor(conductivity, dim: int, centroid: NDArray) -> NDArray:
    if callable(conductivity):
        k = np.asarray(conductivity(centroid, dim), dtype=float)
        if k.ndim == 0:
            return float(k) * np.eye(dim)
        return k
    k = np.asarray(conductivity, dtype=float)
    if k.ndim == 0:
        return float(k) * np.eye(dim)
    return k


def _boundary_conditions_for(
    coords: NDArray, elements: list[Element], bc_spec: BCSpec
) -> list[BoundaryCondition]:
    """Apply a BCSpec to every unoccupied single-sided face group."""
    groups: dict[tuple[int, tuple[int, ...]], int] = {}
    for el in elements:
        for locs in SIMPLEX_FACES[el.dim]:
            key = (el.dim, tuple(sorted(el.node_ids[i] for i in locs)))
            groups[key] = groups.get(key, 0) + 1
    occupied = {
        (el.dim + 1, tuple(sorted(el.node_ids))) for el in elements if el.dim < 3
    }
    out = []
    for (dim, nodes), count in sorted(groups.items()):
        if count == 1 and (dim, nodes) not in occupied:
            out.append(bc_spec.resolve(nodes, coords))
    return out


# ---------------------------------------------------------------------------
# generators


def generate_unit_square(
    n: int,
    bc_spec: BCSpec | None = None,
    conductivity=1.0,
    cross_section: float = 1.0,
    source=0.0,
    gravity: bool = False,
) -> Mesh:
    """Structured triangulation of the unit square in the z=0 plane.

    The square is an ``n x n`` grid of cells, each split into two triangles
    by the diagonal from the cell's lower-left to upper-right corner, which
    keeps shared edges conforming. ``conductivity`` and ``source`` accept a
    constant or a callable of ``(centroid, dim)`` / ``(centroid)``.
    """
    if n < 1:
        raise ConfigurationError("n must be at least 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    coords = np.array([(x, y, 0.0) for y in xs for x in xs])

    def nid(i: int, j: int) -> int:
        return j * (n + 1) + i

    elements: list[Element] = []
    for j in range(n):
        for i in range(n):
            v00, v10 = nid(i, j), nid(i + 1, j)
            v01, v11 = nid(i, j + 1), nid(i + 1, j + 1)
            for tri in ((v00, v10, v11), (v00, v11, v01)):
                centroid = coords[list(tri)].mean(axis=0)
                elements.append(
                    Element(
                        id=len(elements),
                        dim=2,
                        node_ids=tri,
                        conductivity=_as_tensor(conductivity, 2, centroid),
                        cross_section=cross_section,
                        source=float(source(centroid)) if callable(source) else source,
                    )
                )
    bcs = _boundary_conditions_for(coords, elements, bc_spec or default_bc_spec())
    return Mesh(coords, elements, bcs, gravity_enabled=gravity)


def _cube_nodes(n: int) -> NDArray:
    xs = np.linspace(0.0, 1.0, n + 1)
    return np.array([(x, y, z) for z in xs for y in xs for x in xs])


def _cube_node_id(n: int, i: int, j: int, k: int) -> int:
    return (k * (n + 1) + j) * (n + 1) + i


# Vertex paths of the six tetrahedra splitting a unit cell along its main
# diagonal; each path adds the axes in one of the 3! orders.
_KUHN_ORDERS = (
    (0, 1, 2),
    (0, 2, 1),
    (1, 0, 2),
    (1, 2, 0),
    (2, 0, 1),
    (2, 1, 0),
)


def _cell_tets(n: int, i: int, j: int, k: int) -> list[tuple[int, ...]]:
    base = np.array([i, j, k])
    tets = []
    for order in _KUHN_ORDERS:
        corner = base.copy()
        path = [_cube_node_id(n, *corner)]
        for axis in order:
            corner[axis] += 1
            path.append(_cube_node_id(n, *corner))
        tets.append(tuple(path))
    return tets


def generate_unit_cube(
    n: int,
    bc_spec: BCSpec | None = None,
    conductivity=1.0,
    cross_section: float = 1.0,
    source=0.0,
    gravity: bool = False,
) -> Mesh:
    """Structured tetrahedralization of the unit cube.

    Each of the ``n**3`` cells splits into six tetrahedra around its main
    diagonal; identical diagonal orientation in every cell makes the mesh
    conforming across cell boundaries.
    """
    if n < 1:
        raise ConfigurationError("n must be at least 1")
    coords = _cube_nodes(n)
    elements: list[Element] = []
    for k in range(n):
        for j in range(n):
            for i in range(n):
                for tet in _cell_tets(n, i, j, k):
                    centroid = coords[list(tet)].mean(axis=0)
                    elements.append(
                        Element(
                            id=len(elements),
                            dim=3,
                            node_ids=tet,
                            conductivity=_as_tensor(conductivity, 3, centroid),
                            cross_section=cross_section,
                            source=float(source(centroid)) if callable(source) else source,
                        )
                    )
    bcs = _boundary_conditions_for(coords, elements, bc_spec or default_bc_spec())
    return Mesh(coords, elements, bcs, gravity_enabled=gravity)


def generate_cross_fracture_cube(
    n: int,
    k1: float = 10.0,
    k2: float = 1.0,
    k3: float = 0.1,
    sigma: float = 1.0,
    bc_spec: BCSpec | None = None,
    delta1: float = 1.0,
    delta2: float = 1.0,
    delta3: float = 1.0,
    gravity: bool = False,
) -> Mesh:
    """Unit cube crossed by two fracture planes and their intersection line.

    Fracture planes sit at x=0.5 and y=0.5; their intersection, the line
    x=y=0.5, carries 1D channel elements. ``n`` must be even so mesh nodes
    exist on both planes and on the line. ``k1``/``k2``/``k3`` are isotropic
    conductivities of the 1D, 2D and 3D elements; ``sigma`` is the interface
    transition coefficient shared by every coupling link.
    """
    if n < 2 or n % 2 != 0:
        raise ConfigurationError("cross-fracture cube requires an even n >= 2")
    coords = _cube_nodes(n)
    elements: list[Element] = []
    for k in range(n):
        for j in range(n):
            for i in range(n):
                for tet in _cell_tets(n, i, j, k):
                    elements.append(
                        Element(
                            id=len(elements),
                            dim=3,
                            node_ids=tet,
                            conductivity=k3 * np.eye(3),
                            cross_section=delta3,
                        )
                    )
    # Fracture triangles reuse the tetrahedral face tuples found on each
    # plane, so coincidence with both adjoining tetrahedra is exact.
    plane_faces: set[tuple[int, ...]] = set()
    for el in elements:
        for locs in SIMPLEX_FACES[3]:
            ids = tuple(sorted(el.node_ids[i] for i in locs))
            for axis in (0, 1):
                if np.all(np.abs(coords[list(ids), axis] - 0.5) <= _PLANE_TOL):
                    plane_faces.add(ids)
    for ids in sorted(plane_faces):
        elements.append(
            Element(
                id=len(elements),
                dim=2,
                node_ids=ids,
                conductivity=k2 * np.eye(2),
                cross_section=delta2,
            )
        )
    # Channel segments along x = y = 0.5.
    mid = n // 2
    for k in range(n):
        pair = (
            _cube_node_id(n, mid, mid, k),
            _cube_node_id(n, mid, mid, k + 1),
        )
        elements.append(
            Element(
                id=len(elements),
                dim=1,
                node_ids=pair,
                conductivity=k1 * np.eye(1),
                cross_section=delta1,
            )
        )
    bcs = _boundary_conditions_for(coords, elements, bc_spec or default_bc_spec())
    return Mesh(
        coords,
        elements,
        bcs,
        gravity_enabled=gravity,
        transition_coefficient=sigma,
    )


# ---------------------------------------------------------------------------
# plain-text mesh format

_FMT = "%.17g"


def _fmt(x: float) -> str:
    return _FMT % x


def _tensor_entries(k: NDArray) -> list[float]:
    """Symmetric upper triangle, row-wise: 1, 3 or 6 numbers."""
    dim = k.shape[0]
    return [k[i, j] for i in range(dim) for j in range(i, dim)]


def write_mesh(mesh: Mesh, path: str) -> None:
    """Write the plain-text mesh format.

    Sections: ``$params`` (gravity flag, transition coefficient), ``$nodes``
    (id x y z), ``$elements`` (id dim nodes..., upper-triangle conductivity,
    cross-section, source), ``$boundary`` (node tuple, kind, value), ``$end``.
    Floats use 17 significant digits and round-trip exactly.
    """
    lines = ["# mixed-dimensional mesh"]
    lines.append("$params")
    lines.append(f"gravity {1 if mesh.gravity_enabled else 0}")
    lines.append(f"sigma {_fmt(mesh.transition_coefficient)}")
    lines.append("$nodes")
    for i, c in enumerate(mesh.node_coords):
        lines.append(f"{i} {_fmt(c[0])} {_fmt(c[1])} {_fmt(c[2])}")
    lines.append("$elements")
    for el in mesh.elements:
        fields = [str(el.id), str(el.dim)]
        fields += [str(v) for v in el.node_ids]
        fields += [_fmt(v) for v in _tensor_entries(el.conductivity)]
        fields += [_fmt(el.cross_section), _fmt(el.source)]
        lines.append(" ".join(fields))
    lines.append("$boundary")
    for bc in mesh.boundary_conditions:
        fields = [str(v) for v in bc.face_nodes]
        fields += [bc.kind, _fmt(bc.value)]
        lines.append(" ".join(fields))
    lines.append("$end")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


_TENSOR_SIZE = {1: 1, 2: 3, 3: 6}

# A data line of a mesh file: its 1-based line number and its tokens.
_Row = tuple[int, list[str]]


def read_mesh(path: str) -> Mesh:
    """Parse the plain-text mesh format written by :func:`write_mesh`.

    Raises :class:`MeshFormatError` with a 1-based line number on malformed
    input; structural problems surface as :class:`InvalidMeshError` from the
    mesh constructor. Lines are split one by one; each section's numbers
    are converted and checked as whole arrays.
    """
    section = None
    gravity = False
    sigma = 1.0
    rows: dict[str, list[_Row]] = {"nodes": [], "elements": [], "boundary": []}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("$"):
                name = line[1:].strip()
                if name == "end":
                    section = "end"
                    break
                if name not in ("params", "nodes", "elements", "boundary"):
                    raise MeshFormatError(f"unknown section ${name}", lineno)
                section = name
                continue
            tok = line.split()
            if section in rows:
                rows[section].append((lineno, tok))
            elif section == "params":
                try:
                    if tok[0] == "gravity":
                        gravity = bool(int(tok[1]))
                    elif tok[0] == "sigma":
                        sigma = float(tok[1])
                    else:
                        raise MeshFormatError(f"unknown parameter {tok[0]!r}", lineno)
                except (ValueError, IndexError) as exc:
                    raise MeshFormatError(str(exc), lineno) from exc
            else:
                raise MeshFormatError("data before any section header", lineno)
    coords = _parse_nodes(rows["nodes"])
    elements = _parse_elements(rows["elements"], len(coords))
    bcs = _parse_boundary(rows["boundary"], len(coords))
    if section != "end":
        raise MeshFormatError("missing $end marker")
    return Mesh(
        coords,
        elements,
        bcs,
        gravity_enabled=gravity,
        transition_coefficient=sigma,
    )


def _numbers(rows: list[_Row], n_int: int, n_float: int) -> tuple[NDArray, NDArray]:
    """Convert rows of ``n_int`` integer tokens followed by ``n_float``
    float tokens into an int and a float array, naming the first bad line."""
    try:
        ints = np.array([int(v) for _, t in rows for v in t[:n_int]], dtype=np.int64)
        floats = np.array([float(v) for _, t in rows for v in t[n_int:]], dtype=float)
    except (ValueError, OverflowError):
        for lineno, tok in rows:
            try:
                np.array([int(v) for v in tok[:n_int]], dtype=np.int64)
                [float(v) for v in tok[n_int:]]
            except (ValueError, OverflowError) as exc:
                raise MeshFormatError(str(exc), lineno) from exc
        raise
    return ints.reshape(len(rows), n_int), floats.reshape(len(rows), n_float)


def _check_refs(rows: list[_Row], refs: NDArray, n_nodes: int) -> None:
    """Reject the first row referencing a node id outside ``[0, n_nodes)``."""
    bad = (refs < 0) | (refs >= n_nodes)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise MeshFormatError(f"dangling node reference {refs[r, c]}", rows[r][0])


def _parse_nodes(rows: list[_Row]) -> NDArray:
    for lineno, tok in rows:
        if len(tok) != 4:
            raise MeshFormatError("node line needs: id x y z", lineno)
    ids, xyz = _numbers(rows, 1, 3)
    ids = ids[:, 0]
    n = len(rows)
    first = np.zeros(n, dtype=bool)
    first[np.unique(ids, return_index=True)[1]] = True
    bad = np.flatnonzero((ids < 0) | (ids >= n) | ~first)
    if len(bad):
        raise MeshFormatError(f"node ids must be dense and unique, got {ids[bad[0]]}")
    coords = np.zeros((n, 3))
    coords[ids] = xyz
    return coords


def _parse_elements(rows: list[_Row], n_nodes: int) -> list[Element]:
    by_dim: dict[int, list[int]] = {1: [], 2: [], 3: []}
    for pos, (lineno, tok) in enumerate(rows):
        try:
            dim = int(tok[1])
        except (ValueError, IndexError) as exc:
            raise MeshFormatError(str(exc), lineno) from exc
        if dim not in by_dim:
            raise MeshFormatError(f"element dimension {dim}", lineno)
        expect = 2 + (dim + 1) + _TENSOR_SIZE[dim] + 2
        if len(tok) != expect:
            raise MeshFormatError(
                f"element line needs {expect} fields, got {len(tok)}", lineno
            )
        by_dim[dim].append(pos)
    elements: list[Element] = [None] * len(rows)  # type: ignore[list-item]
    for dim, positions in by_dim.items():
        if not positions:
            continue
        group = [rows[p] for p in positions]
        n_tensor = _TENSOR_SIZE[dim]
        ints, floats = _numbers(group, dim + 3, n_tensor + 2)
        _check_refs(group, ints[:, 2:], n_nodes)
        tensors = np.zeros((len(group), dim, dim))
        upper, lower = np.triu_indices(dim)
        tensors[:, upper, lower] = floats[:, :n_tensor]
        tensors[:, lower, upper] = floats[:, :n_tensor]
        finite = np.isfinite(tensors).all(axis=(1, 2))
        lowest = np.full(len(group), np.nan)
        lowest[finite] = np.linalg.eigvalsh(tensors[finite]).min(axis=1)
        bad = np.flatnonzero(~(lowest > 0.0))
        if len(bad):
            raise MeshFormatError(
                f"element {ints[bad[0], 0]}: conductivity tensor is not "
                f"positive definite",
                group[bad[0]][0],
            )
        for pos, eid, node_ids, tensor, cross, source in zip(
            positions,
            ints[:, 0].tolist(),
            ints[:, 2:].tolist(),
            tensors,
            floats[:, -2].tolist(),
            floats[:, -1].tolist(),
        ):
            elements[pos] = Element(
                id=eid,
                dim=dim,
                node_ids=tuple(node_ids),
                conductivity=tensor,
                cross_section=cross,
                source=source,
            )
    return elements


def _parse_boundary(rows: list[_Row], n_nodes: int) -> list[BoundaryCondition]:
    by_width: dict[int, list[int]] = {}
    for pos, (lineno, tok) in enumerate(rows):
        if len(tok) < 3:
            raise MeshFormatError("boundary line needs: nodes... kind value", lineno)
        if tok[-2] not in (NATURAL, ESSENTIAL):
            raise MeshFormatError(f"unknown boundary kind {tok[-2]!r}", lineno)
        by_width.setdefault(len(tok) - 2, []).append(pos)
    bcs: list[BoundaryCondition] = [None] * len(rows)  # type: ignore[list-item]
    for width, positions in by_width.items():
        group = [(rows[p][0], rows[p][1][:width] + rows[p][1][-1:]) for p in positions]
        nodes, values = _numbers(group, width, 1)
        _check_refs(group, nodes, n_nodes)
        for pos, face, value in zip(positions, nodes.tolist(), values[:, 0].tolist()):
            bcs[pos] = BoundaryCondition(tuple(face), rows[pos][1][-2], value)
    return bcs


def meshes_equal(a: Mesh, b: Mesh) -> bool:
    """Exact field-for-field identity, used by round-trip tests."""
    if (
        a.node_coords.shape != b.node_coords.shape
        or not np.array_equal(a.node_coords, b.node_coords)
        or len(a.elements) != len(b.elements)
        or a.gravity_enabled != b.gravity_enabled
        or a.transition_coefficient != b.transition_coefficient
    ):
        return False
    for ea, eb in zip(a.elements, b.elements):
        if (
            ea.id != eb.id
            or ea.dim != eb.dim
            or ea.node_ids != eb.node_ids
            or not np.array_equal(ea.conductivity, eb.conductivity)
            or ea.cross_section != eb.cross_section
            or ea.source != eb.source
        ):
            return False
    return a.boundary_conditions == b.boundary_conditions
