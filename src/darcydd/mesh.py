"""Mixed-dimensional simplicial meshes for flow in fractured porous media.

A mesh holds simplices of dimension 1, 2 and 3 at once. Lower-dimensional
elements (fracture planes, intersection channels) geometrically coincide
with faces of higher-dimensional elements: a 2D fracture triangle occupies a
tetrahedral face, a 1D channel segment occupies a triangle edge. Coincidence
is exact, by shared node ids, and is discovered by :func:`detect_couplings`.

Representation
--------------
A :class:`Mesh` is built from node coordinates, one :class:`Cells` record of
arrays per element dimension and one :class:`Boundary` record of arrays per
face node count (sorted face nodes, natural mask, values; rows in input order,
written by ascending node count). The constructor validates them and derives
the per-dimension :class:`Simplices` arrays, the :class:`Sides` table and the
coupling links. :func:`read_mesh`, the generators and every solver layer work
on these arrays only. ``Mesh.elements`` is a list of :class:`Element` records
built from the arrays on first access; :func:`write_mesh` writes from it.

Conventions
-----------
* Node coordinates are always stored in 3D; planar and linear meshes embed.
* An element of dimension ``d`` has ``d + 1`` vertices and ``d + 1`` faces;
  local face ``j`` is the facet opposite local vertex ``j``.
* Conductivity tensors are ``dim x dim`` and interpreted in the element's
  local tangent frame (Gram-Schmidt on its edge vectors); for isotropic
  tensors the frame is irrelevant.
* Boundary conditions attach to faces by their sorted node ids. ``natural``
  prescribes the pressure on the face, ``essential`` prescribes zero normal
  flux. Faces without an explicit condition default to essential; the last
  condition given for a face wins.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sps
from numpy.typing import ArrayLike, NDArray
from scipy.sparse.csgraph import connected_components

from .errors import ConfigurationError, InvalidMeshError, MeshFormatError

NATURAL = "natural"
ESSENTIAL = "essential"

# Geometric coincidence tolerance for generator plane matching.
_PLANE_TOL = 1e-12


@dataclass
class Element:
    """One simplex of dimension 1, 2 or 3, as a record of its input data.

    Meshes store elements as arrays; :attr:`Mesh.elements` lists them in
    this form for writing files and for tests.
    """

    id: int
    dim: int
    node_ids: tuple[int, ...]
    conductivity: NDArray[np.float64]
    cross_section: float = 1.0
    source: float = 0.0


class Cells(NamedTuple):
    """The input data of the elements of one dimension, one row per
    element, in ascending element id."""

    ids: ArrayLike  # (E,)
    nodes: ArrayLike  # (E, dim + 1)
    conductivity: ArrayLike  # (E, dim, dim)
    cross_section: ArrayLike  # (E,)
    source: ArrayLike  # (E,)


class Boundary(NamedTuple):
    """The boundary conditions on faces of one node count, one row per
    condition, in input order."""

    nodes: ArrayLike  # (F, w), each row strictly ascending
    natural: ArrayLike  # (F,) True for natural, False for essential
    value: ArrayLike  # (F,)


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


def face_keys(rows: NDArray) -> NDArray[np.int64]:
    """Number node-id rows as sets: rows with the same nodes in any order
    get the same id, and ids are dense, ascending with the sorted rows."""
    keys = np.sort(rows, axis=1)
    order = np.lexsort(keys.T[::-1])  # rows ascending, first column first
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    ids = np.empty(len(keys), dtype=np.int64)
    ids[order] = np.cumsum(first) - 1
    return ids


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
        e = int(min(h.min() for h in bad))
        raise InvalidMeshError(message(e), rejected=("element", e))


class Mesh:
    """Immutable-by-contract container of nodes, elements and conditions.

    ``cells`` maps each element dimension to a :class:`Cells` record. The
    ids of all dimensions together must be ``0 .. E-1``, ascending within
    each dimension. ``boundary`` maps face node counts to :class:`Boundary`
    records; ``Mesh.boundary`` keeps them as arrays, in ascending node
    count. Validation and derived data happen at construction:

    * ``n_elements`` and ``simplices``, the per-dimension
      :class:`Simplices` arrays, with each element's ``measure`` and
      ``centroid``;
    * ``sides``, the :class:`Sides` table;
    * ``couplings``, the positions in ``sides`` of the coupled sides in
      link order (see :func:`detect_couplings`), and ``coupling_weights``,
      the penalty weight σ·|F| of each link;
    * ``bc_faces``, ``bc_natural`` and ``bc_value``: the face id, natural
      mask and value of each boundary condition, by node count, then row.

    A model the solver cannot use raises :class:`InvalidMeshError`, which
    names the node, element, condition or coefficient at fault
    (``rejected``). Each node needs finite coordinates, checked before any
    element geometry is formed from them. Each element needs ``d + 1``
    distinct existing nodes, a simplex of its own with positive measure, a
    finite, symmetric, positive definite conductivity, a positive finite
    cross-section and a finite source; each condition needs strictly
    ascending existing nodes, a finite value and an unoccupied boundary
    face: the side of one element, which no lower-dimensional element
    occupies; the transition coefficient must be finite and positive.

    Afterwards the mesh must not be mutated, which makes concurrent read
    access safe. The one exception is :attr:`elements`, a view that may be
    replaced to change what :func:`write_mesh` writes.
    """

    def __init__(
        self,
        node_coords: NDArray,
        cells: Mapping[int, Cells],
        boundary: Mapping[int, Boundary] = {},
        gravity_enabled: bool = False,
        transition_coefficient: float = 1.0,
    ):
        self.node_coords = np.asarray(node_coords, dtype=float).reshape(-1, 3)
        self.gravity_enabled = bool(gravity_enabled)
        self.transition_coefficient = float(transition_coefficient)
        if not 0.0 < self.transition_coefficient < np.inf:
            raise InvalidMeshError(
                f"transition coefficient sigma must be finite and positive, "
                f"got {self.transition_coefficient}",
                rejected=("sigma", 0),
            )
        bad = np.flatnonzero(~np.isfinite(self.node_coords).all(axis=1))
        if len(bad):
            i = int(bad[0])
            raise InvalidMeshError(
                f"node {i}: coordinates are not finite", rejected=("node", i)
            )
        self._elements: list[Element] | None = None
        self._build(cells, boundary)
        self.couplings = detect_couplings(self)
        measure = self.by_id("measure")[self.sides.lower[self.couplings]]
        self.coupling_weights = self.transition_coefficient * measure

    # -- validation and derived arrays -----------------------------------

    def _build(self, cells: Mapping[int, Cells], boundary: Mapping[int, Boundary]) -> None:
        n_nodes = len(self.node_coords)
        blocks = {d: c for d, c in sorted(cells.items()) if np.size(c.ids)}
        gid = {
            d: np.ascontiguousarray(c.ids, dtype=np.int64).reshape(-1)
            for d, c in blocks.items()
        }
        every = np.sort(np.concatenate([np.zeros(0, dtype=np.int64), *gid.values()]))
        self.n_elements = len(every)
        pos = np.flatnonzero(every != np.arange(self.n_elements))
        if len(pos):
            raise InvalidMeshError(
                f"element ids must be dense and ordered; "
                f"got id {every[pos[0]]} at position {pos[0]}"
            )
        _reject(
            (ids[1:][np.diff(ids) < 0] for ids in gid.values()),
            lambda e: f"element ids must be dense and ordered; element {e} "
            f"follows a higher id of its dimension",
        )
        dim_of = np.zeros(self.n_elements, dtype=np.int64)
        for d, ids in gid.items():
            dim_of[ids] = d
        _reject(
            (ids[:1] for d, ids in gid.items() if d not in (1, 2, 3)),
            lambda e: f"element {e}: dimension {dim_of[e]}",
        )
        nodes = {
            d: np.ascontiguousarray(c.nodes, dtype=np.int64).reshape(len(gid[d]), -1)
            for d, c in blocks.items()
        }
        _reject(
            (gid[d][:1] for d, v in nodes.items() if v.shape[1] != d + 1),
            lambda e: f"element {e}: expected {dim_of[e] + 1} nodes, "
            f"got {nodes[dim_of[e]].shape[1]}",
        )

        def nodes_of(e: int) -> list[int]:
            d = int(dim_of[e])
            return nodes[d][np.searchsorted(gid[d], e)].tolist()

        _reject(
            (gid[d][((v < 0) | (v >= n_nodes)).any(axis=1)] for d, v in nodes.items()),
            lambda e: f"element {e}: dangling node reference "
            f"{next(n for n in nodes_of(e) if not 0 <= n < n_nodes)}",
        )
        _reject(
            (
                gid[d][(np.diff(np.sort(v, axis=1), axis=1) == 0).any(axis=1)]
                for d, v in nodes.items()
            ),
            lambda e: f"element {e}: repeated node",
        )
        self.boundary: dict[int, Boundary] = {}
        n_conditions = 0
        for w, b in sorted(dict(boundary).items()):
            value = np.asarray(b.value, dtype=float).reshape(-1)
            rows = np.asarray(b.nodes, dtype=np.int64).reshape(len(value), w)
            natural = np.asarray(b.natural, dtype=bool).reshape(len(value))
            self.boundary[w] = Boundary(rows, natural, value)
            dangling = (rows < 0) | (rows >= n_nodes)
            step = np.diff(rows, axis=1)
            not_strict = (step <= 0).any(axis=1)
            bad = np.flatnonzero(dangling.any(axis=1) | not_strict | ~np.isfinite(value))
            if len(bad):
                i, face = bad[0], tuple(rows[bad[0]].tolist())
                raise InvalidMeshError(
                    f"boundary condition {face}: dangling node {rows[i][dangling[i]][0]}"
                    if dangling[i].any()
                    else f"boundary condition node tuple {face} is not sorted"
                    if (step[i] < 0).any()
                    else f"boundary condition {face}: repeated node"
                    if not_strict[i]
                    else f"boundary condition {face}: value {value[i]} is not finite",
                    rejected=("condition", n_conditions + i),
                )
            n_conditions += len(value)
        sides, occupied, n_faces = self._number_faces(nodes)
        first_of: dict[int, NDArray] = {}
        for d, cell in occupied.items():
            _, first, inverse = np.unique(cell, return_index=True, return_inverse=True)
            first_of[d] = gid[d][first[inverse]]
        _reject(
            (gid[d][first_of[d] != gid[d]] for d in occupied),
            lambda e: f"elements {first_of[dim_of[e]][gid[dim_of[e]] == e][0]} "
            f"and {e} occupy the same simplex",
        )
        offset = np.concatenate(([0], np.cumsum(dim_of + 1)))
        side_at = {d: offset[e][:, None] + np.arange(d + 1) for d, e in gid.items()}
        self.sides = self._side_table(offset, gid, side_at, sides, occupied, n_faces)
        cond = {}
        for d, c in blocks.items():
            try:
                cond[d] = np.ascontiguousarray(c.conductivity, dtype=float)
            except (ValueError, TypeError):
                raise InvalidMeshError(
                    f"conductivities of dimension {d} are not numeric"
                ) from None
        _reject(
            (gid[d][:1] for d, k in cond.items() if k.shape != (len(gid[d]), d, d)),
            lambda e: f"element {e}: conductivity must be {dim_of[e]}x{dim_of[e]}, "
            f"got {cond[dim_of[e]].shape[1:]}",
        )
        _reject(
            (gid[d][~np.isfinite(k).all(axis=(1, 2))] for d, k in cond.items()),
            lambda e: f"element {e}: conductivity tensor is not finite",
        )
        _reject(
            (gid[d][~_symmetric(k)] for d, k in cond.items()),
            lambda e: f"element {e}: conductivity tensor is not symmetric",
        )
        _reject(
            (gid[d][~(np.linalg.eigvalsh(k).min(axis=1) > 0.0)] for d, k in cond.items()),
            lambda e: f"element {e}: conductivity tensor is not positive definite",
        )
        cross = {
            d: np.ascontiguousarray(c.cross_section, dtype=float)
            for d, c in blocks.items()
        }
        _reject(
            (gid[d][~((c > 0.0) & (c < np.inf))] for d, c in cross.items()),
            lambda e: f"element {e}: cross-section must be positive and finite",
        )
        source = {
            d: np.ascontiguousarray(c.source, dtype=float) for d, c in blocks.items()
        }
        _reject(
            (gid[d][~np.isfinite(f)] for d, f in source.items()),
            lambda e: f"element {e}: source must be finite",
        )
        pts = {d: self.node_coords[v] for d, v in nodes.items()}
        measure = {d: simplex_measures(p) for d, p in pts.items()}
        _reject(
            (gid[d][~((m > 0.0) & np.isfinite(m))] for d, m in measure.items()),
            lambda e: f"element {e}: degenerate simplex",
        )
        # a condition needs a face that is the side of one element only and
        # that no lower-dimensional element occupies
        free = np.zeros(n_faces, dtype=bool)
        free[self.sides.face[(self.sides.lower < 0) & (self.sides.count == 1)]] = True
        stray = np.flatnonzero(~free[self.bc_faces])
        if len(stray):
            raise InvalidMeshError(
                f"boundary condition {self.bc_face_nodes(int(stray[0]))} "
                f"references a face that is not an unoccupied boundary face",
                rejected=("condition", int(stray[0])),
            )
        self.simplices: dict[int, Simplices] = {
            d: Simplices(
                dim=d,
                ids=gid[d],
                nodes=nodes[d],
                conductivity=cond[d],
                cross_section=cross[d],
                source=source[d],
                measure=measure[d],
                centroid=pts[d].mean(axis=1),
                sides=side_at[d],
            )
            for d, c in blocks.items()
        }

    def _number_faces(
        self, nodes: dict[int, NDArray]
    ) -> tuple[dict[int, NDArray], dict[int, NDArray], int]:
        """Give every element face, every element's own node set and every
        boundary condition a face id.

        Faces of d-dimensional elements, (d-1)-dimensional elements and
        conditions with d nodes are numbered together, so equal ids mean
        coincidence. Returns the ids of the faces ``(E_d, d + 1)`` and of the
        elements ``(E_d,)`` per dimension, and the number of ids; sets
        ``bc_faces``, ``bc_natural`` and ``bc_value``.
        """
        bc_faces = [np.zeros(0, dtype=np.int64)]
        sides: dict[int, NDArray] = {}
        cells: dict[int, NDArray] = {}
        n_faces = 0
        for w in sorted({1, 2, 3, 4} | self.boundary.keys()):
            parts = []
            if w in nodes:
                parts.append(nodes[w][:, _FACE_INDEX[w]].reshape(-1, w))
            if w - 1 in nodes:
                parts.append(nodes[w - 1])
            if w in self.boundary:
                parts.append(self.boundary[w].nodes)
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
            if w in self.boundary:
                bc_faces.append(keys[len(keys) - len(self.boundary[w].value) :])
        self.bc_faces = np.concatenate(bc_faces)
        records = self.boundary.values()
        self.bc_natural = np.concatenate([np.zeros(0, bool), *(b.natural for b in records)])
        self.bc_value = np.concatenate([np.zeros(0), *(b.value for b in records)])
        return sides, cells, n_faces

    def _side_table(self, offset, gid, side_at, sides, cells, n_faces) -> Sides:
        total = int(offset[-1])
        element = np.repeat(np.arange(self.n_elements), np.diff(offset))
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

    # -- derived views ---------------------------------------------------

    @property
    def elements(self) -> list[Element]:
        """The elements as :class:`Element` records in id order, built from
        :attr:`simplices` on first access. Assigning a new list replaces
        what :func:`write_mesh` writes; the arrays stay as they are."""
        if self._elements is None:
            els: list[Element] = [None] * self.n_elements  # type: ignore[list-item]
            for blk in self.simplices.values():
                for e, nodes, k, cross, source in zip(
                    blk.ids.tolist(),
                    blk.nodes.tolist(),
                    blk.conductivity.copy(),
                    blk.cross_section.tolist(),
                    blk.source.tolist(),
                ):
                    els[e] = Element(e, blk.dim, tuple(nodes), k, cross, source)
            self._elements = els
        return self._elements

    @elements.setter
    def elements(self, elements: Sequence[Element]) -> None:
        self._elements = list(elements)

    def by_id(self, name: str) -> NDArray:
        """One :class:`Simplices` field of every element, indexed by element
        id; for the fields whose rows have the same shape in every dimension
        (``cross_section``, ``source``, ``measure``, ``centroid``)."""
        blocks = list(self.simplices.values())
        if not blocks:
            return np.zeros(0)
        values = np.concatenate([getattr(blk, name) for blk in blocks])
        out = np.empty_like(values)
        out[np.concatenate([blk.ids for blk in blocks])] = values
        return out

    def face_neighbors(self) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
        """Pairs of same-dimension elements sharing a face that no
        lower-dimensional element occupies; such elements share that face's
        multiplier. Both orders of each pair are listed."""
        s = self.sides
        keep = (s.lower < 0) & (s.count > 1)
        incidence = sps.csr_matrix(
            (np.ones(int(keep.sum())), (s.element[keep], s.face[keep])),
            shape=(self.n_elements, s.n_faces),
        )
        pairs = (incidence @ incidence.T).tocoo()
        off = pairs.row != pairs.col
        return pairs.row[off].astype(np.int64), pairs.col[off].astype(np.int64)

    def bc_face_nodes(self, i: int) -> tuple[int, ...]:
        """The nodes of the ``i``-th condition in :attr:`bc_faces` order."""
        for b in self.boundary.values():
            if i < len(b.value):
                return tuple(b.nodes[i].tolist())
            i -= len(b.value)
        raise IndexError(i)

    def has_natural_bc(self) -> bool:
        return bool(self.bc_natural.any())

    def element_graph(self) -> sps.csr_matrix:
        """Symmetric adjacency matrix of the elements that share an unknown.

        Edges join same-dimension elements sharing an unoccupied face (those
        share a pressure-trace unknown) and the two ends of every coupling
        link. Each row lists every neighbor once.
        """
        a, b = self.face_neighbors()
        lower = self.sides.lower[self.couplings]
        upper = self.sides.element[self.couplings]
        a, b = np.concatenate((a, lower, upper)), np.concatenate((b, upper, lower))
        n = self.n_elements
        return sps.csr_matrix((np.ones(len(a)), (a, b)), shape=(n, n))

    def components(self) -> list[list[int]]:
        """Connected components of :meth:`element_graph`, as ascending
        element-id lists ordered by their first element; the notion of
        connectedness that solvability diagnostics need."""
        graph = self.element_graph()
        n_comp, labels = connected_components(graph, directed=False)
        order = np.argsort(labels, kind="stable")
        comps = np.split(order, np.cumsum(np.bincount(labels, minlength=n_comp))[:-1])
        return sorted((c.tolist() for c in comps if len(c)), key=lambda c: c[0])

    def components_without_natural_bc(self) -> list[list[int]]:
        """Components whose boundary carries no natural condition."""
        faces = self.bc_faces[self.bc_natural]
        touched = self.sides.element[np.isin(self.sides.face, faces)]
        return [comp for comp in self.components() if not np.isin(comp, touched).any()]


def _symmetric(k: NDArray) -> NDArray[np.bool_]:
    """Which stacked tensors are finite and symmetric to 1e-12 of their
    largest entry (at least 1e-12 absolute)."""
    scale = 1e-12 * np.maximum(1.0, np.abs(k).max(axis=(1, 2)))
    return (np.abs(k - k.transpose(0, 2, 1)) <= scale[:, None, None]).all(axis=(1, 2))


def detect_couplings(mesh: Mesh) -> NDArray[np.int64]:
    """Find all lower-dim-element / element-face coincidences.

    Matching is exact on node sets: a d-dimensional element couples to
    every side of a (d+1)-dimensional element whose facet has the same
    vertices. Returns the positions in ``mesh.sides`` of the coupled sides
    in link order: by lower element, upper element, then local face. A
    lower-dim element matching nothing, in a mesh that does contain
    elements one dimension up, draws a diagnostic warning: it looks like a
    fracture that failed to attach. Purely lower-dimensional meshes (a
    standalone 2D problem, say) warn about nothing.
    """
    s = mesh.sides
    at = np.flatnonzero(s.lower >= 0)
    at = at[np.lexsort((s.local_face[at], s.element[at], s.lower[at]))]
    matched = np.bincount(s.lower[at], minlength=mesh.n_elements)
    for d in (1, 2):
        if d in mesh.simplices and d + 1 in mesh.simplices:
            ids = mesh.simplices[d].ids
            for eid in ids[matched[ids] == 0].tolist():
                warnings.warn(
                    f"element {eid} (dim {d}) matches no face of any "
                    f"dim-{d + 1} element; it will not exchange flow with them",
                    stacklevel=2,
                )
    return at


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

    def __post_init__(self):
        if self.kind not in (NATURAL, ESSENTIAL):
            raise InvalidMeshError(f"unknown boundary kind {self.kind!r}")
        if self.axis not in (0, 1, 2):
            raise InvalidMeshError(f"plane axis must be 0, 1 or 2, got {self.axis!r}")


@dataclass(frozen=True)
class BCSpec:
    """Ordered plane rules; first match wins, the rest default to essential."""

    rules: tuple[PlaneBC, ...]

    def resolve(self, faces: NDArray, coords: NDArray) -> Boundary:
        """The conditions of the face rows ``faces`` ``(F, w)``; a callable
        value is called once per face its rule takes, at its barycenter."""
        pts = coords[faces]
        natural = np.zeros(len(faces), dtype=bool)
        taken = natural.copy()
        value = np.zeros(len(faces))
        for rule in self.rules:
            on_plane = np.abs(pts[:, :, rule.axis] - rule.position) <= _PLANE_TOL
            hit = ~taken & on_plane.all(axis=1)
            taken |= hit
            natural[hit] = rule.kind == NATURAL
            value[hit] = _values(rule.value, pts[hit].mean(axis=1))
        return Boundary(faces, natural, value)


def default_bc_spec() -> BCSpec:
    """Unit pressure drop along x: p=1 at x=0, p=0 at x=1, no-flow elsewhere."""
    return BCSpec(
        rules=(
            PlaneBC(axis=0, position=0.0, kind=NATURAL, value=1.0),
            PlaneBC(axis=0, position=1.0, kind=NATURAL, value=0.0),
        )
    )


# ---------------------------------------------------------------------------
# generators


def _tensors(conductivity, dim: int, centroid: NDArray) -> NDArray:
    """One conductivity tensor per centroid, ``(E, dim, dim)``, from a
    constant or a callable of ``(centroid, dim)``; scalars are isotropic."""

    def tensor(k) -> NDArray:
        k = np.asarray(k, dtype=float)
        return float(k) * np.eye(dim) if k.ndim == 0 else k

    if callable(conductivity):
        return np.array([tensor(conductivity(c, dim)) for c in centroid])
    return np.repeat(tensor(conductivity)[None], len(centroid), axis=0)


def _values(source, centroid: NDArray) -> NDArray:
    """One value per centroid from a constant or a callable of the centroid."""
    if callable(source):
        return np.array([float(source(c)) for c in centroid])
    return np.full(len(centroid), source, dtype=float)


def _generated(coords: NDArray, parts, bc_spec: BCSpec | None, **options) -> Mesh:
    """A mesh of ``parts``, ``(nodes, conductivity, cross_section, source)``
    per element dimension, numbered consecutively in the order given, with
    the fields evaluated on the element centroids. ``bc_spec`` is applied
    to every face of exactly one element that no lower-dimensional element
    occupies, rows ordered by the face's sorted node ids."""
    cells: dict[int, Cells] = {}
    start = 0
    for nodes, conductivity, cross_section, source in parts:
        dim = nodes.shape[1] - 1
        centroid = coords[nodes].mean(axis=1)
        cells[dim] = Cells(
            ids=np.arange(start, start + len(nodes)),
            nodes=nodes,
            conductivity=_tensors(conductivity, dim, centroid),
            cross_section=np.full(len(nodes), cross_section, dtype=float),
            source=_values(source, centroid),
        )
        start += len(nodes)
    boundary = {}
    for d in sorted(cells):
        rows = [cells[d].nodes[:, _FACE_INDEX[d]].reshape(-1, d)]
        if d - 1 in cells:
            rows.append(cells[d - 1].nodes)
        rows = np.sort(np.concatenate(rows), axis=1)
        face, keys = np.unique(rows, axis=0, return_inverse=True)
        n_side = cells[d].nodes.size
        count = np.bincount(keys[:n_side], minlength=len(face))
        count[keys[n_side:]] = 0
        boundary[d] = (bc_spec or default_bc_spec()).resolve(face[count == 1], coords)
    return Mesh(coords, cells, boundary, **options)


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
    x, y = np.meshgrid(np.linspace(0.0, 1.0, n + 1), np.linspace(0.0, 1.0, n + 1))
    coords = np.column_stack((x.ravel(), y.ravel(), np.zeros(x.size)))
    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
    tris = np.column_stack((v00, v10, v11, v00, v11, v01)).reshape(-1, 3)
    return _generated(
        coords,
        [(tris, conductivity, cross_section, source)],
        bc_spec,
        gravity_enabled=gravity,
    )


def _cube_nodes(n: int) -> NDArray:
    """Grid nodes of the unit cube, x fastest, then y, then z."""
    z, y, x = np.meshgrid(*[np.linspace(0.0, 1.0, n + 1)] * 3, indexing="ij")
    return np.column_stack((x.ravel(), y.ravel(), z.ravel()))


# Vertex paths of the six tetrahedra splitting a unit cell along its main
# diagonal; each path adds the axes in one of the 3! orders.
_KUHN_ORDERS = np.array(
    [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
)


def _kuhn_tets(n: int) -> NDArray[np.int64]:
    """The six tetrahedra of every cell of the ``n**3`` grid, cell by cell
    (x fastest) and path by path, each a vertex path from the cell's lowest
    corner to its highest."""
    step = np.array([1, n + 1, (n + 1) ** 2])
    k, j, i = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    corner = (i * step[0] + j * step[1] + k * step[2]).reshape(-1, 1, 1)
    path = np.zeros((len(_KUHN_ORDERS), 4), dtype=np.int64)
    path[:, 1:] = np.cumsum(step[_KUHN_ORDERS], axis=1)
    return (corner + path).reshape(-1, 4)


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
    return _generated(
        _cube_nodes(n),
        [(_kuhn_tets(n), conductivity, cross_section, source)],
        bc_spec,
        gravity_enabled=gravity,
    )


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
    tets = _kuhn_tets(n)
    # Fracture triangles are the tetrahedral faces found on either plane,
    # so coincidence with both adjoining tetrahedra is exact.
    faces = np.sort(tets[:, _FACE_INDEX[3]].reshape(-1, 3), axis=1)
    on_plane = (np.abs(coords[faces, :2] - 0.5) <= _PLANE_TOL).all(axis=1).any(axis=1)
    tris = np.unique(faces[on_plane], axis=0)
    # Channel segments along x = y = 0.5.
    mid = n // 2
    line = (np.arange(n + 1) * (n + 1) + mid) * (n + 1) + mid
    segments = np.column_stack((line[:-1], line[1:]))
    return _generated(
        coords,
        [
            (tets, k3, delta3, 0.0),
            (tris, k2, delta2, 0.0),
            (segments, k1, delta1, 0.0),
        ],
        bc_spec,
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
    cross-section, source), ``$boundary`` (node tuple, kind, value, in
    ascending node count), ``$end``. Elements are written from
    :attr:`Mesh.elements`. Floats use 17 significant digits and round-trip
    exactly.
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
    for b in mesh.boundary.values():
        kinds = np.where(b.natural, NATURAL, ESSENTIAL).tolist()
        for face, kind, value in zip(b.nodes.tolist(), kinds, b.value.tolist()):
            lines.append(" ".join([*map(str, face), kind, _fmt(value)]))
    lines.append("$end")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


_TENSOR_SIZE = {1: 1, 2: 3, 3: 6}

# The value each ``$params`` line must give after its name.
_PARAMS = {"gravity": "0 or 1", "sigma": "one number"}

_SECTIONS = ("params", "nodes", "elements", "boundary", "end")

# A data line of a mesh file: its 1-based line number and its tokens.
_Row = tuple[int, list[str]]


def read_mesh(path: str) -> Mesh:
    """Parse the plain-text mesh format written by :func:`write_mesh`.

    The reader checks the format and raises :class:`MeshFormatError` with
    the 1-based line at fault. :class:`Mesh` checks the model; its
    :class:`InvalidMeshError` is raised again with the line of the node,
    element, boundary condition or ``sigma`` that it rejected.

    The file is read once. A file whose sections come in the written order,
    each at most once, is parsed section by section: one ``np.loadtxt``
    call for the nodes, one per element dimension and one per face node
    count, with the integer fields as ``int64`` and the others as floats.
    numpy's parsers take no token that ``int()`` or ``float()`` refuses and
    give the same values. Any other file, a section numpy refuses and a
    model :class:`Mesh` rejects are read again line by line, as
    :func:`_read_lines` does; that scan names the line at fault.
    """
    with open(path) as fh:
        lines = fh.read().split("\n")
    tables = _read_tables(lines)
    if tables is not None:
        try:
            return Mesh(*tables)
        except InvalidMeshError:
            pass  # the per-line scan names the line
    return _read_lines(lines)


def _param(tok: list[str]) -> tuple[str, bool | float]:
    """The name and value of one ``$params`` line; ``ValueError`` says what
    is wrong with it."""
    name, value = tok[0], " ".join(tok[1:])
    if name not in _PARAMS:
        raise ValueError(f"unknown parameter {name!r}")
    if name == "gravity" and value in ("0", "1"):
        return name, value == "1"
    if name == "sigma" and len(tok) == 2:
        try:
            return name, float(value)
        except ValueError:
            pass
    raise ValueError(f"parameter {name!r} needs {_PARAMS[name]}, got {value!r}")


def _data(lines: list[str]) -> list[str]:
    """The lines that carry data, each cut at its comment."""
    cut = [raw.partition("#")[0] for raw in lines]
    return [d for d in cut if d and not d.isspace()]


def _table(rows: list[str], fields: list[tuple]) -> NDArray:
    """Whitespace-separated ``rows`` as one structured array of ``fields``;
    raises ``ValueError`` for a token numpy cannot convert or a row of the
    wrong length."""
    dtype = np.dtype(fields)
    if not rows:
        return np.zeros(0, dtype=dtype)
    return np.loadtxt(rows, dtype=dtype, comments=None, ndmin=1)


def _read_tables(lines: list[str]) -> tuple | None:
    """The arguments of :class:`Mesh` from the lines of a mesh file, each
    section converted as a whole; ``None`` when the file's sections are not
    in the written order, each at most once, or a section is not regular:
    a bad ``$params`` line, a token numpy cannot convert, a line of the
    wrong length, an element dimension that is not written as ``1``, ``2``
    or ``3``, or ids out of order."""
    cut = {i: raw.partition("#")[0].strip() for i, raw in enumerate(lines) if "$" in raw}
    heads = [i for i, line in cut.items() if line.startswith("$")]
    names = [cut[i][1:].strip() for i in heads]
    if names[-1:] != ["end"] or not set(names) <= set(_SECTIONS):
        return None
    rank = [_SECTIONS.index(name) for name in names]
    if any(b <= a for a, b in zip(rank, rank[1:])):
        return None
    body = {
        name: lines[a + 1 : b] for name, a, b in zip(names, heads, heads[1:] + [len(lines)])
    }
    if _data(lines[: heads[0]]) or _data(body["end"]):
        return None
    params: dict = {"gravity": False, "sigma": 1.0}
    try:
        for row in _data(body.get("params", [])):
            name, value = _param(row.split())
            params[name] = value
        nodes = _table(
            _data(body.get("nodes", [])), [("id", np.int64), ("xyz", float, (3,))]
        )
        rows = _data(body.get("elements", []))
        dims = np.array([row.split(None, 2)[1] for row in rows], dtype=str)
        ids = np.full(len(rows), -1, dtype=np.int64)
        cells: dict[int, Cells] = {}
        for dim, n_tensor in _TENSOR_SIZE.items():
            at = np.flatnonzero(dims == str(dim))
            if not len(at):
                continue
            el = _table(
                [rows[i] for i in at],
                [
                    ("id", np.int64),
                    ("dim", np.int64),
                    ("nodes", np.int64, (dim + 1,)),
                    ("conductivity", float, (n_tensor,)),
                    ("cross_section", float),
                    ("source", float),
                ],
            )
            ids[at] = el["id"]
            cells[dim] = Cells(
                ids=el["id"],
                nodes=el["nodes"],
                conductivity=_tensors_from_upper(el["conductivity"], dim),
                cross_section=el["cross_section"],
                source=el["source"],
            )
        rows = _data(body.get("boundary", []))
        widths = np.array([len(row.split()) - 2 for row in rows], dtype=np.int64)
        boundary = {}
        for width in np.unique(widths).tolist():
            b = _table(
                [rows[i] for i in np.flatnonzero(widths == width)],
                [("nodes", np.int64, (width,)), ("kind", "U10"), ("value", float)],
            )
            if not np.isin(b["kind"], (NATURAL, ESSENTIAL)).all():
                return None
            boundary[width] = Boundary(b["nodes"], b["kind"] == NATURAL, b["value"])
    except (ValueError, IndexError):
        # a bad parameter, a token or line length numpy refused, or an
        # element line of one token: the line scan names the line
        return None
    n_nodes = len(nodes)
    if not np.array_equal(np.sort(nodes["id"]), np.arange(n_nodes)):
        return None
    if not np.array_equal(ids, np.arange(len(ids))):
        return None
    coords = np.zeros((n_nodes, 3))
    coords[nodes["id"]] = nodes["xyz"]
    return coords, cells, boundary, params["gravity"], params["sigma"]


def _read_lines(lines: list[str]) -> Mesh:
    """The mesh of the lines of a mesh file, scanned line by line: the
    reference that :func:`read_mesh` follows, and the scan that names the
    line of every error."""
    section = None
    params: dict = {"gravity": False, "sigma": 1.0}
    sigma_line = None
    rows: dict[str, list[_Row]] = {"nodes": [], "elements": [], "boundary": []}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if section == "end":
            raise MeshFormatError("content after $end", lineno)
        if line.startswith("$"):
            section = line[1:].strip()
            if section not in _SECTIONS:
                raise MeshFormatError(f"unknown section ${section}", lineno)
            continue
        tok = line.split()
        if section in rows:
            rows[section].append((lineno, tok))
        elif section == "params":
            try:
                name, value = _param(tok)
            except ValueError as exc:
                raise MeshFormatError(str(exc), lineno) from None
            params[name] = value
            if name == "sigma":
                sigma_line = lineno
        else:
            raise MeshFormatError("data before any section header", lineno)
    coords, node_lines = _parse_nodes(rows["nodes"])
    cells = _parse_elements(rows["elements"])
    boundary, condition_lines = _parse_boundary(rows["boundary"])
    if section != "end":
        raise MeshFormatError("missing $end marker")
    lines_of = {"condition": condition_lines, "sigma": [sigma_line], "node": node_lines}
    lines_of["element"] = [lineno for lineno, _ in rows["elements"]]
    try:
        return Mesh(coords, cells, boundary, params["gravity"], params["sigma"])
    except InvalidMeshError as exc:
        if exc.rejected is None:
            raise
        kind, i = exc.rejected
        raise InvalidMeshError(str(exc), lines_of[kind][i], exc.rejected) from exc


def _numbers(
    rows: list[_Row], section: str, int_fields: Sequence[str], float_fields: Sequence[str]
) -> tuple[NDArray, NDArray]:
    """Convert rows of integer tokens followed by float tokens, one field
    name each, into an int and a float array. A bad token raises
    :class:`MeshFormatError` with its line, naming the section and the
    field: "node coordinate 'north' is not a number"."""
    n_int, n_float = len(int_fields), len(float_fields)
    try:
        ints = np.array(
            list(map(int, chain.from_iterable(t[:n_int] for _, t in rows))),
            dtype=np.int64,
        )
        floats = np.array(
            list(map(float, chain.from_iterable(t[n_int:] for _, t in rows))),
            dtype=float,
        )
    except (ValueError, OverflowError):
        int64 = np.iinfo(np.int64)
        for lineno, tok in rows:
            for field, v in zip(int_fields, tok[:n_int]):
                try:
                    fits = int64.min <= int(v) <= int64.max
                except ValueError:
                    raise MeshFormatError(
                        f"{section} {field} {v!r} is not an integer", lineno
                    ) from None
                if not fits:
                    raise MeshFormatError(
                        f"{section} {field} {v!r} does not fit a 64-bit integer", lineno
                    )
            for field, v in zip(float_fields, tok[n_int:]):
                try:
                    float(v)
                except ValueError:
                    raise MeshFormatError(
                        f"{section} {field} {v!r} is not a number", lineno
                    ) from None
        raise
    return ints.reshape(len(rows), n_int), floats.reshape(len(rows), n_float)


def _parse_nodes(rows: list[_Row]) -> tuple[NDArray, list[int]]:
    """The node coordinates by id, and the line of every node."""
    for lineno, tok in rows:
        if len(tok) != 4:
            raise MeshFormatError("node line needs: id x y z", lineno)
    ids, xyz = _numbers(rows, "node", ["id"], ["coordinate"] * 3)
    ids = ids[:, 0]
    n = len(rows)
    first = np.zeros(n, dtype=bool)
    first[np.unique(ids, return_index=True)[1]] = True
    bad = np.flatnonzero((ids < 0) | (ids >= n) | ~first)
    if len(bad):
        raise MeshFormatError(
            f"node ids must be dense and unique, got {ids[bad[0]]}", rows[bad[0]][0]
        )
    coords = np.zeros((n, 3))
    coords[ids] = xyz
    lines = np.zeros(n, dtype=np.int64)
    lines[ids] = [lineno for lineno, _ in rows]
    return coords, lines.tolist()


def _tensors_from_upper(entries: NDArray, dim: int) -> NDArray:
    """Symmetric ``(n, dim, dim)`` tensors from their upper triangles,
    row-wise, as :func:`write_mesh` writes them."""
    tensors = np.zeros((len(entries), dim, dim))
    upper, lower = np.triu_indices(dim)
    tensors[:, upper, lower] = entries
    tensors[:, lower, upper] = entries
    return tensors


def _parse_elements(rows: list[_Row]) -> dict[int, Cells]:
    """The element lines as one :class:`Cells` record per dimension; the
    ids must run 0, 1, 2, ... in file order."""
    by_dim: dict[int, list[int]] = {1: [], 2: [], 3: []}
    for pos, (lineno, tok) in enumerate(rows):
        if len(tok) < 2:
            raise MeshFormatError("element line needs: id dim nodes...", lineno)
        try:
            dim = int(tok[1])
        except ValueError:
            raise MeshFormatError(
                f"element dimension {tok[1]!r} is not an integer", lineno
            ) from None
        if dim not in by_dim:
            raise MeshFormatError(f"element dimension {dim}", lineno)
        expect = 2 + (dim + 1) + _TENSOR_SIZE[dim] + 2
        if len(tok) != expect:
            raise MeshFormatError(
                f"element line needs {expect} fields, got {len(tok)}", lineno
            )
        by_dim[dim].append(pos)
    cells: dict[int, Cells] = {}
    ids = np.empty(len(rows), dtype=np.int64)
    for dim, positions in by_dim.items():
        if not positions:
            continue
        group = [rows[p] for p in positions]
        n_tensor = _TENSOR_SIZE[dim]
        ints, floats = _numbers(
            group,
            "element",
            ["id", "dimension"] + ["node"] * (dim + 1),
            ["conductivity"] * n_tensor + ["cross-section", "source"],
        )
        ids[positions] = ints[:, 0]
        cells[dim] = Cells(
            ids=ints[:, 0],
            nodes=ints[:, 2:],
            conductivity=_tensors_from_upper(floats[:, :n_tensor], dim),
            cross_section=floats[:, -2],
            source=floats[:, -1],
        )
    pos = np.flatnonzero(ids != np.arange(len(ids)))
    if len(pos):
        raise MeshFormatError(
            f"element ids must be dense and ordered; "
            f"got id {ids[pos[0]]} at position {pos[0]}",
            rows[pos[0]][0],
        )
    return cells


def _parse_boundary(rows: list[_Row]) -> tuple[dict[int, Boundary], list[int]]:
    """One :class:`Boundary` record per face node count, rows in file order,
    and the line of each condition in ``Mesh.bc_faces`` order."""
    by_width: dict[int, list[int]] = {}
    for pos, (lineno, tok) in enumerate(rows):
        if len(tok) < 3:
            raise MeshFormatError("boundary line needs: nodes... kind value", lineno)
        if tok[-2] not in (NATURAL, ESSENTIAL):
            raise MeshFormatError(f"unknown boundary kind {tok[-2]!r}", lineno)
        by_width.setdefault(len(tok) - 2, []).append(pos)
    boundary, lines = {}, []
    for width, positions in sorted(by_width.items()):
        group = [(rows[p][0], rows[p][1][:width] + rows[p][1][-1:]) for p in positions]
        nodes, values = _numbers(group, "boundary", ["node"] * width, ["value"])
        natural = [rows[p][1][-2] == NATURAL for p in positions]
        boundary[width] = Boundary(nodes, natural, values[:, 0])
        lines += [lineno for lineno, _ in group]
    return boundary, lines
