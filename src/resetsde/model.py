"""Hybrid model definition: mode geometry, dynamics and reset edges.

A model is a finite collection of modes, each carrying a convex polyhedral
domain and a set of Stratonovich vector fields, plus reset edges that map
boundary faces either onto interior hypersurfaces of (possibly other) modes
or onto isolated terminal states.  Models are immutable after `build_model`.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

_UNIT_TOL = 1e-9
_INTERIOR_REL_TOL = 1e-9
_CHAR_REL_TOL = 1e-12


class ModelError(ValueError):
    """Base class for model construction and query errors."""


class UnassignedFace(ModelError):
    """A boundary face has no reset edge and is not declared characteristic."""


class TargetOnBoundary(ModelError):
    """A reset image hypersurface touches the target mode's boundary."""


class OverlappingSources(ModelError):
    """Two reset edges claim the same source face."""


class MixedFace(ModelError):
    """The characteristic indicator changes sign along a single face."""


class NotSurfaceTarget(ModelError):
    """The edge maps to a terminal state, so it has no Jacobian factor."""


class DegenerateResetMap(ModelError):
    """The affine reset map collapses the source face patch."""


class GeometryError(ModelError):
    """A domain is malformed (empty interior, bad normals, unusable face)."""


# ---------------------------------------------------------------------------
# records: the plain ones are NamedTuples; these are for the others


class _Record:
    """`__slots__` record with field-wise equality and the repr
    `Name(field=value, ...)`, for records that normalise their inputs, hold
    caches or change.  Fields named with a leading underscore stay out of
    the repr."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__ if k[0] != "_")
        return f"{type(self).__name__}({shown})"


class _FrozenRecord(_Record):
    """A `_Record` whose `__init__` sets each field once, by `object.__setattr__`."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")


# ---------------------------------------------------------------------------
# vector fields


class AffineField:
    """Vector field theta -> F theta + g with exact Jacobian F.

    Accepts points of shape (d,) or (k, d) and evaluates elementwise over
    the leading axis.
    """

    def __init__(self, matrix: np.ndarray | Sequence, offset: np.ndarray | Sequence):
        self.matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        self.offset = np.asarray(offset, dtype=float).reshape(-1)
        if self.matrix.shape != (self.offset.size, self.offset.size):
            raise GeometryError(
                f"affine field needs a square matrix matching the offset, "
                f"got {self.matrix.shape} and offset of size {self.offset.size}"
            )

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return np.einsum("ij,...j->...i", self.matrix, pts) + self.offset

    def jacobian(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return np.broadcast_to(self.matrix, pts.shape[:-1] + self.matrix.shape).copy()


def constant_field(vector: np.ndarray | Sequence) -> AffineField:
    """Field with constant value and zero Jacobian."""
    vec = np.asarray(vector, dtype=float).reshape(-1)
    return AffineField(np.zeros((vec.size, vec.size)), vec)


def zero_field(dimension: int) -> AffineField:
    return constant_field(np.zeros(dimension))


class NumericalField:
    """Wraps an arbitrary callable; Jacobian by central differences if absent.

    The callable must be vectorised over a leading batch axis.  The finite
    difference step is eps = 1e-6 * (1 + |theta|), giving an O(eps^2)
    Jacobian error.
    """

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], jacobian=None):
        self._fn = fn
        self._jac = jacobian

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(self._fn(np.asarray(points, dtype=float)), dtype=float)

    def jacobian(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if self._jac is not None:
            return np.asarray(self._jac(pts), dtype=float)
        return finite_difference_jacobian(self._fn, pts)


def finite_difference_jacobian(fn, points: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian, step 1e-6 * (1 + |theta|) per point."""
    pts = np.asarray(points, dtype=float)
    squeeze = pts.ndim == 1
    pts = np.atleast_2d(pts)
    k, d = pts.shape
    eps = 1e-6 * (1.0 + np.linalg.norm(pts, axis=-1))
    out = np.empty((k, d, d))
    for j in range(d):
        step = np.zeros((k, d))
        step[:, j] = eps
        out[:, :, j] = (fn(pts + step) - fn(pts - step)) / (2.0 * eps)[:, None]
    return out[0] if squeeze else out


class VectorFieldSet(_FrozenRecord):
    """Drift field plus exactly d diffusion fields (zero fields allowed)."""

    __slots__ = ("drift", "diffusion")

    def __init__(self, drift: AffineField | NumericalField, diffusion: Sequence):
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "diffusion", tuple(diffusion))


# ---------------------------------------------------------------------------
# geometry


class PolyDomain:
    """Convex polytope {theta : <n_k, theta> <= c_k} with unit face normals.

    `interior_point` must satisfy every inequality strictly; it anchors face
    sampling and validation.  An axis-aligned bounding box (lo, hi) is
    required by the PDE grid builder and for diameter estimates; when the
    domain itself is a box the two coincide.
    """

    def __init__(
        self,
        normals: np.ndarray | Sequence,
        offsets: np.ndarray | Sequence,
        interior_point: np.ndarray | Sequence,
        box: tuple[Sequence, Sequence] | None = None,
    ):
        normals = np.atleast_2d(np.asarray(normals, dtype=float))
        lengths = np.linalg.norm(normals, axis=1)
        if np.any(lengths < _UNIT_TOL):
            raise GeometryError("zero-length face normal")
        self.normals = normals / lengths[:, None]
        self.offsets = np.asarray(offsets, dtype=float).reshape(-1) / lengths
        if self.offsets.size != self.normals.shape[0]:
            raise GeometryError("normals and offsets disagree in count")
        self.interior_point = np.asarray(interior_point, dtype=float).reshape(-1)
        if self.interior_point.size != self.normals.shape[1]:
            raise GeometryError("interior point dimension mismatch")
        if box is not None:
            lo = np.asarray(box[0], dtype=float).reshape(-1)
            hi = np.asarray(box[1], dtype=float).reshape(-1)
            if lo.size != self.dimension or np.any(hi <= lo):
                raise GeometryError("bounding box must have lo < hi per axis")
            self.box = (lo, hi)
        else:
            self.box = None
        gaps = self.gaps(self.interior_point)
        if np.any(gaps >= -_INTERIOR_REL_TOL * self.scale()):
            raise GeometryError("interior point is not strictly inside the domain")

    @property
    def dimension(self) -> int:
        return self.normals.shape[1]

    @property
    def n_faces(self) -> int:
        return self.normals.shape[0]

    def scale(self) -> float:
        if self.box is not None:
            return float(np.max(self.box[1] - self.box[0]))
        return max(1.0, float(np.max(np.abs(self.offsets))))

    def diameter(self) -> float:
        if self.box is not None:
            return float(np.linalg.norm(self.box[1] - self.box[0]))
        return self.scale()

    def gaps(self, points: np.ndarray) -> np.ndarray:
        """Signed face gaps <n_k, theta> - c_k; <= 0 means inside."""
        pts = np.asarray(points, dtype=float)
        return np.einsum("fj,...j->...f", self.normals, pts) - self.offsets

    def contains(self, points: np.ndarray, tol: float = 0.0) -> np.ndarray:
        return np.all(self.gaps(points) <= tol, axis=-1)

    def face_center(self, face: int) -> np.ndarray:
        """Projection of the interior point onto the face hyperplane.

        Valid for the supported geometries (boxes and threshold half-spaces);
        raises if the projection leaves the domain closure.
        """
        nrm = self.normals[face]
        point = self.interior_point - self.gaps(self.interior_point)[face] * nrm
        others = [k for k in range(self.n_faces) if k != face]
        if others and np.any(self.gaps(point)[others] > _INTERIOR_REL_TOL * self.scale()):
            raise GeometryError(
                f"cannot sample face {face}: interior-point projection leaves the domain"
            )
        return point

    def tangent_basis(self, face: int) -> np.ndarray:
        """Orthonormal (d, d-1) basis of the face hyperplane's tangent space."""
        nrm = self.normals[face]
        d = self.dimension
        basis = np.linalg.svd(nrm[None, :])[2][1:]
        return basis.T.reshape(d, d - 1)

    def face_points(self, face: int, count: int = 7) -> np.ndarray:
        """Deterministic samples in the relative interior of a face patch."""
        center = self.face_center(face)
        if self.dimension == 1 or count <= 1:
            return center[None, :]
        tangents = self.tangent_basis(face)
        margin = 1e-6 * self.scale()
        span = 0.45 * self.diameter()
        offsets = span * np.linspace(-1.0, 1.0, count)
        others = [k for k in range(self.n_faces) if k != face]
        pts = [center]
        for tcol in tangents.T:
            for off in offsets:
                cand = center + off * tcol
                gaps = self.gaps(cand)
                if others and np.any(gaps[others] > -margin):
                    continue
                pts.append(cand)
        return np.array(pts)


def box_domain(lo: Sequence, hi: Sequence) -> PolyDomain:
    """Axis-aligned box as a polytope; faces ordered (axis0 lo, axis0 hi, axis1 lo, ...)."""
    lo = np.asarray(lo, dtype=float).reshape(-1)
    hi = np.asarray(hi, dtype=float).reshape(-1)
    d = lo.size
    normals = []
    offsets = []
    for axis in range(d):
        e = np.zeros(d)
        e[axis] = 1.0
        normals.append(-e)
        offsets.append(-lo[axis])
        normals.append(e)
        offsets.append(hi[axis])
    return PolyDomain(normals, offsets, 0.5 * (lo + hi), box=(lo, hi))


def interval_domain(lo: float, hi: float) -> PolyDomain:
    return box_domain([lo], [hi])


# ---------------------------------------------------------------------------
# reset targets and edges


class AffineMap(_FrozenRecord):
    """theta -> R theta + b."""

    __slots__ = ("matrix", "offset")

    def __init__(self, matrix: np.ndarray | Sequence, offset: np.ndarray | Sequence):
        object.__setattr__(self, "matrix", np.atleast_2d(np.asarray(matrix, dtype=float)))
        object.__setattr__(self, "offset", np.asarray(offset, dtype=float).reshape(-1))

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return np.einsum("ij,...j->...i", self.matrix, pts) + self.offset

    @staticmethod
    def identity(dimension: int) -> "AffineMap":
        return AffineMap(np.eye(dimension), np.zeros(dimension))


class TerminalTarget(NamedTuple):
    terminal: str


class SurfaceTarget(NamedTuple):
    mode: int
    map: AffineMap


class ResetEdge(NamedTuple):
    """Declarative reset edge: a source face and where it maps; one edge per face."""

    source_mode: int
    source_face: int
    target: TerminalTarget | SurfaceTarget


class BoundEdge(NamedTuple):
    """Reset edge with geometry resolved against the built model."""

    index: int
    source_mode: int
    source_face: int
    target: TerminalTarget | SurfaceTarget
    source_normal: np.ndarray
    source_offset: float
    jacobian_value: float


class Mode(NamedTuple):
    domain: PolyDomain
    fields: VectorFieldSet


class ModelSpec(NamedTuple):
    """Declarative model description consumed by `build_model`."""

    dimension: int
    modes: Sequence[Mode]
    reset_edges: Sequence[ResetEdge]
    terminal_states: Sequence[str] = ()
    characteristic_faces: Sequence[tuple[int, int]] = ()


class HybridModel(NamedTuple):
    dimension: int
    modes: tuple[Mode, ...]
    terminal_states: tuple[str, ...]
    reset_edges: tuple[BoundEdge, ...]
    characteristic_faces: frozenset
    face_edges: dict   # (mode, face) -> index of its reset edge

    def edge_for_face(self, mode: int, face: int) -> BoundEdge:
        if (mode, face) not in self.face_edges:
            raise UnassignedFace(f"face ({mode}, {face}) has no reset edge")
        return self.reset_edges[self.face_edges[(mode, face)]]

    def is_characteristic(self, mode: int, face: int) -> bool:
        return (mode, face) in self.characteristic_faces


# ---------------------------------------------------------------------------
# operations


def build_model(spec: ModelSpec) -> HybridModel:
    """Validate a declarative spec and return an immutable HybridModel."""
    d = spec.dimension
    if d < 1:
        raise GeometryError("dimension must be >= 1")
    modes = tuple(spec.modes)
    if not modes:
        raise GeometryError("a model needs at least one mode")
    for q, mode in enumerate(modes):
        if mode.domain.dimension != d:
            raise GeometryError(f"mode {q} domain dimension {mode.domain.dimension} != {d}")
        if len(mode.fields.diffusion) != d:
            raise GeometryError(
                f"mode {q} must carry exactly {d} diffusion fields "
                f"(pad with zero_field), got {len(mode.fields.diffusion)}"
            )
        _check_fields_finite(mode, q)

    terminal_states = tuple(spec.terminal_states)
    characteristic = frozenset(tuple(fc) for fc in spec.characteristic_faces)

    face_edges: dict[tuple[int, int], int] = {}
    bound: list[BoundEdge] = []
    for i, edge in enumerate(spec.reset_edges):
        q, f = edge.source_mode, edge.source_face
        if not (0 <= q < len(modes)) or not (0 <= f < modes[q].domain.n_faces):
            raise GeometryError(f"edge {i} references unknown face ({q}, {f})")
        if (q, f) in characteristic:
            raise ModelError(f"face ({q}, {f}) is both reset-covered and characteristic")
        if (q, f) in face_edges:
            raise OverlappingSources(f"edges {face_edges[(q, f)]} and {i} both leave face ({q}, {f})")
        bound.append(_bind_edge(i, edge, modes, terminal_states, d))
        face_edges[(q, f)] = i

    for q, mode in enumerate(modes):
        for f in range(mode.domain.n_faces):
            if (q, f) not in face_edges and (q, f) not in characteristic:
                raise UnassignedFace(
                    f"face ({q}, {f}) has no reset edge and is not declared characteristic"
                )

    return HybridModel(
        dimension=d,
        modes=modes,
        terminal_states=terminal_states,
        reset_edges=tuple(bound),
        characteristic_faces=characteristic,
        face_edges=face_edges,
    )


def _check_fields_finite(mode: Mode, q: int) -> None:
    domain = mode.domain
    probes = [domain.interior_point]
    for f in range(domain.n_faces):
        try:
            probes.append(domain.face_center(f))
        except GeometryError:
            continue
    pts = np.array(probes)
    values = [mode.fields.drift(pts)] + [a(pts) for a in mode.fields.diffusion]
    if not all(np.all(np.isfinite(v)) for v in values):
        raise GeometryError(f"mode {q} fields are not finite on the domain closure")
    # Spot-check caller-supplied Jacobians against central differences.
    for r, a_field in enumerate(mode.fields.diffusion):
        jac = a_field.jacobian(pts)
        ref = finite_difference_jacobian(a_field, pts)
        scale = max(1.0, float(np.max(np.abs(ref))))
        if np.max(np.abs(jac - ref)) > 1e-4 * scale:
            raise GeometryError(f"mode {q} diffusion field {r}: Jacobian disagrees with finite differences")


def _bind_edge(i, edge, modes, terminal_states, d) -> BoundEdge:
    src_domain = modes[edge.source_mode].domain
    normal = src_domain.normals[edge.source_face].copy()
    offset = float(src_domain.offsets[edge.source_face])

    if isinstance(edge.target, TerminalTarget):
        if edge.target.terminal not in terminal_states:
            raise ModelError(
                f"edge {i} targets unknown terminal state {edge.target.terminal!r}"
            )
        h_value = 1.0
    elif isinstance(edge.target, SurfaceTarget):
        if not (0 <= edge.target.mode < len(modes)):
            raise ModelError(f"edge {i} targets unknown mode {edge.target.mode}")
        h_value = _jacobian_factor_affine(src_domain, edge.source_face, edge.target.map, d)
        _check_image_interior(i, edge, src_domain, modes[edge.target.mode].domain)
    else:
        raise ModelError(f"edge {i} has an unrecognised target {edge.target!r}")

    return BoundEdge(
        index=i,
        source_mode=edge.source_mode,
        source_face=edge.source_face,
        target=edge.target,
        source_normal=normal,
        source_offset=offset,
        jacobian_value=h_value,
    )


def _jacobian_factor_affine(src_domain, face, amap, d) -> float:
    # Surface measures on a 0-dimensional boundary are counting measures.
    if d == 1:
        return 1.0
    tangents = src_domain.tangent_basis(face)
    image = amap.matrix @ tangents
    gram = image.T @ image
    det = float(np.linalg.det(gram))
    if det <= 0.0:
        raise DegenerateResetMap("affine reset map collapses the source face")
    return float(np.sqrt(det))


def _check_image_interior(i, edge, src_domain, tgt_domain) -> None:
    pts = src_domain.face_points(edge.source_face)
    images = edge.target.map(pts)
    tol = _INTERIOR_REL_TOL * tgt_domain.diameter()
    if np.any(tgt_domain.gaps(images) > -tol):
        raise TargetOnBoundary(
            f"edge {i}: reset image is not strictly interior to mode {edge.target.mode}"
        )


def ito_coefficients(model: HybridModel, mode: int, points: np.ndarray):
    """Ito drift and diffusion matrix from the Stratonovich fields.

    b^i = A0^i + 1/2 sum_r sum_j A_r^j d_j A_r^i,  a^ij = sum_r A_r^i A_r^j.
    Accepts points of shape (d,) or (k, d); returns matching-shaped b and a.
    """
    pts = np.asarray(points, dtype=float)
    b, values = ito_drift(model, mode, pts)
    a = np.zeros(pts.shape + (model.dimension,))
    for val in values:
        a += np.einsum("...i,...j->...ij", val, val)
    return b, a


def ito_drift(model: HybridModel, mode: int, points: np.ndarray):
    """Ito drift b and the value of each diffusion field A_r, each field evaluated once."""
    fields = model.modes[mode].fields
    b = fields.drift(points).copy()
    values = [a_field(points) for a_field in fields.diffusion]
    for a_field, val in zip(fields.diffusion, values):
        b += 0.5 * np.einsum("...ij,...j->...i", a_field.jacobian(points), val)
    return b, values


def jacobian_factor(edge: BoundEdge, point: np.ndarray) -> float:
    """Surface-measure scaling h = |Jac Phi| at a point of the source face."""
    if not isinstance(edge.target, SurfaceTarget):
        raise NotSurfaceTarget(f"edge {edge.index} maps to a terminal state")
    pt = np.asarray(point, dtype=float).reshape(-1)
    gap = abs(float(pt @ edge.source_normal) - edge.source_offset)
    scale = max(1.0, abs(edge.source_offset))
    if gap > 1e-6 * scale:
        raise ModelError(f"point is not on the source face of edge {edge.index}")
    return edge.jacobian_value


def classify_boundary(model: HybridModel, mode: int, face: int) -> str:
    """'non_characteristic' iff some diffusion field is non-tangential on the face."""
    domain = model.modes[mode].domain
    fields = model.modes[mode].fields
    pts = domain.face_points(face)
    nrm = domain.normals[face]
    indicator = np.zeros(pts.shape[0])
    magnitude = np.zeros(pts.shape[0])
    for a_field in fields.diffusion:
        val = a_field(pts)
        indicator += np.einsum("kj,j->k", val, nrm) ** 2
        magnitude += np.einsum("kj,kj->k", val, val)
    tol = _CHAR_REL_TOL * max(float(np.max(magnitude)), 1e-300)
    hits = indicator > tol
    if np.all(hits):
        return "non_characteristic"
    if not np.any(hits):
        return "characteristic"
    raise MixedFace(f"face ({mode}, {face}) is characteristic only on part of its extent")
