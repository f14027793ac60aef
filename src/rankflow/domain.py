"""Core value types (boxes, fixations, scenes, rankings) and elementary geometry.

Everything here is immutable after construction and all operations are pure,
so values can be shared freely across threads and processes.  A scene holds
its fixations as one read-only ``(n, 3)`` int64 array of ``(u, v,
observer_id)`` rows, so fixation counts are single masked sums, and its
fixation map, if any, as one read-only ``(height, width)`` uint8 array, so a
box's map pixels are a slice.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import RankflowError


def check_fields(cfg, integers=(), reals=()) -> None:
    """Raise ``ValueError`` naming the first bad field of a config:
    ``integers`` are ``(name, low)`` pairs of integers >= low, ``reals``
    ``(name, ok, span)`` triples of finite numbers for which ``ok`` holds."""
    for name, low in integers:
        value = getattr(cfg, name)
        if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    for name, ok, span in reals:
        value = getattr(cfg, name)
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if not (real and math.isfinite(value) and ok(value)):
            raise ValueError(f"{name} must be a finite number {span}, got {value!r}")


@dataclass(frozen=True)
class BBox:
    """Axis-aligned rectangle in pixel coordinates, origin top-left."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise RankflowError("box: x1<x2 and y1<y2 required")
        if min(self.x1, self.y1) < 0:
            raise RankflowError("box: coordinates must be >= 0")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass(frozen=True)
class Proposal:
    id: int
    box: BBox | None
    detector_confidence: float = 1.0
    is_dummy: bool = False

    def __post_init__(self):
        if self.is_dummy:
            if self.box is not None:
                raise RankflowError("proposal: dummy proposals carry no box")
        else:
            if self.box is None:
                raise RankflowError("proposal: real proposals require a box")
            if not 0.0 <= self.detector_confidence <= 1.0:
                raise RankflowError("confidence: must lie in [0,1]")


@dataclass(frozen=True, eq=False)
class Scene:
    """One image's proposals and fixations; ``fixations`` takes ``(u, v,
    observer_id)`` rows and is stored as a read-only ``(n, 3)`` int64 array,
    ``fixation_map`` as a read-only ``(height, width)`` uint8 array."""

    scene_id: str
    width: int
    height: int
    proposals: tuple[Proposal, ...]
    fixations: np.ndarray = ()
    fixation_map: np.ndarray | None = None

    def __post_init__(self):
        # Stages name their output files after the id, so it must stay in its directory.
        if self.scene_id in ("", ".", "..") or any(c in self.scene_id for c in "/\\\0"):
            raise RankflowError(f"scene_id: must be a plain file name, got {self.scene_id!r}")
        fix = np.array(self.fixations, dtype=np.int64).reshape(-1, 3)
        fix.flags.writeable = False
        object.__setattr__(self, "fixations", fix)
        if (fix[:, 2] < 0).any():
            raise RankflowError("observer_id: must be non-negative")
        if self.width <= 0 or self.height <= 0:
            raise RankflowError("scene: image dimensions must be positive")
        if self.fixation_map is not None:
            m = np.array(self.fixation_map, dtype=np.uint8, order="C")
            m.flags.writeable = False
            object.__setattr__(self, "fixation_map", m)
            if m.shape != (self.height, self.width):
                size = "x".join(map(str, m.shape[::-1]))
                raise RankflowError(f"fixation_map: {size} map for a {self.width}x{self.height} scene")
        ids = [p.id for p in self.proposals]
        if len(set(ids)) != len(ids):
            raise RankflowError("proposals: proposal ids must be unique")
        for p in self.proposals:
            if p.box is not None and not (
                p.box.x2 <= self.width and p.box.y2 <= self.height
            ):
                raise RankflowError(f"box: proposal {p.id} exceeds image bounds")
        u, v = fix[:, 0], fix[:, 1]
        outside = np.flatnonzero((u < 0) | (u >= self.width) | (v < 0) | (v >= self.height))
        if outside.size:
            bad_u, bad_v, _ = fix[outside[0]].tolist()
            raise RankflowError(f"fixation: point ({bad_u},{bad_v}) outside image")

    def __reduce__(self):
        # Rebuilt through __init__, so an unpickled scene's array is read-only too.
        return Scene, (self.scene_id, self.width, self.height, self.proposals, self.fixations, self.fixation_map)

    def __eq__(self, other):
        if not isinstance(other, Scene):
            return NotImplemented
        return (
            (self.scene_id, self.width, self.height, self.proposals)
            == (other.scene_id, other.width, other.height, other.proposals)
            and np.array_equal(self.fixations, other.fixations)
            and np.array_equal(self.fixation_map, other.fixation_map)  # also None == None
        )

    @property
    def real_proposals(self) -> tuple[Proposal, ...]:
        return tuple(p for p in self.proposals if not p.is_dummy)


@dataclass(frozen=True)
class Ranking:
    """Per-proposal saliency orders: 0 = non-salient, 1 = most salient.

    Non-zero orders must form a contiguous duplicate-free set {1..k}.
    """

    labels: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        nonzero = sorted(o for o in self.labels.values() if o != 0)
        if any(o < 0 for o in self.labels.values()):
            raise RankflowError("ranking: orders must be non-negative")
        if nonzero != list(range(1, len(nonzero) + 1)):
            raise RankflowError(f"ranking: non-zero orders must be a permutation of 1..k, got {nonzero}")


def iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union of two boxes; symmetric, 0 when disjoint."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = a.area + b.area - inter
    if 0.0 < inter <= union:
        return inter / union
    # Subnormal extents underflow or misround the float products; take the
    # ratio exactly instead.
    f = Fraction
    inter = (f(min(a.x2, b.x2)) - f(max(a.x1, b.x1))) * (f(min(a.y2, b.y2)) - f(max(a.y1, b.y1)))
    area_a = (f(a.x2) - f(a.x1)) * (f(a.y2) - f(a.y1))
    area_b = (f(b.x2) - f(b.x1)) * (f(b.y2) - f(b.y1))
    return float(inter / (area_a + area_b - inter))


def sqrt_size(b: BBox) -> float:
    return math.sqrt(b.area)


def count_fixations(b: BBox, pts) -> int:
    """Number of fixation points inside the box under the half-open rule.

    Containment is [x1,x2) x [y1,y2) so tiling boxes never double-count.
    ``pts`` is a scene's fixation array (columns u, v, ...).
    """
    u, v = pts[:, 0], pts[:, 1]
    return int(np.count_nonzero((b.x1 <= u) & (u < b.x2) & (b.y1 <= v) & (v < b.y2)))


def map_region(gmap: np.ndarray, box: BBox) -> np.ndarray:
    """Map pixels a box covers under the half-open rule (possibly empty)."""
    return gmap[math.ceil(box.y1) : math.ceil(box.y2), math.ceil(box.x1) : math.ceil(box.x2)]
