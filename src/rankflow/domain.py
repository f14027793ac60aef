"""Core value types (boxes, fixations, scenes, rankings), elementary geometry,
and the two rules that every setting is checked by: ``check_integer`` and
``check_real``, each raising a RankflowError that names the setting.

Everything here is immutable after construction and all operations are pure,
so values can be shared freely across threads and processes.  A scene holds
its fixations as one read-only ``(n, 3)`` int64 array of ``(u, v,
observer_id)`` rows, so all of a scene's box counts are one broadcast
comparison, and its fixation map, if any, as one read-only C-order
``(height, width)`` uint8 array, so a box's map pixels are a slice.  Both
arrays are copies the scene owns, whatever it was given.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import RankflowError

# count_fixations compares at most this many box-point pairs at once, so
# each boolean temporary stays within 1 MB whatever the scene's size.
_COUNT_BLOCK = 1 << 20


def check_integer(value, name: str, low: int, high: int | None = None):
    """``value`` if it is an integer (not a bool) in ``low..high``, with no
    upper bound when ``high`` is None; else a RankflowError naming ``name``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < low:
        raise RankflowError(f"{name} must be an integer >= {low}, got {value!r}")
    if high is not None and value > high:
        raise RankflowError(f"{name} must be at most {high}, got {value!r}")
    return value


def check_real(value, name: str, ok, span: str):
    """``value`` if it is a finite number (not a bool) for which ``ok``
    holds; else a RankflowError naming ``name`` and ``span``, the range in words."""
    try:
        finite = isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int past the largest double
        finite = False
    if not (finite and ok(value)):
        raise RankflowError(f"{name} must be a finite number {span}, got {value!r}")
    return value


def check_fields(cfg, integers=(), reals=()) -> None:
    """Check a config's fields in order, so the first bad one raises:
    ``integers`` are ``(name, low)`` or ``(name, low, high)`` for
    ``check_integer``, ``reals`` are ``(name, ok, span)`` for ``check_real``."""
    for name, *bounds in integers:
        check_integer(getattr(cfg, name), name, *bounds)
    for name, ok, span in reals:
        check_real(getattr(cfg, name), name, ok, span)


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
    ``fixation_map`` as a read-only C-order ``(height, width)`` uint8 array;
    each is the scene's own copy, so nothing outside can change it."""

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
    # The overlap's edges by conditional expressions: for the non-NaN
    # coordinates a BBox holds they pick what max and min would, at about a
    # third of the cost, and synth and NMS call this tens of times a scene.
    left, right = (a.x1 if a.x1 >= b.x1 else b.x1), (a.x2 if a.x2 <= b.x2 else b.x2)
    top, bottom = (a.y1 if a.y1 >= b.y1 else b.y1), (a.y2 if a.y2 <= b.y2 else b.y2)
    ix, iy = right - left, bottom - top
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = (a.x2 - a.x1) * (a.y2 - a.y1) + (b.x2 - b.x1) * (b.y2 - b.y1) - inter
    if 0.0 < inter <= union:
        return inter / union
    # Subnormal extents underflow or misround the float products; take the
    # ratio exactly instead.
    f = Fraction
    inter = (f(right) - f(left)) * (f(bottom) - f(top))
    area_a = (f(a.x2) - f(a.x1)) * (f(a.y2) - f(a.y1))
    area_b = (f(b.x2) - f(b.x1)) * (f(b.y2) - f(b.y1))
    return float(inter / (area_a + area_b - inter))


def sqrt_size(b: BBox) -> float:
    return math.sqrt(b.area)


def count_fixations(boxes, pts) -> np.ndarray:
    """Each box's number of fixation points under the half-open rule, as
    one int array aligned with ``boxes``.

    Containment is [x1,x2) x [y1,y2) so tiling boxes never double-count.
    ``pts`` is a scene's fixation array (columns u, v, ...).  A scene's
    boxes are counted by one broadcast comparison against every point,
    in blocks of at most ``_COUNT_BLOCK`` box-point pairs.
    """
    edges = np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=float).reshape(-1, 4)
    u, v = pts[:, 0], pts[:, 1]
    counts = np.zeros(len(edges), dtype=np.int64)
    step = max(1, _COUNT_BLOCK // max(len(u), 1))
    for i in range(0, len(edges), step):
        x1, y1, x2, y2 = edges[i : i + step].T[:, :, None]
        counts[i : i + step] = np.count_nonzero((x1 <= u) & (u < x2) & (y1 <= v) & (v < y2), axis=1)
    return counts


def map_region(gmap: np.ndarray, box: BBox) -> np.ndarray:
    """Map pixels a box covers under the half-open rule (possibly empty)."""
    return gmap[math.ceil(box.y1) : math.ceil(box.y2), math.ceil(box.x1) : math.ceil(box.x2)]
