import math
import pickle
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from rankflow import domain
from rankflow.domain import BBox, Ranking, Scene, check_integer, check_real, count_fixations, iou, sqrt_size
from rankflow.errors import RankflowError
from rankflow.ingest import pgm_from_bytes, pgm_to_bytes


def box(x1, y1, x2, y2):
    return BBox(x1, y1, x2, y2)


def _integer_reference(value, low, high) -> bool:
    """The integer rule on plain scalars: a Python or numpy integer, not a
    bool, in low..high (no upper bound when high is None)."""
    integer = type(value) is int or isinstance(value, np.integer)
    return integer and low <= value and (high is None or value <= high)


def _real_reference(value, low, high) -> bool:
    """The real rule with the range [low, high] (no upper bound when high is
    None): a Python or numpy int or float, not a bool, that is no NaN, no
    infinity and no int past the largest double."""
    if type(value) is int or isinstance(value, np.integer):
        finite = abs(int(value)) <= sys.float_info.max
    elif type(value) is float or isinstance(value, np.floating):
        finite = math.isfinite(value)
    else:
        return False
    return finite and low <= value and (high is None or value <= high)


def _accepts(rule, value, name, *args) -> bool:
    try:
        assert rule(value, name, *args) is value
    except RankflowError as e:
        assert str(e).startswith(f"{name} must be ") and str(e).endswith(f", got {value!r}")
        return False
    return True


# Scalars no plain comparison settles: bools, non-numbers, ints past int64 or
# past every double, NaN and the infinities.
_ODD_SCALARS = [True, False, np.True_, None, "1", [1], 10**400, -(10**400), 2**63, np.uint64(2**64 - 1),
                float("nan"), float("inf"), -float("inf"), np.float32("inf")]
# Every kind of scalar a setting may arrive as: JSON's, argparse's, numpy's.
_SCALARS = st.one_of(
    st.sampled_from(_ODD_SCALARS),
    st.integers(-12, 12),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.floats(-12, 12),
    st.floats(),
    st.floats(width=32).map(np.float32),
)


class TestSettingRules:
    """``check_integer`` and ``check_real`` accept exactly what a plain
    scalar reference accepts, and each refusal names the setting."""

    @given(st.data(), st.integers(-5, 5), st.none() | st.integers(-5, 5))
    def test_integer_rule(self, data, low, high):
        edges = [low, low - 1] + ([] if high is None else [high, high + 1])
        value = data.draw(_SCALARS | st.sampled_from(edges) | st.sampled_from(edges).map(np.int16))
        assert _accepts(check_integer, value, "--n", low, high) == _integer_reference(value, low, high)

    @given(st.data(), st.integers(-5, 5), st.none() | st.integers(0, 5))
    def test_real_rule(self, data, low, width):
        high = None if width is None else low + width
        edges = [low, float(low), math.nextafter(low, -math.inf)]
        if high is not None:
            edges += [high, float(high), math.nextafter(high, math.inf)]
        value = data.draw(_SCALARS | st.sampled_from(edges) | st.sampled_from(edges).map(np.float64))
        assert self._real_accepts(value, low, high) == _real_reference(value, low, high)

    @pytest.mark.parametrize("value", _ODD_SCALARS, ids=lambda v: repr(v)[:16])
    @pytest.mark.parametrize("low, high", [(0, None), (-1, 1)])
    def test_odd_scalars(self, value, low, high):
        assert _accepts(check_integer, value, "n", low, high) == _integer_reference(value, low, high)
        assert self._real_accepts(value, low, high) == _real_reference(value, low, high)

    @staticmethod
    def _real_accepts(value, low, high) -> bool:
        ok = lambda x: low <= x and (high is None or x <= high)  # noqa: E731
        return _accepts(check_real, value, "cfg.json: x", ok, f"in [{low}, {high}]")


class TestBBox:
    def test_rejects_inverted(self):
        with pytest.raises(RankflowError, match="box: x1<x2 and y1<y2 required"):
            BBox(10, 10, 5, 5)

    def test_rejects_negative(self):
        with pytest.raises(RankflowError, match="box: coordinates must be >= 0"):
            BBox(-1, 0, 5, 5)


# Box edges on a 13 x 13 image: integers (edges of whole pixels, 0 and 13
# the image's edges) and fractions.
_EDGE = st.one_of(st.integers(0, 13), st.floats(0, 13))


@st.composite
def _boxes(draw, edge=_EDGE, min_size=0, max_size=8):
    """Up to ``max_size`` valid boxes from ``edge`` values; a list of fewer
    than ``min_size`` is not drawn."""
    out = []
    for x1, x2, y1, y2 in draw(st.lists(st.tuples(edge, edge, edge, edge), min_size=min_size, max_size=max_size)):
        (x1, x2), (y1, y2) = sorted((x1, x2)), sorted((y1, y2))
        if x1 < x2 and y1 < y2:
            out.append(box(x1, y1, x2, y2))
    assume(len(out) >= min_size)
    return out


def iou_reference(a, b) -> float:
    """The IoU with the overlap's edges taken by min and max, and the areas
    by ``BBox.area``."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = a.area + b.area - inter
    if 0.0 < inter <= union:
        return inter / union
    f = Fraction
    inter = (f(min(a.x2, b.x2)) - f(max(a.x1, b.x1))) * (f(min(a.y2, b.y2)) - f(max(a.y1, b.y1)))
    area_a = (f(a.x2) - f(a.x1)) * (f(a.y2) - f(a.y1))
    area_b = (f(b.x2) - f(b.x1)) * (f(b.y2) - f(b.y1))
    return float(inter / (area_a + area_b - inter))


class TestIou:
    def test_identical(self):
        b = box(0, 0, 10, 10)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(box(0, 0, 10, 10), box(20, 20, 30, 30)) == 0.0

    def test_half_overlap(self):
        # inter 50, union 150
        assert iou(box(0, 0, 10, 10), box(5, 0, 15, 10)) == pytest.approx(1 / 3)

    @given(
        st.tuples(*(st.floats(0, 100) for _ in range(4))),
        st.tuples(*(st.floats(0, 100) for _ in range(4))),
    )
    def test_symmetric_and_bounded(self, a, b):
        try:
            ba = box(min(a[0], a[2]), min(a[1], a[3]), max(a[0], a[2]), max(a[1], a[3]))
            bb = box(min(b[0], b[2]), min(b[1], b[3]), max(b[0], b[2]), max(b[1], b[3]))
        except RankflowError:
            return  # degenerate sample
        assert iou(ba, bb) == iou(bb, ba)
        assert 0.0 <= iou(ba, bb) <= 1.0

    # Integer, fractional and subnormal coordinates, so edges coincide and
    # the exact fallback runs.
    _COORD = st.one_of(st.integers(0, 8), st.floats(0, 8), st.floats(0, 1e-300))

    @given(_boxes(edge=_COORD, min_size=2, max_size=2))
    @example([box(0, 0, 2, 2), box(0.0, 0.0, 2.0, 2.0)])
    @example([box(0, 0, 5e-324, 5e-324), box(0, 0, 1e-323, 5e-324)])
    def test_matches_min_max_reference(self, boxes):
        a, b = boxes
        assert iou(a, b) == iou_reference(a, b)
        assert iou(b, a) == iou_reference(b, a)


class TestSqrtSize:
    def test_square(self):
        assert sqrt_size(box(0, 0, 10, 10)) == 10.0

    def test_unit(self):
        assert sqrt_size(box(0, 0, 1, 1)) == 1.0

    def test_rectangle(self):
        assert sqrt_size(box(0, 0, 20, 5)) == 10.0


def count_reference(boxes, pts) -> list[int]:
    """Each box's fixation count under the half-open rule, one point and
    one box at a time."""
    return [sum(1 for u, v, *_ in pts if b.x1 <= u < b.x2 and b.y1 <= v < b.y2) for b in boxes]


class TestCountFixations:
    def test_empty(self):
        assert count_fixations([box(0, 0, 10, 10)], np.empty((0, 3), dtype=np.int64)).tolist() == [0]

    def test_no_boxes(self):
        counts = count_fixations([], np.array([(1, 1, 0)]))
        assert counts.shape == (0,) and counts.dtype.kind == "i"

    def test_all_inside(self):
        pts = np.array([(1, 1, 0), (2, 3, 0), (9, 9, 0)])
        assert count_fixations([box(0, 0, 10, 10)], pts).tolist() == [3]

    def test_half_open_boundary(self):
        pts = np.array([(5, 5, 0), (10, 10, 0)])
        assert count_fixations([box(0, 0, 10, 10)], pts).tolist() == [1]

    @given(st.lists(st.tuples(st.integers(0, 19), st.integers(0, 9))))
    def test_additive_over_tiling(self, coords):
        # two boxes tiling [0,20)x[0,10): no double counting, no loss
        pts = np.array([(u, v, 0) for u, v in coords], dtype=np.int64).reshape(-1, 3)
        left, right = count_fixations([box(0, 0, 10, 10), box(10, 0, 20, 10)], pts).tolist()
        assert left + right == len(pts)

    @given(
        st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=60),
        st.lists(st.one_of(st.integers(0, 12), st.floats(0, 12)), min_size=4, max_size=4),
    )
    @example(coords=[(0, 0), (1, 0), (0, 1), (1, 1)], edges=[0, 1, 0, 1])
    @example(coords=[(1, 1), (2, 2), (3, 3), (2, 1)], edges=[1.5, 3.0, 1.5, 2.5])
    def test_array_matches_scalar_rule(self, coords, edges):
        # Small ranges put many points exactly on integer edges; float edges
        # are fractional.
        x1, x2 = sorted(edges[:2])
        y1, y2 = sorted(edges[2:])
        assume(x1 < x2 and y1 < y2)
        b = box(x1, y1, x2, y2)
        expected = sum(1 for u, v in coords if x1 <= u < x2 and y1 <= v < y2)
        pts = np.array([(u, v, 0) for u, v in coords], dtype=np.int64).reshape(-1, 3)
        assert count_fixations([b], pts).tolist() == [expected]
        assert count_fixations([b], np.array(coords, dtype=np.int64).reshape(-1, 2)).tolist() == [expected]

    @given(_boxes(), st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(0, 7)), max_size=60))
    @example(boxes=[], coords=[(0, 0, 0)])
    @example(boxes=[box(0, 0, 13, 13), box(12, 12, 13, 13)], coords=[])
    @example(boxes=[box(0, 0, 13, 13), box(0.5, 0, 12, 12.5), box(12, 12, 13, 13)], coords=[(0, 0, 1), (12, 12, 0)])
    def test_every_box_matches_scalar_reference(self, boxes, coords):
        pts = np.array(coords, dtype=np.int64).reshape(-1, 3)
        assert count_fixations(boxes, pts).tolist() == count_reference(boxes, coords)

    def test_boxes_counted_in_blocks(self, monkeypatch):
        # Blocks of 3 box-point pairs hold one box each at 3 points.
        monkeypatch.setattr(domain, "_COUNT_BLOCK", 3)
        boxes = [box(0, 0, 2, 2), box(1, 1, 3, 3), box(0.5, 0.5, 1.5, 1.5)]
        coords = [(0, 0, 0), (1, 1, 0), (2, 2, 0)]
        assert count_fixations(boxes, np.array(coords)).tolist() == count_reference(boxes, coords) == [2, 2, 1]


class TestSceneFixations:
    def test_read_only_int_array(self):
        scene = Scene("s", 10, 10, (), [(1, 2, 0), (3, 4, 5)])
        assert scene.fixations.dtype == np.int64 and scene.fixations.shape == (2, 3)
        with pytest.raises(ValueError):
            scene.fixations[0, 0] = 9
        copy = pickle.loads(pickle.dumps(scene))
        assert copy == scene and not copy.fixations.flags.writeable

    def test_empty(self):
        assert Scene("s", 10, 10, ()).fixations.shape == (0, 3)

    def test_rejects_negative_observer(self):
        with pytest.raises(RankflowError, match="observer_id: must be non-negative"):
            Scene("s", 10, 10, (), [(1, 1, 0), (2, 2, -1)])

    def test_rejects_point_outside(self):
        with pytest.raises(RankflowError, match=r"fixation: point \(10,3\) outside image"):
            Scene("s", 10, 10, (), [(1, 1, 0), (10, 3, 0), (-1, 0, 0)])

    def test_rejects_map_of_other_size(self):
        with pytest.raises(RankflowError, match="fixation_map: 10x8 map for a 10x10 scene"):
            Scene("s", 10, 10, (), fixation_map=np.zeros((8, 10), np.uint8))

    def test_map_whose_memory_can_change_is_copied(self):
        base = np.zeros((10, 10), np.uint8)
        view = base.view()
        view.flags.writeable = False
        scene = Scene("s", 10, 10, (), fixation_map=view)
        base[3, 4] = 7
        assert scene.fixation_map[3, 4] == 0 and not scene.fixation_map.flags.writeable
        for given in (base, np.frombuffer(bytearray(100), np.uint8).reshape(10, 10)):
            assert not np.shares_memory(Scene("s", 10, 10, (), fixation_map=given).fixation_map, given)

    @given(st.integers(1, 6), st.integers(1, 6), st.sampled_from(["pgm", "c", "read-only view", "f-order"]), st.data())
    def test_scene_owns_its_map(self, w, h, kind, data):
        """Whatever array a map comes as, the scene keeps its own read-only
        C-order copy, which later writes to the given array cannot reach."""
        values = np.array(data.draw(st.lists(st.integers(0, 255), min_size=w * h, max_size=w * h)), np.uint8)
        values = values.reshape(h, w)
        writable = None
        if kind == "pgm":  # ingest.parse_pgm: a read-only view of the file's bytes
            given = pgm_from_bytes(pgm_to_bytes(values))
        elif kind == "c":
            given = writable = values.copy()
        elif kind == "read-only view":
            writable = values.copy()
            given = writable.view()
            given.flags.writeable = False
        else:  # synth._render_map: astype(np.uint8).T of a (width, height) array
            given = writable = values.T.astype(np.uint8).T
        m = Scene("s", w, h, (), fixation_map=given).fixation_map
        assert np.array_equal(m, values) and np.array_equal(m, given)
        assert m.dtype == np.uint8 and not m.flags.writeable and m.flags.c_contiguous
        assert not np.shares_memory(m, given)
        if writable is not None:
            writable[...] = 255 - writable
            assert np.array_equal(m, values)

    @pytest.mark.parametrize("scene_id", ["", ".", "..", "../x", "a/b", "a\\b", "a\0b"])
    def test_rejects_id_that_is_not_a_plain_file_name(self, scene_id):
        with pytest.raises(RankflowError, match="scene_id: must be a plain file name"):
            Scene(scene_id, 10, 10, ())

    def test_equal_by_value(self):
        a = Scene("s", 10, 10, (), [(1, 2, 0)])
        assert a == Scene("s", 10, 10, (), np.array([[1, 2, 0]]))
        assert a != Scene("s", 10, 10, (), [(1, 3, 0)])


class TestRanking:
    def test_valid(self):
        r = Ranking({3: 0, 7: 1, 9: 2})
        assert r.labels[7] == 1

    def test_zero_may_repeat(self):
        Ranking({1: 0, 2: 0, 3: 1})

    def test_rejects_gap(self):
        with pytest.raises(RankflowError, match=r"ranking: non-zero orders .* got \[1, 3\]"):
            Ranking({1: 1, 2: 3})

    def test_rejects_duplicate_order(self):
        with pytest.raises(RankflowError, match=r"ranking: non-zero orders .* got \[1, 1\]"):
            Ranking({1: 1, 2: 1})
