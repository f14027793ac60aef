import pickle

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from rankflow.domain import BBox, GrayMap, Ranking, Scene, count_fixations, iou, sqrt_size
from rankflow.errors import InvariantViolation


def box(x1, y1, x2, y2):
    return BBox(x1, y1, x2, y2)


class TestBBox:
    def test_rejects_inverted(self):
        with pytest.raises(InvariantViolation):
            BBox(10, 10, 5, 5)

    def test_rejects_negative(self):
        with pytest.raises(InvariantViolation):
            BBox(-1, 0, 5, 5)


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
        except InvariantViolation:
            return  # degenerate sample
        assert iou(ba, bb) == iou(bb, ba)
        assert 0.0 <= iou(ba, bb) <= 1.0


class TestSqrtSize:
    def test_square(self):
        assert sqrt_size(box(0, 0, 10, 10)) == 10.0

    def test_unit(self):
        assert sqrt_size(box(0, 0, 1, 1)) == 1.0

    def test_rectangle(self):
        assert sqrt_size(box(0, 0, 20, 5)) == 10.0


class TestCountFixations:
    def test_empty(self):
        assert count_fixations(box(0, 0, 10, 10), np.empty((0, 3), dtype=np.int64)) == 0

    def test_all_inside(self):
        pts = np.array([(1, 1, 0), (2, 3, 0), (9, 9, 0)])
        assert count_fixations(box(0, 0, 10, 10), pts) == 3

    def test_half_open_boundary(self):
        pts = np.array([(5, 5, 0), (10, 10, 0)])
        assert count_fixations(box(0, 0, 10, 10), pts) == 1

    @given(st.lists(st.tuples(st.integers(0, 19), st.integers(0, 9))))
    def test_additive_over_tiling(self, coords):
        # two boxes tiling [0,20)x[0,10): no double counting, no loss
        pts = np.array([(u, v, 0) for u, v in coords], dtype=np.int64).reshape(-1, 3)
        left = count_fixations(box(0, 0, 10, 10), pts)
        right = count_fixations(box(10, 0, 20, 10), pts)
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
        assert count_fixations(b, pts) == expected
        assert count_fixations(b, np.array(coords, dtype=np.int64).reshape(-1, 2)) == expected


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
        with pytest.raises(InvariantViolation, match="observer_id: must be non-negative"):
            Scene("s", 10, 10, (), [(1, 1, 0), (2, 2, -1)])

    def test_rejects_point_outside(self):
        with pytest.raises(InvariantViolation, match=r"fixation: point \(10,3\) outside image"):
            Scene("s", 10, 10, (), [(1, 1, 0), (10, 3, 0), (-1, 0, 0)])

    def test_rejects_map_of_other_size(self):
        with pytest.raises(InvariantViolation, match="fixation_map: 10x8 map for a 10x10 scene"):
            Scene("s", 10, 10, (), fixation_map=GrayMap(10, 8, bytes(80)))

    def test_equal_by_value(self):
        a = Scene("s", 10, 10, (), [(1, 2, 0)])
        assert a == Scene("s", 10, 10, (), np.array([[1, 2, 0]]))
        assert a != Scene("s", 10, 10, (), [(1, 3, 0)])


class TestRanking:
    def test_valid(self):
        r = Ranking({3: 0, 7: 1, 9: 2})
        assert r.order_of(7) == 1

    def test_zero_may_repeat(self):
        Ranking({1: 0, 2: 0, 3: 1})

    def test_rejects_gap(self):
        with pytest.raises(InvariantViolation):
            Ranking({1: 1, 2: 3})

    def test_rejects_duplicate_order(self):
        with pytest.raises(InvariantViolation):
            Ranking({1: 1, 2: 1})
