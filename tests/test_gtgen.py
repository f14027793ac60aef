import math

import numpy as np
import pytest

from conftest import make_scene
from rankflow.errors import RankflowError
from rankflow.gtgen import (
    GtConfig,
    METHODS,
    discrepancy_offsets,
    generate_ranking,
    rasrgt_counts,
    rasrgt_rank,
    rasrgt_score,
)

FIX_POINTS = GtConfig(method="fixpoints")
MAP_MAX = GtConfig(method="mapmax")


def binarized(threshold):
    return GtConfig(method="binmap", binary_threshold=threshold)


def box_score(scene, idx, cfg):
    """``rasrgt_score`` of the scene's ``idx``-th box, from its counts."""
    total, boxes = rasrgt_counts(scene)
    _, n_i, size_ratio = boxes[idx]
    return rasrgt_score(n_i, total, size_ratio, cfg)


class TestGtConfig:
    @pytest.mark.parametrize("method", METHODS)
    def test_every_method_name_accepted(self, method):
        assert GtConfig(method=method).method == method

    @pytest.mark.parametrize("method", ["zzz", ["x"], {}, None, 3])
    def test_other_methods_rejected(self, method):
        with pytest.raises(ValueError, match="method must be one of"):
            GtConfig(method=method)


class TestFixationPoints:
    def test_no_fixations_is_order_zero(self):
        scene = make_scene([(0, 0, 10, 10)])
        assert generate_ranking(scene, FIX_POINTS).labels == {0: 0}

    def test_size_penalty(self):
        # Q0: 10 fixations in a 5x5 box -> 10/5 = 2.0
        # Q1: 12 fixations in a 10x10 box -> 12/10 = 1.2
        fixations = [(i % 5, i // 5) for i in range(10)] + [
            (50 + i % 10, 50 + i // 10) for i in range(12)
        ]
        scene = make_scene([(0, 0, 5, 5), (50, 50, 60, 60)], fixations)
        assert generate_ranking(scene, FIX_POINTS).labels == {0: 1, 1: 2}

    def test_tie_broken_by_id(self):
        fixations = [(2, 2), (52, 52)]
        scene = make_scene([(0, 0, 10, 10), (50, 50, 60, 60)], fixations)
        assert generate_ranking(scene, FIX_POINTS).labels == {0: 1, 1: 2}

    def test_scaling_halves_scores_keeps_order(self):
        fixations = [(2, 2), (3, 3), (52, 52)]
        scene = make_scene([(0, 0, 10, 10), (50, 50, 60, 60)], fixations)
        doubled = make_scene(
            [(0, 0, 20, 20), (100, 100, 120, 120)],
            [(4, 4), (6, 6), (104, 104)],
            width=200,
            height=200,
        )
        assert generate_ranking(scene, FIX_POINTS).labels == generate_ranking(doubled, FIX_POINTS).labels


class TestFixationMap:
    def test_uniform_tie(self, uniform_map_scene):
        assert generate_ranking(uniform_map_scene, MAP_MAX).labels == {0: 1, 1: 2}

    def test_max_mode_orders_by_peak(self):
        grid = np.zeros((100, 100), dtype=np.uint8)
        grid[15, 15] = 200
        grid[60, 60] = 120
        scene = make_scene([(10, 10, 30, 30), (50, 50, 90, 90)], map_values=grid)
        assert generate_ranking(scene, MAP_MAX).labels == {0: 1, 1: 2}

    def test_missing_map(self):
        scene = make_scene([(0, 0, 10, 10)])
        with pytest.raises(RankflowError, match="no fixation_map_path, so the scene has no fixation map"):
            generate_ranking(scene, MAP_MAX)


class TestBinarizedMap:
    def test_all_black(self):
        scene = make_scene([(0, 0, 10, 10), (50, 50, 60, 60)], map_values=np.zeros((100, 100)))
        assert generate_ranking(scene, binarized(128)).labels == {0: 0, 1: 0}

    def test_white_ratio_times_size_ratio(self):
        # Q0: ratio 0.5, sqrt-size ratio 0.2 -> 0.10
        # Q1: ratio 0.3, sqrt-size ratio 0.5 -> 0.15 -> Q1 first
        grid = np.zeros((100, 100), dtype=np.uint8)
        grid[0:10, 0:20] = 255  # half of Q0 (0,0,20,20)
        grid[50:65, 40:90] = 255  # 750 of Q1's 2500 px (40,40,90,90)
        scene = make_scene([(0, 0, 20, 20), (40, 40, 90, 90)], map_values=grid)
        assert generate_ranking(scene, binarized(128)).labels == {0: 2, 1: 1}

    def test_threshold_above_all_values(self):
        scene = make_scene([(0, 0, 10, 10)], map_values=np.full((100, 100), 200))
        assert generate_ranking(scene, binarized(254)).labels == {0: 0}


class TestRaSrgtScore:
    def test_zero_fixations(self):
        scene = make_scene([(40, 40, 60, 60)], [(5, 5)])
        assert box_score(scene, 0, GtConfig()) == 0.0

    def test_hand_value(self):
        # 100x100 image, 50 fixations total; 30 inside a 20x20 box
        # S = 0.6 + 0.2 * e^(0.5 * 0.2)
        inside = [(40 + i % 10, 40 + i // 10) for i in range(30)]
        outside = [(i, 0) for i in range(20)]
        scene = make_scene([(40, 40, 60, 60)], inside + outside)
        expected = 0.6 + 0.2 * math.exp(0.5 * 0.2)
        score = box_score(scene, 0, GtConfig())
        assert score == pytest.approx(expected)
        assert score == pytest.approx(0.8210, abs=1e-4)

    def test_relative_order_of_two_boxes(self):
        inside1 = [(40 + i % 10, 40 + i // 10) for i in range(30)]
        inside2 = [(i % 15, 80 + i // 15) for i in range(15)]
        outside = [(90 + i % 5, i // 5) for i in range(5)]
        scene = make_scene(
            [(40, 40, 60, 60), (0, 50, 25, 100)],
            inside1 + inside2 + outside,
        )
        cfg = GtConfig()
        s1 = box_score(scene, 0, cfg)
        s2 = box_score(scene, 1, cfg)
        assert s1 == pytest.approx(0.6 + 0.2 * math.exp(0.5 * 0.2))
        assert s1 > s2

    def test_monotone_in_fixations_and_size(self):
        fixations = [(45 + i % 5, 45 + i // 5) for i in range(20)]
        scene_small = make_scene([(40, 40, 60, 60)], fixations)
        scene_big = make_scene([(35, 35, 65, 65)], fixations)
        cfg = GtConfig()
        assert box_score(scene_big, 0, cfg) > box_score(scene_small, 0, cfg)


class TestRaSrgtRank:
    def test_two_proposals(self):
        inside1 = [(40 + i % 10, 40 + i // 10) for i in range(30)]
        inside2 = [(i % 15, 80 + i // 15) for i in range(15)]
        scene = make_scene([(40, 40, 60, 60), (0, 50, 25, 100)], inside1 + inside2)
        assert rasrgt_rank(scene).labels == {0: 1, 1: 2}

    def test_all_fixation_free(self):
        scene = make_scene([(0, 0, 10, 10), (20, 20, 30, 30)])
        assert rasrgt_rank(scene).labels == {0: 0, 1: 0}

    def test_single_salient(self):
        scene = make_scene([(0, 0, 10, 10)], [(5, 5)])
        assert rasrgt_rank(scene).labels == {0: 1}

    def test_argsort_invariance(self):
        # doubling gamma rescales nothing ordinal when sizes are equal
        fixations = [(2, 2), (3, 3), (52, 52)]
        scene = make_scene([(0, 0, 10, 10), (50, 50, 60, 60)], fixations)
        a = rasrgt_rank(scene, GtConfig(gamma=0.2))
        b = rasrgt_rank(scene, GtConfig(gamma=0.4))
        assert a.labels == b.labels


class TestDiscrepancyOffsets:
    def _scene(self):
        inside1 = [(40 + i % 10, 40 + i // 10) for i in range(30)]
        inside2 = [(i % 15, 80 + i // 15) for i in range(15)]
        return make_scene([(40, 40, 60, 60), (0, 50, 25, 100)], inside1 + inside2)

    def test_identical_rankings_zero_offset(self):
        scene = self._scene()
        out = discrepancy_offsets([rasrgt_counts(scene)], GtConfig(), [0.2, 0.2000001])
        assert out == [(0.2000001, 0)]

    def test_brute_force_equivalence(self):
        from dataclasses import replace

        scenes = [self._scene()]
        thresholds = [round(0.1 * i, 10) for i in range(1, 11)]
        out = discrepancy_offsets([rasrgt_counts(s) for s in scenes], GtConfig(), thresholds)
        for (t, offset), t_prev in zip(out, thresholds):
            expected = 0
            for scene in scenes:
                prev = rasrgt_rank(scene, replace(GtConfig(), gamma=t_prev))
                cur = rasrgt_rank(scene, replace(GtConfig(), gamma=t))
                expected += sum(
                    abs(cur.labels[pid] - prev.labels[pid]) for pid in cur.labels
                )
            assert offset == expected

    def test_hand_swap_counts_two(self):
        # 5 fixations: A = 0.6 + g*e^0.05 leads at g = 0.5, B = 0.4 + g*e^0.25
        # at g = 1.0, so orders (1, 2) become (2, 1): |1-2| + |2-1| = 2
        fixations = [(2, 2), (3, 3), (4, 4), (50, 50), (60, 60)]
        scene = make_scene([(0, 0, 10, 10), (40, 40, 90, 90)], fixations)
        assert rasrgt_rank(scene, GtConfig(gamma=0.5)).labels == {0: 1, 1: 2}
        assert rasrgt_rank(scene, GtConfig(gamma=1.0)).labels == {0: 2, 1: 1}
        assert discrepancy_offsets([rasrgt_counts(scene)], GtConfig(), [0.5, 1.0]) == [(1.0, 2)]
