import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from conftest import make_scene
from rankflow.domain import Ranking
from rankflow.errors import RankflowError, SrccUndefined
from rankflow.metrics import (
    evaluate_rankings,
    f1_salient,
    map_threshold,
    midranks,
    rank_from_saliency_map,
    srcc,
)


class TestMidranks:
    def test_no_ties(self):
        assert midranks([30, 10, 20]).tolist() == [3.0, 1.0, 2.0]

    def test_ties_share_mean(self):
        assert midranks([5, 5, 1]).tolist() == [2.5, 2.5, 1.0]

    def test_all_equal(self):
        assert midranks([7, 7, 7, 7]).tolist() == [2.5] * 4

    @given(st.lists(st.integers(0, 6), max_size=24))
    @settings(max_examples=300)
    def test_equals_scipy_exactly(self, values):
        # mid-ranks are half-integers, so they are exact in float64
        assert midranks(values).tolist() == stats.rankdata(values, method="average").tolist()


class TestSrcc:
    def test_hand_example(self):
        gt = Ranking({0: 1, 1: 2, 2: 3, 3: 4})
        pred = Ranking({0: 1, 1: 3, 2: 2, 3: 4})
        assert srcc(pred, gt) == pytest.approx(0.8)

    def test_perfect(self):
        r = Ranking({0: 2, 1: 1, 2: 3})
        assert srcc(r, r) == pytest.approx(1.0)

    def test_reversed(self):
        gt = Ranking({0: 1, 1: 2, 2: 3})
        pred = Ranking({0: 3, 1: 2, 2: 1})
        assert srcc(pred, gt) == pytest.approx(-1.0)

    def test_id_mismatch(self):
        with pytest.raises(RankflowError, match="pred and gt cover different proposal ids"):
            srcc(Ranking({0: 1}), Ranking({1: 1}))

    def test_constant_undefined(self):
        gt = Ranking({0: 0, 1: 0})
        with pytest.raises(SrccUndefined):
            srcc(Ranking({0: 1, 1: 2}), gt)

    @given(
        st.integers(3, 10),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=200)
    def test_matches_scipy_with_ties(self, n, rnd):
        # orders with zeros (ties) exercise the mid-rank correction
        ids = list(range(n))
        k = rnd.randint(2, n)
        gt_orders = rnd.sample(ids, k)
        pred_orders = rnd.sample(ids, rnd.randint(2, n))
        gt = Ranking({i: 0 for i in ids} | {p: o + 1 for o, p in enumerate(gt_orders)})
        pred = Ranking({i: 0 for i in ids} | {p: o + 1 for o, p in enumerate(pred_orders)})
        a = [pred.labels[i] for i in ids]
        b = [gt.labels[i] for i in ids]
        if len(set(a)) < 2 or len(set(b)) < 2:
            return
        expected = stats.spearmanr(a, b).statistic
        assert srcc(pred, gt) == pytest.approx(expected, abs=1e-12)


class TestF1:
    def test_both_empty(self):
        r = Ranking({0: 0, 1: 0})
        assert f1_salient(r, r) == 1.0

    def test_one_empty(self):
        assert f1_salient(Ranking({0: 0}), Ranking({0: 1})) == 0.0

    def test_partial(self):
        pred = Ranking({0: 1, 1: 2, 2: 0})
        gt = Ranking({0: 1, 1: 0, 2: 2})
        # tp=1, precision=0.5, recall=0.5
        assert f1_salient(pred, gt) == pytest.approx(0.5)

    def test_perfect(self):
        r = Ranking({0: 2, 1: 1, 2: 0})
        assert f1_salient(r, r) == 1.0


class TestMapThreshold:
    def test_uniform_example(self):
        # one 10x10 box over a uniform map of 100s:
        # T = (10000 / 10) / (1 * 1) = 1000
        scene = make_scene([(0, 0, 10, 10)], map_values=np.full((100, 100), 100))
        assert map_threshold(scene, scene.fixation_map, 1.0) == pytest.approx(1000.0)

    def test_lambda_scales_inverse(self):
        scene = make_scene([(0, 0, 10, 10)], map_values=np.full((100, 100), 100))
        assert map_threshold(scene, scene.fixation_map, 0.5) == pytest.approx(2000.0)

    def test_rejects_bad_lambda(self):
        scene = make_scene([(0, 0, 10, 10)], map_values=np.zeros((100, 100)))
        with pytest.raises(ValueError):
            map_threshold(scene, scene.fixation_map, 0.0)


class TestRankFromSaliencyMap:
    def test_brighter_region_wins(self):
        # sparse peaks keep the sum-based threshold below the peak intensity:
        # T = (1020/10 + 255/10) / 2 = 63.75, so only the 255 pixels are white
        grid = np.zeros((100, 100), dtype=np.uint8)
        grid[12:14, 12:14] = 255  # 4 bright pixels in box 0
        grid[65, 65] = 255  # 1 bright pixel in box 1
        scene = make_scene([(10, 10, 20, 20), (60, 60, 70, 70)], map_values=grid)
        ranking = rank_from_saliency_map(scene, scene.fixation_map, 1.0)
        assert ranking.labels == {0: 1, 1: 2}

    def test_size_mismatch(self):
        scene = make_scene([(0, 0, 10, 10)], map_values=np.zeros((100, 100)))
        small = np.zeros((10, 10), np.uint8)
        with pytest.raises(RankflowError, match="map 10x10 vs scene 100x100"):
            rank_from_saliency_map(scene, small, 0.5)


class TestEvaluateRankings:
    def test_mean_and_skip(self):
        gt = {
            "a": Ranking({0: 1, 1: 2}),
            "b": Ranking({0: 0, 1: 0}),  # constant -> srcc undefined
        }
        pred = {
            "a": Ranking({0: 2, 1: 1}),
            "b": Ranking({0: 0, 1: 0}),
        }
        report = evaluate_rankings(pred, gt)
        assert report.mean_srcc == pytest.approx(-1.0)
        assert report.mean_f1 == pytest.approx(1.0)
        assert report.skipped == 1
        doc = report.to_dict()
        assert {s["id"] for s in doc["scenes"]} == {"a", "b"}

    def test_scene_set_mismatch(self):
        with pytest.raises(RankflowError, match=r"scene id sets differ: \['a', 'b'\]"):
            evaluate_rankings({"a": Ranking({0: 1})}, {"b": Ranking({0: 1})})

    def test_proposal_mismatch_names_the_scene(self):
        pred = {"a": Ranking({0: 1}), "b": Ranking({0: 1, 2: 0})}
        gt = {"a": Ranking({0: 1}), "b": Ranking({0: 1, 1: 0})}
        with pytest.raises(RankflowError, match=r"^scene 'b': pred and gt cover different proposal ids$"):
            evaluate_rankings(pred, gt)
