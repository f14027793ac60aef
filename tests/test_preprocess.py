import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import BYTE_EDITS, edit_bytes, make_scene
from rankflow.errors import RankflowError
from rankflow.preprocess import (
    FEATURE_DIM,
    FilterConfig,
    extract_features,
    filter_proposals,
    read_features,
    scene_features,
    write_features,
)


class TestFilterProposals:
    def test_nms_keeps_higher_confidence(self):
        scene = make_scene(
            [(0, 0, 10, 10), (1, 0, 11, 10), (50, 50, 70, 70)],
            confidences=[0.9, 0.5, 0.8],
        )
        out = filter_proposals(scene, FilterConfig(iou_discard=0.5, min_count=1))
        assert [p.id for p in out.proposals] == [0, 2]

    def test_survivors_keep_input_order(self):
        scene = make_scene(
            [(0, 0, 10, 10), (50, 50, 70, 70)],
            confidences=[0.2, 0.9],
        )
        out = filter_proposals(scene, FilterConfig(min_count=1))
        assert [p.id for p in out.proposals] == [0, 1]

    def test_area_bounds(self):
        scene = make_scene(
            [(0, 0, 4, 4), (0, 0, 90, 90), (20, 20, 40, 40)],
        )
        out = filter_proposals(
            scene, FilterConfig(min_area_px=20, max_area_frac=0.6, min_count=1)
        )
        assert [p.id for p in out.proposals] == [2]

    def test_dummy_padding(self):
        scene = make_scene([(0, 0, 10, 10)])
        out = filter_proposals(scene, FilterConfig(min_count=5))
        assert len(out.proposals) == 5
        dummies = [p for p in out.proposals if p.is_dummy]
        assert len(dummies) == 4
        assert all(p.box is None for p in dummies)
        assert len({p.id for p in out.proposals}) == 5

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            FilterConfig(iou_discard=0.0)

    @given(st.lists(st.tuples(st.integers(0, 80), st.integers(0, 80)), max_size=6))
    def test_idempotent(self, corners):
        boxes = [(x, y, x + 15, y + 15) for x, y in corners]
        scene = make_scene(boxes or [(0, 0, 15, 15)])
        cfg = FilterConfig()
        once = filter_proposals(scene, cfg)
        twice = filter_proposals(once, cfg)
        assert [p.id for p in once.proposals] == [p.id for p in twice.proposals]


class TestExtractFeatures:
    def test_dummy_is_zero(self):
        scene = filter_proposals(make_scene([(0, 0, 30, 30)]), FilterConfig(min_count=2))
        dummy = next(p for p in scene.proposals if p.is_dummy)
        assert np.array_equal(extract_features(scene, dummy), np.zeros(FEATURE_DIM))

    def test_fixation_share(self):
        scene = make_scene([(0, 0, 50, 50)], [(10, 10), (20, 20), (80, 80), (90, 90)])
        feats = extract_features(scene, scene.proposals[0])
        assert feats[0] == pytest.approx(0.5)

    def test_geometry_entries(self):
        scene = make_scene([(20, 10, 60, 50)])
        feats = extract_features(scene, scene.proposals[0])
        assert feats[7] == pytest.approx(40 / 100)  # sqrt-size ratio
        assert feats[8] == pytest.approx(0.4)  # center x
        assert feats[9] == pytest.approx(0.3)  # center y
        assert tuple(feats[10:14]) == (0.2, 0.1, 0.6, 0.5)

    def test_map_stats_normalized(self):
        grid = np.zeros((100, 100), dtype=np.uint8)
        grid[0:10, 0:10] = 255
        scene = make_scene([(0, 0, 10, 10)], map_values=grid)
        feats = extract_features(scene, scene.proposals[0])
        assert feats[2] == pytest.approx(1.0)  # local mean
        assert feats[3] == pytest.approx(1.0)  # local max

    def test_all_bounded(self):
        scene = make_scene(
            [(5, 5, 95, 95)],
            [(50, 50)] * 10,
            map_values=np.full((100, 100), 255),
        )
        feats = extract_features(scene, scene.proposals[0])
        assert feats.shape == (FEATURE_DIM,)
        assert np.all(feats >= 0) and np.all(feats <= 1)

    def test_scene_features_shape(self):
        scene = filter_proposals(make_scene([(0, 0, 30, 30)]), FilterConfig(min_count=5))
        assert scene_features(scene).shape == (5, FEATURE_DIM)


class TestFeatureFiles:
    def test_round_trip(self, tmp_path):
        feats = np.arange(3 * FEATURE_DIM, dtype=float).reshape(3, FEATURE_DIM) / 7
        path = tmp_path / "a.feat"
        write_features(feats, path)
        assert np.array_equal(read_features(path), feats)

    def test_missing(self, tmp_path):
        with pytest.raises(RankflowError, match="nope.feat: no such file"):
            read_features(tmp_path / "nope.feat")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite(self, tmp_path, value):
        feats = np.ones((3, FEATURE_DIM))
        feats[1, 4] = value
        path = tmp_path / "a.feat"
        write_features(feats, path)
        with pytest.raises(RankflowError, match=r"a\.feat: row 1: features must be finite"):
            read_features(path)

    def test_truncated(self, tmp_path):
        feats = np.ones((2, FEATURE_DIM))
        path = tmp_path / "a.feat"
        write_features(feats, path)
        size = len(path.read_bytes())
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(RankflowError, match=rf"a\.feat: expected {size} bytes, got {size - 8}$"):
            read_features(path)

    @settings(max_examples=200)
    @given(st.integers(0, 3), BYTE_EDITS)
    def test_mutated_file_names_the_file(self, tmp_path_factory, rows, edits):
        # A valid .feat file cut short, overwritten or grown at any byte:
        # either it reads as finite rows or the error names the file.
        path = tmp_path_factory.getbasetemp() / "mutated.feat"
        write_features(np.arange(rows * FEATURE_DIM, dtype=float).reshape(rows, FEATURE_DIM), path)
        path.write_bytes(edit_bytes(path.read_bytes(), edits))
        try:
            feats = read_features(path)
        except RankflowError as e:
            assert str(e).startswith(f"{path}: ")
        else:
            assert feats.shape[1] == FEATURE_DIM and np.isfinite(feats).all()
