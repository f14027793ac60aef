import importlib
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import BYTE_EDITS, edit_bytes, listing_dummies, make_scene
from rankflow.domain import BBox, Proposal, Scene
from rankflow.errors import RankflowError
from rankflow.preprocess import (
    FEATURE_DIM,
    FilterConfig,
    filter_proposals,
    read_features,
    scene_features,
    write_features,
)

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


class TestFilterProposals:
    def test_nms_keeps_higher_confidence(self):
        scene = make_scene(
            [(0, 0, 10, 10), (1, 0, 11, 10), (50, 50, 70, 70)],
            confidences=[0.9, 0.5, 0.8],
        )
        out = filter_proposals(scene, FilterConfig(iou_discard=0.5))
        assert [p.id for p in out.proposals] == [0, 2]

    def test_survivors_keep_input_order(self):
        scene = make_scene(
            [(0, 0, 10, 10), (50, 50, 70, 70)],
            confidences=[0.2, 0.9],
        )
        out = filter_proposals(scene)
        assert [p.id for p in out.proposals] == [0, 1]

    def test_area_bounds(self):
        scene = make_scene(
            [(0, 0, 4, 4), (0, 0, 90, 90), (20, 20, 40, 40)],
        )
        out = filter_proposals(scene, FilterConfig(min_area_px=20, max_area_frac=0.6))
        assert [p.id for p in out.proposals] == [2]

    def test_dummy_padding(self):
        """A short scene is padded only when its windows are built; a dummy
        that the input lists (an older preprocess wrote them) is kept after
        the survivors."""
        scene = make_scene([(0, 0, 10, 10)])
        assert filter_proposals(scene) is scene
        listed = replace(scene, proposals=(Proposal(-1, None, is_dummy=True), *scene.proposals))
        out = filter_proposals(listed)
        assert [(p.id, p.is_dummy) for p in out.proposals] == [(0, False), (-1, True)]

    def test_rejects_bad_config(self):
        with pytest.raises(RankflowError):
            FilterConfig(iou_discard=0.0)

    @given(st.lists(st.tuples(st.integers(0, 80), st.integers(0, 80)), max_size=6))
    def test_idempotent(self, corners):
        boxes = [(x, y, x + 15, y + 15) for x, y in corners]
        scene = make_scene(boxes or [(0, 0, 15, 15)])
        cfg = FilterConfig()
        once = filter_proposals(scene, cfg)
        twice = filter_proposals(once, cfg)
        assert [p.id for p in once.proposals] == [p.id for p in twice.proposals]


def _span(limit):
    """Two distinct coordinates in [0, limit], each an image edge half the
    time, so the 1.5x box clips at every edge."""
    c = st.sampled_from([0, limit]) | st.floats(0, limit)
    return st.tuples(c, c).filter(lambda t: t[0] != t[1]).map(sorted)


@st.composite
def feature_scenes(draw):
    """A scene of real boxes (at least a pixel in area) and dummies in any
    order, with or without fixations and a map."""
    w, h = draw(st.integers(2, 40)), draw(st.integers(2, 40))
    spans = st.tuples(_span(w), _span(h)).filter(lambda s: (s[0][1] - s[0][0]) * (s[1][1] - s[1][0]) >= 1)
    boxes = [BBox(x1, y1, x2, y2) for (x1, x2), (y1, y2) in draw(st.lists(spans, min_size=1, max_size=6))]
    proposals = [Proposal(i, b) for i, b in enumerate(boxes)]
    proposals += [Proposal(-1 - i, None, is_dummy=True) for i in range(draw(st.integers(0, 3)))]
    fix = draw(st.lists(st.tuples(st.integers(0, w - 1), st.integers(0, h - 1), st.integers(0, 2)), max_size=40))
    raster = st.binary(min_size=w * h, max_size=w * h).map(lambda b: np.frombuffer(b, np.uint8).reshape(h, w))
    return Scene("s", w, h, tuple(draw(st.permutations(proposals))), fix, draw(st.none() | raster))


class TestExtractFeatures:
    def test_dummy_is_zero(self):
        scene = listing_dummies(make_scene([(0, 0, 30, 30)]), 2)
        assert scene.proposals[1].is_dummy
        assert np.array_equal(scene_features(scene)[1], np.zeros(FEATURE_DIM))

    def test_fixation_share(self):
        scene = make_scene([(0, 0, 50, 50)], [(10, 10), (20, 20), (80, 80), (90, 90)])
        feats = scene_features(scene)[0]
        assert feats[0] == pytest.approx(0.5)

    def test_geometry_entries(self):
        scene = make_scene([(20, 10, 60, 50)])
        feats = scene_features(scene)[0]
        assert feats[7] == pytest.approx(40 / 100)  # sqrt-size ratio
        assert feats[8] == pytest.approx(0.4)  # center x
        assert feats[9] == pytest.approx(0.3)  # center y
        assert tuple(feats[10:14]) == (0.2, 0.1, 0.6, 0.5)

    def test_map_stats_normalized(self):
        grid = np.zeros((100, 100), dtype=np.uint8)
        grid[0:10, 0:10] = 255
        scene = make_scene([(0, 0, 10, 10)], map_values=grid)
        feats = scene_features(scene)[0]
        assert feats[2] == pytest.approx(1.0)  # local mean
        assert feats[3] == pytest.approx(1.0)  # local max

    def test_all_bounded(self):
        scene = make_scene(
            [(5, 5, 95, 95)],
            [(50, 50)] * 10,
            map_values=np.full((100, 100), 255),
        )
        feats = scene_features(scene)[0]
        assert feats.shape == (FEATURE_DIM,)
        assert np.all(feats >= 0) and np.all(feats <= 1)

    def test_scene_features_shape(self):
        scene = listing_dummies(make_scene([(0, 0, 30, 30)]), 5)
        assert scene_features(scene).shape == (5, FEATURE_DIM)

    def test_equal_to_the_benchmark_recomputation(self, monkeypatch):
        # The benchmark's checker computes the real proposals' features from
        # the raw boxes and fixations on its own; every value must match bit
        # for bit, and every dummy row must be zero.
        monkeypatch.syspath_prepend(str(BENCHMARKS))
        checks = importlib.import_module("checks")
        frame = make_scene([(0, 0, 3, 3), (5, 0, 8, 3), (0, 5, 3, 8), (5, 5, 8, 8), (0, 0, 8, 8)], width=8, height=8)

        @given(feature_scenes())
        @example(frame)  # a box on each edge, no fixations, no map
        @example(Scene("s", 8, 8, frame.proposals, [(0, 0, 1), (7, 7, 0)], np.arange(64, dtype=np.uint8).reshape(8, 8)))
        def check(scene):
            feats = scene_features(scene)
            real = [i for i, p in enumerate(scene.proposals) if not p.is_dummy]
            doc = checks.SceneDoc(
                scene_id=scene.scene_id,
                width=scene.width,
                height=scene.height,
                ids=[scene.proposals[i].id for i in real],
                boxes=[(b.x1, b.y1, b.x2, b.y2) for b in (scene.proposals[i].box for i in real)],
                n_proposals=len(scene.proposals),
                fix=scene.fixations[:, :2],
                map_path=None,
            )
            assert np.array_equal(feats[real], checks.features(doc, scene.fixation_map))
            assert not np.delete(feats, real, axis=0).any()

        check()


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
        with pytest.raises(RankflowError, match=r"a\.feat: row 1: features must be finite"):
            write_features(feats, path)
        assert list(tmp_path.iterdir()) == []
        # Such a file, made byte by byte, is refused by the reader too.
        path.write_bytes(struct.pack("<I", 3) + feats.astype("<f8").tobytes())
        with pytest.raises(RankflowError, match=r"a\.feat: row 1: features must be finite"):
            read_features(path)

    @settings(max_examples=200)
    @given(st.lists(st.lists(st.floats(width=64), min_size=FEATURE_DIM, max_size=FEATURE_DIM), max_size=4))
    def test_written_file_reads_back_or_is_refused(self, tmp_path_factory, rows):
        # Any float rows, non-finite included: the reader gives back the
        # writer's bits, or the writer refuses them and writes nothing.
        root = tmp_path_factory.mktemp("feat")
        path = root / "drawn.feat"
        feats = np.array(rows, dtype=float).reshape(-1, FEATURE_DIM)
        try:
            write_features(feats, path)
        except RankflowError as e:
            assert not np.isfinite(feats).all()
            assert str(e).startswith(f"{path}: row ")
            assert list(root.iterdir()) == []
        else:
            assert read_features(path).tobytes() == feats.tobytes()

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
