import json
from dataclasses import replace

import numpy as np
import pytest

from rankflow.domain import iou
from rankflow.gtgen import GtConfig, rasrgt_rank
from rankflow.ingest import parse_ranking, parse_scene
from rankflow.synth import (
    SynthConfig,
    generate_dataset,
    generate_scene,
    latent_ranking,
    read_latent,
)

FAST = SynthConfig(
    seed=11,
    n_scenes=4,
    objects_min=5,
    objects_max=8,
    width=200,
    height=160,
    fixations_per_scene=120,
    render_maps=False,
)


class TestGenerateScene:
    def test_deterministic(self):
        a, wa = generate_scene(FAST, 0)
        b, wb = generate_scene(FAST, 0)
        assert a == b
        assert wa == wb

    def test_seed_changes_scene(self):
        a, _ = generate_scene(FAST, 0)
        b, _ = generate_scene(replace(FAST, seed=12), 0)
        assert a != b

    def test_object_count_range(self):
        for idx in range(6):
            scene, _ = generate_scene(FAST, idx)
            assert FAST.objects_min <= len(scene.proposals) <= FAST.objects_max

    def test_iou_cap_respected(self):
        scene, _ = generate_scene(FAST, 1)
        boxes = [p.box for p in scene.proposals]
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                assert iou(boxes[i], boxes[j]) <= FAST.iou_cap + 1e-12

    def test_fixation_budget(self):
        scene, _ = generate_scene(FAST, 2)
        assert len(scene.fixations) == FAST.fixations_per_scene

    def test_weights_align_and_gap(self):
        scene, weights = generate_scene(FAST, 3)
        assert len(weights) == len(scene.proposals)
        salient = sorted((w for w in weights if w > 0), reverse=True)
        assert salient and abs(sum(salient) - 1.0) < 1e-9
        for hi, lo in zip(salient, salient[1:]):
            assert hi - lo > 0.01

    def test_map_rendering(self):
        cfg = replace(FAST, render_maps=True)
        scene, _ = generate_scene(cfg, 0)
        assert scene.fixation_map is not None
        grid = np.frombuffer(scene.fixation_map.values, dtype=np.uint8)
        assert grid.max() == 255

    def test_noise_free_fixations_inside_salient_boxes(self):
        cfg = replace(FAST, noise_fixation_fraction=0.0)
        scene, weights = generate_scene(cfg, 0)
        salient_boxes = [p.box for p, w in zip(scene.proposals, weights) if w > 0]
        for u, v, _ in scene.fixations.tolist():
            assert any(
                b.x1 <= u < b.x2 and b.y1 <= v < b.y2 for b in salient_boxes
            )


class TestLatentRanking:
    def test_orders_by_weight(self):
        scene, weights = generate_scene(FAST, 0)
        labels = latent_ranking(scene, weights)
        by_id = {p.id: w for p, w in zip(scene.proposals, weights)}
        salient = [pid for pid, o in sorted(labels.items(), key=lambda kv: kv[1]) if o > 0]
        ordered = sorted(salient, key=lambda kv: labels[kv])
        for a, b in zip(ordered, ordered[1:]):
            assert by_id[a] >= by_id[b]
        assert all(labels[pid] == 0 for pid, w in by_id.items() if w == 0)


class TestGenerateDataset:
    def test_layout_and_round_trip(self, tmp_path):
        cfg = replace(FAST, render_maps=True, n_scenes=2)
        manifest = generate_dataset(cfg, tmp_path)
        assert (tmp_path / "manifest.json").is_file()
        assert json.loads((tmp_path / "manifest.json").read_text())["seed"] == cfg.seed
        assert len(manifest["scenes"]) == 2

        scene = parse_scene(tmp_path / "scenes" / "scene_00000.json")
        assert scene.fixation_map is not None  # map path resolved

        gt = parse_ranking(tmp_path / "gt.csv")
        assert set(gt) == {"scene_00000", "scene_00001"}
        # stored GT must be reproducible from the stored scene
        assert gt[scene.scene_id].labels == rasrgt_rank(
            scene, GtConfig(gamma=cfg.gamma, beta=cfg.beta)
        ).labels

        latent = read_latent(tmp_path / "latent.csv")
        assert set(latent) == set(gt)
        assert set(latent[scene.scene_id]) == {p.id for p in scene.proposals}

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate_dataset(FAST, a)
        generate_dataset(FAST, b)
        for path in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
            assert (a / path).read_bytes() == (b / path).read_bytes()


class TestConfigValidation:
    def test_bad_range(self):
        with pytest.raises(ValueError):
            SynthConfig(objects_min=5, objects_max=3)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            SynthConfig(salient_fraction=1.5)
