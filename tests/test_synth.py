import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.ndimage import gaussian_filter

import rankflow
from conftest import scene_to_dict
from rankflow.domain import BBox, iou
from rankflow.errors import GenerationFailure, RankflowError
from rankflow.gtgen import GtConfig, rasrgt_rank
from rankflow.ingest import parse_ranking, parse_scene
from rankflow.synth import (
    SynthConfig,
    _coverage,
    _place_fixations,
    _render_map,
    _sample_boxes,
    generate_dataset,
    generate_scene,
    latent_ranking,
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
        grid = np.frombuffer(scene.fixation_map.tobytes(), dtype=np.uint8)
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

        with open(tmp_path / "latent.csv", newline="") as f:
            latent = list(csv.DictReader(f))
        assert {row["scene_id"] for row in latent} == set(gt)
        assert {int(row["proposal_id"]) for row in latent if row["scene_id"] == scene.scene_id} == {
            p.id for p in scene.proposals
        }

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate_dataset(FAST, a)
        generate_dataset(FAST, b)
        for path in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
            assert (a / path).read_bytes() == (b / path).read_bytes()


class TestConfigValidation:
    def test_bad_range(self):
        with pytest.raises(RankflowError):
            SynthConfig(objects_min=5, objects_max=3)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"objects_min": 20}, "objects_max must be >= objects_min (20), got 10"),
            ({"box_frac_min": 0.5}, "box_frac_max must be >= box_frac_min (0.5), got 0.3"),
            ({"gamma": 1e300, "beta": 700}, "gamma * e^beta must be finite, got gamma 1e+300 and beta 700"),
        ],
    )
    def test_rule_between_fields_names_both(self, fields, message):
        with pytest.raises(RankflowError) as e:
            SynthConfig(**fields)
        assert str(e.value) == message

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"gamma": 0}, "gamma must be a finite number > 0, got 0"),
            ({"gamma": float("nan")}, "gamma must be a finite number > 0, got nan"),
            ({"beta": 701}, "beta must be a finite number in (0, 700], got 701"),
            ({"beta": "x"}, "beta must be a finite number in (0, 700], got 'x'"),
            ({"gamma": 1e300, "beta": 700}, "gamma * e^beta must be finite, got gamma 1e+300 and beta 700"),
        ],
    )
    def test_gamma_and_beta_are_checked_by_gt_config(self, fields, message):
        """The weight draw scores boxes as rasrgt does, so synth's gamma and
        beta are refused by GtConfig, word for word."""
        for cls in (SynthConfig, GtConfig):
            with pytest.raises(RankflowError) as e:
                cls(**fields)
            assert str(e.value) == message

    def test_bonus_is_checked_before_the_order_rules(self):
        with pytest.raises(RankflowError, match=r"^gamma \* e\^beta must be finite"):
            SynthConfig(gamma=1e300, beta=700, objects_min=20)

    def test_largest_finite_bonus_is_accepted(self):
        assert SynthConfig(gamma=1e4, beta=700).gamma == 1e4

    def test_bad_fraction(self):
        with pytest.raises(RankflowError):
            SynthConfig(salient_fraction=1.5)

    @pytest.mark.parametrize("sigma", [1000.5, 1e9, 1e308])
    def test_splat_sigma_is_bounded(self, sigma):
        # Checked by value only: a kernel for 1e9 would have 8e9 taps.
        with pytest.raises(RankflowError, match=r"splat_sigma must be a finite number in \(0, 1000\]"):
            SynthConfig(splat_sigma=sigma)
        assert SynthConfig(splat_sigma=1000, width=1, height=1).splat_sigma == 1000

    @pytest.mark.parametrize(
        "field, bound",
        [("width", 4096), ("height", 4096), ("fixations_per_scene", 1_000_000), ("objects_max", 32)],
    )
    def test_sizes_are_bounded(self, field, bound):
        # Checked by value only: no scene of these sizes is generated.
        assert getattr(SynthConfig(**{field: bound}), field) == bound
        for value in (bound + 1, 10**12):
            with pytest.raises(RankflowError, match=rf"^{field} must be at most {bound}, got {value}$"):
                SynthConfig(**{field: value})

    def test_object_count_bound_admits_oracle_rank(self):
        # The benchmark's oracle-rank workload places up to 20 objects a scene.
        assert SynthConfig(objects_min=20, objects_max=20).objects_max == 20

    def test_failed_placement_names_the_object_count(self):
        # Two boxes that each fill the image can never both be placed.
        cfg = replace(FAST, objects_min=2, objects_max=2, box_frac_min=1.0, box_frac_max=1.0, iou_cap=0.0)
        with pytest.raises(GenerationFailure, match=r"^scene 3: placement kept failing for 2\.\.2 objects$"):
            generate_scene(cfg, 3)


# --- fixation placement and map rendering -------------------------------------


def _random_box(rng, size=60.0):
    """A box with fractional or (sometimes) integer edges inside [0, size]."""
    x = np.sort(rng.uniform(0, size, 2))
    y = np.sort(rng.uniform(0, size, 2))
    if rng.random() < 0.3:
        x, y = np.floor(x), np.floor(y)
    return BBox(float(x[0]), float(y[0]), float(x[1]) + 1.0, float(y[1]) + 1.0)


def _free_pixels(box, others) -> set:
    """Every integer (u, v) inside ``box`` and outside each of ``others``,
    under the half-open rule ``x1 <= u < x2``, found by brute force."""
    def inside(b, u, v):
        return b.x1 <= u < b.x2 and b.y1 <= v < b.y2

    return {
        (u, v)
        for u in range(math.floor(box.x1), math.ceil(box.x2) + 1)
        for v in range(math.floor(box.y1), math.ceil(box.y2) + 1)
        if inside(box, u, v) and not any(inside(b, u, v) for b in others)
    }


def _check_rows(rows, cnt, free) -> None:
    assert rows.shape == (cnt, 3) and rows.dtype == np.int64
    assert {(u, v) for u, v, _ in rows.tolist()} <= free
    assert ((rows[:, 2] >= 0) & (rows[:, 2] < 8)).all()


def _place_fixations_reference(rng, box, others, cnt):
    """The placement law as a scalar loop: each pixel is the k-th free pixel
    in row-major order, k drawn from 0..n_free-1, then one observer per row."""
    free = sorted(_free_pixels(box, others), key=lambda p: (p[1], p[0]))
    picks = [free[int(rng.integers(0, len(free)))] for _ in range(cnt)]
    return [[u, v, int(rng.integers(0, 8))] for u, v in picks]


def _cover(boxes):
    """``_coverage`` of ``boxes`` on an image just large enough to hold them."""
    return _coverage(boxes, math.ceil(max(b.y2 for b in boxes)), math.ceil(max(b.x2 for b in boxes)))


def _place(rng, box, others, cnt):
    """``_place_fixations`` for ``box`` alone among ``others``."""
    extents, cover = _cover([box, *others])
    return _place_fixations(rng, cover, extents[:1], [cnt])


def _untemper(y: int) -> int:
    """The MT19937 key word that its output tempering turns into ``y``."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    t = y
    for _ in range(4):
        t = y ^ ((t << 7) & 0x9D2C5680)
    y = t & 0xFFFFFFFF
    t = y
    for _ in range(2):
        t = y ^ (t >> 11)
    return t & 0xFFFFFFFF


def _word_stream(words) -> np.random.Generator:
    """A generator whose next 32-bit draws are ``words`` (at most 624):
    MT19937 emits its key words one by one through the tempering."""
    key = [_untemper(int(w)) for w in words] + [0] * (624 - len(words))
    bits = np.random.MT19937(0)
    bits.state = {"bit_generator": "MT19937", "state": {"key": np.array(key, dtype=np.uint32), "pos": 0}}
    return np.random.Generator(bits)


def _word_with_low_bits(low: int, span: int) -> int:
    """The word w with (w * span) % 2**32 == low, for an odd span."""
    return low * pow(span, -1, 2**32) % 2**32


class TestPlaceFixations:
    def test_matches_scalar_loop_and_stream(self):
        meta = np.random.default_rng(2024)
        failures = 0
        for case in range(400):
            box = _random_box(meta)
            others = [_random_box(meta) for _ in range(int(meta.integers(0, 6)))]
            if case % 10 == 0:  # a box whose pixels are all taken
                others.append(BBox(max(box.x1 - 1.0, 0.0), max(box.y1 - 0.5, 0.0), box.x2 + 0.5, box.y2 + 1.0))
            cnt = int(meta.integers(1, 30))
            free = _free_pixels(box, others)
            a = np.random.default_rng([7, case])
            b = np.random.default_rng([7, case])
            if not free:
                with pytest.raises(GenerationFailure):
                    _place(b, box, others, cnt)
                failures += 1
            else:
                rows = _place(b, box, others, cnt)
                _check_rows(rows, cnt, free)
                assert rows.tolist() == _place_fixations_reference(a, box, others, cnt)
                assert a.bit_generator.state == b.bit_generator.state
        assert 40 <= failures < 400

    def test_noise_rows_match_scalar_draws(self):
        for n, (w, h) in ((0, (640, 480)), (1, (7, 5)), (250, (640, 480)), (33, (1, 1))):
            a = np.random.default_rng([3, n])
            b = np.random.default_rng([3, n])
            a.integers(0, 5)  # leave half of a 64-bit draw buffered
            b.integers(0, 5)
            rows = [[int(a.integers(0, w)), int(a.integers(0, h)), int(a.integers(0, 8))] for _ in range(n)]
            batched = b.integers((0, 0, 0), (w, h, 8), size=(n, 3))
            assert batched.tolist() == rows
            assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("wide", [True, False], ids=["wide", "tall"])
    def test_frequently_rejected_words(self, wide):
        # The free pixels form one line of 6,700,417; as 2**32 + 1 = 641 *
        # 6,700,417, numpy's bounded draw over that many rejects about one
        # 32-bit word in 641, where spans of real boxes almost never do.
        length = 6_700_417
        box = BBox(0.0, 0.0, length, 3.0) if wide else BBox(0.0, 0.0, 3.0, length)
        others = [BBox(0.0, 0.0, length, 2.0) if wide else BBox(0.0, 0.0, 2.0, length)]
        for seed in range(4):
            a = np.random.default_rng([13, seed])
            b = np.random.default_rng([13, seed])
            picks = [int(a.integers(0, length)) for _ in range(1500)]
            observers = [int(a.integers(0, 8)) for _ in range(1500)]
            expected = [[k, 2, o] if wide else [2, k, o] for k, o in zip(picks, observers)]
            assert _place(b, box, others, 1500).tolist() == expected
            assert a.bit_generator.state == b.bit_generator.state
        words = np.random.default_rng([13, 0]).integers(0, 2**32, 4000, dtype=np.uint32).astype(np.uint64)
        assert ((words * length) % 2**32 < length - 1).sum() > 2  # words numpy rejects

    @pytest.mark.parametrize("seed", range(6))
    def test_streams_dense_with_rejected_words(self, seed):
        # 641 free pixels, and a third of the words are ones numpy's bounded
        # draw rejects for a span of 641, often several in a row.
        meta = np.random.default_rng([29, seed])
        words = meta.integers(0, 2**32, 624, dtype=np.uint32).tolist()
        for i in np.flatnonzero(meta.random(624) < 1 / 3):
            words[i] = _word_with_low_bits(int(meta.integers(0, 640)), 641)
        if seed % 2:
            box, others = BBox(0.0, 0.0, 641.0, 641.0), [BBox(0.0, 0.0, 641.0, 300.0), BBox(0.0, 299.5, 641.0, 640.0)]
        else:
            box, others = BBox(0.5, 0.0, 641.5, 1.0), []
        assert len(_free_pixels(box, others)) == 641
        cnt = int(meta.integers(1, 120))
        a, b = _word_stream(words), _word_stream(words)
        expected = _place_fixations_reference(a, box, others, cnt)
        assert _place(b, box, others, cnt).tolist() == expected
        assert a.bit_generator.state["state"]["pos"] == b.bit_generator.state["state"]["pos"]
        assert b.bit_generator.state["state"]["pos"] > 2 * cnt  # rejected words were skipped

    def test_uniform_over_free_pixels(self):
        # An L-shaped free region: the box holds pixels 1..4 on each axis,
        # and the other box takes u, v >= 3, leaving 12 free pixels.
        box, others = BBox(0.5, 0.5, 4.5, 4.5), [BBox(2.2, 2.2, 9.0, 9.0)]
        free = sorted(_free_pixels(box, others))
        assert len(free) == 12
        n = 120_000
        rows = _place(np.random.default_rng(41), box, others, n)
        _check_rows(rows, n, set(free))
        pixels = np.unique(rows[:, 0] * 100 + rows[:, 1], return_counts=True)[1]
        observers = np.bincount(rows[:, 2], minlength=8)
        assert len(pixels) == 12
        assert stats.chisquare(pixels).pvalue > 1e-3
        assert stats.chisquare(observers).pvalue > 1e-3

    @pytest.mark.parametrize(
        "box, others",
        [
            (BBox(0.0, 0.0, 50.0, 40.0), []),
            (BBox(0.0, 0.0, 50.0, 40.0), [BBox(10.0, 0.0, 50.0, 40.0)]),
            (BBox(2.2, 1.0, 2.9, 30.0), []),  # no whole pixel
            (BBox(3.0, 3.0, 9.0, 9.0), [BBox(2.5, 2.5, 9.5, 9.5)]),  # every pixel taken
        ],
        ids=["open", "partly-taken", "no-whole-pixel", "all-taken"],
    )
    def test_zero_count_draws_nothing(self, box, others):
        rng = np.random.default_rng(5)
        rng.integers(0, 5)  # leave half of a 64-bit draw buffered
        state = rng.bit_generator.state
        rows = _place(rng, box, others, 0)
        assert rows.shape == (0, 3) and rows.dtype == np.int64
        assert rng.bit_generator.state == state

    def test_box_without_a_whole_pixel(self):
        for box, others in (
            (BBox(2.2, 1.0, 2.9, 30.0), []),  # no integer u in [2.2, 2.9)
            (BBox(1.0, 4.1, 30.0, 4.8), []),  # no integer v in [4.1, 4.8)
            (BBox(3.0, 3.0, 9.0, 9.0), [BBox(2.5, 2.5, 9.5, 9.5)]),  # every pixel taken
            (BBox(3.0, 3.0, 9.0, 9.0), [BBox(0.0, 0.0, 9.0, 6.0), BBox(0.0, 5.5, 9.0, 9.5)]),
        ):
            with pytest.raises(GenerationFailure):
                _place(np.random.default_rng(5), box, others, 4)

    @pytest.mark.parametrize(
        "box",
        [
            BBox(3.5, 2.0, 4.5, 40.0),  # one pixel wide
            BBox(2.0, 7.2, 50.0, 8.2),  # one pixel tall
            BBox(4.0, 4.0, 5.0, 5.0),  # a single pixel
        ],
        ids=["one-wide", "one-tall", "one-pixel"],
    )
    @pytest.mark.parametrize("forbid", [False, True], ids=["open", "half-taken"])
    def test_boxes_one_pixel_wide_or_tall(self, box, forbid):
        others = [BBox(0.0, 0.0, 30.0, 20.0)] if forbid else []  # the single pixel too
        free = _free_pixels(box, others)
        for cnt in (1, 7, 2000):
            rng = np.random.default_rng([11, cnt])
            if not free:
                assert forbid and box.x2 - box.x1 == 1.0 == box.y2 - box.y1
                with pytest.raises(GenerationFailure):
                    _place(rng, box, others, cnt)
                continue
            rows = _place(rng, box, others, cnt)
            _check_rows(rows, cnt, free)
            if cnt == 2000:  # at most 48 free pixels, so every one is hit
                assert {(u, v) for u, v, _ in rows.tolist()} == free


    def test_scene_of_boxes_matches_scalar_loop_per_box(self):
        # Boxes take their draws in turn, pixels then observers, from one
        # call; a box with count 0 takes none.
        meta = np.random.default_rng(2025)
        failures = 0
        for case in range(200):
            boxes = [_random_box(meta) for _ in range(int(meta.integers(1, 7)))]
            counts = [int(c) for c in meta.integers(0, 4, len(boxes)) * meta.integers(0, 20, len(boxes))]
            frees = [_free_pixels(b, boxes[:i] + boxes[i + 1 :]) for i, b in enumerate(boxes)]
            extents, cover = _cover(boxes)
            a = np.random.default_rng([19, case])
            b = np.random.default_rng([19, case])
            if any(c and not f for c, f in zip(counts, frees)):
                state = b.bit_generator.state
                with pytest.raises(GenerationFailure):
                    _place_fixations(b, cover, extents, counts)
                assert b.bit_generator.state == state  # failed before drawing
                failures += 1
                continue
            expected = [
                row for i, c in enumerate(counts)
                for row in _place_fixations_reference(a, boxes[i], boxes[:i] + boxes[i + 1 :], c)
            ]
            rows = _place_fixations(b, cover, extents, counts)
            assert rows.dtype == np.int64 and rows.tolist() == expected
            assert a.bit_generator.state == b.bit_generator.state
        assert 10 <= failures < 100, failures


def _sample_boxes_reference(cfg, n, rng):
    """The box law with one ``rng.uniform`` call per double; None where
    ``_sample_boxes`` gives up."""
    boxes = []
    for _ in range(n):
        for _attempt in range(400):
            bw = rng.uniform(cfg.box_frac_min, cfg.box_frac_max) * cfg.width
            bh = rng.uniform(cfg.box_frac_min, cfg.box_frac_max) * cfg.height
            x1 = rng.uniform(0, cfg.width - bw)
            y1 = rng.uniform(0, cfg.height - bh)
            cand = BBox(x1, y1, x1 + bw, y1 + bh)
            if all(iou(cand, b) <= cfg.iou_cap for b in boxes):
                boxes.append(cand)
                break
        else:
            return None
    return boxes


class TestUniformDraws:
    """The generator scales ``rng.random`` doubles and takes sized
    ``uniform`` draws where scalar ``uniform`` calls would give the same
    numbers; a numpy whose ``uniform`` computes otherwise fails here."""

    def test_box_draws_match_scalar_uniform(self):
        meta = np.random.default_rng(2026)
        failed = 0
        for seed in range(200):
            lo = float(meta.uniform(0.01, 0.6))
            cfg = replace(
                FAST, width=int(meta.integers(1, 700)), height=int(meta.integers(1, 700)), box_frac_min=lo,
                box_frac_max=float(meta.uniform(lo, 1.0)), iou_cap=float(meta.uniform(0.0, 0.4)),
            )
            n = int(meta.integers(1, 12))
            a = np.random.default_rng([17, seed])
            b = np.random.default_rng([17, seed])
            expected = _sample_boxes_reference(cfg, n, a)
            if expected is None:
                with pytest.raises(GenerationFailure):
                    _sample_boxes(cfg, n, b)
                failed += 1
            else:
                boxes = _sample_boxes(cfg, n, b)
                assert boxes == expected
                assert all(type(c) is float for box in boxes for c in (box.x1, box.y1, box.x2, box.y2))
            assert a.bit_generator.state == b.bit_generator.state
        assert 0 < failed < 100

    @pytest.mark.parametrize("low, high", [(0.5, 1.0), (0.0, 1.0), (0.1, 0.30000000000000004), (3.0, 640.0)])
    def test_sized_uniform_matches_scalar_calls(self, low, high):
        for seed in range(200):
            a = np.random.default_rng([23, seed])
            b = np.random.default_rng([23, seed])
            n = seed % 40
            assert b.uniform(low, high, n).tolist() == [a.uniform(low, high) for _ in range(n)]
            assert a.bit_generator.state == b.bit_generator.state


def _render_map_reference(cfg, fixations) -> np.ndarray:
    grid = np.zeros((cfg.height, cfg.width))
    np.add.at(grid, (fixations[:, 1], fixations[:, 0]), 1.0)
    grid = gaussian_filter(grid, sigma=cfg.splat_sigma)
    peak = grid.max()
    if peak > 0:
        grid = grid / peak * 255.0
    return np.round(grid).astype(np.uint8)


def _gray_levels_off(cfg, fixations) -> np.ndarray:
    """``_render_map``'s map minus ``gaussian_filter``'s, pixel by pixel."""
    return _render_map(cfg, fixations).astype(int) - _render_map_reference(cfg, fixations)


class TestRenderMap:
    @pytest.mark.parametrize("sigma", [8.0, 2.5, 0.7])
    def test_equals_two_dimensional_filter(self, sigma):
        cfg = replace(FAST, splat_sigma=sigma)
        rng = np.random.default_rng(int(sigma * 10))
        w, h = cfg.width, cfg.height
        border = [(0, 0, 0), (w - 1, 0, 1), (0, h - 1, 2), (w - 1, h - 1, 3), (w - 1, 17, 4), (40, h - 1, 5)]
        cases = [
            np.zeros((0, 3), dtype=np.int64),
            np.array(border, dtype=np.int64),
            np.array([(5, 9, 0)] * 4, dtype=np.int64),
            np.column_stack([rng.integers(0, w, 500), rng.integers(0, h, 500), rng.integers(0, 8, 500)]),
        ]
        for fixations in cases:
            assert np.abs(_gray_levels_off(cfg, fixations)).max() <= 1

    @pytest.mark.parametrize("width, height", [(1, 1), (5, 7), (1, 300), (20, 64), (53, 37), (640, 480)])
    @pytest.mark.parametrize("sigma", [0.7, 2.5, 8.0, 20.0])
    def test_folding_sizes(self, width, height, sigma):
        # Radii up to 80 px fold the reflect boundary many times over on the small images.
        cfg = replace(FAST, width=width, height=height, splat_sigma=sigma)
        rng = np.random.default_rng([width, height, int(sigma * 10)])
        for n in (0, 1, 100, 1000):
            fixations = np.column_stack([rng.integers(0, width, n), rng.integers(0, height, n), np.zeros(n, int)])
            assert np.abs(_gray_levels_off(cfg, fixations)).max() <= 1

    def test_rounding_tie(self):
        # scipy scales pixel (x, y) = (2, 1) to exactly 127.5, which rounds to
        # 128; the block products land a few ulps lower and give 127.
        cfg = replace(FAST, width=14, height=2, splat_sigma=1.0)
        fixations = np.array([(3, 1, 0), (7, 0, 0), (9, 0, 0)], dtype=np.int64)
        off = _gray_levels_off(cfg, fixations)
        assert np.argwhere(off).tolist() == [[1, 2]]
        assert off[1, 2] == -1

    def test_work_buffers_are_reused_across_sizes(self):
        # One process renders maps of two sizes and two sigmas in turn, so
        # the work buffers are resized and reused between renders; each map
        # stays byte for byte what it was the first time.
        rng = np.random.default_rng(5)
        cases = []
        for width, height in ((200, 160), (53, 97)):
            for sigma in (2.5, 8.0):
                cfg = replace(FAST, width=width, height=height, splat_sigma=sigma)
                u, v = rng.integers(0, width, 400), rng.integers(0, height, 400)
                cases.append((cfg, np.column_stack([u, v, np.zeros(400, int)])))
        first = [_render_map(cfg, fixations).tobytes() for cfg, fixations in cases]
        for _ in range(2):
            for (cfg, fixations), want in zip(cases + cases[::-1], first + first[::-1]):
                assert _render_map(cfg, fixations).tobytes() == want
                assert np.abs(_gray_levels_off(cfg, fixations)).max() <= 1

    @pytest.mark.parametrize("width, height", [(4000, 3), (3, 4000)])
    def test_memory_grows_with_the_radius_not_the_side(self, width, height):
        # A dense (n, n) filter matrix for n = 4000 alone would take 128 MB.
        cfg = replace(FAST, width=width, height=height)
        rng = np.random.default_rng(3)
        fixations = np.column_stack([rng.integers(0, width, 500), rng.integers(0, height, 500), np.zeros(500, int)])
        tracemalloc.start()
        try:
            _render_map(cfg, fixations)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_synth_runs_without_scipy(self, tmp_path):
        code = (
            "import sys\n"
            "from rankflow.cli import dispatch\n"
            f"assert dispatch(['synth', '--scenes', '2', '--jobs', '1', '--out', {str(tmp_path / 'd')!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(rankflow.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
        assert len(list((tmp_path / "d" / "maps").iterdir())) == 2


_SMALL = SynthConfig(
    seed=23, n_scenes=3, objects_min=5, objects_max=9, width=160, height=120, fixations_per_scene=300
)
# SHA-256 of three scenes per config, with their latent weights and maps; the
# generator must reproduce them byte for byte.
_SCENE_DIGESTS = {
    "base": (_SMALL, "89e7c976c149875396f76153ca7c3335a0821c064f474e0592ecd9c252458f26"),
    "twenty_objects": (
        replace(_SMALL, objects_min=20, objects_max=20, width=320, height=240, fixations_per_scene=200),
        "c3e8450cf19341be44a4ceec925b2a892a60ceced905be7ad146f01a35af7938",
    ),
    "no_fixations": (
        replace(_SMALL, fixations_per_scene=0),
        "67d0ac9c8a8395d56d993b8f62ab199272ac46eb819ae6d1f301d1c5fc20ae14",
    ),
    "no_salient_objects": (
        replace(_SMALL, salient_fraction=0.0),
        "ce94a256834578b027d246c60ae127332f5f78e790ce9bf3e11e530ccce7c92c",
    ),
    "noise_only": (
        replace(_SMALL, noise_fixation_fraction=1.0),
        "2a2ebc17edcd85d64b15a66e36ae4c987b94fe1e14b6b3d607b5ab0f2c4a7083",
    ),
    "iou_cap_0.9": (
        replace(_SMALL, iou_cap=0.9),
        "25b637019ec14ddeff686667d14e7bf5202d36212402041b0057afdf7da3d46f",
    ),
    "sigma_2.5": (
        replace(_SMALL, splat_sigma=2.5),
        "cdff813b29ab7c3bc8019ff60bb48b73a68418b38c0ddf637845bf82c7f8abff",
    ),
    # Twenty overlapping boxes in a small image: most boxes are largely
    # taken by others.
    "dense_boxes": (
        replace(_SMALL, objects_min=20, objects_max=20, iou_cap=0.6, fixations_per_scene=500),
        "bec8c058566925b2124cc8c7f5c1ac715015d1f473691b28d090d8703af110aa",
    ),
    # Dense recipes: the benchmark's cli-flow scenes and criterion 7's.
    "cli_flow": (
        SynthConfig(seed=5, objects_min=5, objects_max=9, fixations_per_scene=1000),
        "13c6f903685367577cc29b32dd5d051552e37600580b45474b24c2584b6398fd",
    ),
    "criterion_7": (
        SynthConfig(
            seed=7, objects_min=5, objects_max=9, width=320, height=240,
            fixations_per_scene=1000, render_maps=False,
        ),
        "cd7811deaddae79101c7e0ab15985f372caf1c1aa756a821635ad5a34a434512",
    ),
}


def _tree_digest(root) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class TestPinnedOutput:
    @pytest.mark.parametrize("name", sorted(_SCENE_DIGESTS))
    def test_scene_digest(self, name):
        cfg, expected = _SCENE_DIGESTS[name]
        h = hashlib.sha256()
        for idx in range(3):
            scene, weights = generate_scene(cfg, idx)
            h.update(json.dumps(scene_to_dict(scene), sort_keys=True).encode())
            h.update(repr(weights).encode())
            if scene.fixation_map is not None:
                h.update(scene.fixation_map.tobytes())
        assert h.hexdigest() == expected

    def test_train_heldout_recipe_digest(self):
        # The benchmark's train-heldout scenes at seed 1 (320x240, 300
        # fixations, no maps), 40 of them, so box redraws, a scene retry and
        # placement across up to nine boxes are all pinned.
        cfg = SynthConfig(
            seed=1, objects_min=5, objects_max=9, width=320, height=240, fixations_per_scene=300, render_maps=False
        )
        h = hashlib.sha256()
        for idx in range(40):
            scene, weights = generate_scene(cfg, idx)
            h.update(json.dumps(scene_to_dict(scene), sort_keys=True).encode())
            h.update(repr(weights).encode())
        assert h.hexdigest() == "24331213a31c1289bcec594f324395f0bde2c3719a44c5204771f5c24ef03c34"

    def test_dataset_tree_digest(self, tmp_path):
        generate_dataset(replace(_SMALL, seed=61), tmp_path)
        assert _tree_digest(tmp_path) == "a892d045ff4ca2c86f783fe6f9522592ec68cd00c53af9ee92414ea5afa7b47d"
