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
from scipy.ndimage import gaussian_filter, gaussian_filter1d

import rankflow
from rankflow.domain import BBox, iou
from rankflow.errors import GenerationFailure
from rankflow.gtgen import GtConfig, rasrgt_rank
from rankflow.ingest import parse_ranking, parse_scene, scene_to_dict
from rankflow.synth import (
    _MAX_BOX_ATTEMPTS,
    SynthConfig,
    _blur,
    _correlate_scipy,
    _gaussian_weights,
    _offsets,
    _padded,
    _place_fixations,
    _render_map,
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


# --- byte identity of the optimised generator ----------------------------------


def _place_fixation_reference(rng, box, forbidden):
    """The scalar placement loop, kept as the reference: two bounded draws per
    attempt, tested against every forbidden box."""
    for _attempt in range(_MAX_BOX_ATTEMPTS):
        u = int(rng.integers(math.ceil(box.x1), math.ceil(box.x2)))
        v = int(rng.integers(math.ceil(box.y1), math.ceil(box.y2)))
        if all(not (b.x1 <= u < b.x2 and b.y1 <= v < b.y2) for b in forbidden):
            return u, v
    raise GenerationFailure("could not place a fixation outside other boxes")


def _place_fixations_reference(rng, box, others, cnt):
    rows = []
    for _ in range(cnt):
        u, v = _place_fixation_reference(rng, box, others)
        rows.append((u, v, int(rng.integers(0, 8))))
    return rows


def _random_box(rng, size=60.0):
    """A box with fractional or (sometimes) integer edges inside [0, size]."""
    x = np.sort(rng.uniform(0, size, 2))
    y = np.sort(rng.uniform(0, size, 2))
    if rng.random() < 0.3:
        x, y = np.floor(x), np.floor(y)
    return BBox(float(x[0]), float(y[0]), float(x[1]) + 1.0, float(y[1]) + 1.0)


class TestPlaceFixations:
    def test_matches_scalar_loop_and_stream(self):
        meta = np.random.default_rng(2024)
        failures = 0
        for case in range(400):
            box = _random_box(meta)
            others = [_random_box(meta) for _ in range(int(meta.integers(0, 6)))]
            if case % 10 == 0:  # a box whose pixels are all forbidden
                others.append(BBox(max(box.x1 - 1.0, 0.0), max(box.y1 - 0.5, 0.0), box.x2 + 0.5, box.y2 + 1.0))
            cnt = int(meta.integers(0, 30))
            a = np.random.default_rng([7, case])
            b = np.random.default_rng([7, case])
            try:
                expected = _place_fixations_reference(a, box, others, cnt)
            except GenerationFailure:
                with pytest.raises(GenerationFailure):
                    _place_fixations(b, box, others, cnt)
                failures += 1
            else:
                assert _place_fixations(b, box, others, cnt) == expected
            assert a.bit_generator.state == b.bit_generator.state
        assert 0 < failures < 400

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
        for cnt in (0, 1, 7, 300):
            a = np.random.default_rng([11, cnt])
            b = np.random.default_rng([11, cnt])
            a.integers(0, 5)
            b.integers(0, 5)
            try:
                expected = _place_fixations_reference(a, box, others, cnt)
            except GenerationFailure:
                with pytest.raises(GenerationFailure):
                    _place_fixations(b, box, others, cnt)
                assert forbid and box.x2 - box.x1 == 1.0 == box.y2 - box.y1
            else:
                assert _place_fixations(b, box, others, cnt) == expected
            assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("wide", [True, False], ids=["wide", "tall"])
    def test_frequently_rejected_words(self, wide):
        # 2**32 + 1 = 641 * 6,700,417, so numpy rejects a word for a span of
        # 6,700,417 about once in 641 draws; spans of real boxes almost never.
        length = 6_700_417.0
        box = BBox(0.0, 0.0, length, 3.0) if wide else BBox(0.0, 0.0, 3.0, length)
        others = [BBox(0.0, 0.0, length / 3, 2.0) if wide else BBox(0.0, 0.0, 2.0, length / 3)]
        for seed in range(4):
            a = np.random.default_rng([13, seed])
            b = np.random.default_rng([13, seed])
            expected = _place_fixations_reference(a, box, others, 1500)
            assert _place_fixations(b, box, others, 1500) == expected
            assert a.bit_generator.state == b.bit_generator.state
        counter = np.random.default_rng([13, 0]).integers(0, 2**32, 4000, dtype=np.uint32)
        assert (_offsets(counter, int(length)) < 0).sum() > 2

    @pytest.mark.parametrize("seed", range(4))
    def test_mostly_taken_box_outruns_the_words_drawn_ahead(self, seed, monkeypatch):
        # 90 % of the box is taken, so a point takes about ten attempts and
        # the words drawn ahead (four per point) run out several times.
        decoded = []
        monkeypatch.setattr(rankflow.synth, "_offsets", lambda *a: decoded.append(a) or _offsets(*a))
        box = BBox(0.0, 0.5, 100.0, 100.5)
        others = [BBox(0.0, 0.0, 95.0, 95.2), BBox(99.0, 99.0, 120.0, 120.0)]
        a = np.random.default_rng([31, seed])
        b = np.random.default_rng([31, seed])
        a.integers(0, 5)
        b.integers(0, 5)
        expected = _place_fixations_reference(a, box, others, 300)
        assert _place_fixations(b, box, others, 300) == expected
        assert a.bit_generator.state == b.bit_generator.state
        assert len(decoded) >= 3

    @pytest.mark.parametrize("seed", range(6))
    def test_streams_dense_with_rejected_words(self, seed):
        # A third of the words are ones numpy rejects for a span of 641, so
        # rejections fall on u, v and observer words, often several in a row.
        meta = np.random.default_rng([29, seed])
        words = meta.integers(0, 2**32, 624, dtype=np.uint32).tolist()
        for i in np.flatnonzero(meta.random(624) < 1 / 3):
            words[i] = _word_with_low_bits(int(meta.integers(0, 640)), 641)
        box = BBox(0.0, 0.0, 641.0, 641.0) if seed % 2 else BBox(0.5, 0.0, 641.5, 1.0)
        others = [BBox(0.0, 0.0, 300.0, 400.0), BBox(500.0, 0.0, 641.0, 641.0)]
        cnt = int(meta.integers(1, 120))
        a, b = _word_stream(words), _word_stream(words)
        try:
            expected = _place_fixations_reference(a, box, others, cnt)
        except GenerationFailure:
            with pytest.raises(GenerationFailure):
                _place_fixations(b, box, others, cnt)
        else:
            assert _place_fixations(b, box, others, cnt) == expected
        assert a.bit_generator.state["state"]["pos"] == b.bit_generator.state["state"]["pos"]
        assert np.array_equal(a.bit_generator.state["state"]["key"], b.bit_generator.state["state"]["key"])

    def test_box_without_a_whole_pixel(self):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        box = BBox(2.2, 1.0, 2.9, 30.0)  # no integer u in [2.2, 2.9)
        assert _place_fixations(rng, box, [], 0) == []
        with pytest.raises(GenerationFailure):
            _place_fixations(rng, box, [], 4)
        assert rng.bit_generator.state == state


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


class TestOffsets:
    @pytest.mark.parametrize("span", [1, 2, 3, 8, 100, 640, 2**31 + 1, 2**32 - 1])
    def test_matches_scalar_draws(self, span):
        a, b, c = (np.random.default_rng([17, span]) for _ in range(3))
        for rng in (a, b, c):
            rng.integers(0, 5)  # leave half of a 64-bit draw buffered
        words = b.integers(0, 2**32, 2000, dtype=np.uint32)
        offsets = _offsets(words, span)
        if span == 1:  # numpy draws no word for a span of 1
            state = a.bit_generator.state
            assert a.integers(0, 1) == 0 and (offsets == 0).all()
            assert a.bit_generator.state == state
            return
        kept = offsets[offsets >= 0]
        assert [int(a.integers(0, span)) for _ in kept] == kept.tolist()
        c.integers(0, 2**32, int(np.flatnonzero(offsets >= 0)[-1]) + 1, dtype=np.uint32)
        assert a.bit_generator.state == c.bit_generator.state  # up to the last word kept
        rejected = (offsets < 0).mean()
        if span == 2**31 + 1:
            assert 0.4 < rejected < 0.6
        else:
            assert rejected < 0.01

    @pytest.mark.parametrize("span", [3, 641, 6_700_417, 2**31 + 1, 2**32 - 1])
    def test_words_at_the_rejection_threshold(self, span):
        threshold = (2**32 - span) % span
        lows = [threshold - 1, threshold, 0, 2**32 - 1, threshold + 1, threshold]
        words = [_word_with_low_bits(low, span) for low in lows] + [0, 2**32 - 1]
        words.append(_word_with_low_bits(threshold, span))  # kept, so the draws end here
        offsets = _offsets(np.array(words, dtype=np.uint32), span)
        assert offsets[:2].tolist() == [-1, words[1] * span >> 32]
        rng = _word_stream(words)
        kept = offsets[offsets >= 0].tolist()
        assert [int(rng.integers(0, span)) for _ in kept] == kept
        assert rng.bit_generator.state["state"]["pos"] == len(words)

    def test_column_of_spans(self):
        words = np.random.default_rng(19).integers(0, 2**32, 500, dtype=np.uint32)
        rows = _offsets(words, [[640], [3], [8]])
        for row, span in zip(rows, (640, 3, 8)):
            assert row.tolist() == _offsets(words, span).tolist()


def _render_map_reference(cfg, fixations):
    grid = np.zeros((cfg.height, cfg.width))
    np.add.at(grid, (fixations[:, 1], fixations[:, 0]), 1.0)
    grid = gaussian_filter(grid, sigma=cfg.splat_sigma)
    peak = grid.max()
    if peak > 0:
        grid = grid / peak * 255.0
    return np.round(grid).astype(np.uint8).tobytes()


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
            assert _render_map(cfg, fixations) == _render_map_reference(cfg, fixations)

    @pytest.mark.parametrize("width, height", [(1, 1), (5, 7), (1, 300), (20, 64), (53, 37), (640, 480)])
    @pytest.mark.parametrize("sigma", [0.7, 2.5, 8.0, 20.0])
    def test_folding_sizes(self, width, height, sigma):
        # Radii up to 80 px fold the reflect boundary many times over on the small images.
        cfg = replace(FAST, width=width, height=height, splat_sigma=sigma)
        rng = np.random.default_rng([width, height, int(sigma * 10)])
        for n in (0, 1, 100, 1000):
            fixations = np.column_stack([rng.integers(0, width, n), rng.integers(0, height, n), np.zeros(n, int)])
            assert _render_map(cfg, fixations) == _render_map_reference(cfg, fixations)

    def test_rounding_tie(self):
        # scipy scales pixel (x, y) = (2, 1) to exactly 127.5, which rounds to
        # 128; the block products alone land a few ulps lower and give 127.
        cfg = replace(FAST, width=14, height=2, splat_sigma=1.0)
        fixations = np.array([(3, 1, 0), (7, 0, 0), (9, 0, 0)], dtype=np.int64)
        assert _render_map(cfg, fixations) == _render_map_reference(cfg, fixations)

    @pytest.mark.parametrize("n, m", [(1, 3), (2, 5), (7, 4), (300, 2), (64, 33)])
    @pytest.mark.parametrize("sigma", [0.3, 1.0, 2.5, 8.0, 20.0])
    def test_scipy_order_pass_matches_scipy_bits(self, n, m, sigma):
        # Every float of the pass a rounding tie falls back on is scipy's.
        weights = _gaussian_weights(sigma)
        r = len(weights) // 2
        lines = np.random.default_rng([n, m, int(sigma * 10)]).random((n, m))
        padded = _padded(n, m, r)
        padded[r : n + r, :m] = lines
        got = _correlate_scipy(padded, weights, n, m)
        assert got.tobytes() == gaussian_filter1d(lines, sigma, axis=0).tobytes()

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

    def test_fallback_memory_does_not_grow_with_the_radius_squared(self):
        # The pass a rounding tie falls back on, at a 240 px radius: memory
        # taken per pixel and per tap square would be hundreds of MB.
        cfg = replace(FAST, width=640, height=480, splat_sigma=60.0)
        rng = np.random.default_rng(5)
        fixations = np.column_stack([rng.integers(0, 640, 1000), rng.integers(0, 480, 1000), np.zeros(1000, int)])
        tracemalloc.start()
        try:
            grid = _blur(cfg, fixations, _gaussian_weights(60.0), _correlate_scipy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        counts = np.zeros((480, 640))
        np.add.at(counts, (fixations[:, 1], fixations[:, 0]), 1.0)
        assert grid.T.tobytes() == gaussian_filter(counts, 60.0).tobytes()
        assert peak < 32 * 2**20

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
# SHA-256 of three scenes per config, taken from the scalar placement loop and
# scipy's gaussian_filter; the generator must reproduce them byte for byte.
_SCENE_DIGESTS = {
    "base": (_SMALL, "f15caa4849cb1eb594eb37794c8d11fdebc6abb084f2006121ba5343fa208992"),
    "twenty_objects": (
        replace(_SMALL, objects_min=20, objects_max=20, width=320, height=240, fixations_per_scene=200),
        "b48b961fb2cc829e6ad1622b8cdfb65c7f571d774c0e62aa41c5bd850991a3db",
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
        "c38074a8574bbd03f4da068a76d49ddc2a2dff39d7f84747cd8fa2b909ff73b2",
    ),
    "sigma_2.5": (
        replace(_SMALL, splat_sigma=2.5),
        "fe7b75fbeef09a91ae918363b2b62d8338b38b8ce5f72ea8a95d063cf9b363cd",
    ),
    # Twenty overlapping boxes in a small image: most boxes are largely
    # taken by others, so placement often misses.
    "dense_boxes": (
        replace(_SMALL, objects_min=20, objects_max=20, iou_cap=0.6, fixations_per_scene=500),
        "80adbce838e28132c9f20356f5c543a4d6ad48e2c4890ded5d9a3b906f4b7cec",
    ),
    # Dense recipes: the benchmark's cli-flow scenes and criterion 7's.
    "cli_flow": (
        SynthConfig(seed=5, objects_min=5, objects_max=9, fixations_per_scene=1000),
        "9541074a464ca65dbc6d81c6795ef5f80f25506ce5162bfe01c869b2eeb9942d",
    ),
    "criterion_7": (
        SynthConfig(
            seed=7, objects_min=5, objects_max=9, width=320, height=240,
            fixations_per_scene=1000, render_maps=False,
        ),
        "9edebad5ff5a6916eb0c5d3c535ccc83b853f4fdbdfac893008edc375aaf88e9",
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
                h.update(scene.fixation_map.values)
        assert h.hexdigest() == expected

    def test_dataset_tree_digest(self, tmp_path):
        generate_dataset(replace(_SMALL, seed=61), tmp_path)
        assert _tree_digest(tmp_path) == "900ccb6646a3f900cf622dd0b18f0c3e66452223882c38e9dba0cf9570ec3dd1"
