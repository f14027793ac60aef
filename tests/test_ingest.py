import json

import pytest
from hypothesis import given, strategies as st

from rankflow.domain import GrayMap, Ranking
from rankflow.errors import (
    InvariantViolation,
    IoFailure,
    MissingFile,
    TruncatedData,
    UnsupportedFormat,
)
from rankflow.ingest import (
    parse_pgm,
    parse_ranking,
    parse_scene,
    pgm_from_bytes,
    pgm_to_bytes,
    write_atomic,
    write_pgm,
    write_ranking,
    write_scene,
)
from rankflow.synth import SynthConfig, generate_dataset


def write_json(tmp_path, doc, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


MINIMAL = {
    "scene_id": "s1",
    "width": 100,
    "height": 80,
    "proposals": [{"id": 1, "box": [10, 10, 30, 30], "confidence": 0.9}],
    "fixations": [],
}


class TestParseScene:
    def test_minimal(self, tmp_path):
        scene = parse_scene(write_json(tmp_path, MINIMAL))
        assert scene.scene_id == "s1"
        assert len(scene.proposals) == 1
        assert scene.fixation_map is None

    def test_bad_box(self, tmp_path):
        doc = dict(MINIMAL, proposals=[{"id": 1, "box": [10, 10, 5, 5], "confidence": 0.9}])
        with pytest.raises(InvariantViolation):
            parse_scene(write_json(tmp_path, doc))

    def test_fixation_beyond_int64(self, tmp_path):
        doc = dict(MINIMAL, fixations=[{"u": 2**70, "v": 1}])
        with pytest.raises(InvariantViolation):
            parse_scene(write_json(tmp_path, doc))

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            parse_scene(tmp_path / "nope.json")

    def test_fixation_map_loaded(self, tmp_path):
        gmap = GrayMap(2, 2, bytes([0, 255, 128, 64]))
        write_pgm(gmap, tmp_path / "m.pgm")
        doc = dict(MINIMAL, fixation_map_path="m.pgm", width=2, height=2, proposals=[
            {"id": 1, "box": [0, 0, 2, 2], "confidence": 1.0}
        ])
        scene = parse_scene(write_json(tmp_path, doc))
        assert scene.fixation_map == gmap

    def test_map_skipped(self, tmp_path):
        doc = dict(MINIMAL, fixation_map_path="absent.pgm")
        assert parse_scene(write_json(tmp_path, doc), load_map=False).fixation_map is None
        with pytest.raises(MissingFile):
            parse_scene(write_json(tmp_path, doc))

    def test_observer_id_defaults_to_zero(self, tmp_path):
        doc = dict(MINIMAL, fixations=[{"u": 5, "v": 6}, {"u": 7, "v": 8, "observer_id": 3}])
        assert parse_scene(write_json(tmp_path, doc)).fixations.tolist() == [[5, 6, 0], [7, 8, 3]]

    @pytest.mark.parametrize("render_maps", [True, False])
    def test_synth_scene_round_trip_is_byte_identical(self, tmp_path, render_maps):
        cfg = SynthConfig(seed=4, n_scenes=2, width=160, height=120, fixations_per_scene=90,
                          render_maps=render_maps)
        generate_dataset(cfg, tmp_path / "d")
        for path in sorted((tmp_path / "d" / "scenes").glob("*.json")):
            map_path = json.loads(path.read_text()).get("fixation_map_path")
            out = tmp_path / path.name
            write_scene(parse_scene(path), out, fixation_map_path=map_path)
            assert out.read_bytes() == path.read_bytes()


class TestPgm:
    def test_decode(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        gmap = parse_pgm(path)
        assert (gmap.width, gmap.height) == (2, 2)
        assert gmap.values == bytes([0, 255, 128, 64])

    def test_rejects_ascii(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(UnsupportedFormat):
            parse_pgm(path)

    def test_rejects_other_maxval(self):
        with pytest.raises(UnsupportedFormat):
            pgm_from_bytes(b"P5\n1 1\n65535\n\x00\x00")

    def test_truncated(self):
        with pytest.raises(TruncatedData):
            pgm_from_bytes(b"P5\n4 4\n255\n\x00\x00")

    def test_header_comment(self):
        gmap = pgm_from_bytes(b"P5\n# made elsewhere\n1 2\n255\n\x05\x06")
        assert gmap.values == bytes([5, 6])

    @given(
        st.integers(1, 8),
        st.integers(1, 8),
        st.data(),
    )
    def test_round_trip(self, w, h, data):
        values = bytes(data.draw(st.lists(st.integers(0, 255), min_size=w * h, max_size=w * h)))
        raw = pgm_to_bytes(GrayMap(w, h, values))
        assert pgm_to_bytes(pgm_from_bytes(raw)) == raw


class TestRankingCsv:
    def test_empty(self, tmp_path):
        path = tmp_path / "r.csv"
        write_ranking([], path)
        assert path.read_text() == "scene_id,proposal_id,order\n"
        assert parse_ranking(path) == {}

    @pytest.mark.parametrize("row", ["s,x,1", "s,1,1.5", "s,1", "s,1,1,1"])
    def test_bad_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "r.csv"
        path.write_text(f"scene_id,proposal_id,order\ns,0,0\n{row}\n")
        with pytest.raises(InvariantViolation, match=r"r\.csv: line 3"):
            parse_ranking(path)

    def test_sorted_rows(self, tmp_path):
        path = tmp_path / "r.csv"
        write_ranking([("s", Ranking({7: 1, 3: 0}))], path)
        assert path.read_text() == "scene_id,proposal_id,order\ns,3,0\ns,7,1\n"

    @given(
        st.dictionaries(
            st.text(alphabet="abcxyz", min_size=1, max_size=4),
            st.lists(st.integers(0, 50), min_size=1, max_size=8, unique=True),
            min_size=1,
            max_size=4,
        ),
        st.randoms(use_true_random=False),
    )
    def test_round_trip(self, scenes, rnd):
        rankings = []
        for sid, pids in scenes.items():
            k = rnd.randint(0, len(pids))
            salient = rnd.sample(pids, k)
            labels = {pid: 0 for pid in pids}
            for order, pid in enumerate(rnd.sample(salient, k), start=1):
                labels[pid] = order
            rankings.append((sid, Ranking(labels)))
        import io, tempfile, os

        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "r.csv")
            write_ranking(rankings, path)
            parsed = parse_ranking(path)
        assert parsed == dict(rankings)


class TestWriteAtomic:
    def test_writes_bytes_and_text(self, tmp_path):
        write_atomic(tmp_path / "a.bin", b"\x00\x01")
        write_atomic(tmp_path / "b.txt", "h\u00e9\n")
        assert (tmp_path / "a.bin").read_bytes() == b"\x00\x01"
        assert (tmp_path / "b.txt").read_bytes() == "h\u00e9\n".encode("utf-8")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin", "b.txt"]

    def test_failed_replace_keeps_previous_file(self, tmp_path, monkeypatch):
        target = tmp_path / "r.csv"
        target.write_text("old\n")

        def failing_replace(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("rankflow.ingest.os.replace", failing_replace)
        with pytest.raises(IoFailure, match="r.csv"):
            write_ranking([("s", Ranking({1: 1}))], target)
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]

    def test_missing_directory(self, tmp_path):
        with pytest.raises(IoFailure, match="nodir"):
            write_atomic(tmp_path / "nodir" / "x.csv", "x")
