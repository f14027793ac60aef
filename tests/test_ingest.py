import contextlib
import copy
import json
import pickle
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import BYTE_EDITS, edit_bytes, scene_to_dict, tree
from rankflow import ingest
from rankflow.domain import BBox, Proposal, Ranking, Scene
from rankflow.errors import RankflowError
from rankflow.ingest import (
    parse_pgm,
    parse_ranking,
    parse_scene,
    pgm_from_bytes,
    read_bytes,
    pgm_to_bytes,
    publish_dirs,
    write_atomic,
    write_csv,
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

# A scene the mutation property starts from: every kind of proposal and fixation entry.
VALID = {
    **MINIMAL,
    "proposals": [{"id": 1, "box": [10, 10, 30, 30], "confidence": 0.9}, {"id": 2, "is_dummy": True}],
    "fixations": [{"u": 12, "v": 15, "observer_id": 1}, {"u": 50, "v": 60}, {"u": 0, "v": 79}],
}
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 2**70), st.floats(), st.text(max_size=3),
    st.lists(st.integers(-2, 120), max_size=5), st.just({}), st.just([{"u": 1, "v": 2}]),
)


def _places(node) -> list:
    """(container, key) of every value below ``node``, depth first."""
    out = []
    for key, value in list(node.items() if isinstance(node, dict) else enumerate(node)):
        out.append((node, key))
        if isinstance(value, (dict, list)):
            out.extend(_places(value))
    return out


class TestParseScene:
    def test_minimal(self, tmp_path):
        scene = parse_scene(write_json(tmp_path, MINIMAL))
        assert scene.scene_id == "s1"
        assert len(scene.proposals) == 1
        assert scene.fixation_map is None

    def test_bad_box(self, tmp_path):
        doc = dict(MINIMAL, proposals=[{"id": 1, "box": [10, 10, 5, 5], "confidence": 0.9}])
        with pytest.raises(RankflowError, match="scene.json: box: x1<x2 and y1<y2 required"):
            parse_scene(write_json(tmp_path, doc))

    def test_fixation_beyond_int64(self, tmp_path):
        doc = dict(MINIMAL, fixations=[{"u": 2**70, "v": 1}])
        with pytest.raises(RankflowError, match="scene.json: scene: Python int too large"):
            parse_scene(write_json(tmp_path, doc))

    def test_missing_file(self, tmp_path):
        with pytest.raises(RankflowError, match="nope.json: no such file"):
            parse_scene(tmp_path / "nope.json")

    def test_fixation_map_loaded(self, tmp_path):
        gmap = np.array([[0, 255], [128, 64]], np.uint8)
        write_pgm(gmap, tmp_path / "m.pgm")
        doc = dict(MINIMAL, fixation_map_path="m.pgm", width=2, height=2, proposals=[
            {"id": 1, "box": [0, 0, 2, 2], "confidence": 1.0}
        ])
        scene = parse_scene(write_json(tmp_path, doc))
        assert np.array_equal(scene.fixation_map, gmap)
        # An absolute map path is read as it is, not beside the scene file.
        (tmp_path / "sub").mkdir()
        doc["fixation_map_path"] = str(tmp_path / "m.pgm")
        assert np.array_equal(parse_scene(write_json(tmp_path / "sub", doc)).fixation_map, gmap)

    def test_map_skipped(self, tmp_path):
        doc = dict(MINIMAL, fixation_map_path="absent.pgm")
        assert parse_scene(write_json(tmp_path, doc), load_map=False).fixation_map is None
        path = write_json(tmp_path, doc)
        with pytest.raises(RankflowError, match="absent.pgm: no such file") as raised:
            parse_scene(path)
        assert str(raised.value) == f"{path}: {tmp_path / 'absent.pgm'}: no such file"  # the scene file, then its map

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"proposals": [{"id": 1, "box": [10, 10, 30]}]}, "box"),
            ({"fixations": [{"u": 1}]}, "v"),
            ({"proposals": [5]}, "proposals"),
            ({"scene_id": "../out"}, "scene_id"),
            # Values of the wrong JSON type are rejected, not coerced.
            ({"scene_id": 7}, "scene_id"),
            ({"width": "100"}, "width"),
            ({"height": 80.9}, "height"),
            ({"width": True}, "width"),
            ({"proposals": [{"id": "3", "box": [1, 2, 30, 40.5]}]}, "id"),
            ({"proposals": [{"id": 4.7, "is_dummy": True}]}, "id"),
            ({"proposals": [{"id": 3, "box": ["1", 2, 30, 40.5]}]}, "box"),
            ({"proposals": [{"id": 3, "box": [0, 2, True, 40]}]}, "box"),
            ({"proposals": [{"id": 3, "box": [1, 2, 30, 40.5], "confidence": "0.5"}]}, "confidence"),
            ({"proposals": [{"id": 4, "is_dummy": "no"}]}, "is_dummy"),
            ({"proposals": [{"id": 4, "is_dummy": 0, "box": [1, 2, 3, 4]}]}, "is_dummy"),
            ({"fixations": [{"u": 12.9, "v": 1}]}, "u"),
            ({"fixations": [{"u": 1, "v": 2}, {"u": 12, "v": True}]}, "v"),
            ({"fixations": [{"u": 12, "v": 1, "observer_id": "2"}]}, "observer_id"),
            ({"fixations": [[1, 2]]}, "fixations"),
            ({"fixations": ""}, "fixations"),
            ({"fixations": {}}, "fixations"),
            ({"fixation_map_path": 7}, "fixation_map_path"),
        ],
    )
    def test_content_errors_name_the_file(self, tmp_path, change, field):
        path = write_json(tmp_path, {**MINIMAL, **change}, name="bad_scene.json")
        named = "^" + re.escape(f"{path}: {field}: ")
        with pytest.raises(RankflowError, match=named):
            parse_scene(path, load_map=False)  # a stage that skips the map rejects the same files
        with pytest.raises(RankflowError, match=named) as info:
            parse_scene(path)
        assert str(pickle.loads(pickle.dumps(info.value))) == str(info.value)

    @pytest.mark.parametrize(
        "fixations, message",
        [
            ({"u": 1}, "fixations: must be a JSON array, got a dict"),
            ([{"u": 1, "v": 2}, 7], "fixations: entry 1 is a int, not a JSON object"),
            ([{"v": 2}], "u: required field missing"),
            ([{"u": 1, "v": 2}, {"u": 3}], "v: required field missing"),
            ([{"u": 1.5, "v": 2}], "u: must be a JSON integer, got 1.5"),
            ([{"u": 1, "v": True}], "v: must be a JSON integer, got True"),
            ([{"u": 1, "v": 2, "observer_id": "3"}], "observer_id: must be a JSON integer, got '3'"),
            ([{"u": 1, "v": 2**63}], "scene: Python int too large to convert to C long"),
            # Several faults: the array, then any entry that is not an object,
            # then each entry's fields, in file order, report the first.
            ([{"v": 2}, {"u": 1.5, "v": 2}, 7], "fixations: entry 2 is a int, not a JSON object"),
            ([{"u": 1.5, "v": 2}, {"u": 1}], "u: must be a JSON integer, got 1.5"),
        ],
        ids=["not-array", "not-object", "missing-u", "missing-v", "float", "bool", "string-observer",
             "beyond-int64", "object-before-fields", "fields-in-file-order"],
    )
    def test_fixation_fault_message(self, tmp_path, fixations, message):
        path = write_json(tmp_path, dict(MINIMAL, fixations=fixations))
        with pytest.raises(RankflowError) as raised:
            parse_scene(path)
        assert str(raised.value) == f"{path}: {message}"

    def test_numbers_may_be_integers_or_floats(self, tmp_path):
        doc = dict(MINIMAL, proposals=[
            {"id": 1, "box": [10, 10.5, 30, 30], "confidence": 1, "is_dummy": False},
            {"id": 2, "is_dummy": True},
        ])
        scene = parse_scene(write_json(tmp_path, doc))
        assert scene.proposals[0] == Proposal(id=1, box=BBox(10.0, 10.5, 30.0, 30.0), detector_confidence=1.0)
        assert [type(c) for c in vars(scene.proposals[0].box).values()] == [float] * 4
        assert scene.proposals[1].is_dummy

    def test_observer_id_defaults_to_zero(self, tmp_path):
        doc = dict(MINIMAL, fixations=[{"u": 5, "v": 6}, {"u": 7, "v": 8, "observer_id": 3}])
        assert parse_scene(write_json(tmp_path, doc)).fixations.tolist() == [[5, 6, 0], [7, 8, 3]]

    @settings(max_examples=100)
    @given(st.lists(st.tuples(st.sampled_from(["drop", "retype", "resize", "swap"]), st.integers(0, 99), JSON_VALUES),
                    min_size=1, max_size=3))
    def test_mutated_scene_names_the_file(self, tmp_path_factory, mutations):
        # A valid scene with keys dropped, values retyped, lists (boxes,
        # proposals, fixations) resized and list entries swapped: either it
        # parses or the error is led by the file's path.
        doc = json.loads(json.dumps(VALID))
        for op, at, value in mutations:
            places = _places(doc)
            parent, key = places[at % len(places)]
            target = parent[key]
            if op == "drop":
                del parent[key]
            elif op == "retype":
                # A copy: st.just hands every example the same list, which a
                # later mutation could change, or nest inside itself.
                parent[key] = copy.deepcopy(value)
            elif op == "resize" and isinstance(target, list):
                parent[key] = (target * 6 + [5] * 6)[: at % 7]
            elif op == "swap" and isinstance(target, list) and len(target) > 1:
                target[0], target[-1] = target[-1], target[0]
        path = tmp_path_factory.getbasetemp() / "mutated_scene.json"
        path.write_text(json.dumps(doc))
        try:
            parse_scene(path)
        except RankflowError as e:
            assert str(e).startswith(f"{path}: ")

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


class TestWriteScene:
    """write_scene formats the fixation rows itself; its bytes must stay those
    of json.dumps(scene_to_dict(...), sort_keys=True)."""

    def _scene(self, scene_id="s1", fixations=((3, 4, 0), (10, 2, 7))):
        proposals = (
            Proposal(id=0, box=BBox(1.0, 2.5, 30.0, 40.0), detector_confidence=0.75),
            Proposal(id=1, box=None, is_dummy=True),
            Proposal(id=2, box=BBox(0.0, 0.0, 5.0, 5.0)),
        )
        return Scene(scene_id=scene_id, width=64, height=48, proposals=proposals, fixations=list(fixations))

    @pytest.mark.parametrize(
        "scene_id, fixations",
        [("s1", ((3, 4, 0), (10, 2, 7))), ("s1", ()), ('q"t\tab\té', ((0, 0, 0),)), ('"fixations": []', ((63, 47, 123456),))],
        ids=["rows", "no-fixations", "escaped-id", "id-like-key"],
    )
    @pytest.mark.parametrize("map_path", [None, "maps/s1.pgm", 'odd "fixations": [] \\path.pgm'], ids=["no-map", "map", "odd-map"])
    def test_bytes_match_scene_to_dict(self, tmp_path, scene_id, fixations, map_path):
        scene = self._scene(scene_id, fixations)
        out = tmp_path / "scene.json"
        write_scene(scene, out, fixation_map_path=map_path)
        want = json.dumps(scene_to_dict(scene, fixation_map_path=map_path), sort_keys=True) + "\n"
        assert out.read_bytes() == want.encode("utf-8")
        assert parse_scene(out, load_map=False) == scene


def _reference_parse(path) -> Scene:
    """``parse_scene`` with its bulk row decoder switched off, so the whole
    file is decoded by ``json.loads`` alone."""
    with mock.patch.object(ingest, "_bulk_fixations", lambda text: None):
        return parse_scene(path, load_map=False)


def _outcome(parse, path):
    """The scene ``parse`` returns for ``path``, or its error message."""
    try:
        return parse(path)
    except RankflowError as e:
        return str(e)


@contextlib.contextmanager
def _bulk_spy():
    """A list that receives what each ``_bulk_fixations`` call returns."""
    results, real = [], ingest._bulk_fixations

    def spy(text):
        results.append(real(text))
        return results[-1]

    with mock.patch.object(ingest, "_bulk_fixations", spy):
        yield results


@st.composite
def written_scenes(draw):
    """A scene as ``write_scene`` takes it, and a map path to write with it.
    Observer ids run up to 13 digits; ids and paths are sometimes non-ASCII,
    which ``json.dumps`` writes as ``\\u`` escapes."""
    width, height = draw(st.integers(1, 60)), draw(st.integers(1, 60))
    observers = st.integers(0, 99) | st.integers(10**8, 10**12)
    rows = draw(st.lists(st.tuples(st.integers(0, width - 1), st.integers(0, height - 1), observers), max_size=12))
    proposals = draw(st.sampled_from([
        (),
        (Proposal(id=3, box=BBox(0.0, 0.5, width, height), detector_confidence=0.25),),
        (Proposal(id=0, box=BBox(0.0, 0.0, 1.0, 1.0)), Proposal(id=1, box=None, is_dummy=True)),
    ]))
    scene_id = draw(st.sampled_from(["s", "scene_00007", 'q"t', "é"]))
    map_path = draw(st.sampled_from([None, "../maps/s.pgm", "é.pgm"]))
    return Scene(scene_id, width, height, proposals, rows), map_path


# Edits of JSON text: digits, signs, spacing, literals and keys.
JSON_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["cut", "put", "insert"]),
        st.integers(0, 600),
        st.sampled_from([b"0", b"7", b"-", b" ", b",", b".5", b"e3", b"true", b"1234567890", b'"fixations": []',
                         b'"u": 1, ', b"\\u0066", b"{", b"]"]),
    ),
    min_size=1,
    max_size=3,
)


class TestBulkFixations:
    """parse_scene decodes write_scene's own fixation rows in bulk; every
    file must give the same scene, or fail with the same message, as when
    json.loads decodes it whole."""

    @settings(max_examples=200)
    @given(written_scenes())
    def test_written_scene_parses_as_the_reference(self, tmp_path_factory, drawn):
        scene, map_path = drawn
        path = tmp_path_factory.getbasetemp() / "written_scene.json"
        write_scene(scene, path, fixation_map_path=map_path)
        with _bulk_spy() as spied:
            parsed = parse_scene(path, load_map=False)
        assert parsed == _reference_parse(path) == scene
        # Only ids of 10 or more digits, or a \u escape, take the full decode.
        canonical = scene.fixations.max(initial=0) < 10**9 and "\\u" not in path.read_text()
        assert (spied[0] is not None) == canonical

    @settings(max_examples=300)
    @given(written_scenes(), BYTE_EDITS | JSON_EDITS)
    def test_edited_scene_fails_as_the_reference(self, tmp_path_factory, drawn, edits):
        scene, map_path = drawn
        path = tmp_path_factory.getbasetemp() / "edited_scene.json"
        write_scene(scene, path, fixation_map_path=map_path)
        path.write_bytes(edit_bytes(path.read_bytes(), edits))
        assert _outcome(lambda p: parse_scene(p, load_map=False), path) == _outcome(_reference_parse, path)

    ROW = '{"observer_id": 0, "u": 3, "v": 4}'

    @pytest.mark.parametrize(
        "old, new",
        [
            (ROW, '{"observer_id":0, "u": 3, "v": 4}'),
            ("}, {", "},{"),
            ('"fixations": [', '"fixations" : ['),
            (ROW, '{"u": 3, "observer_id": 0, "v": 4}'),
            ('"width": 64}', '"width": 64, "fixations": []}'),
            ('"width": 64}', '"width": 64, "fi\\u0078ations": []}'),
            ('"fixations": [', '"proposals": [], "fixations": [{"fixations": []}, '),
            ('"u": 3', '"u": -3'),
            ('"u": 3', '"u": 3.0'),
            ('"u": 3', '"u": 1e3'),
            ('"u": 3', '"u": 03'),
            ('"observer_id": 0', '"observer_id": false'),
            ('"observer_id": 0', '"observer_id": 1234567890'),
            ('"observer_id": 0', '"observer_id": -0'),
        ],
        ids=["row-spacing", "list-spacing", "key-spacing", "key-order", "second-key", "escaped-second-key",
             "nested-key", "negative", "float", "exponent", "leading-zero", "bool", "ten-digits", "minus-zero"],
    )
    def test_other_layouts_take_the_full_decode(self, tmp_path, old, new):
        scene = Scene("s", 64, 48, (Proposal(id=0, box=BBox(1.0, 2.0, 30.0, 40.0), detector_confidence=0.75),),
                      [(3, 4, 0), (10, 2, 7)])
        path = tmp_path / "scene.json"
        write_scene(scene, path, fixation_map_path="m.pgm")
        with _bulk_spy() as spied:
            assert parse_scene(path, load_map=False) == scene
        assert spied[0] is not None
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        with _bulk_spy() as spied:
            outcome = _outcome(lambda p: parse_scene(p, load_map=False), path)
        assert spied == [None]
        assert outcome == _outcome(_reference_parse, path)

    def test_nested_key_alone_is_declined(self, tmp_path):
        # The document's only "fixations" is a proposal's: the scene has none.
        row = '{"observer_id": 0, "u": 3, "v": 4}'
        path = tmp_path / "scene.json"
        path.write_text('{"height": 48, "proposals": [{"box": [1, 2, 30, 40], "fixations": [%s], "id": 0}], '
                        '"scene_id": "s", "width": 64}\n' % row)
        with _bulk_spy() as spied:
            assert parse_scene(path).fixations.shape == (0, 3)
        assert spied == [None]


def _reference_pgm_from_bytes(data: bytes, name="<pgm>") -> np.ndarray:
    """``pgm_from_bytes`` as a byte loop, the reference for its header pattern."""
    if not data.startswith(b"P5"):
        raise RankflowError(f"{name}: not a binary PGM (P5)")
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise RankflowError(f"{name}: header ended early")
        fields.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    try:
        width, height, maxval = (int(f) for f in fields)
    except ValueError as e:
        raise RankflowError(f"{name}: non-numeric header") from e
    if maxval != 255:
        raise RankflowError(f"{name}: maxval must be 255, got {maxval}")
    got = max(len(data) - pos, 0)
    if got < width * height:
        raise RankflowError(f"{name}: expected {width * height} raster bytes, got {got}")
    if width <= 0 or height <= 0:
        raise RankflowError(f"{name}: graymap: width and height must be positive")
    return np.frombuffer(data, np.uint8, width * height, pos).reshape(height, width)


def _pgm_outcome(read, data: bytes):
    try:
        gmap = read(data, name="m.pgm")
    except RankflowError as e:
        return str(e)
    return gmap.shape, gmap.tobytes()


# Header pieces: every whitespace byte, comments (to a line end or to EOF),
# numbers int() reads in odd forms, and bytes that are not numbers.
_PGM_PIECES = st.sampled_from(
    [b" ", b"\n", b"\r", b"\t", b"\x0b", b"\x0c", b"\r\n", b"#", b"# c", b"#x\n", b"1", b"2", b"255", b"0",
     b"-1", b"+7", b"1_0", b"P5", b"x", b"\xff", b"\x00"]
)
_PGM_HEADERS = st.one_of(
    st.tuples(st.lists(_PGM_PIECES, max_size=12), st.binary(max_size=6)).map(lambda t: b"P5" + b"".join(t[0]) + t[1]),
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.lists(st.tuples(
        st.sampled_from(["cut", "put", "insert"]), st.integers(0, 16), _PGM_PIECES), min_size=1, max_size=3)).map(
        lambda t: edit_bytes(pgm_to_bytes(np.arange(t[0] * t[1], dtype=np.uint8).reshape(t[1], t[0])), t[2])),
)


class TestPgm:
    @settings(max_examples=1000)
    @given(_PGM_HEADERS)
    def test_header_reads_as_the_byte_loop(self, data):
        assert _pgm_outcome(pgm_from_bytes, data) == _pgm_outcome(_reference_pgm_from_bytes, data)

    def test_decode(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        gmap = parse_pgm(path)
        assert gmap.shape == (2, 2)
        assert gmap.tobytes() == bytes([0, 255, 128, 64])

    def test_rejects_ascii(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(RankflowError, match=r"a\.pgm: not a binary PGM \(P5\)"):
            parse_pgm(path)

    def test_rejects_other_maxval(self):
        with pytest.raises(RankflowError, match="maxval must be 255, got 65535"):
            pgm_from_bytes(b"P5\n1 1\n65535\n\x00\x00")

    def test_truncated(self):
        with pytest.raises(RankflowError, match="expected 16 raster bytes, got 2"):
            pgm_from_bytes(b"P5\n4 4\n255\n\x00\x00")

    def test_short_raster_counts_the_bytes_after_the_header(self):
        with pytest.raises(RankflowError, match=r"^m: expected 4 raster bytes, got 0$"):
            pgm_from_bytes(b"P5\n2 2\n255", name="m")  # no byte after maxval
        with pytest.raises(RankflowError, match=r"^m: graymap: width and height must be positive$"):
            pgm_from_bytes(b"P5\n0 2\n255", name="m")

    def test_header_comment(self):
        gmap = pgm_from_bytes(b"P5\n# made elsewhere\n1 2\n255\n\x05\x06")
        assert gmap.tobytes() == bytes([5, 6])

    @given(
        st.integers(1, 8),
        st.integers(1, 8),
        st.data(),
    )
    def test_round_trip(self, w, h, data):
        values = bytes(data.draw(st.lists(st.integers(0, 255), min_size=w * h, max_size=w * h)))
        raw = pgm_to_bytes(np.frombuffer(values, np.uint8).reshape(h, w))
        assert pgm_to_bytes(pgm_from_bytes(raw)) == raw

    @settings(max_examples=300)
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.lists(
            st.tuples(
                st.sampled_from(["cut", "put", "insert"]),
                st.integers(0, 40),
                st.binary(max_size=4) | st.sampled_from(
                    [b" ", b"\n", b"#", b"# c\n", b"-1", b"0", b"+7", b"1_0", b"65535", b"9" * 30, b"P2", b"\xff"]
                ),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_mutated_pgm_names_the_file(self, w, h, edits):
        # A valid PGM cut short, overwritten or grown at any byte, header
        # included: either it decodes or the error is a RankflowError led by
        # the file's name.
        data = edit_bytes(pgm_to_bytes(np.arange(w * h, dtype=np.uint8).reshape(h, w)), edits)
        try:
            gmap = pgm_from_bytes(data, name="maps/m.pgm")
        except RankflowError as e:
            assert str(e).startswith("maps/m.pgm: ")
        else:
            assert gmap.dtype == np.uint8 and gmap.ndim == 2 and gmap.size > 0


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
        with pytest.raises(RankflowError, match=r"r\.csv: line 3"):
            parse_ranking(path)

    def test_repeated_proposal_names_file_and_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("scene_id,proposal_id,order\ns,1,1\nt,1,0\ns,1,2\n")
        with pytest.raises(RankflowError, match=r"r\.csv: line 4: proposal 1 of 's' ranked again"):
            parse_ranking(path)

    @pytest.mark.parametrize(
        "rows, reason",
        [("s,1,1\nt,0,1\nt,1,1\n", "non-zero orders must be a permutation of 1..k, got [1, 1]"),
         ("s,1,0\nt,1,-1\n", "orders must be non-negative")],
    )
    def test_bad_orders_name_file_and_scene(self, tmp_path, rows, reason):
        path = tmp_path / "r.csv"
        path.write_text("scene_id,proposal_id,order\n" + rows)
        with pytest.raises(RankflowError, match="scene 't': ranking: ") as info:
            parse_ranking(path)
        assert str(info.value) == f"{path}: scene 't': ranking: {reason}"

    @settings(max_examples=100)
    @given(
        st.lists(st.tuples(st.sampled_from("st"), st.integers(0, 3), st.integers(-1, 3)), max_size=6),
        st.lists(st.tuples(st.integers(0, 5), st.text(alphabet='st,"\n\r -0123x.', max_size=8)), max_size=2),
    )
    def test_mutated_body_names_the_file(self, tmp_path_factory, rows, edits):
        # Rows of few ids and orders, so proposals and orders repeat, some
        # overwritten by arbitrary text: either the body parses or the error
        # is led by the file's path.
        lines = [f"{sid},{pid},{order}" for sid, pid, order in rows]
        for at, text in edits:
            if at < len(lines):
                lines[at] = text
        path = tmp_path_factory.getbasetemp() / "mutated.csv"
        path.write_bytes("\n".join(["scene_id,proposal_id,order", *lines]).encode())
        try:
            parse_ranking(path)
        except RankflowError as e:
            assert str(e).startswith(f"{path}: ")

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


class TestReadBytes:
    def test_reads_a_file(self, tmp_path):
        (tmp_path / "a.bin").write_bytes(b"\x00\xff")
        assert read_bytes(tmp_path / "a.bin") == b"\x00\xff"

    @pytest.mark.parametrize("name", ["nope", "."])
    def test_missing_file_or_directory(self, tmp_path, name):
        with pytest.raises(RankflowError, match="no such file") as raised:
            read_bytes(tmp_path / name)
        assert str(raised.value) == f"{tmp_path / name}: no such file"

    def test_failed_read_names_the_file(self, tmp_path, monkeypatch):
        (tmp_path / "a.bin").write_bytes(b"x")

        def failing_read(self):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(Path, "read_bytes", failing_read)
        with pytest.raises(RankflowError, match="a.bin: Permission denied"):
            read_bytes(tmp_path / "a.bin")


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
        with pytest.raises(RankflowError, match="r.csv"):
            write_ranking([("s", Ranking({1: 1}))], target)
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]

    def test_missing_directory(self, tmp_path):
        with pytest.raises(RankflowError, match="nodir"):
            write_atomic(tmp_path / "nodir" / "x.csv", "x")


class TestWriteCsv:
    def test_header_then_rows_with_lf_endings(self, tmp_path):
        write_csv(tmp_path / "t.csv", ["a", "b"], [("x,y", 1), ("0.1", -2)])
        assert (tmp_path / "t.csv").read_bytes() == b'a,b\n"x,y",1\n0.1,-2\n'


class TestPublishDirs:
    def test_replaces_each_subdirectory_whole(self, tmp_path):
        (tmp_path / "scenes").mkdir()
        (tmp_path / "scenes" / "old.json").write_text("old")
        (tmp_path / "keep.txt").write_text("mine")
        with publish_dirs(tmp_path, "scenes", "maps") as staging:
            assert staging.parent == tmp_path and staging.name.startswith(".staging-")
            assert sorted(p.name for p in staging.iterdir()) == ["maps", "scenes"]
            write_atomic(staging / "scenes" / "new.json", "new")
        assert tree(tmp_path) == {"keep.txt": b"mine", "maps": None, "scenes": None, "scenes/new.json": b"new"}

    def test_failed_body_publishes_nothing(self, tmp_path):
        (tmp_path / "scenes").mkdir()
        (tmp_path / "scenes" / "old.json").write_text("old")
        before = tree(tmp_path)
        with pytest.raises(RankflowError, match="boom"):
            with publish_dirs(tmp_path, "scenes") as staging:
                write_atomic(staging / "scenes" / "new.json", "new")
                raise RankflowError("boom")
        assert tree(tmp_path) == before

    def test_failed_body_removes_the_directories_it_made(self, tmp_path):
        (tmp_path / "a").mkdir()
        with pytest.raises(RankflowError, match="boom"):
            with publish_dirs(tmp_path / "a" / "b" / "c", "scenes") as staging:
                write_atomic(staging / "scenes" / "new.json", "new")
                raise RankflowError("boom")
        assert tree(tmp_path) == {"a": None}  # a was there before

    def test_creates_missing_output_directory(self, tmp_path):
        with publish_dirs(tmp_path / "a" / "b", "scenes"):
            pass
        assert tree(tmp_path) == {"a": None, "a/b": None, "a/b/scenes": None}

    def test_failed_swap_names_the_directory(self, tmp_path, monkeypatch):
        def failing_replace(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("rankflow.ingest.os.replace", failing_replace)
        with pytest.raises(RankflowError, match=f"{tmp_path / 'out'}: No space left on device"):
            with publish_dirs(tmp_path / "out", "scenes"):
                pass
        assert tree(tmp_path) == {}
