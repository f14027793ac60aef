"""Deterministic, bit-exact reading and writing of scenes, gray maps and rankings.

Formats:
  * scenes   -- UTF-8 JSON, one file per scene
  * gray maps -- binary PGM ("P5"), maxval 255
  * rankings -- CSV with header ``scene_id,proposal_id,order``, LF endings

This module is the only one that touches the file system: every file is
written by ``write_atomic`` (every CSV through ``write_csv``, every provenance
record through ``write_provenance``), and every dataset subdirectory is
published whole by ``publish_dirs``.

Reading pays once for a file's bytes.  A PGM raster is a read-only view of
the file's bytes, which a ``Scene`` copies once into its own map.  A scene file
whose ``fixations`` array is laid out exactly as ``write_scene`` writes it
(``_bulk_fixations`` states the terms) has its rows decoded by one numpy
call; every other scene file is decoded whole by ``json.loads``.  Both give
the same scene, and a malformed file fails with the same message.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .domain import BBox, Proposal, Ranking, Scene
from .errors import RankflowError

RANKING_HEADER = ["scene_id", "proposal_id", "order"]


def write_atomic(path, data) -> None:
    """Write ``data`` (bytes, or str as UTF-8) to ``path`` in one step.

    The bytes go to a temp file in the target's directory, which then replaces
    the target, so a reader never sees a half-written file.
    """
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except OSError as e:
        tmp.unlink(missing_ok=True)
        raise RankflowError(f"cannot write {path}: {e.strerror or e}") from e


def write_csv(path, header, rows) -> None:
    """Write a header row and then ``rows`` as CSV with LF line endings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, buf.getvalue())


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def write_provenance(target, config: dict, seed=None) -> None:
    """Sidecar provenance record for an output file or directory."""
    target = Path(target)
    record = {
        "tool": "rankflow",
        "version": __version__,
        "config_hash": config_hash(config),
        "seed": seed,
    }
    path = target / "provenance.json" if target.is_dir() else Path(str(target) + ".provenance.json")
    write_atomic(path, json.dumps(record, sort_keys=True) + "\n")


@contextlib.contextmanager
def publish_dirs(out_dir, *subs):
    """Yield a staging directory under ``out_dir`` holding an empty directory
    per name in ``subs``; on a clean exit each replaces ``out_dir/<sub>``
    whole.  The staging directory, with every replaced directory in it, is
    removed in any case, and so, after a failure, is each directory this call
    made on the way to ``out_dir``, so a failed run leaves the file system as
    it was.  Other files in ``out_dir`` are kept; an OSError becomes a
    RankflowError naming it."""
    out_dir = Path(out_dir)
    staging = None
    new_dirs = []  # the directories this call makes, deepest first
    try:
        new_dirs = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
        out_dir.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out_dir))
        for sub in subs:
            (staging / sub).mkdir()
        yield staging
        for sub in subs:
            if os.path.lexists(out_dir / sub):
                os.replace(out_dir / sub, staging / f".old-{sub}")
            os.replace(staging / sub, out_dir / sub)
        new_dirs = []  # published, so they stay
    except OSError as e:
        raise RankflowError(f"cannot create {out_dir}: {e.strerror or e}") from e
    finally:
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)
        for d in new_dirs:
            with contextlib.suppress(OSError):
                d.rmdir()  # only ever an empty directory


def read_bytes(path) -> bytes:
    """A file's bytes, the read-side twin of ``write_atomic``.  A path that is
    not a regular file, or a failed read, raises a RankflowError naming it."""
    path = Path(path)
    try:
        if path.is_file():
            return path.read_bytes()
    except OSError as e:
        raise RankflowError(f"cannot read {path}: {e.strerror or e}") from e
    raise RankflowError(f"{path}: no such file")


def read_text(path) -> str:
    """A file's UTF-8 text, line endings untouched.  Bytes that are not UTF-8
    raise a RankflowError naming the file."""
    try:
        return read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as e:
        raise RankflowError(f"{path}: not UTF-8 text (byte {e.start})") from e


def read_json(path):
    """A UTF-8 JSON file's value.  Text that is not JSON, or JSON nested too
    deeply to parse, raises a RankflowError naming the file."""
    return _json_value(read_text(path), path)


def _json_value(text: str, path):
    """``read_json`` on a file's text."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise RankflowError(f"{path}: line {e.lineno}: {e.msg}") from e
    except RecursionError as e:
        raise RankflowError(f"{path}: JSON nested too deeply to parse") from e


_JSON_TYPES = {"integer": (int,), "number": (int, float), "bool": (bool,), "string": (str,)}


def _checked(value, field: str, kind: str):
    """``value`` if JSON gave it the ``kind`` asked for (a bool is no integer)."""
    if type(value) not in _JSON_TYPES[kind]:
        raise RankflowError(f"{field}: must be a JSON {kind}, got {value!r}")
    return value


def _objects(entries, field: str) -> list:
    """``entries`` if it is a JSON array of JSON objects; else a
    RankflowError naming ``field``."""
    if type(entries) is not list:
        raise RankflowError(f"{field}: must be a JSON array, got a {type(entries).__name__}")
    for i, entry in enumerate(entries):
        if type(entry) is not dict:
            raise RankflowError(f"{field}: entry {i} is a {type(entry).__name__}, not a JSON object")
    return entries


_FIXATION_JSON = '{"observer_id": %d, "u": %d, "v": %d}'
# write_scene's row (terms: _bulk_fixations).  Possessive quantifiers scan faster
# with the same matches but need Python 3.11; a lookahead emulation is slower.
_ROW = re.escape(_FIXATION_JSON).replace("%d", "(?:0|[1-9][0-9]{0,8})")
_WRITTEN_FIXATIONS = re.compile(rf'"fixations": \[((?:{_ROW}(?:, {_ROW})*)?)\]')
_ROW_TEXT_TO_SPACES = str.maketrans(dict.fromkeys(_FIXATION_JSON.replace("%d", "") + ", ", " "))


def _bulk_fixations(text: str):
    """``(fixations, document)`` if ``text`` lays its fixations out exactly
    as ``write_scene`` writes them, else None, and the caller decodes the
    whole text.  Exactly means: the rows follow ``_FIXATION_JSON``, the
    writer's own template, with its spacing and key order; each value is an
    integer with no sign and no leading zero, of at most 9 digits;
    ``"fixations"`` occurs once in the text, and no ``\\u`` escape could
    spell it again; and the rest decodes to an object whose ``fixations`` is
    ``[]``.  ``document`` is that rest.  The terms make the rows decoded here
    the value of the document's one ``fixations`` key, each a valid
    fixation integer."""
    if text.count('"fixations"') != 1 or "\\u" in text:
        return None
    found = _WRITTEN_FIXATIONS.search(text)
    if found is None:
        return None
    try:
        doc = json.loads(f'{text[: found.start()]}"fixations": []{text[found.end() :]}')
    except (ValueError, RecursionError):
        return None
    if type(doc) is not dict or doc.get("fixations") != []:
        return None
    values = np.fromstring(found[1].translate(_ROW_TEXT_TO_SPACES), dtype=np.int64, sep=" ")
    return values.reshape(-1, 3)[:, [1, 2, 0]], doc


def parse_scene(path, load_map: bool = True) -> Scene:
    """Scene from a JSON file; ``load_map=False`` leaves its PGM map unread.
    Every error in the file's contents, or in the map it names, names the file.
    Each field must have its JSON type: nothing is coerced.
    A relative ``fixation_map_path`` is read beside the scene file.

    A file whose fixations are laid out exactly as ``write_scene`` writes
    them has its rows decoded in bulk (``_bulk_fixations`` gives the terms).
    Any other file is decoded whole by ``json.loads`` and checked in one
    pass: the ``fixations`` array, then that each entry is an object, then
    each entry's fields.  Both give the same scene."""
    path = Path(path)
    text = read_text(path)
    fixations, doc = _bulk_fixations(text) or (None, _json_value(text, path))
    try:
        proposals = []
        for p in _objects(doc["proposals"], "proposals"):
            pid = _checked(p["id"], "id", "integer")
            if _checked(p.get("is_dummy", False), "is_dummy", "bool"):
                proposals.append(Proposal(id=pid, box=None, is_dummy=True))
            else:
                box = p["box"]
                if type(box) is not list or len(box) != 4:
                    raise RankflowError(f"box: must be a JSON array of 4 numbers, got {box!r}")
                x1, y1, x2, y2 = (float(_checked(c, "box", "number")) for c in box)
                conf = float(_checked(p.get("confidence", 1.0), "confidence", "number"))
                proposals.append(Proposal(id=pid, box=BBox(x1, y1, x2, y2), detector_confidence=conf))
        if fixations is None:
            fixations = [
                (_checked(f["u"], "u", "integer"), _checked(f["v"], "v", "integer"),
                 _checked(f.get("observer_id", 0), "observer_id", "integer"))
                for f in _objects(doc.get("fixations", []), "fixations")
            ]
        map_path = doc.get("fixation_map_path")
        if map_path is not None:
            map_path = path.parent.joinpath(_checked(map_path, "fixation_map_path", "string"))
        fixation_map = parse_pgm(map_path) if load_map and map_path is not None else None
        return Scene(
            scene_id=_checked(doc["scene_id"], "scene_id", "string"),
            width=_checked(doc["width"], "width", "integer"),
            height=_checked(doc["height"], "height", "integer"),
            proposals=tuple(proposals),
            fixations=fixations,
            fixation_map=fixation_map,
        )
    except KeyError as e:
        raise RankflowError(f"{path}: {e.args[0]}: required field missing") from e
    except (TypeError, ValueError, OverflowError) as e:
        raise RankflowError(f"{path}: scene: {e}") from e
    except RankflowError as e:
        raise e.naming(path) from e


def write_scene(scene: Scene, path, fixation_map_path=None) -> None:
    """Write the scene as sorted-key JSON.  The fixation rows, most of the
    file, are formatted straight into that layout by one ``%``: the row
    template repeated once per row, filled from one flat tuple of
    ``(observer_id, u, v)`` cells.  The replaced '"fixations": []' can only
    be the key: inside a JSON string its middle quote would be escaped."""
    doc = {
        "scene_id": scene.scene_id,
        "width": scene.width,
        "height": scene.height,
        "proposals": [
            {"id": p.id, "is_dummy": True}
            if p.is_dummy
            else {
                "id": p.id,
                "box": [p.box.x1, p.box.y1, p.box.x2, p.box.y2],
                "confidence": p.detector_confidence,
            }
            for p in scene.proposals
        ],
        "fixations": [],
    }
    if fixation_map_path is not None:
        doc["fixation_map_path"] = str(fixation_map_path)
    cells = tuple(scene.fixations[:, [2, 0, 1]].ravel().tolist())
    rows = ", ".join([_FIXATION_JSON] * len(scene.fixations)) % cells
    text = json.dumps(doc, sort_keys=True)
    write_atomic(path, text.replace('"fixations": []', f'"fixations": [{rows}]', 1) + "\n")


# A binary PGM header: "P5", then width, height and maxval, each led by gaps
# (whitespace, or a "#" comment to the end of its line), the second and third
# after one whitespace byte too, then one optional whitespace byte.
_GAPS = rb"(?:\s|#[^\n]*(?![^\n]))*"
_PGM_HEADER = re.compile(rb"P5%s([^\s#]\S*)\s%s([^\s#]\S*)\s%s([^\s#]\S*)\s?" % (_GAPS, _GAPS, _GAPS))


def parse_pgm(path) -> np.ndarray:
    return pgm_from_bytes(read_bytes(path), name=str(path))


def pgm_from_bytes(data: bytes, name="<pgm>") -> np.ndarray:
    """The raster of a binary PGM as a read-only ``(height, width)`` uint8
    array: a view of ``data``, with no copy, whatever follows the raster."""
    if not data.startswith(b"P5"):
        raise RankflowError(f"{name}: not a binary PGM (P5)")
    header = _PGM_HEADER.match(data)
    if header is None:
        raise RankflowError(f"{name}: header ended early")
    try:
        width, height, maxval = (int(f) for f in header.groups())
    except ValueError as e:
        raise RankflowError(f"{name}: non-numeric header") from e
    if maxval != 255:
        raise RankflowError(f"{name}: maxval must be 255, got {maxval}")
    got = len(data) - header.end()
    if got < width * height:
        raise RankflowError(f"{name}: expected {width * height} raster bytes, got {got}")
    if width <= 0 or height <= 0:
        raise RankflowError(f"{name}: graymap: width and height must be positive")
    return np.frombuffer(data, np.uint8, width * height, header.end()).reshape(height, width)


def pgm_to_bytes(gmap: np.ndarray) -> bytes:
    height, width = gmap.shape
    return b"".join((b"P5\n%d %d\n255\n" % (width, height), np.ascontiguousarray(gmap)))


def write_pgm(gmap: np.ndarray, path) -> None:
    write_atomic(path, pgm_to_bytes(gmap))


def write_ranking(rankings, path) -> None:
    """Write (scene_id, Ranking) pairs as CSV sorted by (scene_id, proposal_id)."""
    rows = [(sid, pid, order) for sid, ranking in rankings for pid, order in ranking.labels.items()]
    write_csv(path, RANKING_HEADER, sorted(rows, key=lambda r: r[:2]))


def parse_ranking(path) -> dict[str, Ranking]:
    per_scene: dict[str, dict[int, int]] = {}
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    header = next(reader, None)
    if header != RANKING_HEADER:
        raise RankflowError(f"{path}: bad header {header}")
    for row in reader:
        try:
            scene_id, pid, order = row
            pid, order = int(pid), int(order)
        except ValueError as e:
            raise RankflowError(f"{path}: line {reader.line_num}: bad row {row}") from e
        labels = per_scene.setdefault(scene_id, {})
        if pid in labels:
            raise RankflowError(f"{path}: line {reader.line_num}: proposal {pid} of {scene_id!r} ranked again")
        labels[pid] = order
    rankings = {}
    for sid, labels in per_scene.items():
        try:
            rankings[sid] = Ranking(labels)
        except RankflowError as e:
            raise e.naming(f"{path}: scene {sid!r}") from e
    return rankings


def list_scene_files(directory) -> list[Path]:
    """Scene JSONs in a dataset directory, sorted for deterministic processing:
    every one in its ``scenes/``, or, with no ``scenes/``, every one beside
    the dataset's own ``manifest.json`` and ``provenance.json``."""
    directory = Path(directory)
    if not directory.is_dir():
        raise RankflowError(f"{directory}: no such directory")
    if (directory / "scenes").is_dir():
        return sorted((directory / "scenes").glob("*.json"))
    return sorted(p for p in directory.glob("*.json") if p.name not in ("manifest.json", "provenance.json"))
