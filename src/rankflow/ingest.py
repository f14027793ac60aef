"""Deterministic, bit-exact reading and writing of scenes, gray maps and rankings.

Formats:
  * scenes   -- UTF-8 JSON, one file per scene
  * gray maps -- binary PGM ("P5"), maxval 255
  * rankings -- CSV with header ``scene_id,proposal_id,order``, LF endings
"""
from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path

from .domain import BBox, GrayMap, Proposal, Ranking, Scene
from .errors import (
    InvariantViolation,
    IoFailure,
    MalformedJson,
    MissingFile,
    TruncatedData,
    UnsupportedFormat,
)

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
        raise IoFailure(f"cannot write {path}: {e.strerror or e}") from e


def read_bytes(path) -> bytes:
    """A file's bytes, the read-side twin of ``write_atomic``.  A path that is
    not a regular file raises MissingFile, a failed read IoFailure, each naming it."""
    path = Path(path)
    try:
        if path.is_file():
            return path.read_bytes()
    except OSError as e:
        raise IoFailure(f"cannot read {path}: {e.strerror or e}") from e
    raise MissingFile(str(path))


def read_text(path) -> str:
    """A file's UTF-8 text, line endings untouched.  Bytes that are not UTF-8
    raise UnsupportedFormat naming the file."""
    try:
        return read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as e:
        raise UnsupportedFormat(f"{path}: not UTF-8 text (byte {e.start})") from e


def parse_scene(path, load_map: bool = True) -> Scene:
    """Scene from a JSON file; ``load_map=False`` leaves its PGM map unread.
    Every error in the file's contents names the file."""
    path = Path(path)
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as e:
        raise MalformedJson(f"{path}: line {e.lineno}: {e.msg}") from e
    try:
        return scene_from_dict(doc, base_dir=path.parent, load_map=load_map)
    except InvariantViolation as e:
        raise InvariantViolation(f"{path}: {e.field}", e.reason) from e


def scene_from_dict(doc: dict, base_dir=None, load_map: bool = True) -> Scene:
    try:
        proposals = []
        for i, p in enumerate(doc["proposals"]):
            if not isinstance(p, dict):
                raise InvariantViolation("proposals", f"entry {i} is a {type(p).__name__}, not a JSON object")
            if p.get("is_dummy", False):
                proposals.append(Proposal(id=int(p["id"]), box=None, is_dummy=True))
            else:
                x1, y1, x2, y2 = p["box"]
                proposals.append(
                    Proposal(
                        id=int(p["id"]),
                        box=BBox(float(x1), float(y1), float(x2), float(y2)),
                        detector_confidence=float(p.get("confidence", 1.0)),
                    )
                )
        fixations = [
            (int(f["u"]), int(f["v"]), int(f.get("observer_id", 0)))
            for f in doc.get("fixations", [])
        ]
        fixation_map = None
        map_path = doc.get("fixation_map_path")
        if load_map and map_path is not None:
            resolved = Path(map_path)
            if base_dir is not None and not resolved.is_absolute():
                resolved = Path(base_dir) / resolved
            fixation_map = parse_pgm(resolved)
        return Scene(
            scene_id=str(doc["scene_id"]),
            width=int(doc["width"]),
            height=int(doc["height"]),
            proposals=tuple(proposals),
            fixations=fixations,
            fixation_map=fixation_map,
        )
    except KeyError as e:
        raise InvariantViolation(str(e.args[0]), "required field missing") from e
    except (TypeError, ValueError, OverflowError) as e:
        raise InvariantViolation("scene", str(e)) from e


def scene_to_dict(scene: Scene, fixation_map_path=None) -> dict:
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
        "fixations": [
            {"u": u, "v": v, "observer_id": o} for u, v, o in scene.fixations.tolist()
        ],
    }
    if fixation_map_path is not None:
        doc["fixation_map_path"] = str(fixation_map_path)
    return doc


def write_scene(scene: Scene, path, fixation_map_path=None) -> None:
    doc = scene_to_dict(scene, fixation_map_path=fixation_map_path)
    write_atomic(path, json.dumps(doc, sort_keys=True) + "\n")


def parse_pgm(path) -> GrayMap:
    return pgm_from_bytes(read_bytes(path), name=str(path))


def pgm_from_bytes(data: bytes, name="<pgm>") -> GrayMap:
    if not data.startswith(b"P5"):
        raise UnsupportedFormat(f"{name}: not a binary PGM (P5)")
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
            raise TruncatedData(f"{name}: header ended early")
        fields.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    try:
        width, height, maxval = (int(f) for f in fields)
    except ValueError as e:
        raise UnsupportedFormat(f"{name}: non-numeric header") from e
    if maxval != 255:
        raise UnsupportedFormat(f"{name}: maxval must be 255, got {maxval}")
    raster = data[pos : pos + width * height]
    if len(raster) < width * height:
        raise TruncatedData(f"{name}: expected {width * height} raster bytes, got {len(raster)}")
    return GrayMap(width=width, height=height, values=raster)


def pgm_to_bytes(gmap: GrayMap) -> bytes:
    return b"P5\n%d %d\n255\n" % (gmap.width, gmap.height) + gmap.values


def write_pgm(gmap: GrayMap, path) -> None:
    write_atomic(path, pgm_to_bytes(gmap))


def ranking_rows(rankings) -> list[tuple[str, int, int]]:
    rows = []
    for scene_id, ranking in rankings:
        for pid, order in ranking.labels.items():
            rows.append((scene_id, pid, order))
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows


def write_ranking(rankings, path) -> None:
    """Write (scene_id, Ranking) pairs as CSV sorted by (scene_id, proposal_id)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RANKING_HEADER)
    writer.writerows(ranking_rows(rankings))
    write_atomic(path, buf.getvalue())


def parse_ranking(path) -> dict[str, Ranking]:
    per_scene: dict[str, dict[int, int]] = {}
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    header = next(reader, None)
    if header != RANKING_HEADER:
        raise UnsupportedFormat(f"{path}: bad header {header}")
    for row in reader:
        try:
            scene_id, pid, order = row
            pid, order = int(pid), int(order)
        except ValueError as e:
            raise InvariantViolation(str(path), f"line {reader.line_num}: bad row {row}") from e
        labels = per_scene.setdefault(scene_id, {})
        if pid in labels:
            raise InvariantViolation(str(path), f"line {reader.line_num}: proposal {pid} of {scene_id!r} ranked again")
        labels[pid] = order
    return {sid: Ranking(labels) for sid, labels in per_scene.items()}


def list_scene_files(directory) -> list[Path]:
    """Scene JSONs in a dataset directory, sorted for deterministic processing:
    every one in its ``scenes/``, or, with no ``scenes/``, every one beside
    the dataset's own ``manifest.json`` and ``provenance.json``."""
    directory = Path(directory)
    if not directory.is_dir():
        raise MissingFile(str(directory))
    if (directory / "scenes").is_dir():
        return sorted((directory / "scenes").glob("*.json"))
    return sorted(p for p in directory.glob("*.json") if p.name not in ("manifest.json", "provenance.json"))
