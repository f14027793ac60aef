"""Metamorphic relations of the whole CLI flow: edits to the raw scenes that
must not change what the stages write.

One 12-scene dataset of small images with maps runs through every stage
once; each relation edits a copy of its raw scenes, runs the stages again
and compares their outputs with the first run's.
"""
import json
import random
import shutil

import pytest

from rankflow.cli import dispatch
from rankflow.ingest import parse_ranking

SUBSET = ("scene_00002", "scene_00005", "scene_00006", "scene_00011")


def run(*argv):
    assert dispatch([*argv, "--jobs", "1"]) == 0


def stages(raw, out, model=None):
    """Run every stage after synth on ``raw`` into ``out``; ``rank`` uses
    ``model``, else the model this run trains."""
    out.mkdir()
    run("preprocess", "--in", str(raw), "--out", str(out / "pre"))
    run("gt-gen", "--in", str(raw), "--out", str(out / "gt.csv"))
    run("gt-discrepancy", "--in", str(raw), "--out", str(out / "disc.csv"))
    run("map-rank", "--in", str(raw), "--out", str(out / "map.csv"))
    if model is None:
        model = out / "model.bin"
        run("train", "--in", str(out / "pre"), "--gt", str(out / "gt.csv"), "--epochs", "2", "--out", str(model))
    run("rank", "--in", str(out / "pre"), "--model", str(model), "--out", str(out / "pred.csv"))
    return out


def outputs(out) -> dict:
    """Every CSV, ``.feat`` and model file under ``out``, by relative path."""
    paths = [*out.glob("*.csv"), *out.glob("model.bin"), *(out / "pre" / "features").glob("*.feat")]
    return {str(p.relative_to(out)): p.read_bytes() for p in paths}


def edited_copy(raw, dest, edit, keep=lambda path: True):
    """``raw``'s maps and the scene files ``keep`` admits, each scene
    document passed through ``edit``."""
    shutil.copytree(raw / "maps", dest / "maps")
    (dest / "scenes").mkdir()
    for path in sorted((raw / "scenes").glob("*.json")):
        if keep(path):
            doc = edit(json.loads(path.read_text()))
            (dest / "scenes" / path.name).write_text(json.dumps(doc))
    return dest


@pytest.fixture(scope="module")
def flow(tmp_path_factory):
    root = tmp_path_factory.mktemp("relations")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({"synth": {"width": 96, "height": 72}}))
    run("synth", "--config", str(cfg), "--seed", "21", "--scenes", "12", "--objects", "5:9",
        "--fixations", "150", "--out", str(root / "raw"))
    base = stages(root / "raw", root / "base")
    assert len(outputs(base)) == 4 + 1 + 12  # four CSVs, the model, a .feat per scene
    return root, base


def test_fixation_order_changes_nothing(flow, tmp_path):
    """Shuffling each scene's fixations leaves every CSV, ``.feat`` and model
    byte-identical."""
    root, base = flow
    rng = random.Random(2026)

    def shuffle(doc):
        rng.shuffle(doc["fixations"])
        return doc

    out = stages(edited_copy(root / "raw", tmp_path / "raw", shuffle), tmp_path / "out")
    assert outputs(out) == outputs(base)


def test_monotone_id_relabel_maps_back(flow, tmp_path):
    """Relabelling proposal ids by id -> 3 id + 100 keeps the order of ids,
    so every ``.feat``, the model and the discrepancy CSV stay byte-identical
    and every ranking is the same once its ids are mapped back.  Dummies are
    numbered down from the smallest id: -k before, 100 - k after."""
    root, base = flow

    def relabel(doc):
        for p in doc["proposals"]:
            p["id"] = 3 * p["id"] + 100
        return doc

    def back(rankings):
        return {sid: {(i - 100) // 3 if i >= 100 else i - 100: order for i, order in r.labels.items()}
                for sid, r in rankings.items()}

    out = stages(edited_copy(root / "raw", tmp_path / "raw", relabel), tmp_path / "out")
    got, want = outputs(out), outputs(base)
    for name in ("gt.csv", "map.csv", "pred.csv"):
        assert back(parse_ranking(out / name)) == {sid: r.labels for sid, r in parse_ranking(base / name).items()}
        assert got.pop(name) != want.pop(name)  # the ids really changed
    assert got == want


def test_scene_subset_gives_the_same_rows(flow, tmp_path):
    """A stage's rows for a scene do not depend on the other scenes: run on
    4 of the 12 scenes, with the first run's model, preprocess writes the
    same scene and ``.feat`` files and gt-gen, rank and map-rank the same rows."""
    root, base = flow
    raw = edited_copy(root / "raw", tmp_path / "raw", lambda doc: doc, keep=lambda path: path.stem in SUBSET)
    out = stages(raw, tmp_path / "out", model=base / "model.bin")
    for sub in ("scenes", "features"):
        files = sorted((out / "pre" / sub).iterdir())
        assert [p.stem for p in files] == list(SUBSET)
        for path in files:
            assert path.read_bytes() == (base / "pre" / sub / path.name).read_bytes()
    for name in ("gt.csv", "map.csv", "pred.csv"):
        header, *rows = (base / name).read_text().splitlines(keepends=True)
        assert (out / name).read_text() == header + "".join(r for r in rows if r.startswith(SUBSET))
