"""Property over the whole command line: whatever argv, ``--config`` JSON and
``RANKFLOW_JOBS`` a subcommand gets, ``cli.dispatch`` returns 0, 1 or 2 and
raises nothing.  A failed run writes no file, and no run leaves a staging
directory or a temp file behind.

Every input is a small file of one tiny dataset built once for the module.
Worker counts are 1, 2 or values that the CLI rejects, and sizes are small
numbers, so no example starts many processes or renders a large map."""
import dataclasses
import json
import math
import shutil

import pytest
from hypothesis import event, given, settings, strategies as st

from rankflow.cli import _SECTIONS, _section_class, dispatch
from rankflow.scorer import init_model, save_model

# Flag values as argv carries them: mostly edge values of the right type, so
# that most runs get past argparse, and some junk.
JOBS = st.sampled_from(["1", "2", "1", "2", "0", "-1", "1.5", "x"])
COUNTS = st.sampled_from(["0", "1", "2", "3", "-1", "1", "2", "2.5", "x"])
REALS = st.sampled_from(["0", "0.25", "0.5", "0.7", "1", "-1", "128", "255", "nan", "inf", "-inf", "1e-300", "x"])
GAMMAS = st.sampled_from(["0.1:1.0:0.1", "0.5:0.5:1", "1:0.1:0.1", "0.1:1:0", "0.1:1:1e-9", "nan:1:1", "1:2", "x"])
OBJECTS = st.sampled_from(["5:6", "1:1", "6:5", "0:2", "5", "1:2:3", "a:b", ""])
METHOD = st.sampled_from(["rasrgt", "fixpoints", "mapmax", "mapavg", "binmap", "zzz"])

# Names of the module dataset's paths: half the time one a flag wants,
# else any of them, of the wrong kind or missing.  "mixed" holds the raw
# scenes and, last, a broken one, so a stage fails after its first scenes.
PATHS = ["raw", "pre", "mixed", "maps", "empty", "missing", "gt.csv", "pred.csv", "model.bin", "scene.json", "pgm"]


def _path(*right):
    return st.sampled_from([*right] * (len(PATHS) // len(right)) + PATHS)


# Each subcommand's path flags (always given) and its other flags (each given or not).
COMMANDS = {
    "synth": ({}, {"--seed": COUNTS, "--objects": OBJECTS, "--no-maps": st.none()}),
    "preprocess": (
        {"--in": _path("raw", "mixed")},
        {"--iou": REALS, "--max-area": REALS, "--min-area": REALS},
    ),
    "gt-gen": (
        {"--in": _path("raw", "mixed")},
        {"--method": METHOD, "--gamma": REALS, "--beta": REALS, "--binary-threshold": REALS},
    ),
    "gt-discrepancy": ({"--in": _path("raw", "mixed")}, {"--gammas": GAMMAS, "--beta": REALS}),
    "train": (
        {"--in": _path("pre"), "--gt": _path("gt.csv")},
        {"--epochs": COUNTS, "--seed": COUNTS, "--alpha": REALS, "--lr": REALS, "--window": COUNTS},
    ),
    "rank": ({"--in": _path("pre"), "--model": _path("model.bin")}, {}),
    "map-rank": ({"--in": _path("raw", "mixed")}, {"--maps": _path("maps"), "--lambda": REALS}),
    "eval": ({"--pred": _path("pred.csv"), "--gt": _path("gt.csv")}, {}),
}

# Run-config values: small numbers, so a config can never ask for a large
# dataset, and every other JSON kind.
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.floats(-2, 10),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e-300, "rasrgt", "binmap"]), st.text(max_size=3),
)
JSON_VALUES = JSON_SCALARS | st.lists(JSON_SCALARS, max_size=2) | st.just({})
SECTIONS = st.fixed_dictionaries(
    {},
    optional={
        name: st.dictionaries(
            st.sampled_from([*(f.name for f in dataclasses.fields(_section_class(name))), "bogus"]), JSON_VALUES,
            max_size=4,
        )
        | JSON_SCALARS
        for name in _SECTIONS
    },
)
TOP_LEVEL = st.fixed_dictionaries(
    {},
    optional={
        "jobs": st.sampled_from([1, 2, 0, -1, 1.5, "2", None, True]),
        "window_size": JSON_VALUES,
        "lam": JSON_VALUES,
        "bogus": JSON_VALUES,
    },
)
CONFIGS = st.none() | st.builds(lambda a, b: json.dumps({**a, **b}), SECTIONS, TOP_LEVEL) | st.sampled_from(
    ["{", "[]", "null", "7", '{"synth": []}', "\ufeff{}"]
)


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    paths, options = COMMANDS[command]
    argv = [command]
    for flag, names in paths.items():
        argv += [flag, draw(names)]
    for flag, value in draw(st.fixed_dictionaries({}, optional=options)).items():
        argv += [flag] if value is None else [flag, value]
    if command == "synth":  # always a handful of small scenes
        argv += ["--scenes", draw(st.sampled_from(["1", "2", "0", "x"])), "--fixations", draw(COUNTS)]
    if draw(st.booleans()):
        argv += ["--jobs", draw(JOBS)]
    argv += draw(st.sampled_from([[]] * 8 + [["--bogus"], ["--out"], ["-"]]))
    return argv


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """A tiny dataset with maps, its preprocessed twin, a GT and a predicted
    ranking, a model, the dataset with a broken scene added, and an empty
    directory."""
    root = tmp_path_factory.mktemp("fuzz-data")
    raw, pre = str(root / "raw"), str(root / "pre")
    synth = ["--seed", "4", "--scenes", "2", "--objects", "5:6", "--fixations", "60", "--jobs", "1"]
    assert dispatch(["synth", *synth, "--out", raw]) == 0
    assert dispatch(["preprocess", "--in", raw, "--out", pre, "--jobs", "1"]) == 0
    assert dispatch(["gt-gen", "--in", raw, "--out", str(root / "gt.csv"), "--jobs", "1"]) == 0
    save_model(init_model(), root / "model.bin")
    rank = ["rank", "--in", pre, "--model", str(root / "model.bin"), "--jobs", "1"]
    assert dispatch([*rank, "--out", str(root / "pred.csv")]) == 0
    shutil.copytree(root / "raw", root / "mixed")
    (root / "mixed" / "scenes" / "scene_00002.json").write_text('{"scene_id": "scene_00002"}')
    (root / "empty").mkdir()
    names = ("raw", "pre", "mixed", "gt.csv", "pred.csv", "model.bin", "empty", "missing")
    paths = {name: root / name for name in names}
    paths.update(maps=root / "raw" / "maps", pgm=root / "raw" / "maps" / "scene_00000.pgm")
    paths["scene.json"] = root / "raw" / "scenes" / "scene_00000.json"
    return root, paths


def _leftovers(root) -> list:
    return sorted(str(p) for p in (*root.rglob(".staging-*"), *root.rglob("*.tmp")))


@settings(max_examples=150, deadline=None)
@given(argv=command_lines(), config=CONFIGS, env_jobs=JOBS)
def test_any_command_line_exits_cleanly(data, tmp_path_factory, argv, config, env_jobs):
    root, paths = data
    case = tmp_path_factory.mktemp("case")
    out_dir = case / "out"
    out_dir.mkdir()
    argv = [str(paths.get(a, a)) for a in argv] + ["--out", str(out_dir / "result")]
    if config is not None:
        (case / "run.json").write_text(config, encoding="utf-8")
        argv += ["--config", str(case / "run.json")]
    with pytest.MonkeyPatch.context() as env:
        env.setenv("RANKFLOW_JOBS", env_jobs)
        code = dispatch(argv)
    event(f"{argv[0]} exits {code}")
    assert code in (0, 1, 2)
    if code != 0:
        assert [p for p in out_dir.rglob("*") if not p.is_dir()] == []
    assert _leftovers(case) == [] and _leftovers(root) == []
