import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import rankflow
from conftest import tree
from rankflow import cli, gtgen, pipeline, scorer
from rankflow.cli import _MAX_GAMMAS, _SECTIONS, _common, _section_cfg, _section_class, build_parser, dispatch, gamma_grid
from rankflow.errors import GenerationFailure, RankflowError
from rankflow.gtgen import METHODS
from rankflow.ingest import config_hash, parse_ranking
from rankflow.preprocess import FEATURE_DIM, FilterConfig
from rankflow.rankcore import acb_sequences, window_inputs
from rankflow.scorer import init_model, load_model, save_model, window_gt_labels


def run(*argv):
    return dispatch(list(argv))


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """One small synthetic dataset shared by the pipeline-stage tests."""
    root = tmp_path_factory.mktemp("cli")
    raw = root / "raw"
    assert run(
        "synth",
        "--seed", "3",
        "--scenes", "4",
        "--objects", "5:7",
        "--fixations", "150",
        "--out", str(raw),
    ) == 0
    pre = root / "pre"
    assert run("preprocess", "--in", str(raw), "--out", str(pre)) == 0
    return root


class TestUsageErrors:
    def test_no_command(self):
        assert run() == 1

    def test_unknown_command(self):
        assert run("frobnicate") == 1

    def test_help_describes_the_tool_not_its_code(self, capsys):
        """``--help`` shows the one-line description; the module docstring
        is for maintainers."""
        assert run("--help") == 0
        out = capsys.readouterr().out
        assert build_parser().description in " ".join(out.split())
        assert "_cmd_" not in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["synth"],
            ["preprocess", "--in", "raw"],
            ["gt-gen", "--in", "raw"],
            ["gt-discrepancy", "--in", "raw"],
            ["train", "--in", "pre", "--gt", "gt.csv"],
            ["rank", "--in", "pre", "--model", "m.bin"],
            ["map-rank", "--in", "raw"],
            ["eval", "--pred", "p.csv", "--gt", "gt.csv"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_missing_required_flag(self, capsys, argv):
        assert run(*argv) == 1
        assert "the following arguments are required: --out" in capsys.readouterr().err

    def test_missing_input_dir(self, tmp_path, capsys):
        assert run("preprocess", "--in", str(tmp_path / "nope"), "--out", str(tmp_path / "o")) == 2
        assert f"{tmp_path / 'nope'}: no such directory" in capsys.readouterr().err

    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert run("synth", "--config", str(cfg), "--out", str(tmp_path / "d")) == 2

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run("synth", "--config", str(cfg), "--out", str(tmp_path / "d")) == 2

    @pytest.mark.parametrize("where", ["scene", "config"])
    def test_deeply_nested_json(self, dataset, tmp_path, capsys, where):
        bad = tmp_path / "raw" / "deep.json"
        bad.parent.mkdir()
        bad.write_text("[" * 200000)
        out = tmp_path / "gt.csv"
        if where == "scene":
            argv = ["gt-gen", "--in", str(bad.parent), "--out", str(out), "--jobs", "1"]
        else:
            argv = ["gt-gen", "--config", str(bad), "--in", str(dataset / "raw"), "--out", str(out), "--jobs", "1"]
        assert run(*argv) == 2
        assert f"{bad}: JSON nested too deeply to parse" in capsys.readouterr().err
        assert not out.exists()

    def test_objects_without_colon(self, tmp_path, capsys):
        assert run("synth", "--objects", "5", "--out", str(tmp_path / "d")) == 2
        assert "--objects" in capsys.readouterr().err

    def test_object_count_is_bounded(self, tmp_path, capsys):
        # Checked by value only: no scene is generated.
        out = tmp_path / "d"
        assert run("synth", "--objects", "5:33", "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: --objects 5:33: objects_max must be at most 32, got 33\n"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"synth": {"objects_min": 40, "objects_max": 40}}))
        assert run("synth", "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {cfg}: synth: objects_max must be at most 32, got 40\n"
        assert not out.exists()

    def test_non_integer_jobs_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RANKFLOW_JOBS", "abc")
        assert run("synth", "--scenes", "1", "--out", str(tmp_path / "d")) == 2
        assert "RANKFLOW_JOBS" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one(self, tmp_path, monkeypatch, capsys, jobs):
        assert run("synth", "--scenes", "1", "--jobs", jobs, "--out", str(tmp_path / "d")) == 2
        assert f"--jobs must be an integer >= 1, got {jobs}" in capsys.readouterr().err
        monkeypatch.setenv("RANKFLOW_JOBS", jobs)
        assert run("synth", "--scenes", "1", "--out", str(tmp_path / "d")) == 2
        assert f"RANKFLOW_JOBS must be an integer >= 1, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("sigma", [1e9, 1e308])
    def test_splat_sigma_above_bound(self, tmp_path, capsys, sigma):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"splat_sigma": sigma, "width": 16, "height": 16}}))
        assert run("synth", "--config", str(cfg), "--scenes", "1", "--jobs", "1", "--out", str(tmp_path / "d")) == 2
        assert f"splat_sigma must be a finite number in (0, 1000], got {sigma!r}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize(
        "field, value, bound",
        [("width", 4097, 4096), ("height", 10**9, 4096), ("fixations_per_scene", 1_000_001, 10**6)],
    )
    def test_synth_size_above_bound(self, tmp_path, capsys, field, value, bound):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {field: value}}))
        assert run("synth", "--config", str(cfg), "--scenes", "1", "--jobs", "1", "--out", str(tmp_path / "d")) == 2
        assert f"error: {cfg}: synth: {field} must be at most {bound}, got {value}\n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_jobs_above_bound(self, tmp_path, monkeypatch, capsys):
        """Rejected before any worker starts, whichever source gives the count."""
        out = tmp_path / "d"
        assert run("synth", "--scenes", "1", "--jobs", "257", "--out", str(out)) == 2
        assert "--jobs must be at most 256, got 257" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": 5000}))
        assert run("synth", "--scenes", "1", "--config", str(cfg), "--out", str(out)) == 2
        assert f"{cfg}: jobs must be at most 256, got 5000" in capsys.readouterr().err
        monkeypatch.setenv("RANKFLOW_JOBS", "257")
        assert run("synth", "--scenes", "1", "--out", str(out)) == 2
        assert "RANKFLOW_JOBS must be at most 256, got 257" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_default_jobs_stop_at_the_bound(self, monkeypatch):
        args = build_parser().parse_args(["eval", "--pred", "p", "--gt", "g", "--out", "o"])
        monkeypatch.delenv("RANKFLOW_JOBS", raising=False)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1000)
        assert _common(args) == ({}, 256)

    def test_jobs_default_to_usable_cpus(self, monkeypatch):
        args = build_parser().parse_args(["eval", "--pred", "p", "--gt", "g", "--out", "o"])
        monkeypatch.delenv("RANKFLOW_JOBS", raising=False)
        assert _common(args) == ({}, len(os.sched_getaffinity(0)))
        monkeypatch.setenv("RANKFLOW_JOBS", "3")
        assert _common(args) == ({}, 3)

    @pytest.mark.parametrize(
        "doc",
        [{"synth": {"n_scenes": -3}}, {"synth": {"n_scenes": "x"}}, {"synth": {"splat_sigma": 0}},
         {"synth": {"render_maps": 1}}, {"gt": {"method": "zzz"}}, {"gt": {"beta": float("nan")}},
         {"gt": {"gamma": "x"}}, {"gt": {"binary_threshold": 300}}],
    )
    def test_bad_synth_and_gt_config(self, dataset, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        section, fields = next(iter(doc.items()))
        if section == "synth":
            argv = ["synth", "--config", str(cfg), "--out", str(tmp_path / "d")]
        else:
            argv = ["gt-gen", "--config", str(cfg), "--in", str(dataset / "raw"), "--out", str(tmp_path / "gt.csv")]
        assert run(*argv) == 2
        assert f"{next(iter(fields))} must be" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_min_count_is_gone(self, dataset, tmp_path, capsys):
        pre = tmp_path / "pre"
        assert run("preprocess", "--in", str(dataset / "raw"), "--out", str(pre), "--min-count", "6") == 1
        assert "unrecognized arguments: --min-count 6" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"filter": {"min_count": 6}}))
        assert run("preprocess", "--config", str(cfg), "--in", str(dataset / "raw"), "--out", str(pre)) == 2
        assert capsys.readouterr().err == "error: unknown keys in config section 'filter': ['min_count']\n"
        assert not pre.exists()

    @pytest.mark.parametrize(
        "fields",
        [{"iou_discard": "x"}, {"iou_discard": 0}, {"iou_discard": 1.5}, {"min_area_px": True},
         {"min_area_px": float("nan")}, {"max_area_frac": -1}, {"max_area_frac": 0}],
    )
    def test_bad_filter_config(self, dataset, tmp_path, capsys, fields):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"filter": fields}))
        argv = ["preprocess", "--config", str(cfg), "--in", str(dataset / "raw"), "--out", str(tmp_path / "p")]
        assert run(*argv) == 2
        assert f"error: {cfg}: filter: {next(iter(fields))} must be" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_model_shorter_than_header(self, dataset, tmp_path, capsys):
        model = tmp_path / "short.bin"
        model.write_bytes(b"RFM1\x05\x00")
        assert run("rank", "--in", str(dataset / "pre"), "--model", str(model), "--out", str(tmp_path / "p.csv")) == 2
        assert "short.bin" in capsys.readouterr().err

    def test_zero_gamma_step(self, dataset, tmp_path, capsys):
        argv = ["gt-discrepancy", "--gammas", "0.1:0.5:0", "--in", str(dataset / "raw"), "--out", str(tmp_path / "d.csv")]
        assert run(*argv) == 2
        assert "--gammas" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [{"jobs": "two"}, {"jobs": 0}, {"window_size": "five"}, {"window_size": True}])
    def test_bad_config_scalar(self, dataset, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv = ["preprocess", "--config", str(cfg), "--in", str(dataset / "raw"), "--out", str(tmp_path / "p")]
        assert run(*argv) == 2
        assert next(iter(doc)) in capsys.readouterr().err

    def test_negative_train_window(self, dataset, tmp_path, capsys):
        argv = ["train", "--in", str(dataset / "pre"), "--gt", str(dataset / "raw" / "gt.csv"),
                "--out", str(tmp_path / "m.bin"), "--window", "-1"]
        assert run(*argv) == 2
        assert "error: --window must be an integer >= 1, got -1\n" in capsys.readouterr().err  # names no scene

    def test_train_window_above_bound(self, dataset, tmp_path, capsys):
        """Rejected naming its source, the flag or the config path and key."""
        argv = ["train", "--in", str(dataset / "pre"), "--gt", str(dataset / "raw" / "gt.csv"),
                "--out", str(tmp_path / "m.bin")]
        assert run(*argv, "--window", "9") == 2
        assert "error: --window must be at most 7, got 9\n" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"window_size": 9}))
        assert run(*argv, "--config", str(cfg)) == 2
        assert f"error: {cfg}: window_size must be at most 7, got 9\n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_rank_takes_no_window_flag(self, dataset, tmp_path):
        argv = ["rank", "--in", str(dataset / "pre"), "--model", str(tmp_path / "m.bin"),
                "--out", str(tmp_path / "p.csv"), "--window", "5"]
        assert run(*argv) == 1

    def test_bad_ranking_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("scene_id,proposal_id,order\nscene_00000,x,1\n")
        assert run("eval", "--pred", str(bad), "--gt", str(bad), "--out", str(tmp_path / "r.json")) == 2
        assert "bad.csv: line 2" in capsys.readouterr().err

    def test_repeated_ranking_row(self, tmp_path, capsys):
        gt, pred = tmp_path / "gt.csv", tmp_path / "pred.csv"
        gt.write_text("scene_id,proposal_id,order\ns,1,1\ns,2,2\n")
        pred.write_text("scene_id,proposal_id,order\ns,1,1\ns,2,2\ns,1,2\n")
        assert run("eval", "--pred", str(pred), "--gt", str(gt), "--out", str(tmp_path / "r.json")) == 2
        assert "pred.csv: line 4: proposal 1 of 's' ranked again" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "rows, reason",
        [
            ("s1,0,1\ns1,1,1\n", "non-zero orders must be a permutation of 1..k, got [1, 1]"),
            ("s0,0,1\ns1,0,-1\n", "orders must be non-negative"),
        ],
        ids=["repeated-order", "negative-order"],
    )
    def test_bad_ranking_orders(self, tmp_path, capsys, rows, reason):
        bad = tmp_path / "bad.csv"
        bad.write_text("scene_id,proposal_id,order\n" + rows)
        assert run("eval", "--pred", str(bad), "--gt", str(bad), "--out", str(tmp_path / "r.json")) == 2
        assert capsys.readouterr().err == f"error: {bad}: scene 's1': ranking: {reason}\n"

    def test_eval_proposal_ids_differ(self, tmp_path, capsys):
        gt, pred = tmp_path / "gt.csv", tmp_path / "pred.csv"
        gt.write_text("scene_id,proposal_id,order\na,1,1\nb,1,1\nb,2,0\n")
        pred.write_text("scene_id,proposal_id,order\na,1,1\nb,1,1\nb,3,0\n")
        assert run("eval", "--pred", str(pred), "--gt", str(gt), "--out", str(tmp_path / "r.json")) == 2
        want = f"error: {pred} and {gt}: scene 'b': pred and gt cover different proposal ids\n"
        assert capsys.readouterr().err == want
        assert not (tmp_path / "r.json").exists()

    def test_eval_scene_ids_differ(self, tmp_path, capsys):
        gt, pred = tmp_path / "gt.csv", tmp_path / "pred.csv"
        gt.write_text("scene_id,proposal_id,order\na,1,1\nb,1,1\n")
        pred.write_text("scene_id,proposal_id,order\na,1,1\nc,1,1\n")
        assert run("eval", "--pred", str(pred), "--gt", str(gt), "--out", str(tmp_path / "r.json")) == 2
        assert capsys.readouterr().err == f"error: {pred} and {gt}: scene id sets differ: ['b', 'c']\n"

    def test_output_in_missing_directory(self, dataset, tmp_path, capsys):
        disc = ["gt-discrepancy", "--in", str(dataset / "raw"), "--out", str(tmp_path / "nodir" / "d.csv")]
        assert run(*disc) == 2
        assert "nodir" in capsys.readouterr().err
        gt = str(dataset / "raw" / "gt.csv")
        assert run("eval", "--pred", gt, "--gt", gt, "--out", str(tmp_path / "nodir" / "r.json")) == 2
        assert "nodir" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("body", [b'{"jobs": \xff}', b"[\"jobs\"]", b'{"synth": 5}'])
    def test_config_not_utf8_or_not_an_object(self, dataset, tmp_path, capsys, body):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(body)
        argv = ["preprocess", "--config", str(cfg), "--in", str(dataset / "raw"), "--out", str(tmp_path / "p")]
        assert run(*argv) == 2
        assert "cfg.json" in capsys.readouterr().err

    def test_scene_not_utf8(self, dataset, tmp_path, capsys):
        raw = tmp_path / "raw"
        shutil.copytree(dataset / "raw", raw)
        scene = raw / "scenes" / "scene_00001.json"
        scene.write_bytes(scene.read_bytes().replace(b'"scene_00001"', b'"scene_\xff"'))
        assert run("gt-gen", "--in", str(raw), "--out", str(tmp_path / "gt.csv")) == 2
        assert "scene_00001.json" in capsys.readouterr().err

    def test_ranking_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"scene_id,proposal_id,order\n\xff\xfe,1,1\n")
        assert run("eval", "--pred", str(bad), "--gt", str(bad), "--out", str(tmp_path / "r.json")) == 2
        assert "bad.csv" in capsys.readouterr().err

    def test_preprocess_out_under_a_file(self, dataset, tmp_path, capsys):
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "pre"
        assert run("preprocess", "--in", str(dataset / "raw"), "--out", str(out)) == 2
        assert str(out) in capsys.readouterr().err

    def test_synth_out_under_a_file(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "x"
        assert run("synth", "--scenes", "1", "--out", str(out)) == 2
        assert f"cannot create {out}: Not a directory" in capsys.readouterr().err

    def test_model_with_trailing_bytes(self, dataset, tmp_path, capsys):
        model = tmp_path / "long.bin"
        save_model(init_model(), model)
        size = model.stat().st_size
        model.write_bytes(model.read_bytes() + b"\0\0")
        assert run("rank", "--in", str(dataset / "pre"), "--model", str(model), "--out", str(tmp_path / "p.csv")) == 2
        err = capsys.readouterr().err
        assert "long.bin" in err and f"expected {size} bytes, got {size + 2}" in err

    def test_features_with_trailing_bytes(self, dataset, tmp_path, capsys):
        pre = tmp_path / "pre"
        shutil.copytree(dataset / "pre", pre)
        feat = pre / "features" / "scene_00002.feat"
        size = feat.stat().st_size
        feat.write_bytes(feat.read_bytes() + b"\0\0")
        model = tmp_path / "m.bin"
        save_model(init_model(), model)
        assert run("rank", "--in", str(pre), "--model", str(model), "--out", str(tmp_path / "p.csv")) == 2
        err = capsys.readouterr().err
        assert "scene_00002.feat" in err and f"expected {size} bytes, got {size + 2}" in err

    @pytest.mark.parametrize("stage", ["train", "rank"])
    def test_non_finite_feature(self, dataset, tmp_path, capsys, stage):
        pre = tmp_path / "pre"
        shutil.copytree(dataset / "pre", pre)
        feat = pre / "features" / "scene_00001.feat"
        data = bytearray(feat.read_bytes())
        at = 4 + (2 * FEATURE_DIM + 3) * 8  # row 2, column 3
        data[at : at + 8] = np.array([np.nan], "<f8").tobytes()
        feat.write_bytes(bytes(data))
        out = tmp_path / ("m.bin" if stage == "train" else "p.csv")
        if stage == "train":
            argv = ["train", "--in", str(pre), "--gt", str(dataset / "raw" / "gt.csv"), "--out", str(out)]
        else:
            save_model(init_model(), tmp_path / "ok.bin")
            argv = ["rank", "--in", str(pre), "--model", str(tmp_path / "ok.bin"), "--out", str(out)]
        assert run(*argv) == 2
        assert f"{feat}: row 2: features must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_model_with_non_finite_parameter(self, dataset, tmp_path, capsys):
        model = tmp_path / "nan.bin"
        save_model(init_model(), model)
        data = bytearray(model.read_bytes())
        data[-8:] = np.array([np.inf], "<f8").tobytes()
        model.write_bytes(bytes(data))
        assert run("rank", "--in", str(dataset / "pre"), "--model", str(model), "--out", str(tmp_path / "p.csv")) == 2
        assert f"{model}: model parameters must be finite" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize(
        "fields",
        [{"lr_decay_every": 0}, {"epochs": "x"}, {"weight_decay": "x"}, {"margin": "x"},
         {"epochs": -1}, {"epochs": True}, {"momentum": 1.0}, {"seed": -1}],
    )
    def test_bad_train_config(self, dataset, tmp_path, capsys, fields):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": fields}))
        argv = ["train", "--config", str(cfg), "--in", str(dataset / "pre"),
                "--gt", str(dataset / "raw" / "gt.csv"), "--out", str(tmp_path / "m.bin")]
        assert run(*argv) == 2
        assert next(iter(fields)) in capsys.readouterr().err
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
    def test_bad_train_lr_flag(self, dataset, tmp_path, capsys, value):
        argv = ["train", "--in", str(dataset / "pre"), "--gt", str(dataset / "raw" / "gt.csv"),
                "--out", str(tmp_path / "m.bin"), f"--lr={value}"]
        assert run(*argv) == 2
        assert "lr must be" in capsys.readouterr().err

    def test_model_with_negative_dimension(self, dataset, tmp_path, capsys):
        # 198 float64 values: the sizes of (-1, 32, 6) summed as if they were valid
        model = tmp_path / "neg.bin"
        model.write_bytes(b"RFM1" + np.array([-1, 32, 6], "<i4").tobytes() + bytes(1584))
        assert run("rank", "--in", str(dataset / "pre"), "--model", str(model), "--out", str(tmp_path / "p.csv")) == 2
        err = capsys.readouterr().err
        assert "neg.bin" in err and "dimensions must be >= 1" in err

    @pytest.mark.parametrize(
        "dims", [(17, 32, 6), (18, 32, 9), (18, 32, 1)], ids=["17-inputs", "window-8", "window-0"]
    )
    def test_model_of_unusable_dims(self, dataset, tmp_path, capsys, dims):
        model = tmp_path / "dims.bin"
        save_model(init_model(*dims), model)
        assert run("rank", "--in", str(dataset / "pre"), "--model", str(model), "--out", str(tmp_path / "p.csv")) == 2
        err = capsys.readouterr().err
        assert f"{model}: a model of 18 inputs and 2..8 classes is needed, got dims {dims}" in err
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize(
        "pgm, expected",
        [(b"P5\n0 480\n255\n", "graymap: width and height must be positive"),
         (b"P5\n64 48\n255\n" + bytes(64 * 48), "map 64x48 vs scene 640x480")],
        ids=["zero-width", "other-size"],
    )
    def test_bad_map_rank_map_names_its_file(self, dataset, tmp_path, capsys, pgm, expected):
        maps = tmp_path / "maps"
        shutil.copytree(dataset / "raw" / "maps", maps)
        (maps / "scene_00002.pgm").write_bytes(pgm)
        argv = ["map-rank", "--in", str(dataset / "raw"), "--maps", str(maps), "--out", str(tmp_path / "p.csv")]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert f"{maps / 'scene_00002.pgm'}: " in err and expected in err
        assert not (tmp_path / "p.csv").exists()

    def test_map_rank_map_missing(self, dataset, tmp_path, capsys):
        maps = tmp_path / "maps"
        shutil.copytree(dataset / "raw" / "maps", maps)
        (maps / "scene_00002.pgm").unlink()
        argv = ["map-rank", "--in", str(dataset / "raw"), "--maps", str(maps), "--out", str(tmp_path / "p.csv")]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert f"{dataset / 'raw' / 'scenes' / 'scene_00002.json'}: {maps / 'scene_00002.pgm'}: no such file" in err
        assert not (tmp_path / "p.csv").exists()

    def test_gt_gen_map_deleted(self, dataset, tmp_path, capsys):
        raw = tmp_path / "raw"
        shutil.copytree(dataset / "raw", raw)
        (raw / "maps" / "scene_00001.pgm").unlink()
        assert run("gt-gen", "--method", "mapmax", "--in", str(raw), "--out", str(tmp_path / "m.csv")) == 2
        err = capsys.readouterr().err
        assert f"{raw / 'scenes' / 'scene_00001.json'}: " in err and "maps/scene_00001.pgm: no such file" in err
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("flag", ["2", "nan", "0"])
    def test_bad_lambda_flag(self, tmp_path, capsys, flag):
        argv = ["map-rank", "--in", str(tmp_path), f"--lambda={flag}", "--out", str(tmp_path / "p.csv")]
        assert run(*argv) == 2
        assert "--lambda must be a finite number in (0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("lam", ["x", 2, True, None])
    def test_bad_lambda_config(self, tmp_path, capsys, lam):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lam": lam}))
        assert run("map-rank", "--config", str(cfg), "--in", str(tmp_path), "--out", str(tmp_path / "p.csv")) == 2
        assert "cfg.json: lam must be a finite number in (0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "stage, flags, doc, env, message",
        [
            # a flag
            ("train", ["--window", "9"], None, None, "--window must be at most 7, got 9"),
            ("map-rank", ["--lambda", "2"], None, None, "--lambda must be a finite number in (0, 1], got 2.0"),
            ("synth", ["--jobs", "0"], None, None, "--jobs must be an integer >= 1, got 0"),
            # a config top-level key
            ("train", [], {"window_size": 0}, None, "{cfg}: window_size must be an integer >= 1, got 0"),
            ("map-rank", [], {"lam": 0}, None, "{cfg}: lam must be a finite number in (0, 1], got 0"),
            ("synth", [], {"jobs": 257}, None, "{cfg}: jobs must be at most 256, got 257"),
            # a config section field
            ("train", [], {"train": {"lr": -1}}, None, "{cfg}: train: lr must be a finite number >= 0, got -1"),
            # an int past every double (an OverflowError traceback before)
            ("train", [], {"train": {"lr": 10**400}}, None,
             f"{{cfg}}: train: lr must be a finite number >= 0, got {10**400}"),
            ("gt-gen", [], {"gt": {"beta": 701}}, None, "{cfg}: gt: beta must be a finite number in (0, 700], got 701"),
            ("preprocess", [], {"filter": {"iou_discard": 2}}, None,
             "{cfg}: filter: iou_discard must be a finite number in (0, 1], got 2"),
            ("synth", [], {"synth": {"render_maps": 1}}, None, "{cfg}: synth: render_maps must be true or false, got 1"),
            # --objects
            ("synth", ["--objects", "9:3"], None, None, "--objects 9:3: objects_max must be >= objects_min (9), got 3"),
            ("synth", ["--objects", "0:3"], {"synth": {"objects_min": 2}}, None,
             "--objects 0:3: objects_min must be an integer >= 1, got 0"),
            # a field rejected for another field's value: led by the source of either
            ("synth", [], {"synth": {"objects_min": 20}}, None,
             "{cfg}: synth: objects_max must be >= objects_min (20), got 10"),
            ("synth", [], {"synth": {"box_frac_min": 0.5}}, None,
             "{cfg}: synth: box_frac_max must be >= box_frac_min (0.5), got 0.3"),
            ("gt-gen", ["--gamma", "1e300"], {"gt": {"beta": 700}}, None,
             "{cfg}: gt: gamma * e^beta must be finite, got gamma 1e+300 and beta 700"),
            ("gt-gen", ["--gamma", "1e300", "--beta", "700"], None, None,
             "gamma * e^beta must be finite, got gamma 1e+300 and beta 700.0"),
            # RANKFLOW_JOBS
            ("synth", [], None, "0", "RANKFLOW_JOBS must be an integer >= 1, got 0"),
            ("synth", [], None, "x", "RANKFLOW_JOBS must be an integer, got 'x'"),
        ],
        ids=["--window", "--lambda", "--jobs", "window_size", "lam", "jobs", "train.lr", "train.lr-past-double",
             "gt.beta", "filter.iou_discard", "synth.render_maps", "--objects-max", "--objects-min",
             "synth.objects_min", "synth.box_frac_min", "gt.beta-bonus", "--gamma-bonus", "env-0", "env-x"],
    )
    def test_bad_setting_names_its_source(self, tmp_path, monkeypatch, capsys, stage, flags, doc, env, message):
        """Every setting is checked by one rule, and its message is led by
        the flag, the config path (and section), --objects or the env var."""
        raw, pre, gt = (str(tmp_path / name) for name in ("raw", "pre", "gt.csv"))  # never read
        inputs = {"synth": [], "preprocess": ["--in", raw], "gt-gen": ["--in", raw],
                  "train": ["--in", pre, "--gt", gt], "map-rank": ["--in", raw]}[stage]
        argv = [stage, *inputs, *flags]
        cfg = tmp_path / "cfg.json"
        if doc is not None:
            cfg.write_text(json.dumps(doc))
            argv += ["--config", str(cfg)]
        if env is None:
            monkeypatch.delenv("RANKFLOW_JOBS", raising=False)
        else:
            monkeypatch.setenv("RANKFLOW_JOBS", env)
        assert run(*argv, "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"
        assert list(tmp_path.iterdir()) == ([cfg] if doc is not None else [])

    @pytest.mark.parametrize("stage", ["gt-gen", "gt-discrepancy", "synth"])
    def test_beta_is_bounded(self, dataset, tmp_path, capsys, stage):
        """e^(beta * size ratio) overflowed past beta ~709 (OverflowError,
        exit 1); beta is now checked against 700 before anything runs."""
        cfg = tmp_path / "cfg.json"
        if stage == "synth":
            cfg.write_text(json.dumps({"synth": {"beta": 1e300}}))
            argv = ["synth", "--config", str(cfg), "--scenes", "2", "--jobs", "1", "--out", str(tmp_path / "d")]
            expected = f"error: {cfg}: synth: beta must be a finite number in (0, 700], got 1e+300\n"
        else:
            cfg.write_text("{}")
            argv = [stage, "--config", str(cfg), "--beta", "1e308", "--in", str(dataset / "raw"), "--jobs", "1",
                    "--out", str(tmp_path / "out.csv")]
            expected = "error: beta must be a finite number in (0, 700], got 1e+308\n"
        assert run(*argv) == 2
        assert capsys.readouterr().err == expected
        assert list(tmp_path.iterdir()) == [cfg]  # no output, no provenance

    def test_largest_gamma_threshold_is_bounded(self, dataset, tmp_path, capsys):
        """gt-discrepancy's largest threshold with its beta obeys GtConfig's
        bonus rule, checked before any scene is read."""
        out = tmp_path / "d.csv"
        argv = ["gt-discrepancy", "--gammas", "1e300:1e300:1e300", "--beta", "700", "--in", str(tmp_path / "none")]
        assert run(*argv, "--jobs", "1", "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "error: --gammas 1e300:1e300:1e300: gamma * e^beta must be finite, got gamma 1e+300 and beta 700.0\n"
        )
        assert list(tmp_path.iterdir()) == []
        argv = ["gt-discrepancy", "--gammas", "1:10000:9999", "--beta", "700", "--in", str(dataset / "raw")]
        assert run(*argv, "--jobs", "1", "--out", str(out)) == 0

    def test_unknown_method_is_a_data_error(self, tmp_path, capsys):
        """GtConfig alone checks a method name, so a bad one exits 2 with the list."""
        assert run("gt-gen", "--method", "zzz", "--in", str(tmp_path), "--out", str(tmp_path / "gt.csv")) == 2
        assert capsys.readouterr().err == (
            "error: method must be one of ['fixpoints', 'mapmax', 'mapavg', 'binmap', 'rasrgt'], got 'zzz'\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_beta_at_its_bound_on_full_image_boxes(self, tmp_path):
        """At beta 700 a box that fills its image (size ratio 1) scores
        gamma * e^700, which is finite, in synth, gt-gen and gt-discrepancy."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"beta": 700, "box_frac_min": 1.0, "box_frac_max": 1.0,
                                             "width": 32, "height": 24}}))
        raw = tmp_path / "raw"
        synth = ["synth", "--config", str(cfg), "--scenes", "2", "--objects", "1:1", "--fixations", "40", "--no-maps"]
        assert run(*synth, "--jobs", "1", "--out", str(raw)) == 0
        scene = json.loads((raw / "scenes" / "scene_00000.json").read_text())
        assert scene["proposals"][0]["box"] == [0, 0, 32, 24]
        assert run("gt-gen", "--beta", "700", "--in", str(raw), "--jobs", "1", "--out", str(tmp_path / "gt.csv")) == 0
        assert parse_ranking(tmp_path / "gt.csv") == parse_ranking(raw / "gt.csv")
        assert run("gt-discrepancy", "--beta", "700", "--in", str(raw), "--jobs", "1", "--out", str(tmp_path / "d.csv")) == 0

    def test_top_level_seed_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9}))
        assert run("synth", "--config", str(cfg), "--scenes", "1", "--out", str(tmp_path / "d")) == 2
        assert "unknown config keys: ['seed']" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_module_entry_point(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(rankflow.__file__).parent.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "rankflow.cli", "eval", "--pred", str(tmp_path / "missing.csv"),
             "--gt", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "r.json")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert "missing.csv" in proc.stderr


def _decimal_specs(most: int, places):
    """``start:stop:step`` specs of decimals with up to ``most`` digits and
    ``places`` decimal places each, stop being start plus a span."""
    def decimals(low):
        return st.builds(lambda n, k: Decimal(n).scaleb(-k), st.integers(low, most), st.sampled_from(places))

    return st.builds(lambda a, b, c: f"{a}:{a + b}:{c}", decimals(1), decimals(0), decimals(1))


class TestGammaGrid:
    def test_default_grid(self):
        assert gamma_grid("0.1:1.0:0.1") == [round(0.1 * i, 10) for i in range(1, 11)]

    @pytest.mark.parametrize(
        "spec",
        ["0.1:1:0", "0.1:1:-0.1", "0.5:0.1:0.1", "0:1:0.1", "0.1:inf:0.1", "0.1:1:nan", "a:b:c", "0.1:1"],
    )
    def test_rejects_before_looping(self, spec):
        with pytest.raises(RankflowError, match="--gammas") as err:
            gamma_grid(spec)
        assert "more than" not in str(err.value)  # the spec check, not the grid-size bound

    def test_grid_size_bounded(self):
        with pytest.raises(RankflowError, match="more than"):
            gamma_grid("0.1:1000:0.1")

    @settings(max_examples=200, deadline=None)
    @given(_decimal_specs(9_999, range(2, 5)))
    def test_equals_the_accumulating_loop(self, spec):
        """Below 200 the loop's drift, at most 1000 half-ulps of 200, stays
        far below a 10-decimal rounding step, so on decimal specs the
        index-built grid is the grid the old accumulating loop built, wherever
        that loop stayed within the cap."""
        expected = _loop_grid(*(float(x) for x in spec.split(":")))
        assume(expected is not None)
        assert gamma_grid(spec) == expected

    @settings(max_examples=200, deadline=None)
    @given(_decimal_specs(99_999, range(0, 5)))
    @example("1:4809:8.12")
    def test_is_the_exact_decimal_grid(self, spec):
        """Up to 2e5 each threshold is start + i * step worked out in exact
        decimals, where the loop drifted (1:4809:8.12 gave 4808.0399999999
        as its 593rd threshold, not 4808.04)."""
        start, stop, step = (Decimal(x) for x in spec.split(":"))
        count = int((stop + Decimal("1e-9") - start) / step) + 1
        assume(count <= _MAX_GAMMAS)
        assert gamma_grid(spec) == [round(float(start + i * step), 10) for i in range(count)]

    @pytest.mark.parametrize("spec", ["1e17:1e17:1", "1e300:1e300:1"])
    def test_step_below_the_float_spacing_gives_one_threshold(self, spec):
        """``start == stop`` names one threshold, however small the step."""
        assert gamma_grid(spec) == [float(spec.split(":")[0])]

    def test_repeating_grid_is_refused(self, tmp_path, capsys):
        with pytest.raises(RankflowError, match="repeats a threshold"):
            gamma_grid("1:1.000000001:1e-11")
        argv = ["gt-discrepancy", "--gammas", "1:1.000000001:1e-11", "--in", str(tmp_path), "--jobs", "1"]
        assert run(*argv, "--out", str(tmp_path / "d.csv")) == 2
        assert capsys.readouterr().err == (
            "error: --gammas '1:1.000000001:1e-11' repeats a threshold once rounded to 10 decimals\n"
        )
        assert list(tmp_path.iterdir()) == []


def _loop_grid(start, stop, step):
    """The grid as an accumulating loop built it, t += step while t <= stop
    + 1e-9, each t rounded to 10 decimals: the reference for ``gamma_grid``.
    None where the loop would pass ``_MAX_GAMMAS`` thresholds."""
    thresholds, t = [], start
    while t <= stop + 1e-9:
        if len(thresholds) == _MAX_GAMMAS:
            return None
        thresholds.append(round(t, 10))
        t += step
    return thresholds


class TestSynth:
    def test_layout_and_provenance(self, dataset):
        raw = dataset / "raw"
        assert (raw / "manifest.json").is_file()
        assert (raw / "gt.csv").is_file()
        assert (raw / "provenance.json").is_file()
        prov = json.loads((raw / "provenance.json").read_text())
        assert prov["tool"] == "rankflow"
        assert prov["seed"] == 3

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"n_scenes": 2, "seed": 9, "render_maps": False}}))
        out = tmp_path / "d"
        assert run("synth", "--config", str(cfg), "--scenes", "1", "--out", str(out)) == 0
        assert len(list((out / "scenes").glob("*.json"))) == 1


class TestPipelineStages:
    def test_preprocess_layout(self, dataset):
        pre = dataset / "pre"
        scenes = list((pre / "scenes").glob("*.json"))
        feats = list((pre / "features").glob("*.feat"))
        assert len(scenes) == 4 and len(feats) == 4

    def test_preprocess_default_filter(self, dataset, tmp_path):
        """With no config, preprocess filters with FilterConfig()."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"filter": dataclasses.asdict(FilterConfig())}))
        trees = []
        for out, extra in ((tmp_path / "default", ()), (tmp_path / "explicit", ("--config", str(cfg)))):
            assert run("preprocess", "--in", str(dataset / "raw"), "--out", str(out), *extra) == 0
            trees.append(tree(out))
        assert trees[0] == trees[1]
        ids = [f"scene_{i:05d}" for i in range(4)]
        feats, scenes = [f"features/{i}.feat" for i in ids], [f"scenes/{i}.json" for i in ids]
        assert list(trees[0]) == ["features", *feats, "provenance.json", "scenes", *scenes]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_preprocess_writes_no_scene(self, tmp_path, capsys, jobs):
        raw, pre = tmp_path / "raw", tmp_path / "pre"
        assert run("synth", "--seed", "5", "--scenes", "6", "--fixations", "50", "--no-maps", "--out", str(raw)) == 0
        path = raw / "scenes" / "scene_00003.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "width": "x"}))
        assert run("preprocess", "--in", str(raw), "--out", str(pre), "--jobs", jobs) == 2
        assert "scene_00003.json" in capsys.readouterr().err
        assert not pre.exists()  # no scene, .feat or staging file, nor the directory it made
        path.write_text(json.dumps({**json.loads(path.read_text()), "width": 640}))
        assert run("preprocess", "--in", str(raw), "--out", str(pre), "--jobs", jobs) == 0
        assert sorted(p.name for p in pre.iterdir()) == ["features", "provenance.json", "scenes"]

    def test_failed_preprocess_removes_the_directories_it_made(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        assert run("synth", "--seed", "5", "--scenes", "3", "--fixations", "50", "--no-maps", "--out", str(raw)) == 0
        path = raw / "scenes" / "scene_00001.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "width": "x"}))
        assert run("preprocess", "--in", str(raw), "--out", str(tmp_path / "a" / "b" / "pre"), "--jobs", "1") == 2
        assert "scene_00001.json" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["raw"]

    def test_typical_run_evaluates_after_nms_drops_a_proposal(self, tmp_path, capsys):
        """README's typical run, GT from data/pre, exits 0 on scenes whose
        boxes overlap past NMS's IoU, so preprocess drops some of them."""
        raw, pre = tmp_path / "raw", tmp_path / "pre"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"synth": {"iou_cap": 0.95}}))
        argv = ["--seed", "3", "--scenes", "20", "--objects", "8:9", "--fixations", "300", "--no-maps"]
        assert run("synth", "--config", str(cfg), *argv, "--jobs", "1", "--out", str(raw)) == 0
        assert run("preprocess", "--in", str(raw), "--out", str(pre), "--jobs", "1") == 0
        def proposals(d):
            return sum(len(json.loads(f.read_text())["proposals"]) for f in (d / "scenes").glob("*.json"))

        assert proposals(pre) < proposals(raw)
        gt, model, pred = tmp_path / "gt.csv", tmp_path / "model.bin", tmp_path / "pred.csv"
        assert run("gt-gen", "--method", "rasrgt", "--in", str(pre), "--out", str(gt), "--jobs", "1") == 0
        assert run("train", "--in", str(pre), "--gt", str(gt), "--epochs", "2", "--out", str(model)) == 0
        assert run("rank", "--in", str(pre), "--model", str(model), "--out", str(pred), "--jobs", "1") == 0
        capsys.readouterr()
        assert run("eval", "--pred", str(pred), "--gt", str(gt), "--out", str(tmp_path / "report.json")) == 0
        assert capsys.readouterr().err.startswith("mean SRCC ")

    def test_gt_gen_methods_agree_with_synth_gt(self, dataset):
        out = dataset / "gt_rasrgt.csv"
        assert run("gt-gen", "--method", "rasrgt", "--in", str(dataset / "raw"), "--out", str(out)) == 0
        assert parse_ranking(out) == parse_ranking(dataset / "raw" / "gt.csv")

    def test_gt_discrepancy(self, dataset):
        out = dataset / "disc.csv"
        assert run(
            "gt-discrepancy", "--gammas", "0.1:0.5:0.1",
            "--in", str(dataset / "raw"), "--out", str(out),
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "threshold,t_offset"
        assert len(lines) == 5  # header + 4 adjacent pairs

    def test_gt_discrepancy_on_workers(self, dataset, tmp_path, monkeypatch):
        from rankflow.gtgen import GtConfig, discrepancy_offsets, rasrgt_counts
        from rankflow.ingest import list_scene_files, parse_scene

        seen, ranked = [], []
        pooled = pipeline.parallel_map
        monkeypatch.setattr(pipeline, "parallel_map", lambda fn, items, jobs: seen.append(jobs) or pooled(fn, items, jobs))
        # the name the benchmark tracer wraps, so its span times the ranking
        monkeypatch.setattr(gtgen, "discrepancy_offsets", lambda *a: ranked.append(a) or discrepancy_offsets(*a))
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"disc{jobs}.csv"
            argv = ["gt-discrepancy", "--gammas", "0.1:1.0:0.1", "--in", str(dataset / "raw"), "--out", str(out)]
            assert run(*argv, "--jobs", jobs) == 0
            outs.append(out.read_text())
        assert seen == [1, 2]
        assert len(ranked) == 2
        assert outs[0] == outs[1]
        scenes = [parse_scene(p) for p in list_scene_files(dataset / "raw")]
        grid = [round(0.1 * i, 10) for i in range(1, 11)]
        rows = discrepancy_offsets([rasrgt_counts(s) for s in scenes], GtConfig(), grid)
        assert outs[0] == "threshold,t_offset\n" + "".join(f"{t:g},{offset}\n" for t, offset in rows)

    def test_train_rank_eval(self, dataset):
        model = dataset / "model.bin"
        assert run(
            "train",
            "--in", str(dataset / "pre"),
            "--gt", str(dataset / "raw" / "gt.csv"),
            "--out", str(model),
            "--epochs", "2",
        ) == 0
        assert model.is_file()

        pred = dataset / "pred.csv"
        assert run("rank", "--in", str(dataset / "pre"), "--model", str(model), "--out", str(pred)) == 0
        rankings = parse_ranking(pred)
        assert len(rankings) == 4
        prov = json.loads((dataset / "pred.csv.provenance.json").read_text())
        assert prov["config_hash"] == config_hash({"model": "model.bin", "window_size": 5})

        report = dataset / "report.json"
        assert run("eval", "--pred", str(pred), "--gt", str(pred), "--out", str(report)) == 0
        doc = json.loads(report.read_text())
        assert doc["mean_srcc"] == pytest.approx(1.0)
        assert doc["mean_f1"] == pytest.approx(1.0)

    def test_map_free_stages_run_without_maps(self, dataset, tmp_path):
        raw = tmp_path / "raw"
        shutil.copytree(dataset / "raw", raw)
        shutil.rmtree(raw / "maps")
        assert run("gt-gen", "--method", "rasrgt", "--in", str(raw), "--out", str(tmp_path / "gt.csv")) == 0
        assert run("gt-discrepancy", "--in", str(raw), "--out", str(tmp_path / "disc.csv")) == 0
        assert run("gt-gen", "--method", "mapmax", "--in", str(raw), "--out", str(tmp_path / "m.csv")) == 2

    def test_rank_window_from_model(self, dataset, tmp_path):
        model, pred = tmp_path / "m3.bin", tmp_path / "p.csv"
        assert run("train", "--in", str(dataset / "pre"), "--gt", str(dataset / "raw" / "gt.csv"),
                   "--out", str(model), "--epochs", "1", "--window", "3") == 0
        assert run("rank", "--in", str(dataset / "pre"), "--model", str(model), "--out", str(pred)) == 0
        prov = json.loads((tmp_path / "p.csv.provenance.json").read_text())
        assert prov["config_hash"] == config_hash({"model": "m3.bin", "window_size": 3})

    def test_map_of_other_size(self, dataset, tmp_path, capsys):
        raw = tmp_path / "raw"
        shutil.copytree(dataset / "raw", raw)
        (raw / "maps" / "scene_00001.pgm").write_bytes(b"P5\n4 4\n255\n" + bytes(16))
        assert run("gt-gen", "--method", "mapmax", "--in", str(raw), "--out", str(tmp_path / "m.csv")) == 2
        assert "fixation_map" in capsys.readouterr().err

    def test_map_of_other_size_from_a_worker(self, dataset, tmp_path, capsys):
        raw = tmp_path / "raw"
        shutil.copytree(dataset / "raw", raw)
        (raw / "maps" / "scene_00001.pgm").write_bytes(b"P5\n4 4\n255\n" + bytes(16))
        argv = ["gt-gen", "--method", "mapmax", "--jobs", "2", "--in", str(raw), "--out", str(tmp_path / "m.csv")]
        assert run(*argv) == 2
        assert "fixation_map" in capsys.readouterr().err

    def test_rank_loads_model_once(self, tmp_path, monkeypatch):
        raw, pre, model = tmp_path / "raw", tmp_path / "pre", tmp_path / "m.bin"
        assert run("synth", "--seed", "5", "--scenes", "3", "--fixations", "100", "--no-maps", "--out", str(raw)) == 0
        assert run("preprocess", "--in", str(raw), "--out", str(pre)) == 0
        save_model(init_model(), model)
        calls = []

        def counting_load(path):
            calls.append(path)
            return load_model(path)

        monkeypatch.setattr(scorer, "load_model", counting_load)
        assert run("rank", "--in", str(pre), "--model", str(model), "--out", str(tmp_path / "pred.csv")) == 0
        assert len(calls) == 1
        assert len(parse_ranking(tmp_path / "pred.csv")) == 3

    def test_training_set_matches_per_window_samples(self, dataset):
        gt = parse_ranking(dataset / "raw" / "gt.csv")
        samples = pipeline.build_training_set(dataset / "pre", gt, 5)
        expected = []
        for _, (scene, feats) in pipeline.load_preprocessed(dataset / "pre", lambda *pair: pair):
            for window in acb_sequences(len(scene.proposals), 5):
                ids = tuple(scene.proposals[i].id for i in window.member_ids)
                expected.append(
                    (
                        window_inputs(feats, window.member_ids),
                        window_gt_labels(gt[scene.scene_id], ids),
                        [scene.proposals[i].is_dummy for i in window.member_ids],
                    )
                )
        assert len(samples) == len(expected) > 4
        for (x, labels, mask), (x0, labels0, mask0) in zip(samples, expected):
            assert np.array_equal(x, x0)
            assert labels == labels0
            assert mask == mask0

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("stage", [["gt-gen", "--method", "mapmax"], ["map-rank"]], ids=["gt-gen", "map-rank"])
    def test_scenes_without_maps(self, tmp_path, capsys, stage, jobs):
        raw, out = tmp_path / "raw", tmp_path / "out.csv"
        assert run("synth", "--seed", "5", "--scenes", "2", "--fixations", "50", "--no-maps", "--out", str(raw)) == 0
        assert run(*stage, "--in", str(raw), "--out", str(out), "--jobs", jobs) == 2
        err = capsys.readouterr().err
        assert "scene_00000.json: no fixation_map_path" in err
        assert not out.exists()

    def test_map_rank(self, dataset):
        out = dataset / "map_pred.csv"
        assert run(
            "map-rank", "--in", str(dataset / "raw"), "--lambda", "0.5", "--out", str(out)
        ) == 0
        assert len(parse_ranking(out)) == 4


# SHA-256 of each GT output on the ``maps_dataset`` below.
GT_DIGESTS = {
    "fixpoints": "d1cf779a38a42868c4528a8699105b5c7c34a44da587bd4a5e01df4609e07f4b",
    "mapmax": "734940f9b1e6a08a9efc65d96fca5961c2804f763749a948348a5e8647676c02",
    "mapavg": "c5c23fbe9abc0e0ab5756d00da946bda84cdc1a8623ff84ce231e1924b92fa8c",
    "binmap": "b0ccdbf22904e6add2a4295117be2a7c173a250698a9488bc379574072a131ed",
    "rasrgt": "e243e0f1c6579c04200c25deb72eb7ab30a3fec32e108d9e138e80302c5d325d",
    "binmap-40": "783cc0aae2a7cb4a0d682d622ded0dca4576ac29945f21c3adc5dd1383868de3",
    "discrepancy": "cea764246b5a3c509207c8ffeee4a8f54d8d15459b0765a16d7f987e6ca8b2fb",
}
GT_RUNS = {
    **{m: ["gt-gen", "--method", m] for m in METHODS},
    "binmap-40": ["gt-gen", "--method", "binmap", "--binary-threshold", "40"],
    "discrepancy": ["gt-discrepancy"],
}


@pytest.fixture(scope="module")
def maps_dataset(tmp_path_factory):
    raw = tmp_path_factory.mktemp("maps") / "raw"
    argv = ["--seed", "11", "--scenes", "8", "--objects", "5:9", "--fixations", "300", "--jobs", "1"]
    assert run("synth", *argv, "--out", str(raw)) == 0
    return raw


# SHA-256 of each output that reads a map box by box, on ``maps_dataset``:
# map-rank's CSV from the scenes' own maps and from ``sparse_maps``, and
# preprocess's .feat files, hashed in name order.
MAP_READER_DIGESTS = {
    "map-rank": "86bfc2f02a89f4682d7f13bf03a3308970174e6fe095d06d64adfb8ebbd4a806",
    "map-rank-maps": "1adb91557ee073298975dbe4ed976a74380e273a9379dbf29da4143c46d2554b",
    "preprocess": "4ef9052996baf3a6ce62846f1b788b4308a2f878c0e8c3cc97c1e3cfee8a3c3f",
}


@pytest.fixture(scope="module")
def sparse_maps(maps_dataset, tmp_path_factory):
    """A 640x480 map per ``maps_dataset`` scene, zero but for a lattice of
    varied gray dots: sparse enough that map-rank's threshold keeps some of
    them, so a change in how a box reads its map changes the ranking."""
    maps = tmp_path_factory.mktemp("sparse")
    y, x = np.mgrid[:480, :640]
    values = np.where((7 * x + 13 * y) % 97 == 0, (31 * x + 17 * y) % 256, 0).astype(np.uint8)
    for path in sorted((maps_dataset / "scenes").glob("*.json")):
        (maps / f"{path.stem}.pgm").write_bytes(b"P5\n640 480\n255\n" + values.tobytes())
    return maps


class TestGtOutputsPinned:
    """Every GT method's output, byte for byte, on a seeded maps-on dataset."""

    @pytest.mark.parametrize("name", list(GT_RUNS))
    def test_output_digest(self, maps_dataset, tmp_path, name):
        out = tmp_path / "out.csv"
        assert run(*GT_RUNS[name], "--jobs", "1", "--in", str(maps_dataset), "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GT_DIGESTS[name]

    @pytest.mark.parametrize("name", list(MAP_READER_DIGESTS))
    def test_map_reader_digest(self, maps_dataset, sparse_maps, tmp_path, name):
        out = tmp_path / "out"
        argv = {
            "map-rank": ["map-rank"],
            "map-rank-maps": ["map-rank", "--maps", str(sparse_maps)],
            "preprocess": ["preprocess"],
        }[name]
        assert run(*argv, "--jobs", "1", "--in", str(maps_dataset), "--out", str(out)) == 0
        digest = hashlib.sha256()
        for path in sorted(out.glob("features/*.feat")) if out.is_dir() else [out]:
            digest.update(path.read_bytes())
        assert digest.hexdigest() == MAP_READER_DIGESTS[name]


class TestDeterminism:
    def test_synth_independent_of_jobs(self, tmp_path):
        trees = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            argv = ["synth", "--seed", "8", "--scenes", "5", "--fixations", "200", "--jobs", jobs, "--out", str(out)]
            assert run(*argv) == 0
            trees.append({str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
        assert len(trees[0]) == 5 + 5 + 4  # scenes, maps, gt.csv, latent.csv, manifest and provenance
        assert trees[0] == trees[1]

    def test_rank_independent_of_jobs(self, dataset, tmp_path):
        model = tmp_path / "m.bin"
        assert run(
            "train",
            "--in", str(dataset / "pre"),
            "--gt", str(dataset / "raw" / "gt.csv"),
            "--out", str(model),
            "--epochs", "1",
        ) == 0
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run("rank", "--in", str(dataset / "pre"), "--model", str(model), "--out", str(a), "--jobs", "1") == 0
        assert run("rank", "--in", str(dataset / "pre"), "--model", str(model), "--out", str(b), "--jobs", "2") == 0
        assert a.read_bytes() == b.read_bytes()

    def test_pooled_stages_independent_of_jobs(self, tmp_path):
        # 40 scenes go to 2 workers in chunks of 3, so a chunk holds several
        # scenes and the last one is short.
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"synth": {"width": 160, "height": 120}}))
        raw = tmp_path / "raw"
        argv = ["--seed", "5", "--scenes", "40", "--objects", "3:5", "--fixations", "50", "--jobs", "2"]
        assert run("synth", "--config", str(config), *argv, "--out", str(raw)) == 0
        trees = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            stages = [
                ["preprocess", "--out", str(out / "pre")],
                ["gt-gen", "--method", "mapmax", "--out", str(out / "gt.csv")],
                ["gt-discrepancy", "--out", str(out / "disc.csv")],
                ["map-rank", "--out", str(out / "map.csv")],
            ]
            for stage in stages:
                assert run(*stage, "--in", str(raw), "--jobs", jobs) == 0
            trees.append({str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
        assert len(trees[0]) == 40 + 40 + 1 + 3 * 2  # scenes, features, pre provenance, 3 CSVs and their provenance
        assert trees[0] == trees[1]

    def test_train_independent_of_blas_threads(self, dataset, tmp_path):
        # Minibatch training runs batched matmuls; the model file must not
        # depend on how many threads BLAS uses for them.
        src = str(Path(rankflow.__file__).parents[1])
        models = []
        for threads in ("1", "2"):
            model = tmp_path / f"m{threads}.bin"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            done = subprocess.run(
                [sys.executable, "-m", "rankflow.cli", "train", "--in", str(dataset / "pre"),
                 "--gt", str(dataset / "raw" / "gt.csv"), "--out", str(model), "--seed", "1"],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            assert done.stderr == CLI_TRAIN_LINE
            models.append(model.read_bytes())
        assert models[0] == models[1]
        assert hashlib.sha256(models[0]).hexdigest() == CLI_MODEL_SHA256


# A run config under which synth places scenes 0..13 and gives up on scene 14.
FAILING_SYNTH = {"synth": {"iou_cap": 0.0, "box_frac_min": 0.2, "box_frac_max": 0.3}}


class TestDatasetPublishing:
    """synth and preprocess replace their output subdirectories whole, and
    only once every scene is done."""

    def _synth(self, out, seed, scenes):
        argv = ["--seed", seed, "--scenes", scenes, "--no-maps", "--fixations", "50", "--out", str(out)]
        assert run("synth", *argv) == 0

    def test_rerun_keeps_no_old_scene(self, tmp_path):
        raw, pre = tmp_path / "raw", tmp_path / "pre"
        raw.mkdir()
        (raw / "notes.txt").write_text("mine\n")
        for seed, scenes in (("1", "3"), ("2", "2")):
            self._synth(raw, seed, scenes)
            assert run("preprocess", "--in", str(raw), "--out", str(pre)) == 0
        fresh = tmp_path / "fresh"
        self._synth(fresh / "raw", "2", "2")
        assert run("preprocess", "--in", str(fresh / "raw"), "--out", str(fresh / "pre")) == 0
        assert tree(pre) == tree(fresh / "pre")
        assert {k: v for k, v in tree(raw).items() if k != "notes.txt"} == tree(fresh / "raw")
        assert (raw / "notes.txt").read_text() == "mine\n"
        assert sorted(p.stem for p in (pre / "features").iterdir()) == ["scene_00000", "scene_00001"]
        assert run("gt-gen", "--in", str(raw), "--out", str(tmp_path / "gt.csv")) == 0
        assert parse_ranking(tmp_path / "gt.csv").keys() == parse_ranking(raw / "gt.csv").keys()

    def test_no_maps_rerun_keeps_no_old_map(self, tmp_path):
        raw = tmp_path / "raw"
        assert run("synth", "--seed", "1", "--scenes", "2", "--fixations", "50", "--out", str(raw)) == 0
        assert len(list((raw / "maps").iterdir())) == 2
        self._synth(raw, "1", "2")
        assert list((raw / "maps").iterdir()) == []

    def _failing_synth(self, tmp_path, out, jobs):
        cfg = tmp_path / "failing.json"
        cfg.write_text(json.dumps(FAILING_SYNTH))
        argv = ["--seed", "1", "--scenes", "15", "--objects", "9:11", "--fixations", "20", "--no-maps"]
        return run("synth", "--config", str(cfg), *argv, "--jobs", jobs, "--out", str(out))

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_synth_writes_no_scene(self, tmp_path, capsys, jobs):
        out = tmp_path / "d"
        assert self._failing_synth(tmp_path, out, jobs) == 2
        assert "scene 14: placement kept failing for 9..11 objects" in capsys.readouterr().err
        assert tree(out) == {}  # no scene file, no staging directory

    def test_failed_synth_keeps_earlier_dataset(self, dataset, tmp_path):
        out = tmp_path / "raw"
        shutil.copytree(dataset / "raw", out)
        before = tree(out)
        assert self._failing_synth(tmp_path, out, "2") == 2
        assert tree(out) == before

    @pytest.mark.parametrize("in_sub, out", [("", "../raw"), ("scenes", "")])
    def test_preprocess_into_its_input_is_refused(self, tmp_path, capsys, in_sub, out):
        raw = tmp_path / "raw"
        assert run("synth", "--seed", "5", "--scenes", "2", "--fixations", "50", "--out", str(raw)) == 0
        before = tree(raw)
        in_dir, out_dir = raw / in_sub, raw / out
        assert run("preprocess", "--in", str(in_dir), "--out", str(out_dir)) == 2
        err = capsys.readouterr().err
        assert f"cannot preprocess {in_dir} into {out_dir}: the output would replace the input" in err
        assert tree(raw) == before


# (config_hash, seed) of the provenance record each command writes for
# _stage_argv, pinned from the layout in which every stage wrote its own.
PROVENANCE = {
    "synth": ("fbd7458d3583ce0f", 2),
    "preprocess": ("a49802f7c7d328ca", None),
    "gt-gen": ("4c949bac6cffc618", None),
    "gt-discrepancy": ("ef2605b818d1c6ef", None),
    "train": ("a36adbbec937a731", 0),
    "rank": ("41536f41dd6fe16e", None),
    "map-rank": ("16f42f2b3d1d0b99", None),
    "eval": ("dc6eea721187dd8b", None),
}


def _stage_argv(command, dataset, tmp_path, fail: bool) -> list[str]:
    """``command`` on the shared dataset into ``tmp_path / "out"``; with
    ``fail``, its first input is missing (synth: its ``--objects`` is bad)."""
    gt = dataset / "raw" / "gt.csv"
    save_model(init_model(), tmp_path / "m.bin")
    args = {
        "synth": ["--objects", "2:3", "--seed", "2", "--scenes", "2", "--fixations", "50"],
        "preprocess": ["--in", dataset / "raw"],
        "gt-gen": ["--in", dataset / "raw"],
        "gt-discrepancy": ["--in", dataset / "raw"],
        "train": ["--in", dataset / "pre", "--gt", gt, "--epochs", "1"],
        "rank": ["--in", dataset / "pre", "--model", tmp_path / "m.bin"],
        "map-rank": ["--in", dataset / "raw"],
        "eval": ["--pred", gt, "--gt", gt],
    }[command]
    if fail:
        args[1] = "2" if command == "synth" else tmp_path / "missing"
    return [command, *map(str, args), "--jobs", "1", "--out", str(tmp_path / "out")]


class TestProvenance:
    @pytest.mark.parametrize("command", list(PROVENANCE))
    def test_one_record_per_success_and_none_on_failure(self, dataset, tmp_path, command):
        assert run(*_stage_argv(command, dataset, tmp_path, fail=True)) == 2
        assert list(tmp_path.rglob("*provenance.json")) == []
        assert run(*_stage_argv(command, dataset, tmp_path, fail=False)) == 0
        out = tmp_path / "out"
        record = out / "provenance.json" if out.is_dir() else tmp_path / "out.provenance.json"
        assert list(tmp_path.rglob("*provenance.json")) == [record]
        config_hash, seed = PROVENANCE[command]
        doc = {"config_hash": config_hash, "seed": seed, "tool": "rankflow", "version": rankflow.__version__}
        assert record.read_text() == json.dumps(doc, sort_keys=True) + "\n"


# SHA-256 of the model that `train --seed 1` writes for the shared dataset.
CLI_MODEL_SHA256 = "12043c11bd68df4faf9df0f6908db04758810efd2d48c8c2cb7ec09f450732ab"
# The stderr line of that run: its last three epoch losses to 4 decimals.
CLI_TRAIN_LINE = "trained on 26 windows; last losses: 1.2866, 1.2841, 1.2814\n"


class _Captured(Exception):
    """Raised in place of running a stage; its one argument is the config the stage was given."""


def _capture(*args, **extra):
    raise _Captured(_section_cfg(*args, **extra))


def _stage_cfg(monkeypatch, argv):
    """The config object ``argv``'s command hands to its stage."""
    monkeypatch.setattr(cli, "_section_cfg", _capture)
    with pytest.raises(_Captured) as info:
        dispatch(argv)
    return info.value.args[0]


def _required(command, dataset, tmp_path):
    raw, pre = str(dataset / "raw"), str(dataset / "pre")
    return {
        "synth": ["--out", str(tmp_path / "d")],
        "preprocess": ["--in", raw, "--out", str(tmp_path / "p")],
        "gt-gen": ["--in", raw, "--out", str(tmp_path / "gt.csv")],
        "gt-discrepancy": ["--in", raw, "--out", str(tmp_path / "d.csv")],
        "train": ["--in", pre, "--gt", str(dataset / "raw" / "gt.csv"), "--out", str(tmp_path / "m.bin")],
    }[command]


# Each config-overriding flag, with the same setting as fields of a run-config section.
OVERRIDES = [
    (["synth", "--seed", "4"], "synth", {"seed": 4}),
    (["synth", "--scenes", "3"], "synth", {"n_scenes": 3}),
    (["synth", "--objects", "2:3"], "synth", {"objects_min": 2, "objects_max": 3}),
    (["synth", "--fixations", "50"], "synth", {"fixations_per_scene": 50}),
    (["synth", "--no-maps"], "synth", {"render_maps": False}),
    (["preprocess", "--iou", "0.5"], "filter", {"iou_discard": 0.5}),
    (["preprocess", "--max-area", "0.5"], "filter", {"max_area_frac": 0.5}),
    (["preprocess", "--min-area", "12.5"], "filter", {"min_area_px": 12.5}),
    (["gt-gen", "--method", "binmap"], "gt", {"method": "binmap"}),
    (["gt-gen", "--gamma", "0.3"], "gt", {"gamma": 0.3}),
    (["gt-gen", "--beta", "0.7"], "gt", {"beta": 0.7}),
    (["gt-gen", "--binary-threshold", "100.5"], "gt", {"binary_threshold": 100.5}),
    (["gt-discrepancy", "--beta", "0.7"], "gt", {"beta": 0.7}),
    (["train", "--epochs", "2"], "train", {"epochs": 2}),
    (["train", "--seed", "4"], "train", {"seed": 4}),
    (["train", "--alpha", "0.5"], "train", {"alpha": 0.5}),
    (["train", "--lr", "0.01"], "train", {"lr": 0.01}),
]


class TestFlagsAreFields:
    @pytest.mark.parametrize("flag, section, fields", OVERRIDES, ids=[" ".join(argv) for argv, _, _ in OVERRIDES])
    def test_flag_equals_config_section(self, dataset, tmp_path, monkeypatch, flag, section, fields):
        command, *flag = flag
        required = _required(command, dataset, tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: fields}))
        from_flag = _stage_cfg(monkeypatch, [command, *flag, *required])
        from_config = _stage_cfg(monkeypatch, [command, "--config", str(cfg), *required])
        assert from_flag == from_config
        assert from_flag != type(from_flag)()

    @pytest.mark.parametrize("command", ["synth", "preprocess", "gt-gen", "gt-discrepancy", "train"])
    def test_every_field_flag_is_listed(self, dataset, tmp_path, command):
        args = build_parser().parse_args([command, *_required(command, dataset, tmp_path)])
        fields = {f.name for section in _SECTIONS for f in dataclasses.fields(_section_class(section))}
        listed = {name for argv, _, changed in OVERRIDES if argv[0] == command for name in changed}
        assert set(vars(args)) & fields <= listed

    def test_unhashable_method_in_config(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gt": {"method": ["x"]}}))
        assert run("gt-gen", "--config", str(cfg), *_required("gt-gen", dataset, tmp_path)) == 2
        assert "method must be one of" in capsys.readouterr().err


def _raw_with_scene(dataset, tmp_path, **change):
    """A copy of the shared raw dataset whose scene_00001.json has ``change`` applied."""
    raw = tmp_path / "raw"
    shutil.copytree(dataset / "raw", raw)
    path = raw / "scenes" / "scene_00001.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **change}))
    return raw


class TestBadSceneFiles:
    @pytest.mark.parametrize(
        "change",
        [
            {"fixations": [{"u": 1}]},
            {"proposals": [{"id": 1, "box": [1, 2]}]},
            {"proposals": [5]},
            {"width": "x"},
            # Each value has the wrong JSON type; coerced, they read as a valid scene.
            {
                "width": "100", "height": 80.9,
                "proposals": [{"id": "3", "box": ["1", 2, 30, 40.5], "confidence": "0.5"}, {"id": 4.7, "is_dummy": "no"}],
                "fixations": [{"u": 12.9, "v": True, "observer_id": "2"}],
            },
        ],
        ids=["missing-field", "short-box", "proposal-not-object", "bad-width", "coerced-values"],
    )
    def test_error_names_the_file(self, dataset, tmp_path, capsys, change):
        raw = _raw_with_scene(dataset, tmp_path, **change)
        assert run("gt-gen", "--in", str(raw), "--out", str(tmp_path / "gt.csv"), "--jobs", "2") == 2
        assert "scene_00001.json: " in capsys.readouterr().err

    def test_map_path_type_checked_without_loading_maps(self, dataset, tmp_path, capsys):
        raw = _raw_with_scene(dataset, tmp_path, fixation_map_path=7)
        argv = ["gt-gen", "--method", "rasrgt", "--in", str(raw), "--out", str(tmp_path / "gt.csv"), "--jobs", "1"]
        assert run(*argv) == 2
        assert "scene_00001.json: fixation_map_path: must be a JSON string, got 7" in capsys.readouterr().err
        assert not (tmp_path / "gt.csv").exists()

    @pytest.mark.parametrize("scene_id", ["../../escaped", "..", "a\\b", "a\0b"])
    def test_scene_id_cannot_leave_the_output(self, dataset, tmp_path, capsys, scene_id):
        raw = _raw_with_scene(dataset, tmp_path, scene_id=scene_id)
        work = tmp_path / "work"
        work.mkdir()
        assert run("preprocess", "--in", str(raw), "--out", str(work / "pre"), "--jobs", "1") == 2
        assert "scene_id: must be a plain file name" in capsys.readouterr().err
        assert list(work.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["raw", "work"]
        assert not list(tmp_path.rglob("escaped*"))


    @pytest.mark.parametrize(
        "error", [RankflowError("box: too small"), GenerationFailure("scene 3: placement kept failing")], ids=["field", "message"]
    )
    def test_runner_puts_the_file_in_front(self, dataset, error):
        def fail(scene):
            raise error

        path = dataset / "raw" / "scenes" / "scene_00000.json"
        with pytest.raises(type(error)) as raised:
            pipeline.map_scenes(fail, dataset / "raw")
        assert str(raised.value) == f"{path}: {error}"


class TestPreprocessedSceneErrors:
    """A data error that train or rank meets in one preprocessed scene names
    the scene file, whichever stage reads it; a scene shorter than the
    window is none."""

    @staticmethod
    def _run_stage(stage, pre, gt, tmp_path):
        if stage == "train":
            return run("train", "--in", str(pre), "--gt", str(gt), "--out", str(tmp_path / "new.bin"))
        model = tmp_path / "m.bin"
        save_model(init_model(), model)  # 6 classes: window size 5
        return run("rank", "--in", str(pre), "--model", str(model), "--out", str(tmp_path / "p.csv"), "--jobs", "2")

    @pytest.mark.parametrize("stage", ["train", "rank"])
    def test_fewer_proposals_than_the_window(self, tmp_path, capsys, stage):
        """Windows pad a scene shorter than the window size, which the model
        fixes, so a window of 7 runs on scenes of 5 proposals."""
        raw, pre = tmp_path / "raw", tmp_path / "pre"
        argv = ["--seed", "5", "--scenes", "2", "--objects", "5:5", "--fixations", "50", "--no-maps"]
        assert run("synth", *argv, "--out", str(raw)) == 0
        assert run("preprocess", "--in", str(raw), "--out", str(pre)) == 0
        scenes = [json.loads(f.read_text()) for f in sorted((pre / "scenes").glob("*.json"))]
        assert [len(s["proposals"]) for s in scenes] == [5, 5]
        capsys.readouterr()
        model = tmp_path / "m.bin"
        if stage == "train":
            argv = ["train", "--in", str(pre), "--gt", str(raw / "gt.csv"), "--window", "7", "--epochs", "1"]
            assert run(*argv, "--out", str(model)) == 0
            assert capsys.readouterr().err.startswith("trained on 14 windows;")  # 7 per scene
            assert load_model(model).dims[-1] == 8
            return
        save_model(init_model(n_classes=8), model)  # window size 7
        assert run("rank", "--in", str(pre), "--model", str(model), "--out", str(tmp_path / "p.csv")) == 0
        pred = parse_ranking(tmp_path / "p.csv")
        assert {sid: sorted(r.labels) for sid, r in pred.items()} == {
            s["scene_id"]: sorted(q["id"] for q in s["proposals"]) for s in scenes
        }

    @pytest.mark.parametrize("stage", ["train", "rank"])
    def test_feature_file_short_of_a_row(self, dataset, tmp_path, capsys, stage):
        pre = tmp_path / "pre"
        shutil.copytree(dataset / "pre", pre)
        feat = pre / "features" / "scene_00002.feat"
        data = feat.read_bytes()
        n = int.from_bytes(data[:4], "little")
        feat.write_bytes((n - 1).to_bytes(4, "little") + data[4 : -FEATURE_DIM * 8])  # header kept consistent
        assert self._run_stage(stage, pre, dataset / "raw" / "gt.csv", tmp_path) == 2
        err = capsys.readouterr().err
        assert f"{pre / 'scenes' / 'scene_00002.json'}: features rows {n - 1} != proposals {n}" in err
        assert not list(tmp_path.glob("*.provenance.json"))


class TestSceneIds:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "stage, out",
        [("preprocess", "pre"), ("gt-gen", "gt.csv"), ("gt-discrepancy", "d.csv"), ("map-rank", "m.csv")],
    )
    def test_duplicate_raw_id_names_both_files(self, dataset, tmp_path, capsys, stage, out, jobs):
        raw = _raw_with_scene(dataset, tmp_path, scene_id="scene_00002")
        assert run(stage, "--in", str(raw), "--out", str(tmp_path / out), "--jobs", jobs) == 2
        err = capsys.readouterr().err
        assert "'scene_00002' is in both" in err
        assert "scene_00001.json" in err and "scene_00002.json" in err
        written = tmp_path / out  # neither the CSV nor any provenance
        assert not written.is_file() and not (written / "provenance.json").exists()
        assert not list(tmp_path.glob("*.provenance.json"))

    @pytest.mark.parametrize("stage", ["train", "rank"])
    def test_duplicate_preprocessed_id_names_both_files(self, dataset, tmp_path, capsys, stage):
        pre, model = tmp_path / "pre", tmp_path / "m.bin"
        shutil.copytree(dataset / "pre", pre)
        shutil.copy(pre / "scenes" / "scene_00000.json", pre / "scenes" / "scene_00009.json")
        save_model(init_model(), model)
        if stage == "train":
            argv = ["train", "--gt", str(dataset / "raw" / "gt.csv"), "--out", str(tmp_path / "new.bin")]
        else:
            argv = ["rank", "--model", str(model), "--out", str(tmp_path / "pred.csv")]
        assert run(*argv, "--in", str(pre)) == 2
        err = capsys.readouterr().err
        assert "'scene_00000' is in both" in err and "scene_00009.json" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.bin", "pre"]

    @pytest.mark.parametrize("scene_id", ["provenance", "manifest"])
    def test_reserved_names_are_scenes_under_scenes_dir(self, dataset, tmp_path, scene_id):
        raw = _raw_with_scene(dataset, tmp_path, scene_id=scene_id)
        pre, model, pred = tmp_path / "pre", tmp_path / "m.bin", tmp_path / "pred.csv"
        assert run("preprocess", "--in", str(raw), "--out", str(pre)) == 0
        assert (pre / "scenes" / f"{scene_id}.json").is_file()
        save_model(init_model(), model)
        assert run("rank", "--in", str(pre), "--model", str(model), "--out", str(pred)) == 0
        assert sorted(parse_ranking(pred)) == sorted([scene_id, "scene_00000", "scene_00002", "scene_00003"])

    def test_flat_directory_skips_the_sidecars(self, dataset, tmp_path):
        flat = tmp_path / "flat"
        flat.mkdir()
        for name in ("scene_00000.json", "scene_00002.json"):
            shutil.copy(dataset / "pre" / "scenes" / name, flat / name)
        (flat / "manifest.json").write_text("{}")
        (flat / "provenance.json").write_text("{}")
        assert run("gt-gen", "--in", str(flat), "--out", str(tmp_path / "gt.csv")) == 0
        assert sorted(parse_ranking(tmp_path / "gt.csv")) == ["scene_00000", "scene_00002"]


class TestNoFileItsReaderRefuses:
    """A stage whose output its own reader would refuse exits 2 and writes
    nothing."""

    def test_preprocess_refuses_a_non_finite_feature_row(self, tmp_path, capsys):
        raw, pre = tmp_path / "raw", tmp_path / "pre"
        raw.mkdir()
        scene = raw / "s.json"
        scene.write_text(json.dumps({
            "scene_id": "s", "width": 10, "height": 10,
            "proposals": [{"id": 0, "box": [0, 0, 1e-160, 1e-160]}, {"id": 1, "box": [2, 2, 8, 8]}],
            "fixations": [{"u": 0, "v": 0}, {"u": 5, "v": 5}],
        }))
        assert run("preprocess", "--in", str(raw), "--out", str(pre), "--jobs", "1") == 0
        before = tree(pre)  # the default min_area_px drops the subnormal box
        capsys.readouterr()
        argv = ["preprocess", "--in", str(raw), "--out", str(pre), "--min-area", "1e-320"]
        assert run(*argv, "--jobs", "1") == 2
        # The scene file and the row; no staging or .feat path that is never published.
        assert capsys.readouterr().err == f"error: {scene}: row 0: features must be finite\n"
        assert tree(pre) == before

    def test_train_refuses_a_diverging_run(self, tmp_path, capsys):
        raw, pre, gt = tmp_path / "raw", tmp_path / "pre", tmp_path / "gt.csv"
        argv = ["--seed", "3", "--scenes", "6", "--objects", "5:7", "--fixations", "100", "--no-maps"]
        assert run("synth", *argv, "--out", str(raw)) == 0
        assert run("preprocess", "--in", str(raw), "--out", str(pre)) == 0
        assert run("gt-gen", "--in", str(raw), "--out", str(gt)) == 0
        capsys.readouterr()
        train = ["train", "--in", str(pre), "--gt", str(gt), "--jobs", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy stays quiet on the way
            assert run(*train, "--lr", "1e6", "--out", str(tmp_path / "nan.bin")) == 2
        assert capsys.readouterr().err == (
            "error: lr: training at lr 1000000.0 diverged in epoch 13: a loss or parameter is not finite\n"
        )
        assert not list(tmp_path.glob("nan.bin*"))  # no model and no provenance
        # A large but finite run still writes the model it always did.
        assert run(*train, "--lr", "1000", "--out", str(tmp_path / "m.bin")) == 0
        assert capsys.readouterr().err == "trained on 36 windows; last losses: 526.4757, 538.1626, 440.8821\n"
        assert hashlib.sha256((tmp_path / "m.bin").read_bytes()).hexdigest() == LR_1000_MODEL_SHA256


# The model of that finite lr 1000 run.
LR_1000_MODEL_SHA256 = "e1110802714f6b5efc92c90999a8edd26b8b09cadd77c5b1ac4f01120c8a4df8"
