import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rankflow
from rankflow import pipeline
from rankflow.cli import _common, build_parser, dispatch, gamma_grid
from rankflow.pipeline import config_hash
from rankflow.errors import RankflowError
from rankflow.ingest import parse_ranking
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

    def test_missing_required_flag(self):
        assert run("synth") == 1

    def test_missing_input_dir(self, tmp_path):
        assert run("preprocess", "--in", str(tmp_path / "nope"), "--out", str(tmp_path / "o")) == 2

    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert run("synth", "--config", str(cfg), "--out", str(tmp_path / "d")) == 2

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run("synth", "--config", str(cfg), "--out", str(tmp_path / "d")) == 2

    def test_objects_without_colon(self, tmp_path, capsys):
        assert run("synth", "--objects", "5", "--out", str(tmp_path / "d")) == 2
        assert "--objects" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "fields",
        [{"iou_discard": "x"}, {"iou_discard": 0}, {"min_count": 2.5}, {"min_count": True},
         {"min_area_px": float("nan")}, {"max_area_frac": -1}],
    )
    def test_bad_filter_config(self, dataset, tmp_path, capsys, fields):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"filter": fields}))
        argv = ["preprocess", "--config", str(cfg), "--in", str(dataset / "raw"), "--out", str(tmp_path / "p")]
        assert run(*argv) == 2
        assert f"error: {next(iter(fields))} must be" in capsys.readouterr().err
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
        assert "window size" in capsys.readouterr().err

    def test_rank_takes_no_window_flag(self, dataset, tmp_path):
        argv = ["rank", "--in", str(dataset / "pre"), "--model", str(tmp_path / "m.bin"),
                "--out", str(tmp_path / "p.csv"), "--window", "5"]
        assert run(*argv) == 1

    def test_bad_ranking_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("scene_id,proposal_id,order\nscene_00000,x,1\n")
        assert run("eval", "--pred", str(bad), "--gt", str(bad), "--out", str(tmp_path / "r.json")) == 2
        assert "bad.csv: line 2" in capsys.readouterr().err

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

    @pytest.mark.parametrize("flag", ["2", "nan", "0"])
    def test_bad_lambda_flag(self, tmp_path, capsys, flag):
        argv = ["map-rank", "--in", str(tmp_path), f"--lambda={flag}", "--out", str(tmp_path / "p.csv")]
        assert run(*argv) == 2
        assert "--lambda must be a number in (0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("lam", ["x", 2, True, None])
    def test_bad_lambda_config(self, tmp_path, capsys, lam):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lam": lam}))
        assert run("map-rank", "--config", str(cfg), "--in", str(tmp_path), "--out", str(tmp_path / "p.csv")) == 2
        assert "cfg.json: lam must be a number in (0, 1]" in capsys.readouterr().err

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
        from rankflow.gtgen import GtConfig, discrepancy_offsets
        from rankflow.ingest import list_scene_files, parse_scene

        seen = []
        pooled = pipeline.parallel_map
        monkeypatch.setattr(pipeline, "parallel_map", lambda fn, items, jobs: seen.append(jobs) or pooled(fn, items, jobs))
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"disc{jobs}.csv"
            argv = ["gt-discrepancy", "--gammas", "0.1:1.0:0.1", "--in", str(dataset / "raw"), "--out", str(out)]
            assert run(*argv, "--jobs", jobs) == 0
            outs.append(out.read_text())
        assert seen == [1, 2]
        assert outs[0] == outs[1]
        scenes = [parse_scene(p) for p in list_scene_files(dataset / "raw")]
        grid = [round(0.1 * i, 10) for i in range(1, 11)]
        rows = discrepancy_offsets(scenes, GtConfig(), grid)
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

        monkeypatch.setattr(pipeline, "load_model", counting_load)
        pipeline.rank_dataset(pre, model, tmp_path / "pred.csv")
        assert len(calls) == 1
        assert len(parse_ranking(tmp_path / "pred.csv")) == 3

    def test_training_set_matches_per_window_samples(self, dataset):
        gt = parse_ranking(dataset / "raw" / "gt.csv")
        samples = pipeline.build_training_set(dataset / "pre", gt, 5)
        expected = []
        for scene, feats in pipeline.load_preprocessed(dataset / "pre"):
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

    def test_map_rank(self, dataset):
        out = dataset / "map_pred.csv"
        assert run(
            "map-rank", "--in", str(dataset / "raw"), "--lambda", "0.5", "--out", str(out)
        ) == 0
        assert len(parse_ranking(out)) == 4


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
