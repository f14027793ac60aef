import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rankflow
from rankflow import pipeline
from rankflow.cli import dispatch, gamma_grid
from rankflow.pipeline import config_hash
from rankflow.errors import RankflowError
from rankflow.ingest import parse_ranking
from rankflow.scorer import init_model, load_model, save_model


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

    def test_map_rank(self, dataset):
        out = dataset / "map_pred.csv"
        assert run(
            "map-rank", "--in", str(dataset / "raw"), "--lambda", "0.5", "--out", str(out)
        ) == 0
        assert len(parse_ranking(out)) == 4


class TestDeterminism:
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
