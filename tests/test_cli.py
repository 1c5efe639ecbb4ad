"""End-to-end CLI tests: every subcommand, exit codes, reproducibility."""

import csv
import dataclasses
import json
import re
from typing import Optional

import numpy as np
import pytest

from mlcgcn import cli
from mlcgcn.cli import build_parser, main, resolve_config
from mlcgcn.data import (SyntheticSpec, export_connectome, load_connectome, load_dataset,
                         load_manifest)
from mlcgcn.model import MLCGCN, LevelOutputs, ModelConfig, Tensor
from mlcgcn.training import EVAL_BATCH, TrainConfig, graph_stats


SYNTH_ARGS = [
    "--set", "synth.classes=3",
    "--set", "synth.per_class=10",
    "--set", "synth.n_rois=8",
    "--set", "synth.series_len=30",
    "--set", "synth.latent_rank=4",
    "--set", "synth.seed=1",
    "--set", "synth.hubs=1",
]

TRAIN_ARGS = [
    "--set", "model.embed_len=8",
    "--set", "model.conv_kernels=4",
    "--set", "model.hidden_size=8",
    "--set", "model.levels=2",
    "--set", "model.attention_heads=2",
    "--set", "model.gcn_hidden=8",
    "--set", "model.readout_dim=8",
    "--set", "train.epochs=2",
    "--set", "train.batch_size=8",
    "--set", "train.folds=2",
    "--set", "train.seed=1",
]


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert main(["synth", "--out", str(out), *SYNTH_ARGS]) == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, dataset_dir):
    out = tmp_path_factory.mktemp("train")
    rc = main([
        "train", "--manifest", str(dataset_dir / "manifest.json"),
        "--out", str(out), *TRAIN_ARGS,
    ])
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# synth


def test_synth_manifest_counts(dataset_dir):
    manifest = load_manifest(dataset_dir / "manifest.json")
    assert len(manifest.scans) == 30
    assert manifest.classes == ["class0", "class1", "class2"]


def test_synth_series_shape(dataset_dir):
    series = np.loadtxt(
        dataset_dir / "series" / "class0_000.csv", delimiter=",", ndmin=2
    )
    assert series.shape == (8, 30)


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--out", str(a), *SYNTH_ARGS]) == 0
    assert main(["synth", "--out", str(b), *SYNTH_ARGS]) == 0
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
    assert (a / "series" / "class1_003.csv").read_bytes() == (
        b / "series" / "class1_003.csv"
    ).read_bytes()


def test_synth_refuses_nonempty_dir_without_force(dataset_dir, capsys):
    assert main(["synth", "--out", str(dataset_dir), *SYNTH_ARGS]) == 2
    assert "not empty" in capsys.readouterr().err


def test_synth_force_overwrites(tmp_path):
    out = tmp_path / "d"
    assert main(["synth", "--out", str(out), *SYNTH_ARGS]) == 0
    assert main(["synth", "--out", str(out), "--force", *SYNTH_ARGS]) == 0


def test_synth_force_removes_the_old_datasets_files(tmp_path):
    out = tmp_path / "d"
    assert main(["synth", "--out", str(out), *SYNTH_ARGS, "--set", "synth.per_class=4"]) == 0
    (out / "notes.txt").write_text("kept")
    smaller = [*SYNTH_ARGS, "--set", "synth.classes=2", "--set", "synth.per_class=2"]
    assert main(["synth", "--out", str(out), "--force", *smaller]) == 0
    scans = load_manifest(out / "manifest.json").scans
    assert len(scans) == 4
    assert sorted(p.name for p in (out / "series").iterdir()) == sorted(
        f"{s.id}.csv" for s in scans
    )
    assert sorted(p.name for p in out.glob("connectome_*.csv")) == [
        "connectome_class0.csv", "connectome_class1.csv",
    ]
    assert (out / "notes.txt").read_text() == "kept"


@pytest.mark.parametrize("key,value", [
    ("series_len", "0"), ("series_len", "-3"), ("n_rois", "0"),
])
def test_synth_nonpositive_size_is_config_error(tmp_path, capsys, key, value):
    out = tmp_path / "d"
    rc = main(["synth", "--out", str(out), *SYNTH_ARGS, "--set", f"synth.{key}={value}"])
    assert rc == 2
    assert f"{key} must be >= 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key_rejected(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path / "x"), "--set", "synth.bogus=1"])
    assert rc == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["synth", *SYNTH_ARGS], ["train", "--manifest", "m.json"]],
                         ids=["synth", "train"])
def test_set_of_a_run_key_is_refused_by_name(tmp_path, capsys, argv):
    out = tmp_path / "x"
    assert main([*argv, "--out", str(out), "--set", "run.seed=5"]) == 2
    assert "unknown config key 'run.seed'" in capsys.readouterr().err
    assert not out.exists()


def test_every_config_field_settable_and_typed():
    samples = {
        int: ("3", 3), float: ("0.5", 0.5), bool: ("false", False),
        Optional[tuple]: ("0+1", (0, 1)),
    }
    for argv, scopes in (
        (["synth"], (("synth", SyntheticSpec),)),
        (["train", "--manifest", "m.json"], (("model", ModelConfig), ("train", TrainConfig))),
    ):
        expected = {}
        for scope, cls in scopes:
            for f in dataclasses.fields(cls):
                text, value = samples[f.type]
                argv += ["--set", f"{scope}.{f.name}={text}"]
                expected[f"{scope}.{f.name}"] = value
        typed = resolve_config(build_parser().parse_args(argv))
        assert typed == expected
        assert all(type(typed[k]) is type(v) for k, v in expected.items())


@pytest.mark.parametrize("argv,key", [
    (["synth"], "train.epochs=5"),
    (["train", "--manifest", "m.json"], "synth.noise=1"),
])
def test_config_key_outside_the_subcommand_scopes_rejected(tmp_path, capsys, argv, key):
    assert main([*argv, "--out", str(tmp_path / "x"), "--set", key]) == 2
    assert f"config key {key.split('=')[0]!r} does not apply" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["model.gcn_layers", "model.normalize_adjacency",
                                 "model.readout_mode"])
def test_removed_model_keys_rejected(tmp_path, capsys, key):
    assert main(["synth", "--out", str(tmp_path / "x"), "--set", f"{key}=1"]) == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gradcheck"],
    ["eval", "--checkpoint", "c.ckpt", "--manifest", "m.json"],
    ["export", "--checkpoint", "c.ckpt", "--manifest", "m.json"],
])
def test_config_options_refused_where_unused(argv, capsys):
    assert main([*argv, "--set", "x=1"]) == 2
    assert "unrecognized arguments: --set x=1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["synth", *SYNTH_ARGS, "--force"],
    ["train", "--manifest", "{manifest}", *TRAIN_ARGS],
    ["eval", "--checkpoint", "{ckpt}", "--manifest", "{manifest}"],
    ["ablate", "--manifest", "{manifest}", *TRAIN_ARGS, "--variant", "no-group:train.alpha=0.0"],
    ["gradcheck", "--n-rois", "4", "--series-len", "12", "--levels", "1"],
    ["export", "--checkpoint", "{ckpt}", "--manifest", "{manifest}", "--top", "3"],
], ids=["synth", "train", "eval", "ablate", "gradcheck", "export"])
def test_snapshot_records_every_argument(dataset_dir, trained_dir, tmp_path, argv):
    paths = {"manifest": dataset_dir / "manifest.json", "ckpt": trained_dir / "fold0.ckpt"}
    argv = [arg.format(**paths) for arg in argv] + ["--out", str(tmp_path / "out")]
    assert main(argv) == 0
    lines = (tmp_path / "out" / "resolved.cfg").read_text().splitlines()
    recorded = dict(line.split(" = ", 1) for line in lines if line.startswith("run."))
    parsed = vars(build_parser().parse_args(argv))
    assert recorded == {f"run.{dest}": str(value) for dest, value in parsed.items()
                        if dest not in ("func", "out", "config", "set")}


def test_unknown_subcommand_usage_error():
    assert main(["frobnicate"]) == 2


def test_output_env_var_sets_default_dir(tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("MLCGCN_OUT", str(target))
    assert main(["synth", *SYNTH_ARGS]) == 0
    assert (target / "manifest.json").exists()


# ---------------------------------------------------------------------------
# train


def test_train_outputs(trained_dir):
    report = (trained_dir / "fold_report.txt").read_text()
    lines = report.strip().splitlines()
    assert lines[0] == "fold,Acc,AUC,Spe,Sen,F1"
    assert len(lines) == 4  # header + 2 folds + aggregate
    assert "±" in lines[-1]
    assert (trained_dir / "fold0.ckpt").exists()
    assert (trained_dir / "fold1.ckpt").exists()
    assert (trained_dir / "resolved.cfg").exists()
    doc = json.loads((trained_dir / "fold_report.json").read_text())
    assert set(doc) == {"folds", "mean", "std"}


def test_train_reports_byte_identical_for_same_seed(dataset_dir, tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        rc = main([
            "train", "--manifest", str(dataset_dir / "manifest.json"),
            "--out", str(out), *TRAIN_ARGS,
        ])
        assert rc == 0
        outs.append(out)
    assert (outs[0] / "fold_report.txt").read_bytes() == (outs[1] / "fold_report.txt").read_bytes()
    assert (outs[0] / "fold0.ckpt").read_bytes() == (outs[1] / "fold0.ckpt").read_bytes()


def test_train_rerun_from_snapshot_matches(dataset_dir, trained_dir, tmp_path):
    out = tmp_path / "snap"
    rc = main([
        "train", "--manifest", str(dataset_dir / "manifest.json"),
        "--out", str(out), "--config", str(trained_dir / "resolved.cfg"),
    ])
    assert rc == 0
    assert (out / "fold_report.txt").read_bytes() == (
        trained_dir / "fold_report.txt"
    ).read_bytes()


def test_train_zero_attention_heads_is_config_error(dataset_dir, tmp_path, capsys):
    rc = main([
        "train", "--manifest", str(dataset_dir / "manifest.json"),
        "--out", str(tmp_path / "bad"), *TRAIN_ARGS, "--set", "model.attention_heads=0",
    ])
    assert rc == 2
    assert "attention_heads must be >= 1" in capsys.readouterr().err


def test_train_levels_flag_controls_depth(dataset_dir, tmp_path):
    out = tmp_path / "k1"
    rc = main([
        "train", "--manifest", str(dataset_dir / "manifest.json"),
        "--out", str(out), *TRAIN_ARGS, "--set", "model.levels=1",
    ])
    assert rc == 0
    header = json.loads((out / "fold0.ckpt").read_bytes().split(b"\n", 1)[0])
    assert header["config"]["levels"] == 1


def test_train_ablate_flag_removed(dataset_dir, tmp_path):
    rc = main([
        "train", "--manifest", str(dataset_dir / "manifest.json"),
        "--out", str(tmp_path / "abl"), "--ablate", "no-sfe",
    ])
    assert rc == 2


def test_train_conflicting_geometry_rejected(dataset_dir, tmp_path, capsys):
    rc = main([
        "train", "--manifest", str(dataset_dir / "manifest.json"),
        "--out", str(tmp_path / "bad"), "--set", "model.n_rois=99", *TRAIN_ARGS,
    ])
    assert rc == 2
    assert "conflicts with the manifest" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval


def test_eval_on_training_data(dataset_dir, trained_dir, tmp_path, capsys):
    rc = main([
        "eval", "--checkpoint", str(trained_dir / "fold0.ckpt"),
        "--manifest", str(dataset_dir / "manifest.json"),
        "--out", str(tmp_path / "eval"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Acc = " in out


def test_eval_deterministic(dataset_dir, trained_dir, tmp_path):
    reports = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        main([
            "eval", "--checkpoint", str(trained_dir / "fold0.ckpt"),
            "--manifest", str(dataset_dir / "manifest.json"), "--out", str(out),
        ])
        reports.append((out / "metrics.txt").read_bytes())
    assert reports[0] == reports[1]


def test_eval_mismatched_manifest_refused(trained_dir, tmp_path, capsys):
    other = tmp_path / "other"
    args = [a if a != "synth.n_rois=8" else "synth.n_rois=6" for a in SYNTH_ARGS]
    assert main(["synth", "--out", str(other), *args]) == 0
    rc = main([
        "eval", "--checkpoint", str(trained_dir / "fold0.ckpt"),
        "--manifest", str(other / "manifest.json"), "--out", str(tmp_path / "ev"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "n_rois" in err
    assert str(trained_dir / "fold0.ckpt") in err and str(other / "manifest.json") in err


def _synth_with(out, **changes):
    """Synthesize SYNTH_ARGS with the `synth.<key>` settings in `changes` replaced."""
    args = []
    for arg in SYNTH_ARGS:
        key = arg.partition("=")[0].removeprefix("synth.")
        args.append(f"synth.{key}={changes[key]}" if key in changes else arg)
    assert main(["synth", "--out", str(out), *args]) == 0
    return out / "manifest.json"


def test_export_refuses_another_geometry_before_reading_any_scan(trained_dir, tmp_path, capsys,
                                                                  monkeypatch):
    manifest = _synth_with(tmp_path / "other", n_rois=6, series_len=12)

    def no_scans(*args, **kwargs):
        raise AssertionError("a scan was read before the geometry check")

    monkeypatch.setattr(cli, "load_dataset", no_scans)
    rc = main(["export", "--checkpoint", str(trained_dir / "fold0.ckpt"),
               "--manifest", str(manifest), "--out", str(tmp_path / "exp")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "n_rois: checkpoint 8 vs manifest 6; series_len: checkpoint 30 vs manifest 12" in err
    assert str(trained_dir / "fold0.ckpt") in err and str(manifest) in err


def test_export_reads_a_manifest_with_another_class_count(trained_dir, tmp_path):
    # export never reads the class count, so only n_rois and series_len must fit.
    manifest = _synth_with(tmp_path / "two", classes=2)
    rc = main(["export", "--checkpoint", str(trained_dir / "fold0.ckpt"),
               "--manifest", str(manifest), "--out", str(tmp_path / "exp")])
    assert rc == 0
    assert (tmp_path / "exp" / "node_importance.csv").exists()


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_passes_and_lists_all_blocks(tmp_path, capsys):
    from mlcgcn.cli import gradcheck_config
    from mlcgcn.model import init_params

    rc = main([
        "gradcheck", "--out", str(tmp_path / "gc"), "--levels", "1",
        "--series-len", "12", "--tolerance", "1e-3",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    cfg = gradcheck_config(levels=1, series_len=12)
    n_blocks = len(init_params(cfg, np.random.default_rng(0)))
    assert out.count("PASS") == n_blocks  # one row per parameter block
    assert "FAIL" not in out


def test_gradcheck_impossible_tolerance_fails(tmp_path, capsys):
    rc = main([
        "gradcheck", "--out", str(tmp_path / "gc"), "--levels", "1",
        "--series-len", "12", "--tolerance", "0",
    ])
    assert rc == 1
    captured = capsys.readouterr()
    assert "worst block" in captured.out
    assert "FAILED" in captured.err


def test_gradcheck_failure_names_the_zero_norm_rows_it_met(tmp_path, capsys):
    rc = main([
        "gradcheck", "--out", str(tmp_path / "gc"), "--levels", "1", "--series-len", "6",
    ])
    assert rc == 1
    out = capsys.readouterr().out
    assert re.search(r"^stfe1\.fuse\.b2 .*FAIL  \([1-9]\d* zero-norm rows met\)$", out, re.M)


def test_gradcheck_config_fits_short_series():
    from mlcgcn.cli import gradcheck_config

    assert gradcheck_config(series_len=6).embed_len == 6
    assert gradcheck_config().embed_len == 8


def test_gradcheck_enforces_tiny_config(tmp_path, capsys):
    rc = main(["gradcheck", "--out", str(tmp_path / "gc"), "--n-rois", "10"])
    assert rc == 2
    assert "tiny config" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# export


def test_export_node_importance_row_count(dataset_dir, trained_dir, tmp_path):
    out = tmp_path / "exp"
    rc = main([
        "export", "--checkpoint", str(trained_dir / "fold0.ckpt"),
        "--manifest", str(dataset_dir / "manifest.json"),
        "--out", str(out), "--top", "5",
    ])
    assert rc == 0
    lines = (out / "node_importance.csv").read_text().strip().splitlines()
    assert lines[0] == "roi,score"
    assert len(lines) == 6


def test_export_top_edges_count(dataset_dir, trained_dir, tmp_path):
    out = tmp_path / "exp"
    rc = main([
        "export", "--checkpoint", str(trained_dir / "fold0.ckpt"),
        "--manifest", str(dataset_dir / "manifest.json"),
        "--out", str(out), "--fraction", "0.5",
    ])
    assert rc == 0
    lines = (out / "top_edges.csv").read_text().strip().splitlines()
    assert lines[0] == "i,j,weight"
    assert len(lines) - 1 == int(np.ceil(0.5 * 8 * 7 / 2))


def test_export_mean_graph_round_trips(dataset_dir, trained_dir, tmp_path):
    out = tmp_path / "exp"
    rc = main([
        "export", "--checkpoint", str(trained_dir / "fold0.ckpt"),
        "--manifest", str(dataset_dir / "manifest.json"),
        "--out", str(out), "--level", "pearson",
    ])
    assert rc == 0
    mat = load_connectome(out / "mean_graph.csv")
    assert mat.shape == (8, 8)
    np.testing.assert_allclose(np.diag(mat), 1.0, atol=1e-12)


EXPORT_ARGS = ["export", "--checkpoint", "{ckpt}", "--manifest", "{manifest}",
               "--out", "{tmp}/exp"]


@pytest.mark.parametrize("argv,cause", [
    (["train", "--manifest", "{manifest}", "--out", "{tmp}/tr", "--config", "{tmp}/missing.cfg"],
     "cannot read config file"),
    ([*EXPORT_ARGS, "--level", "foo"], "level selector"),
    ([*EXPORT_ARGS, "--top", "-1"], "--top must be >= 1"),
    ([*EXPORT_ARGS, "--top", "0"], "--top must be >= 1"),
], ids=["missing-config", "export-level-foo", "export-top-negative", "export-top-zero"])
def test_unreadable_input_is_usage_error(dataset_dir, trained_dir, tmp_path, capsys, argv, cause):
    paths = {"manifest": dataset_dir / "manifest.json", "ckpt": trained_dir / "fold0.ckpt",
             "tmp": tmp_path}
    rc = main([arg.format(**paths) for arg in argv])
    assert rc == 2
    assert cause in capsys.readouterr().err


def _model_never_runs(*args, **kwargs):
    raise AssertionError("the model ran before --out was checked")


@pytest.mark.parametrize("argv", [
    ["synth", *SYNTH_ARGS],
    ["train", "--manifest", "{manifest}", *TRAIN_ARGS],
    ["gradcheck"],
    ["eval", "--checkpoint", "{ckpt}", "--manifest", "{manifest}"],
    ["export", "--checkpoint", "{ckpt}", "--manifest", "{manifest}"],
], ids=["synth", "train", "gradcheck", "eval", "export"])
def test_unwritable_out_is_usage_error(dataset_dir, trained_dir, tmp_path, capsys, monkeypatch,
                                       argv):
    monkeypatch.setattr(cli, "evaluate_model", _model_never_runs)
    monkeypatch.setattr(cli, "graph_stats", _model_never_runs)
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    out = blocker / "sub"
    paths = {"manifest": dataset_dir / "manifest.json", "ckpt": trained_dir / "fold0.ckpt"}
    rc = main([arg.format(**paths) for arg in argv] + ["--out", str(out)])
    assert rc == 2
    assert str(out) in capsys.readouterr().err


def test_export_fraction_checked_before_anything_is_loaded(dataset_dir, trained_dir, tmp_path,
                                                           capsys, monkeypatch):
    monkeypatch.setattr(MLCGCN, "predict", _model_never_runs)
    out = tmp_path / "exp"
    rc = main(["export", "--checkpoint", str(trained_dir / "fold0.ckpt"),
               "--manifest", str(dataset_dir / "manifest.json"), "--out", str(out),
               "--fraction", "2"])
    assert rc == 2
    assert "--fraction must be in (0, 1], got 2.0" in capsys.readouterr().err
    assert not (out / "resolved.cfg").exists()


@pytest.mark.parametrize("selector,picked,level", [
    ("all", [0, 1], 0), ("pearson", ["pearson"], 0), ("2", [1], 2),
], ids=["all", "pearson", "level-2"])
def test_level_pick_selects_the_named_stacks(selector, picked, level):
    rng = np.random.default_rng(3)
    out = LevelOutputs([Tensor(rng.normal(size=(3, 4, 4))) for _ in range(2)],
                       Tensor(rng.normal(size=(3, 4, 4))), [])
    pick, got_level = cli.level_pick(selector)
    assert got_level == level
    want = [out.pearson if k == "pearson" else out.adjacencies[k] for k in picked]
    assert all(a is b for a, b in zip(pick(out), want, strict=True))


def test_export_mean_graph_matches_per_scan_forwards(dataset_dir, trained_dir, tmp_path):
    # 30 scans: two batched slices (16 + 14) against 30 single-scan forwards.
    out = tmp_path / "exp"
    rc = main([
        "export", "--checkpoint", str(trained_dir / "fold0.ckpt"),
        "--manifest", str(dataset_dir / "manifest.json"),
        "--out", str(out), "--level", "all",
    ])
    assert rc == 0
    model = MLCGCN.load(trained_dir / "fold0.ckpt")
    samples = load_dataset(dataset_dir / "manifest.json")
    assert EVAL_BATCH < len(samples) <= 2 * EVAL_BATCH
    per_scan = [a.data for s in samples for a in model.predict(s.series)[1].adjacencies]
    np.testing.assert_allclose(load_connectome(out / "mean_graph.csv"), np.mean(per_scan, axis=0),
                               rtol=0, atol=1e-12)


def test_export_runs_one_forward_per_slice(dataset_dir, trained_dir, tmp_path, monkeypatch):
    # One call writes all three summaries from one pass of ceil(n / EVAL_BATCH) forwards.
    model = MLCGCN.load(trained_dir / "fold0.ckpt")
    mean = graph_stats(model, load_dataset(dataset_dir / "manifest.json"),
                       cli.level_pick("all")[0]).mean()
    calls = []
    predict = MLCGCN.predict

    def counting(self, x, **kwargs):
        calls.append(x.shape[0])  # scans in this forward
        return predict(self, x, **kwargs)

    monkeypatch.setattr(MLCGCN, "predict", counting)
    rc = main([
        "export", "--checkpoint", str(trained_dir / "fold0.ckpt"),
        "--manifest", str(dataset_dir / "manifest.json"),
        "--out", str(tmp_path / "exp"),
    ])
    assert rc == 0
    n = len(load_manifest(dataset_dir / "manifest.json").scans)
    assert calls == [EVAL_BATCH, n - EVAL_BATCH]  # ceil(n / EVAL_BATCH) calls, not n
    for name, fmt in [("mean_graph.csv", "matrix"), ("top_edges.csv", "edge-list"),
                      ("node_importance.csv", "node-importance")]:
        export_connectome(mean, tmp_path / name, fmt=fmt, fraction=0.01, top=20)
        assert (tmp_path / "exp" / name).read_bytes() == (tmp_path / name).read_bytes()


@pytest.mark.parametrize("argv", [
    ["eval"],
    ["export"],
], ids=["eval", "export"])
def test_empty_manifest_is_usage_error(dataset_dir, trained_dir, tmp_path, capsys, argv):
    doc = json.loads((dataset_dir / "manifest.json").read_text())
    doc["scans"] = []
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps(doc))
    rc = main([*argv, "--checkpoint", str(trained_dir / "fold0.ckpt"),
               "--manifest", str(empty), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "the dataset lists no scans" in capsys.readouterr().err


def test_train_malformed_manifest_geometry_is_usage_error(dataset_dir, tmp_path, capsys):
    doc = json.loads((dataset_dir / "manifest.json").read_text())
    doc["n_rois"] = "abc"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(["train", "--manifest", str(bad), "--out", str(tmp_path / "out"), *TRAIN_ARGS])
    assert rc == 2
    assert "n_rois must be a positive integer" in capsys.readouterr().err


def test_export_level_checked_before_checkpoint(dataset_dir, tmp_path, capsys):
    missing = tmp_path / "no-such.ckpt"
    rc = main(["export", "--checkpoint", str(missing),
               "--manifest", str(dataset_dir / "manifest.json"), "--out", str(tmp_path / "exp"),
               "--level", "foo"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "'foo'" in err and str(missing) not in err


def test_export_level_above_model_depth_refused_before_data(trained_dir, tmp_path, capsys):
    # The manifest does not exist: the depth check must come first.
    rc = main(["export", "--checkpoint", str(trained_dir / "fold0.ckpt"),
               "--manifest", str(tmp_path / "no-such.json"), "--out", str(tmp_path / "exp"),
               "--level", "3"])
    assert rc == 2
    assert "level selector 3 outside [1, 2]" in capsys.readouterr().err


@pytest.fixture(scope="module")
def wide_trained(tmp_path_factory):
    """A 20-ROI dataset plus a briefly trained checkpoint, for export defaults."""
    data = tmp_path_factory.mktemp("wide-data")
    assert main([
        "synth", "--out", str(data),
        "--set", "synth.per_class=8", "--set", "synth.series_len=50",
        "--set", "synth.seed=3",
    ]) == 0
    train = tmp_path_factory.mktemp("wide-train")
    assert main([
        "train", "--manifest", str(data / "manifest.json"), "--out", str(train),
        "--set", "model.embed_len=16", "--set", "model.conv_kernels=4",
        "--set", "model.hidden_size=16", "--set", "model.levels=1",
        "--set", "model.attention_heads=4", "--set", "model.gcn_hidden=16",
        "--set", "model.readout_dim=16", "--set", "train.epochs=40",
        "--set", "train.batch_size=4", "--set", "train.folds=2",
        "--set", "train.mixup_alpha=0", "--set", "train.alpha=0",
        "--set", "train.seed=3",
    ]) == 0
    return data, train


def test_export_node_importance_default_is_twenty_rows(wide_trained, tmp_path):
    data, train = wide_trained
    out = tmp_path / "exp20"
    rc = main([
        "export", "--checkpoint", str(train / "fold0.ckpt"),
        "--manifest", str(data / "manifest.json"),
        "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "node_importance.csv").read_text().strip().splitlines()
    assert len(lines) - 1 == 20


def test_eval_overfit_run_near_perfect_on_training_data(wide_trained, tmp_path, capsys):
    """Evaluating fold 0's checkpoint on fold 0's own training split."""
    from mlcgcn.data import load_dataset
    from mlcgcn.metrics import stratified_kfold
    from mlcgcn.seeding import derive_seed

    data, train = wide_trained
    samples = load_dataset(data / "manifest.json")
    splits = stratified_kfold([s.label for s in samples], 2, derive_seed(3, "folds"))
    train_ids = {samples[i].scan_id for i in splits[0][0]}

    doc = json.loads((data / "manifest.json").read_text())
    doc["scans"] = [rec for rec in doc["scans"] if rec["id"] in train_ids]
    subset = tmp_path / "train_split.json"
    subset.write_text(json.dumps(doc))
    (tmp_path / "series").symlink_to(data / "series")

    rc = main([
        "eval", "--checkpoint", str(train / "fold0.ckpt"),
        "--manifest", str(subset), "--out", str(tmp_path / "ov"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    acc = float(out.splitlines()[0].split("=")[1])
    assert acc >= 90.0


# ---------------------------------------------------------------------------
# ablate (smoke: custom single variants to stay fast)


def test_ablate_custom_variants(dataset_dir, tmp_path, capsys):
    out = tmp_path / "abl"
    rc = main([
        "ablate", "--manifest", str(dataset_dir / "manifest.json"),
        "--out", str(out), *TRAIN_ARGS,
        "--variant", "no-group:train.alpha=0.0",
        "--variant", "tfe-only:model.use_sfe=false",
    ])
    assert rc == 0
    table = (out / "ablation.txt").read_text().strip().splitlines()
    assert table[0].startswith("variant,")
    assert len(table) == 3
    assert table[1].startswith("no-group,")


@pytest.mark.parametrize("variant,key", [
    ("x:model.levels=two", "model.levels"),
    ("x:synth.noise=1", "synth.noise"),
])
def test_ablate_bad_variant_value_is_a_config_error(dataset_dir, tmp_path, capsys, variant, key):
    rc = main(["ablate", "--manifest", str(dataset_dir / "manifest.json"),
               "--out", str(tmp_path / "abl"), *TRAIN_ARGS, "--variant", variant])
    assert rc == 2
    assert key in capsys.readouterr().err


def _dataset_never_loaded(*args, **kwargs):
    raise AssertionError("the dataset was loaded before every --variant was checked")


@pytest.mark.parametrize("variants,named", [
    (["a,b:train.alpha=0"], "'a,b:train.alpha=0'"),
    (['a"b:train.alpha=0'], "'a\"b:train.alpha=0'"),
    (["a\nb:train.alpha=0"], "'a\\nb:train.alpha=0'"),
    ([":train.alpha=0"], "':train.alpha=0'"),
    (["ok:train.alpha=0", "x:model.levels=two"], "model.levels"),
], ids=["comma", "quote", "newline", "empty", "bad-value-in-second"])
def test_ablate_variants_checked_before_anything_is_loaded(dataset_dir, tmp_path, capsys,
                                                           monkeypatch, variants, named):
    monkeypatch.setattr(cli, "load_dataset", _dataset_never_loaded)
    out = tmp_path / "abl"
    argv = ["ablate", "--manifest", str(dataset_dir / "manifest.json"), "--out", str(out)]
    for spec in variants:
        argv += ["--variant", spec]
    assert main(argv) == 2
    assert named in capsys.readouterr().err
    assert not (out / "resolved.cfg").exists()


def test_ablate_rerun_from_snapshot_matches(dataset_dir, tmp_path):
    variant = ["--variant", "no-group:train.alpha=0.0"]
    first, second = tmp_path / "a1", tmp_path / "a2"
    assert main(["ablate", "--manifest", str(dataset_dir / "manifest.json"),
                 "--out", str(first), *TRAIN_ARGS, *variant]) == 0
    snapshot = first / "resolved.cfg"
    keys = {line.split(" = ")[0] for line in snapshot.read_text().splitlines()}
    expected = {f"{scope}.{f.name}" for scope, cls in (("model", ModelConfig), ("train", TrainConfig))
                for f in dataclasses.fields(cls)}
    assert keys - {"run.subcommand", "run.manifest", "run.variant"} == expected
    assert main(["ablate", "--manifest", str(dataset_dir / "manifest.json"),
                 "--out", str(second), "--config", str(snapshot), *variant]) == 0
    assert (second / "ablation.txt").read_bytes() == (first / "ablation.txt").read_bytes()


def test_ablate_failed_cause_with_commas_stays_one_csv_cell(dataset_dir, tmp_path):
    out = tmp_path / "abl"
    rc = main(["ablate", "--manifest", str(dataset_dir / "manifest.json"), "--out", str(out),
               *TRAIN_ARGS, "--variant", "bad:model.level_subset=0+5",
               "--variant", "ok:train.alpha=0.0"])
    assert rc == 1
    lines = (out / "ablation.txt").read_text().splitlines()
    rows = list(csv.reader(lines))
    assert [len(row) for row in rows] == [7, 7, 7]
    assert rows[1][:2] == ["bad", "failed: level_subset entries must lie in [0, 2], got (0, 5)"]
    assert lines[2] == ",".join(rows[2])  # a row that ran is written unquoted
