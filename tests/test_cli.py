"""Command-line surface and config validation end to end."""

import json
import re

import numpy as np
import pytest
import yaml

from coforget import cli, data, oracle
from coforget.config import build_config, load_config, validate_config
from coforget.errors import ConfigurationError

SMALL_CONFIG = {
    "dataset": {"classes": 3, "per_class": 40, "test_per_class": 20, "dim": 4, "spread": 1.5},
    "noise": {"kind": "symmetric", "eta": 0.4},
    "optim": {"batch_size": 32},
    "schedule": {
        "max_epoch": 12, "warmup": 2, "start_unlearn": 6,
        "encoder_unfreeze": 4, "unlearn_period": 3, "unlearn_duration": 1,
    },
    "method": {"t_unl": 0.05, "lambda_u": 2.0},
    "run": {"seed": 3},
}


def write_config(tmp_path, extra=None, name="cfg.yaml"):
    cfg = yaml.safe_load(yaml.safe_dump(SMALL_CONFIG))
    for key, value in (extra or {}).items():
        section, field = key.split(".")
        cfg.setdefault(section, {})[field] = value
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


class TestConfig:
    def test_defaults_round_trip(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_config(path)
        assert cfg.schedule.max_epoch == 12
        assert cfg.method.t_unl == 0.05
        assert cfg.optim.lr_scratch == 0.02  # untouched default

    def test_unknown_key_rejected_with_path(self, tmp_path):
        path = write_config(tmp_path, {"method.t_unlearn": 0.05})
        with pytest.raises(ConfigurationError, match="method.t_unlearn"):
            load_config(path)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigurationError, match="sched"):
            build_config({"sched": {"max_epoch": 5}})

    def test_missing_t_unl_with_unlearning_enabled(self, tmp_path):
        cfg = yaml.safe_load(yaml.safe_dump(SMALL_CONFIG))
        del cfg["method"]["t_unl"]
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        with pytest.raises(ConfigurationError, match="t_unl"):
            load_config(path)

    def test_t_unl_not_needed_when_unlearning_off(self, tmp_path):
        cfg = yaml.safe_load(yaml.safe_dump(SMALL_CONFIG))
        del cfg["method"]["t_unl"]
        cfg["method"]["unlearning"] = False
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        load_config(path)

    def test_override_seed_shorthand(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_config(path, overrides=["seed=9"])
        assert cfg.run.seed == 9

    def test_override_dotted(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_config(path, overrides=["method.lambda_u=7.5", "schedule.max_epoch=8"])
        assert cfg.method.lambda_u == 7.5
        assert cfg.schedule.max_epoch == 8

    def test_bad_type_rejected(self, tmp_path):
        path = write_config(tmp_path, {"schedule.max_epoch": "many"})
        with pytest.raises(ConfigurationError, match="schedule.max_epoch"):
            load_config(path)

    @pytest.mark.parametrize("field, value, expected", [
        ("schedule.warmup", True, "an integer"),
        ("schedule.warmup", 2.0, "an integer"),
        ("optim.momentum", "0.9", "a number"),
        ("optim.momentum", False, "a number"),
        ("method.asymmetric", 1, "true/false"),
        ("oracle.path", 3, "a string"),
        ("net_embed.hidden", 8, "a list"),
        ("net_embed.hidden", None, "a list"),
        ("dataset.seed", 1.5, "an integer or null"),
        ("method.t_unl", "hot", "a number or null"),
        ("noise.pair_map", "1,2,0", "a list or null"),
    ])
    def test_field_type_names_what_is_expected(self, field, value, expected):
        section, key = field.split(".")
        with pytest.raises(ConfigurationError,
                           match=rf"^{re.escape(field)}: expected {re.escape(expected)}, got "):
            build_config({section: {key: value}})

    @pytest.mark.parametrize("field, value, stored", [
        ("dataset.seed", None, None), ("dataset.seed", 4, 4), ("method.t_unl", 1, 1.0),
        ("noise.pair_map", None, None), ("optim.lr_embed", 3, 3.0),
    ])
    def test_field_type_coercion(self, field, value, stored):
        section, key = field.split(".")
        raw = {"method": {"t_unl": 0.05}}
        raw.setdefault(section, {})[key] = value
        cfg = build_config(raw)
        got = getattr(getattr(cfg, section), key)
        assert got == stored and type(got) is type(stored)

    @pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
    @pytest.mark.parametrize(
        "field", ["method.t_unl", "method.lambda_u", "optim.lr_scratch", "dataset.spread"]
    )
    def test_non_finite_float_rejected_with_field(self, tmp_path, field, value):
        path = write_config(tmp_path)
        with pytest.raises(ConfigurationError, match=field.replace(".", r"\.")):
            load_config(path, overrides=[f"{field}={value}"])

    def test_non_finite_float_rejected_on_direct_validation(self):
        cfg = build_config(yaml.safe_load(yaml.safe_dump(SMALL_CONFIG)))
        cfg.noise.eta = float("nan")
        with pytest.raises(ConfigurationError, match=r"noise\.eta"):
            validate_config(cfg)

    @pytest.mark.parametrize("pair_map, index", [
        ([1, "x", 0], 1), ([1.5, 2, 0], 0), ([1, 2, True], 2), ([1, None, 0], 1),
        ([1, [2], 0], 1),
    ])
    def test_pair_map_elements_must_be_ints(self, tmp_path, pair_map, index):
        path = write_config(tmp_path, {"noise.kind": "asymmetric", "noise.pair_map": pair_map})
        with pytest.raises(ConfigurationError, match=rf"noise\.pair_map\[{index}\]"):
            load_config(path)

    def test_pair_map_of_ints_accepted(self, tmp_path):
        path = write_config(tmp_path, {"noise.kind": "asymmetric", "noise.pair_map": [1, 2, 0]})
        assert load_config(path).noise.pair_map == [1, 2, 0]

    @pytest.mark.parametrize("section, override", [
        ("run", "seed=2"), ("run", "run.outdir=x"), ("method", "method.t_unl=0.1"),
    ])
    def test_override_into_non_mapping_section(self, tmp_path, section, override):
        cfg = yaml.safe_load(yaml.safe_dump(SMALL_CONFIG))
        cfg[section] = 5
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        with pytest.raises(ConfigurationError, match=f"section '{section}' must be a mapping"):
            load_config(path, overrides=[override])

    def test_override_into_non_mapping_root(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("[1, 2]\n")
        with pytest.raises(ConfigurationError, match="config root must be a mapping"):
            load_config(path, overrides=["seed=2"])

    def test_schedule_invariants(self):
        bad = yaml.safe_load(yaml.safe_dump(SMALL_CONFIG))
        bad["schedule"]["warmup"] = 7  # >= start_unlearn
        with pytest.raises(ConfigurationError, match="warmup"):
            build_config(bad)

    def test_config_hash_stable(self, tmp_path):
        path = write_config(tmp_path)
        assert load_config(path).config_hash() == load_config(path).config_hash()


class TestMakeData:
    def test_eta_zero_manifest_identity(self, tmp_path):
        out = tmp_path / "ds.csv"
        rc = cli.main([
            "make-data", "--classes", "3", "--per-class", "10", "--dim", "2",
            "--noise", "symmetric", "--eta", "0.0", "--out", str(out),
        ])
        assert rc == 0
        manifest = json.loads((tmp_path / "ds.csv.manifest.json").read_text())
        np.testing.assert_array_equal(np.array(manifest["transition_matrix"]), np.eye(3))

    def test_rerun_byte_identical(self, tmp_path):
        args = [
            "make-data", "--classes", "3", "--per-class", "15", "--dim", "3",
            "--noise", "symmetric", "--eta", "0.3", "--seed", "5", "--noise-seed", "6",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_symmetric_manifest_diagonal(self, tmp_path):
        out = tmp_path / "ds.csv"
        cli.main([
            "make-data", "--classes", "10", "--per-class", "5", "--dim", "2",
            "--noise", "symmetric", "--eta", "0.5", "--out", str(out),
        ])
        manifest = json.loads((tmp_path / "ds.csv.manifest.json").read_text())
        t = np.array(manifest["transition_matrix"])
        np.testing.assert_allclose(np.diag(t), 0.5, atol=1e-9)

    def test_asymmetric_requires_pair_map(self, tmp_path, capsys):
        rc = cli.main([
            "make-data", "--classes", "3", "--per-class", "5", "--dim", "2",
            "--noise", "asymmetric", "--eta", "0.2", "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 2
        assert "pair-map" in capsys.readouterr().err

    def test_instance_noise_manifest_holds_empirical_matrix(self, tmp_path):
        out = tmp_path / "ds.csv"
        rc = cli.main([
            "make-data", "--classes", "3", "--per-class", "200", "--dim", "3",
            "--noise", "instance", "--eta", "0.3", "--out", str(out),
        ])
        assert rc == 0
        manifest = json.loads((tmp_path / "ds.csv.manifest.json").read_text())
        t = np.array(manifest["transition_matrix"])
        np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-9)
        assert np.diag(t).mean() == pytest.approx(0.7, abs=0.08)


class TestMakeOracle:
    def test_writes_loadable_file(self, tmp_path):
        ds_path = tmp_path / "ds.csv"
        cli.main([
            "make-data", "--classes", "3", "--per-class", "20", "--dim", "2",
            "--noise", "none", "--out", str(ds_path),
        ])
        out = tmp_path / "oracle.csv"
        rc = cli.main([
            "make-oracle", "--data", str(ds_path), "--accuracy", "0.9",
            "--confidence", "0.7", "--out", str(out),
        ])
        assert rc == 0
        ds = data.load_dataset(ds_path)
        table = oracle.load_oracle_file(out, expected_ids=range(ds.n))
        assert table.n == ds.n


class TestTrainAndReport:
    def test_train_report_cycle(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        run_dir = tmp_path / "run1"
        rc = cli.main(["train", "--config", str(cfg_path), "--outdir", str(run_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "best" in out
        assert (run_dir / "metrics.csv").exists()

        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["config"]["method"]["t_unl"] == 0.05

        report_dir = tmp_path / "report"
        rc = cli.main(["report", str(run_dir), "--out", str(report_dir)])
        assert rc == 0
        curves = (report_dir / "curves.csv").read_text().splitlines()
        assert len(curves) == 1 + 12  # header + one row per epoch
        assert (report_dir / "summary.csv").exists()
        assert (report_dir / "selection_quality.csv").exists()

    def test_train_override_seed_changes_results(self, tmp_path):
        cfg_path = write_config(tmp_path)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        cli.main(["train", "--config", str(cfg_path), "--outdir", str(d1)])
        cli.main([
            "train", "--config", str(cfg_path), "--outdir", str(d2),
            "--override", "seed=2",
        ])
        assert (d1 / "metrics.csv").read_bytes() != (d2 / "metrics.csv").read_bytes()

    def test_invalid_config_exits_nonzero_naming_field(self, tmp_path, capsys):
        cfg = yaml.safe_load(yaml.safe_dump(SMALL_CONFIG))
        del cfg["method"]["t_unl"]
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        rc = cli.main(["train", "--config", str(cfg_path), "--outdir", str(tmp_path / "x")])
        assert rc == 2
        assert "t_unl" in capsys.readouterr().err

    def test_no_unlearning_flag_zeroes_target_columns(self, tmp_path):
        cfg_path = write_config(tmp_path, {"method.unlearning": False})
        run_dir = tmp_path / "run"
        cli.main(["train", "--config", str(cfg_path), "--outdir", str(run_dir)])
        rows = (run_dir / "metrics.csv").read_text().splitlines()[1:]
        header = (run_dir / "metrics.csv").read_text().splitlines()[0].split(",")
        du_a = header.index("n_forget_scratch")
        du_v = header.index("n_forget_embed")
        assert all(r.split(",")[du_a] == "0" and r.split(",")[du_v] == "0" for r in rows)

    def test_override_into_non_mapping_section_exits_2(self, tmp_path, capsys):
        cfg = yaml.safe_load(yaml.safe_dump(SMALL_CONFIG))
        cfg["run"] = 5
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        rc = cli.main(["train", "--config", str(path), "--outdir", str(tmp_path / "run"),
                       "--override", "seed=2"])
        assert rc == 2
        assert "section 'run' must be a mapping" in capsys.readouterr().err

    def test_non_int_pair_map_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"noise.kind": "asymmetric", "noise.pair_map": [1, "x", 0]})
        rc = cli.main(["train", "--config", str(path), "--outdir", str(tmp_path / "run")])
        assert rc == 2
        assert "noise.pair_map[1]" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_missing_config_file_exits_2_naming_it(self, tmp_path, capsys):
        path = tmp_path / "absent.yaml"
        rc = cli.main(["train", "--config", str(path), "--outdir", str(tmp_path / "run")])
        assert rc == 2
        assert f"{path}: cannot read config" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_malformed_yaml_exits_2_naming_it(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_text("dataset: [\n")
        rc = cli.main(["train", "--config", str(path), "--outdir", str(tmp_path / "run")])
        assert rc == 2
        assert f"{path}: config is not valid YAML" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_malformed_override_value_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path)
        rc = cli.main(["train", "--config", str(path), "--outdir", str(tmp_path / "run"),
                       "--override", "dataset.seed=["])
        assert rc == 2
        assert "override 'dataset.seed=['" in capsys.readouterr().err

    def test_missing_dataset_file_exits_2_naming_it(self, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        path = write_config(tmp_path, {"dataset.kind": "file", "dataset.path": str(missing)})
        rc = cli.main(["train", "--config", str(path), "--outdir", str(tmp_path / "run")])
        assert rc == 2
        assert f"{missing}: cannot read dataset file" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_missing_oracle_file_exits_2_and_leaves_no_run_dir(self, tmp_path, capsys):
        missing = tmp_path / "absent_oracle.csv"
        path = write_config(tmp_path, {"oracle.kind": "file", "oracle.path": str(missing)})
        rc = cli.main(["train", "--config", str(path), "--outdir", str(tmp_path / "run")])
        assert rc == 2
        assert f"{missing}: cannot read oracle file" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_outdir_falls_back_to_env_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.RUNS_DIR_ENV, str(tmp_path / "root"))
        cfg_path = write_config(tmp_path)
        rc = cli.main(["train", "--config", str(cfg_path)])
        assert rc == 0
        made = list((tmp_path / "root").iterdir())
        assert len(made) == 1
        assert made[0].name.startswith("run-")
        assert (made[0] / "metrics.csv").exists()

    def test_report_skips_incomplete_dirs(self, tmp_path):
        cfg_path = write_config(tmp_path)
        good = tmp_path / "good"
        cli.main(["train", "--config", str(cfg_path), "--outdir", str(good)])
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = cli.main(["report", str(good), str(empty), "--out", str(tmp_path / "rep")])
        assert rc == 0
        summary = (tmp_path / "rep" / "summary.csv").read_text().splitlines()
        assert len(summary) == 2  # header + the good run only


class TestSweep:
    def test_two_member_sweep(self, tmp_path):
        cfg_path = write_config(tmp_path, {"schedule.max_epoch": 8, "schedule.start_unlearn": 7,
                                           "schedule.unlearn_period": 2,
                                           "schedule.unlearn_duration": 1})
        out_root = tmp_path / "sweep"
        rc = cli.main([
            "sweep", "--config", str(cfg_path), "--set", "run.seed=1,2",
            "--outdir", str(out_root),
        ])
        assert rc == 0
        made = sorted(p.name for p in out_root.iterdir())
        assert made == ["seed=1", "seed=2"]
        for d in out_root.iterdir():
            assert (d / "metrics.csv").exists()
