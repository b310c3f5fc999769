"""Command-line surface and config validation end to end."""

import builtins
import errno
import hashlib
import io
import json
import logging
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from coforget import cli, data, driver, oracle, report
from coforget.config import build_config, load_config, validate_config
from coforget.errors import ConfigurationError
from test_driver import _children

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
QUICK = Path(__file__).resolve().parent.parent / "configs" / "quick.yaml"


def cli_env():
    """This process's environment, with this checkout's coforget first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_files(root) -> dict:
    """Every file under root, by path relative to it, mapped to its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


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


    @pytest.mark.parametrize("spread", ["nan", "inf"])
    def test_non_finite_spread_exits_2_and_writes_nothing(self, tmp_path, capsys, spread):
        out = tmp_path / "data" / "ds.csv"
        rc = cli.main(["make-data", "--spread", spread, "--out", str(out)])
        assert rc == 2
        assert f"--spread: dataset.spread must be finite, got {spread}" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    def test_overflowing_spread_exits_2_and_writes_nothing(self, tmp_path, capsys):
        """A finite spread near the float maximum makes inf features."""
        out = tmp_path / "data" / "big.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = cli.main(["make-data", "--spread", "1e308", "--per-class", "5", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: --spread: dataset.spread 1e+308 makes features that are not finite\n"
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("flag, value", [("--classes", "100000000000"),
                                             ("--per-class", "10000000000"), ("--dim", "10000000000")])
    def test_oversized_shape_exits_2_before_allocating(self, tmp_path, capsys, monkeypatch,
                                                       flag, value):
        monkeypatch.setattr(data, "make_blobs", lambda *a, **k: pytest.fail("make_blobs was called"))
        out = tmp_path / "data" / "ds.csv"
        rc = cli.main(["make-data", flag, value, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "exceeds 2**31 array cells" in err and "Traceback" not in err
        assert not (tmp_path / "data").exists()

    # SHA-256 of the dataset, its sidecar and `make-oracle --seed 3 --accuracy 0.8`
    # of it, for make-data argv sets over every noise kind
    GOLDEN = {
        "none": (["--noise", "none"], (
            "9691c19fa7f94bde53a3211f2906f28fa2910c323988afdd3d40ce127125f539",
            "1ed4a597b6621062532118b0e840912a868d18cc0205a2a494973b13fcd9cff5",
            "ce4beb00dc6c8a1b71ef66a078f7f0741411d290ae2a74eb51c6f68e271c9989")),
        "symmetric": (["--noise", "symmetric", "--eta", "0.3", "--seed", "5", "--noise-seed", "6"], (
            "570f08bb86d57dea4d12dbcca889f8bf491d5c77cb43390e45a6be1f1df1a1fd",
            "b0cf899464c41ab7139a0a7ee9dee5c408c60f75378edb576f8aa10bced4998c",
            "0daec45b168fe4df503c2b43e36cdb79d5eecbf3bdac61abefc3f1711343ce68")),
        "asymmetric": (["--noise", "asymmetric", "--pair-map", "1,2,0", "--eta", "0.2"], (
            "2c05d81a1d25c53aca5b1153d636725a0dcbad01d8cb6c046e1ff3d03343e984",
            "e396286db289ba376c5b9bc4a120265b93f30b97a12f28e1843d123fcf894e8d",
            "ce4beb00dc6c8a1b71ef66a078f7f0741411d290ae2a74eb51c6f68e271c9989")),
        "instance": (["--noise", "instance", "--eta", "0.3", "--classes", "4", "--dim", "3"], (
            "912566ca39840330e6265b0b0d5475cd2dc0236eeba0a3d46873d76fc542cef1",
            "e311d958efc23dbc33dc01ac4fbb1601a7e9b6283191dfbc4bc58a5f22c05617",
            "ae8cfb93fc5a13e8dbf4e14c64e369c08fe51001092b30b0e4d204e7c2fa860e")),
        "instance-eta-0": (["--noise", "instance", "--eta", "0.0"], (
            "9691c19fa7f94bde53a3211f2906f28fa2910c323988afdd3d40ce127125f539",
            "d8fb34dead8d373631ecf31f2b0e07c213145d19b16976351a1b7f0633e39645",
            "ce4beb00dc6c8a1b71ef66a078f7f0741411d290ae2a74eb51c6f68e271c9989")),
        "no-test-split": (["--test-per-class", "0", "--per-class", "7", "--spread", "0.5"], (
            "8f569230dcc756e6ff6e9f54105c42037c3b24a49e4bfb59ef8acd4b76d42bc0",
            "a4f10e698f42954adb23e29698ad18201fc22b3296123069e79031a1fd4e8693",
            "2ba70d3c67eba9629f26f18233f190e6abfcf4dcedde106ee0935c2112e27e0d")),
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_files_match_golden_hashes(self, tmp_path, case):
        argv, golden = self.GOLDEN[case]
        ds_path, oracle_path = tmp_path / "ds.csv", tmp_path / "oracle.csv"
        assert cli.main(["make-data", *argv, "--out", str(ds_path)]) == 0
        assert cli.main(["make-oracle", "--data", str(ds_path), "--seed", "3", "--accuracy", "0.8",
                         "--out", str(oracle_path)]) == 0
        files = (ds_path, tmp_path / "ds.csv.manifest.json", oracle_path)
        assert tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in files) == golden

    @pytest.mark.parametrize("argv, message", [
        (["--seed", "-1"], "--seed: dataset.seed must be >= 0 or null, got -1"),
        (["--noise-seed", "-3"], "--noise-seed: noise.seed must be >= 0 or null, got -3"),
        (["--classes", "1"], "--classes: dataset.classes must be >= 2, got 1"),
        (["--per-class", "0"], "--per-class: dataset.per_class must be >= 1, got 0"),
        (["--test-per-class", "-1"], "--test-per-class: dataset.test_per_class must be >= 0, got -1"),
        (["--dim", "0"], "--dim: dataset.dim must be >= 1, got 0"),
        (["--spread", "0"], "--spread: dataset.spread must be > 0, got 0.0"),
        (["--eta", "1"], "--eta: noise.eta must be in [0, 1), got 1.0"),
        (["--noise", "asymmetric"],
         "--pair-map: noise.pair_map must be a list when noise.kind = asymmetric, got None"),
        # the class count a pair map must match is the dataset's, checked as it is built
        (["--noise", "asymmetric", "--pair-map", "1,2"],
         "--pair-map: noise.pair_map must name a class for each of the dataset's 3 classes, "
         "got [1, 2]"),
        (["--noise", "asymmetric", "--pair-map", "1,0,2"],
         "--pair-map: noise.pair_map[2] must be another class in [0, 3), got 2"),
        (["--noise", "asymmetric", "--pair-map", "1,2,3"],
         "--pair-map: noise.pair_map[2] must be another class in [0, 3), got 3"),
    ], ids=["seed", "noise-seed", "classes", "per-class", "test-per-class", "dim", "spread", "eta",
            "pair-map", "pair-map-too-short", "pair-map-self-target", "pair-map-past-the-classes"])
    def test_rejected_flag_is_named_with_its_field(self, tmp_path, capsys, argv, message):
        out = tmp_path / "data" / "ds.csv"
        assert cli.main(["make-data", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {message}\n" == err
        assert not (tmp_path / "data").exists()

    def test_noise_seed_is_not_checked_without_noise(self, tmp_path):
        """As in `train`, a seed that nothing draws from is not read."""
        out = tmp_path / "ds.csv"
        assert cli.main(["make-data", "--noise", "none", "--noise-seed", "-3", "--classes", "2",
                         "--per-class", "3", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "ds.csv.manifest.json").read_text())
        assert manifest["noise"] == {"kind": "none", "eta": 0.4, "seed": -3}

    @staticmethod
    def _field_flags(argv) -> dict:
        """section.field -> option, for each option of argv's command that sets a field."""
        parser = cli.build_parser().parse_args(argv).parser
        return {a.dest: a.option_strings[0] for a in parser._actions if "." in a.dest}

    def test_flags_map_to_config_fields(self):
        assert self._field_flags(["make-data", "--out", "x"]) == {
            "dataset.classes": "--classes", "dataset.per_class": "--per-class",
            "dataset.test_per_class": "--test-per-class", "dataset.dim": "--dim",
            "dataset.spread": "--spread", "dataset.seed": "--seed", "noise.kind": "--noise",
            "noise.eta": "--eta", "noise.pair_map": "--pair-map", "noise.seed": "--noise-seed",
        }
        assert self._field_flags(["make-oracle", "--data", "d", "--out", "x"]) == {
            "dataset.path": "--data", "oracle.accuracy": "--accuracy",
            "oracle.confidence": "--confidence", "oracle.seed": "--seed",
        }

    def test_sidecar_write_that_fails_after_open_leaves_no_sidecar(self, tmp_path, monkeypatch):
        """The sidecar's write stops half way, as on a full disk, after its
        file is open."""
        real_open = open

        class HalfWritten:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:len(text) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        def open_(file, *args, **kwargs):
            fh = real_open(file, *args, **kwargs)
            named = isinstance(file, (str, os.PathLike)) and ".manifest.json" in Path(file).name
            return HalfWritten(fh) if named else fh

        monkeypatch.setattr(builtins, "open", open_)
        monkeypatch.setattr(io, "open", open_)  # what Path.open and Path.write_text call
        with pytest.raises(OSError, match="No space left on device"):
            cli.main(["make-data", "--per-class", "5", "--out", str(tmp_path / "ds.csv")])
        assert [p.name for p in tmp_path.iterdir()] == ["ds.csv"]


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

    def test_negative_seed_exits_2_naming_flag_and_field(self, tmp_path, capsys):
        ds_path = tmp_path / "ds.csv"
        assert cli.main(["make-data", "--per-class", "5", "--out", str(ds_path)]) == 0
        capsys.readouterr()
        out = tmp_path / "oracle" / "o.csv"
        assert cli.main(["make-oracle", "--data", str(ds_path), "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --seed: oracle.seed must be >= 0 or null, got -1\n"
        assert not (tmp_path / "oracle").exists()

    @pytest.mark.parametrize("argv, message", [
        (["--accuracy", "nan"], "--accuracy: oracle.accuracy must be finite, got nan"),
        (["--confidence", "inf"], "--confidence: oracle.confidence must be finite, got inf"),
        (["--data", ""], "--data: dataset.path must be set when dataset.kind = file, got ''"),
        # chance, 1/C, is the dataset's, checked as the oracle is built
        (["--accuracy", "0.2"], "--accuracy: oracle.accuracy must be in [1/C, 1] = [0.3333, 1] "
         "for the dataset's 3 classes, got 0.2"),
        (["--confidence", "0.3"], "--confidence: oracle.confidence must be in (1/C, 1) = "
         "(0.3333, 1) for the dataset's 3 classes, got 0.3"),
        (["--confidence", "1"], "--confidence: oracle.confidence must be in (1/C, 1) = "
         "(0.3333, 1) for the dataset's 3 classes, got 1.0"),
    ], ids=["accuracy", "confidence", "data", "accuracy-below-chance", "confidence-at-chance",
            "confidence-at-1"])
    def test_rejected_flag_is_named_with_its_field(self, tmp_path, capsys, argv, message):
        ds_path = tmp_path / "ds.csv"
        assert cli.main(["make-data", "--per-class", "5", "--out", str(ds_path)]) == 0
        capsys.readouterr()
        out = tmp_path / "oracle" / "o.csv"
        assert cli.main(["make-oracle", "--data", str(ds_path), *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "oracle").exists()

    def test_dataset_without_train_rows_exits_2_naming_data(self, tmp_path, capsys):
        """The oracle's train accuracy would be a mean of nothing."""
        labels = np.arange(6) % 3
        ds_path = tmp_path / "test-only.csv"
        data.save_dataset(data.Dataset(np.ones((6, 2)), labels, labels.copy(), np.ones(6, bool), 3),
                          ds_path)
        out = tmp_path / "oracle" / "o.csv"
        assert cli.main(["make-oracle", "--data", str(ds_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: --data: dataset.path {ds_path}: no train rows "
                                           "to measure the oracle's accuracy on\n")
        assert not (tmp_path / "oracle").exists()

    def test_dataset_of_too_many_classes_exits_2_naming_data(self, tmp_path, capsys):
        """A header-only file of 50000 classes: its C x C class matrices
        would exceed 2**31 cells."""
        ds_path = tmp_path / "big.csv"
        ds_path.write_text(data._DS_MAGIC + "\n50000,2,0\n")
        out = tmp_path / "oracle" / "o.csv"
        assert cli.main(["make-oracle", "--data", str(ds_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: --data: dataset.path {ds_path}: 50000 classes, whose C x C class matrices "
            "exceed 2**31 array cells\n")
        assert not (tmp_path / "oracle").exists()


class TestDataCommandOutputs:
    """--out is checked before anything is built: a target under a file or
    onto a directory exits 2 and writes nothing."""

    @pytest.mark.parametrize("command", ["make-data", "make-oracle"])
    @pytest.mark.parametrize("target", ["under-a-file", "a-directory", "parent-of-a-new-dir"])
    def test_bad_out_exits_2_and_writes_nothing(self, tmp_path, capsys, monkeypatch, command, target):
        ds_path = tmp_path / "ds.csv"
        assert cli.main(["make-data", "--per-class", "5", "--out", str(ds_path)]) == 0
        (tmp_path / "F").write_text("a file\n")
        (tmp_path / "D").mkdir()
        before = run_files(tmp_path)
        monkeypatch.setattr(driver, "build_dataset", lambda cfg: pytest.fail("the dataset was built"))
        capsys.readouterr()
        out = {"under-a-file": tmp_path / "F" / "x.csv", "a-directory": tmp_path / "D",
               "parent-of-a-new-dir": tmp_path / "new" / ".."}[target]
        argv = ["--data", str(ds_path)] if command == "make-oracle" else []
        assert cli.main([command, *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert run_files(tmp_path) == before and list((tmp_path / "D").iterdir()) == []



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

    @pytest.mark.parametrize("fails", ["mid-run", "on-input"])
    def test_failed_rerun_leaves_no_dir_that_looks_complete(self, tmp_path, capsys, fails):
        """A rerun into a completed run dir that fails once it has begun
        leaves its own manifest and no metrics.csv, so report no longer takes
        the dir for a complete run; one rejected on its inputs leaves the dir
        as it was."""
        run_dir = tmp_path / "run"
        train = ["train", "--config", str(QUICK), "--outdir", str(run_dir)]
        assert cli.main(train) == 0
        before = run_files(run_dir)
        overrides = {"mid-run": ["optim.lr_scratch=1.0e+300"],
                     "on-input": ["oracle.kind=file", f"oracle.path={tmp_path / 'absent.csv'}"]}
        assert cli.main([*train, *(f"--override={o}" for o in overrides[fails])]) == 2
        report_code = cli.main(["report", str(run_dir), "--out", str(tmp_path / "rep")])
        err = capsys.readouterr().err
        if fails == "mid-run":
            assert "non-finite values" in err
            assert not (run_dir / "metrics.csv").exists()
            manifest = json.loads((run_dir / "manifest.json").read_text())
            assert manifest["config"]["optim"]["lr_scratch"] == 1e300
            assert report_code == 2
        else:
            assert run_files(run_dir) == before
            assert report_code == 0

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

    @pytest.mark.parametrize("key, value, named", [
        ("dataset.classes", 99999999999999999999, "dataset.classes * (per_class"),
        ("net_scratch.hidden", [10**12], "net_scratch layer 0"),
        ("schedule.max_epoch", 10**20, "(schedule.max_epoch - warmup)"),
    ])
    def test_oversized_arrays_exit_2_naming_fields(self, tmp_path, capsys, key, value, named):
        path = write_config(tmp_path, {key: value})
        rc = cli.main(["train", "--config", str(path), "--outdir", str(tmp_path / "run")])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @staticmethod
    def _file_dataset(tmp_path, dim):
        path = tmp_path / "ds.csv"
        assert cli.main(["make-data", "--classes", "3", "--per-class", "40", "--test-per-class", "20",
                         "--dim", str(dim), "--out", str(path)]) == 0
        return path

    @pytest.mark.parametrize("key, value, dim, named", [
        ("schedule.max_epoch", 10**20, 4, "(schedule.max_epoch - warmup)"),
        # dataset.dim keeps its default 8, with which the config alone passes
        ("net_scratch.hidden", [10**7], 300, "net_scratch layer 0"),
        # 180 samples * 2e7 passes no bound a blobs dataset of the config meets
        ("oracle.embed_dim", 2 * 10**7, 4, "dataset samples * oracle.embed_dim"),
        # (300 + 3) * 1e7 cells, while 180 samples * 1e7 stay under the bound
        ("oracle.embed_dim", 10**7, 300, "(dataset.dim + dataset.classes) * oracle.embed_dim"),
    ])
    def test_oversized_arrays_of_a_file_dataset_exit_2(self, tmp_path, capsys, key, value, dim, named):
        ds_path = self._file_dataset(tmp_path, dim)
        capsys.readouterr()
        path = write_config(tmp_path, {"dataset.kind": "file", "dataset.path": str(ds_path), key: value})
        rc = cli.main(["train", "--config", str(path), "--outdir", str(tmp_path / "run")])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_overflowing_spread_exits_2_before_the_run_dir(self, tmp_path, capsys):
        rc = cli.main(["train", "--config", str(QUICK), "--override", "dataset.spread=1.0e+308",
                       "--outdir", str(tmp_path / "sp")])
        assert rc == 2
        assert "dataset.spread 1e+308 makes features that are not finite" in capsys.readouterr().err
        assert not (tmp_path / "sp").exists()

    @pytest.mark.parametrize("overrides, message", [
        (["noise.kind=asymmetric", "noise.pair_map=[1, 2]"],
         "noise.pair_map must name a class for each of the dataset's 3 classes, got [1, 2]"),
        (["noise.kind=asymmetric", "noise.pair_map=[1, 0, 2]"],
         "noise.pair_map[2] must be another class in [0, 3), got 2"),
        (["oracle.accuracy=0.2"],
         "oracle.accuracy must be in [1/C, 1] = [0.3333, 1] for the dataset's 3 classes, got 0.2"),
        (["oracle.confidence=0.3"], "oracle.confidence must be in (1/C, 1) = (0.3333, 1) "
         "for the dataset's 3 classes, got 0.3"),
    ], ids=["pair-map-too-short", "pair-map-self-target", "accuracy-below-chance",
            "confidence-at-chance"])
    def test_rules_of_the_dataset_as_built_exit_2_naming_the_field(self, tmp_path, capsys,
                                                                    overrides, message):
        rc = cli.main(["train", "--config", str(QUICK), *(f"--override={o}" for o in overrides),
                       "--outdir", str(tmp_path / "run")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("kind, pair_map", [("symmetric", None), ("asymmetric", [0])],
                             ids=["symmetric", "asymmetric"])
    def test_noise_on_a_one_class_file_dataset_exits_2_naming_noise_kind(self, tmp_path, capsys,
                                                                          kind, pair_map):
        labels = np.zeros(12, np.int64)
        ds_path = tmp_path / "ds.csv"
        data.save_dataset(data.Dataset(np.ones((12, 2)), labels, labels.copy(),
                                       np.arange(12) >= 9, 1), ds_path)
        path = write_config(tmp_path, {"dataset.kind": "file", "dataset.path": str(ds_path),
                                       "noise.kind": kind, "noise.pair_map": pair_map})
        rc = cli.main(["train", "--config", str(path), "--outdir", str(tmp_path / "run")])
        assert rc == 2
        assert capsys.readouterr().err == \
            f"error: noise.kind {kind!r} needs a dataset of >= 2 classes, got 1\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("method", ["coforget", "naive-ce"])
    def test_dataset_file_without_train_rows_exits_2_before_the_run_dir(self, tmp_path, capsys,
                                                                         method):
        full = data.load_dataset(self._file_dataset(tmp_path, 4))
        test = full.test_ids()
        ds_path = tmp_path / "test-only.csv"
        data.save_dataset(data.Dataset(full.features[test], full.true_labels[test],
                                       full.observed_labels[test], full.is_test[test],
                                       full.n_classes), ds_path)
        capsys.readouterr()
        path = write_config(tmp_path, {"dataset.kind": "file", "dataset.path": str(ds_path),
                                       "method.kind": method})
        rc = cli.main(["train", "--config", str(path), "--outdir", str(tmp_path / "run")])
        assert rc == 2
        assert capsys.readouterr().err == \
            f"error: dataset.path {ds_path}: runs need train rows, the file has none\n"
        assert not (tmp_path / "run").exists()

    def test_dataset_file_with_one_train_row_exits_2_before_the_run_dir(self, tmp_path, capsys):
        """Co-divide fits a GMM to two or more pool losses; a naive-ce run
        of the file trains."""
        full = data.load_dataset(self._file_dataset(tmp_path, 4))
        keep = np.concatenate([full.train_ids()[:1], full.test_ids()])
        ds_path = tmp_path / "one-train-row.csv"
        data.save_dataset(data.Dataset(full.features[keep], full.true_labels[keep],
                                       full.observed_labels[keep], full.is_test[keep],
                                       full.n_classes), ds_path)
        capsys.readouterr()
        path = write_config(tmp_path, {"dataset.kind": "file", "dataset.path": str(ds_path)})
        rc = cli.main(["train", "--config", str(path), "--outdir", str(tmp_path / "run")])
        assert rc == 2
        assert capsys.readouterr().err == \
            f"error: dataset.path {ds_path}: co-divide needs >= 2 train rows, the file has 1\n"
        assert not (tmp_path / "run").exists()
        assert cli.main(["train", "--config", str(path), "--override", "method.kind=naive-ce",
                         "--outdir", str(tmp_path / "naive")]) == 0

    @pytest.mark.parametrize("method, theta", [("coforget", "theta_scratch"), ("naive-ce", "theta")],
                             ids=["coforget", "naive-ce"])
    def test_diverging_run_prints_its_error_alone(self, tmp_path, method, theta):
        """numpy's overflow warnings of a diverging step would come first."""
        proc = subprocess.run(
            [sys.executable, "-m", "coforget", "train", "--config", str(QUICK),
             "--override", "optim.lr_scratch=1.0e+300", "--override", f"method.kind={method}",
             "--outdir", str(tmp_path / "run")],
            env=cli_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr == f"error: non-finite values in {theta} at epoch 1; aborting run\n"

    @pytest.mark.parametrize("t_unl, values", [("1.0e+100", "losses_scratch"),
                                               ("1.3407807929942597e+154", "theta_scratch")])
    def test_overflowing_forgetting_step_names_its_net_and_epoch(self, tmp_path, capsys, t_unl,
                                                                  values):
        """At 1e100 the scratch net's theta stays finite and its logits
        overflow; the same epoch's GMM fit would meet the losses first and
        name neither the net nor the epoch."""
        rc = cli.main(["train", "--config", str(QUICK), "--override", f"method.t_unl={t_unl}",
                       "--outdir", str(tmp_path / "run")])
        assert rc == 2
        assert capsys.readouterr().err == \
            f"error: non-finite values in {values} at epoch 12; aborting run\n"

    def test_unknown_activation_exits_2_before_the_run_dir(self, tmp_path, capsys):
        rc = cli.main(["train", "--config", str(QUICK), "--override", "net_scratch.activation=sigmoid",
                       "--outdir", str(tmp_path / "run")])
        assert rc == 2
        assert "net_scratch.activation must be one of ('relu', 'tanh'), got 'sigmoid'" in \
            capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("kind", ["blobs", "file"])
    def test_embed_dim_below_the_class_count_exits_2_before_the_run_dir(self, tmp_path, capsys, kind):
        extra = {"oracle.embed_dim": 2}
        if kind == "file":
            extra.update({"dataset.kind": "file", "dataset.path": str(self._file_dataset(tmp_path, 4))})
            capsys.readouterr()
        rc = cli.main(["train", "--config", str(write_config(tmp_path, extra)),
                       "--outdir", str(tmp_path / "run")])
        assert rc == 2
        assert "oracle.embed_dim must be >= the dataset's 3 classes, got 2" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("override", ["dataset.seed=-1", "noise.seed=-1", "oracle.seed=-2"])
    def test_negative_section_seed_exits_2_before_the_run_dir(self, tmp_path, capsys, override):
        rc = cli.main(["train", "--config", str(QUICK), "--override", override,
                       "--outdir", str(tmp_path / "run")])
        assert rc == 2
        field, value = override.split("=")
        err = capsys.readouterr().err
        assert f"{field} must be >= 0 or null, got {value}" in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("kind", ["file-dataset", "no-noise", "instance-at-eta-0",
                                      "naive-ce", "file-oracle"])
    def test_negative_section_seed_runs_where_it_is_not_read(self, tmp_path, capsys, kind):
        extra = {"schedule.max_epoch": 3, "schedule.encoder_unfreeze": 3}
        if kind in ("file-dataset", "file-oracle"):
            ds_path = self._file_dataset(tmp_path, 4)
            extra.update({"dataset.kind": "file", "dataset.path": str(ds_path)})
        if kind == "file-oracle":
            oracle_path = tmp_path / "oracle.csv"
            assert cli.main(["make-oracle", "--data", str(ds_path), "--out", str(oracle_path)]) == 0
            extra.update({"oracle.kind": "file", "oracle.path": str(oracle_path)})
        extra.update({
            "file-dataset": {"dataset.seed": -1},
            "no-noise": {"noise.kind": "none", "noise.seed": -1},
            "instance-at-eta-0": {"noise.kind": "instance", "noise.eta": 0.0, "noise.seed": -1},
            "naive-ce": {"method.kind": "naive-ce", "oracle.seed": -1},
            "file-oracle": {"oracle.seed": -1},
        }[kind])
        path = write_config(tmp_path, extra)
        assert cli.main(["train", "--config", str(path), "--outdir", str(tmp_path / "run")]) == 0
        assert (tmp_path / "run" / "metrics.csv").exists()

    def test_embed_dim_is_not_bounded_for_naive_ce(self, tmp_path):
        path = write_config(tmp_path, {"method.kind": "naive-ce", "oracle.embed_dim": 0,
                                       "schedule.max_epoch": 3, "schedule.encoder_unfreeze": 3})
        assert cli.main(["train", "--config", str(path), "--outdir", str(tmp_path / "run")]) == 0

    def test_class_count_of_a_file_dataset_is_bounded(self, tmp_path, capsys):
        """200000 classes and 12 rows: the C x C noise transition alone would
        be 298 GiB, so the file is rejected before any class matrix is built."""
        labels = np.arange(12) % 2
        ds_path = tmp_path / "ds.csv"
        data.save_dataset(data.Dataset(np.ones((12, 2)), labels, labels.copy(),
                                       np.arange(12) >= 9, 200000), ds_path)
        assert ds_path.read_text().splitlines()[1] == "200000,2,12"
        path = write_config(tmp_path, {"dataset.kind": "file", "dataset.path": str(ds_path)})
        rc = cli.main(["train", "--config", str(path), "--outdir", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"dataset.path {ds_path}: 200000 classes" in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @staticmethod
    def _train_on_oracle(tmp_path, probs) -> int:
        """Train quick.yaml (270 samples, 3 classes) on an oracle file of probs."""
        oracle_path = tmp_path / "o.csv"
        oracle.save_oracle_file(oracle.OracleTable(np.array(probs, dtype=np.float64)), oracle_path)
        return cli.main(["train", "--config", str(QUICK), "--override", "oracle.kind=file",
                         "--override", f"oracle.path={oracle_path}", "--outdir", str(tmp_path / "run")])

    def test_oracle_file_of_other_classes_exits_2_naming_it(self, tmp_path, capsys):
        assert self._train_on_oracle(tmp_path, [[0.5, 0.5]] * 270) == 2
        assert capsys.readouterr().err == \
            f"error: oracle.path {tmp_path / 'o.csv'}: the file has 2 classes, the dataset has 3\n"
        assert not (tmp_path / "run").exists()
        cfg = load_config(QUICK, ["oracle.kind=file", f"oracle.path={tmp_path / 'o.csv'}"])
        with pytest.raises(ConfigurationError) as raised:
            driver.run(cfg)
        assert raised.value.field == "oracle.path"

    def test_oracle_file_missing_ids_gives_a_count_and_the_first_ids(self, tmp_path, capsys):
        """A 100-row file against 270 samples: 170 ids missing, five listed."""
        assert self._train_on_oracle(tmp_path, [[0.5, 0.25, 0.25]] * 100) == 2
        assert capsys.readouterr().err == (f"error: {tmp_path / 'o.csv'}: 170 missing sample id(s), "
                                           "the first [100, 101, 102, 103, 104]\n")
        assert not (tmp_path / "run").exists()

    def test_embed_dim_below_the_class_count_names_its_field(self, tmp_path, capsys):
        rc = cli.main(["train", "--config", str(QUICK), "--override", "oracle.embed_dim=2",
                       "--outdir", str(tmp_path / "run")])
        assert rc == 2
        assert capsys.readouterr().err == \
            "error: oracle.embed_dim must be >= the dataset's 3 classes, got 2\n"
        with pytest.raises(ConfigurationError) as raised:
            driver.run(load_config(QUICK, ["oracle.embed_dim=2"]))
        assert raised.value.field == "oracle.embed_dim"

    def test_test_rows_first_exit_2_naming_the_line(self, tmp_path, capsys):
        labels = np.array([0, 1, 2, 0, 1, 2])
        is_test = np.array([True, True, True, False, False, False])
        ds_path = tmp_path / "ds.csv"
        data.save_dataset(data.Dataset(np.ones((6, 2)), labels, labels.copy(), is_test, 3), ds_path)
        path = write_config(tmp_path, {"dataset.kind": "file", "dataset.path": str(ds_path)})
        rc = cli.main(["train", "--config", str(path), "--outdir", str(tmp_path / "run")])
        assert rc == 2
        assert f"{ds_path}:6: train rows must come before test rows" in capsys.readouterr().err
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

    def test_deeply_nested_override_exits_2_naming_it(self, tmp_path, capsys):
        path = write_config(tmp_path)
        override = "dataset.classes=" + "[" * 1000
        rc = cli.main(["train", "--config", str(path), "--outdir", str(tmp_path / "run"),
                       "--override", override])
        assert rc == 2
        assert f"override {override!r}: value is not valid YAML" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_report_without_a_loadable_run_leaves_no_out_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["report", "nothere", "--out", "rep"]) == 2
        assert "no completed run directories" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

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

    def test_outdir_onto_a_file_exits_2_naming_it(self, tmp_path, capsys, monkeypatch):
        cfg_path = write_config(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("not a run\n")
        built = []
        monkeypatch.setattr(driver, "build_dataset", lambda cfg: built.append(cfg))
        rc = cli.main(["train", "--config", str(cfg_path), "--outdir", str(taken)])
        assert rc == 2
        assert f"output directory {taken}" in capsys.readouterr().err
        assert built == []
        assert taken.read_text() == "not a run\n"

    def test_report_out_under_a_file_exits_2_naming_it(self, tmp_path, capsys, monkeypatch):
        taken = tmp_path / "taken"
        taken.write_text("")
        loaded = []
        monkeypatch.setattr(report, "load_run", loaded.append)
        rc = cli.main(["report", str(tmp_path / "run"), "--out", str(taken / "rep")])
        assert rc == 2
        assert f"output directory {taken / 'rep'}: {taken} is not a directory" in capsys.readouterr().err
        assert loaded == []

    @pytest.mark.parametrize("window", ["9:3", "0:5", "0:0"])
    def test_report_rejects_reversed_or_non_positive_window(self, tmp_path, capsys, window):
        rc = cli.main(["report", str(tmp_path / "run"), "--out", str(tmp_path / "rep"),
                       "--window", window])
        assert rc == 2
        assert f"--window needs 1 <= START <= END, got {window!r}" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("window", ["1:9223372036854775808", "1:99999999999999999999"],
                             ids=["2**63", "past-uint64"])
    def test_report_rejects_window_past_int64(self, tmp_path, capsys, window):
        """The report writes the window as int64, so a larger END exits 2
        before any report file is written."""
        rc = cli.main(["report", str(tmp_path / "run"), "--out", str(tmp_path / "rep"),
                       "--window", window])
        assert rc == 2
        assert f"--window needs END <= {2**63 - 1}, got {window!r}" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()


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

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_last_member_matches_a_fresh_train_process(self, tmp_path, monkeypatch, cpus):
        """With one usable CPU every member runs in this interpreter after
        the ones before it; with two, members run in forked workers, two at
        once. Either way the last one must leave the same bytes as a `train`
        in a process of its own."""
        monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
        cfg_path = write_config(tmp_path)
        out_root = tmp_path / "sweep"
        rc = cli.main(["sweep", "--config", str(cfg_path),
                       "--set", "method.unlearning=false,true", "--set", "run.seed=1,2",
                       "--outdir", str(out_root)])
        assert rc == 0
        assert sorted(p.name for p in out_root.iterdir()) == [
            "unlearning=false_seed=1", "unlearning=false_seed=2",
            "unlearning=true_seed=1", "unlearning=true_seed=2",
        ]
        fresh = tmp_path / "fresh"
        proc = subprocess.run(
            [sys.executable, "-m", "coforget", "train", "--config", str(cfg_path),
             "--outdir", str(fresh), "--override", "method.unlearning=true",
             "--override", "run.seed=2"],
            env=cli_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        last = out_root / "unlearning=true_seed=2"
        files = sorted(p.relative_to(last) for p in last.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(fresh) for p in fresh.rglob("*") if p.is_file())
        names = {f.name for f in files}
        assert {"manifest.json", "metrics.csv", "checkpoint_scratch.ckpt", "checkpoint_embed.ckpt",
                "codivide_audit.npy", "forgetting_log.csv"} <= names
        assert any(name.startswith("selection_epoch_") for name in names)
        for f in files:
            assert (last / f).read_bytes() == (fresh / f).read_bytes(), f

    def test_failed_members_do_not_stop_the_sweep(self, tmp_path, capsys, caplog, monkeypatch):
        real_run = driver.run

        def run(cfg, out_dir=None):
            if cfg.method.t_unl == 0.1:
                raise RuntimeError("injected fault")
            return real_run(cfg, out_dir)

        monkeypatch.setattr(driver, "run", run)
        cfg_path = write_config(tmp_path, {"schedule.max_epoch": 8, "schedule.start_unlearn": 7,
                                           "schedule.unlearn_period": 2,
                                           "schedule.unlearn_duration": 1})
        out_root = tmp_path / "sweep"
        with caplog.at_level(logging.WARNING, logger="coforget"):
            rc = cli.main(["sweep", "--config", str(cfg_path),
                           "--set", "method.t_unl=0.1,x,0.05", "--outdir", str(out_root)])
        assert rc == 1
        assert (out_root / "t_unl=0.05" / "metrics.csv").exists()
        for label in ("t_unl=0.1", "t_unl=x"):
            assert not (out_root / label / "metrics.csv").exists()
        err = capsys.readouterr().err
        assert "2 of 3 sweep members failed: t_unl=0.1, t_unl=x" in err
        failed = {r.args[0]: r for r in caplog.records if r.msg.startswith("sweep member")}
        assert sorted(failed) == ["t_unl=0.1", "t_unl=x"]
        # a package error is logged by its message, any other by its traceback
        assert not failed["t_unl=x"].exc_info
        assert "method.t_unl: expected a number or null, got 'x'" in failed["t_unl=x"].getMessage()
        assert failed["t_unl=0.1"].exc_info[0] is RuntimeError

    def test_keyboard_interrupt_ends_the_sweep(self, tmp_path, monkeypatch):
        def run(cfg, out_dir=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(driver, "run", run)
        cfg_path = write_config(tmp_path)
        before = _children()
        with pytest.raises(KeyboardInterrupt):
            cli.main(["sweep", "--config", str(cfg_path), "--set", "run.seed=1,2",
                      "--outdir", str(tmp_path / "sweep")])
        assert _children() == before

    @staticmethod
    def _two_workers(monkeypatch):
        """Run the sweep's members in two forked workers whatever the CPU
        count, so that a member that kills its process never kills this one."""
        monkeypatch.setattr(cli, "usable_cpus", lambda: 2)

    def test_keyboard_interrupt_in_a_worker_leaves_no_process(self, tmp_path, monkeypatch):
        def run(cfg, out_dir=None):
            if cfg.run.seed == 2:
                raise KeyboardInterrupt
            return real_run(cfg, out_dir)

        real_run = driver.run
        monkeypatch.setattr(driver, "run", run)
        self._two_workers(monkeypatch)
        before = _children()
        with pytest.raises(KeyboardInterrupt):
            cli.main(["sweep", "--config", str(write_config(tmp_path)), "--set", "run.seed=1,2,3,4",
                      "--outdir", str(tmp_path / "sweep")])
        assert _children() == before

    def test_dead_worker_fails_its_member_and_the_unfinished_ones(self, tmp_path, capsys, caplog,
                                                                  monkeypatch):
        def run(cfg, out_dir=None):
            if cfg.run.seed == 1:
                os._exit(3)
            time.sleep(60)  # still running when the pool breaks, and killed then
            return real_run(cfg, out_dir)

        real_run = driver.run
        monkeypatch.setattr(driver, "run", run)
        self._two_workers(monkeypatch)
        before = _children()
        start = time.perf_counter()
        with caplog.at_level(logging.WARNING, logger="coforget"):
            rc = cli.main(["sweep", "--config", str(write_config(tmp_path)),
                           "--set", "run.seed=1,2,3", "--outdir", str(tmp_path / "sweep")])
        assert time.perf_counter() - start < 30
        assert rc == 1
        assert _children() == before
        assert "3 of 3 sweep members failed: seed=1, seed=2, seed=3" in capsys.readouterr().err
        failed = [r for r in caplog.records if r.msg.startswith("sweep member")]
        assert [r.args[0] for r in failed] == ["seed=1", "seed=2", "seed=3"]
        for record in failed:
            assert "a worker process died" in record.getMessage()
            assert not record.exc_info

    def test_members_are_byte_identical_in_workers_and_in_process(self, tmp_path, monkeypatch):
        """Quick seeds 1-3, unlearning on and off: every member file,
        manifests and checkpoints included, is the same in this process
        (one usable CPU) and in two forked workers (two)."""
        trees = {}
        for cpus in (1, 2):
            monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
            out_root = tmp_path / f"cpus{cpus}"
            assert cli.main(["sweep", "--config", str(QUICK),
                             "--set", "run.seed=1,2,3", "--set", "method.unlearning=true,false",
                             "--outdir", str(out_root)]) == 0
            trees[cpus] = run_files(out_root)
        assert len({path.parts[0] for path in trees[1]}) == 6
        assert {"manifest.json", "checkpoint_scratch.ckpt", "checkpoint_embed.ckpt",
                "codivide_audit.npy", "metrics.csv"} <= {path.name for path in trees[1]}
        assert trees[1].keys() == trees[2].keys()
        for path, content in trees[1].items():
            assert trees[2][path] == content, path

    def test_member_writes_each_line_or_block_at_once(self, tmp_path, monkeypatch):
        calls = []

        class Stdout:
            def write(self, text):
                calls.append(text)

            def flush(self):
                calls.append("<flush>")

        monkeypatch.setattr(sys, "stdout", Stdout())
        out_dir = tmp_path / "member"
        cli._sweep_member(("[sweep 2/3] seed=1\n", str(write_config(tmp_path)), ["run.seed=1"],
                           out_dir))
        assert len(calls) == 4, calls
        mark, flushed, block, flushed_again = calls
        assert (mark, flushed, flushed_again) == ("[sweep 2/3] seed=1\n", "<flush>", "<flush>")
        assert block.startswith(f"run complete: {out_dir}\n  acc_scratch: best ")
        assert block.endswith("\n") and block.count("\n") == 4

    def test_concurrent_members_print_whole_lines(self, tmp_path):
        """Under PYTHONUNBUFFERED=1 print() writes a line's text and its
        newline apart; members in two workers must still print one line per
        mark and each run-complete block whole."""
        out_root = tmp_path / "sweep"
        two_workers = ("import sys; from coforget import cli; cli.usable_cpus = lambda: 2; "
                       "sys.exit(cli.main(sys.argv[1:]))")
        proc = subprocess.run(
            [sys.executable, "-c", two_workers, "sweep", "--config", str(write_config(tmp_path)),
             "--set", "run.seed=1,2,3,4", "--outdir", str(out_root)],
            env={**cli_env(), "PYTHONUNBUFFERED": "1"}, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        lines = proc.stdout.splitlines()
        marks = [line for line in lines if line.startswith("[sweep ")]
        assert sorted(marks) == [f"[sweep {i}/4] seed={i}" for i in range(1, 5)]
        blocks = [lines[i:i + 4] for i, line in enumerate(lines) if line.startswith("run complete")]
        assert sorted(block[0] for block in blocks) == [
            f"run complete: {out_root / f'seed={i}'}" for i in range(1, 5)]
        for block in blocks:
            assert [line.split(":")[0] for line in block[1:]] == [
                "  acc_scratch", "  acc_embed", "  acc_ens"], block
        assert len(lines) == 4 + 4 * 4

    @pytest.mark.parametrize("cpus, seeds, jobs", [
        (2, "1,2,3,4,5", 2),
        (10**6, "1,2,3", 3),
        (10**6, "1", 1),
        (1, "1,2,3", 1),
    ])
    def test_workers_capped_at_cpus_and_members(self, tmp_path, monkeypatch, cpus, seeds, jobs):
        asked = []

        def pool_map(fn, items, n):
            asked.append(n)
            return (lambda: None for _ in items)  # starts no process

        monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(cli, "pool_map", pool_map)
        assert cli.main(["sweep", "--config", str(write_config(tmp_path)),
                         "--set", f"run.seed={seeds}", "--outdir", str(tmp_path / "sweep")]) == 0
        assert asked == [jobs]

    @pytest.mark.parametrize("sets", [
        ["run.seed=1,1"],
        ["run.seed=1,1", "dataset.spread=1.5,1.5/x"],
        ["dataset.spread=1.5/x"],
        ["dataset.path=a\0b"],
    ], ids=["repeated", "repeated-and-nested", "nested", "nul"])
    def test_colliding_member_dirs_exit_2_before_any_member(self, tmp_path, capsys, monkeypatch,
                                                            sets):
        monkeypatch.setattr(driver, "run", lambda *a: pytest.fail("a member ran"))
        cfg_path = write_config(tmp_path)
        argv = ["sweep", "--config", str(cfg_path), "--outdir", str(tmp_path / "sweep")]
        for item in sets:
            argv += ["--set", item]
        assert cli.main(argv) == 2
        assert "sweep member" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_outdir_onto_a_file_exits_2_naming_it(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        target = tmp_path / "taken"
        target.write_text("x")
        rc = cli.main(["sweep", "--config", str(cfg_path), "--set", "run.seed=1",
                       "--outdir", str(target)])
        assert rc == 2
        assert f"output directory {target}" in capsys.readouterr().err
