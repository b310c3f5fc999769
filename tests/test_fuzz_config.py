"""Hypothesis fuzz of the config surface: build_config over arbitrary dicts,
apply_overrides over arbitrary strings, the report --window parse, and the
sweep --set grid parse with its member labels. Only errors.py types may
escape, and none of it runs training or launches a sweep member."""

import math
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coforget import cli
from coforget.config import _SECTIONS, RunConfig, apply_overrides, build_config, load_config
from coforget.errors import ConfigurationError
from test_data import PACKAGE_ERRORS

DEFAULTS = RunConfig().to_dict()
FIELDS = sorted({name for section in DEFAULTS.values() for name in section})

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=10**300, max_value=10**400),
    # repr of an int past 4,300 digits raises ValueError
    st.tuples(st.integers(4300, 5000), st.sampled_from([1, -1])).map(lambda t: t[1] * 10**t[0]),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=8),
    st.sampled_from(["file", "blobs", "none", "symmetric", "asymmetric", "instance",
                     "synthetic", "coforget", "naive-ce", "relu", "tanh"]),
)
values = st.recursive(scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)
keys = st.one_of(st.sampled_from(FIELDS), st.text(max_size=6), st.integers())
sections = st.one_of(st.dictionaries(keys, values, max_size=6), values)
configs = st.dictionaries(st.one_of(st.sampled_from(sorted(_SECTIONS)), st.text(max_size=6),
                                    st.integers()), sections, max_size=5)


def _mutated_defaults(draw):
    """The defaults with t_unl set and a few fields replaced, so that
    validation runs past the first check."""
    cfg = {name: dict(fields) for name, fields in DEFAULTS.items()}
    cfg["method"]["t_unl"] = 0.05
    for _ in range(draw(st.integers(0, 3), label="n_edits")):
        section = draw(st.sampled_from(sorted(cfg)), label="section")
        name = draw(st.sampled_from(sorted(cfg[section])), label="field")
        cfg[section][name] = draw(values, label="value")
    return cfg


def _only_package_errors(fn, *args):
    try:
        return fn(*args)
    except PACKAGE_ERRORS:
        return None


FUZZ = settings(max_examples=200, deadline=None)


@FUZZ
@given(cfg=configs)
def test_build_config_on_arbitrary_dicts(cfg):
    _only_package_errors(build_config, cfg)


@FUZZ
@given(draw=st.data())
def test_build_config_on_mutated_defaults(draw):
    cfg = _only_package_errors(build_config, _mutated_defaults(draw.draw))
    if cfg is not None:
        for section in cfg.to_dict().values():
            for value in section.values():
                assert not (isinstance(value, float) and not math.isfinite(value))
        for hidden in (cfg.net_scratch.hidden, cfg.net_embed.hidden):
            assert all(type(width) is int and width >= 1 for width in hidden)


@FUZZ
@given(overrides=st.lists(st.one_of(
    st.text(max_size=30),
    st.builds("{}={}".format, st.sampled_from(["seed", "dataset.classes", "method.t_unl",
                                               "net_scratch.hidden", "noise.pair_map", "x.y"]),
              st.text(max_size=20)),
), max_size=4), root=st.sampled_from([{}, {"method": {"t_unl": 0.05}}, {"method": None}]))
def test_apply_overrides_on_arbitrary_strings(overrides, root):
    data = _only_package_errors(apply_overrides, {k: v for k, v in root.items()}, overrides)
    if data is not None:
        _only_package_errors(build_config, data)


@FUZZ
@given(text=st.one_of(st.none(), st.text(max_size=12),
                      st.builds("{}:{}".format, st.integers(), st.integers())))
def test_parse_window_on_arbitrary_text(text):
    window = _only_package_errors(cli._parse_window, text)
    if window is not None:
        lo, hi = window
        assert 1 <= lo <= hi


@FUZZ
@given(items=st.lists(st.text(max_size=10), max_size=3))
def test_sweep_grid_on_arbitrary_axes(items):
    combos = _only_package_errors(cli.sweep_grid, items)
    if combos is not None:
        axes = [item.split("=", 1) for item in items]
        assert len(combos) == math.prod(len(values.split(",")) for _, values in axes)
        assert all([key for key, _ in combo] == [key.strip() for key, _ in axes]
                   for combo in combos)


@FUZZ
@given(items=st.lists(st.builds("{}={}".format, st.sampled_from(["run.seed", "dataset.path", "x"]),
                                st.text(alphabet="1./\0_=", max_size=6)), max_size=3))
def test_sweep_labels_on_arbitrary_axes(items):
    combos = cli.sweep_grid(items)
    labels = _only_package_errors(cli.sweep_labels, combos)
    if labels is not None:
        assert len(set(labels)) == len(labels) == len(combos)
        for label, combo in zip(labels, combos):
            assert label not in (".", "..")
            assert not any(c in label for c in ("/", os.sep, "\0"))
            assert label == ("_".join(f"{k.split('.')[-1]}={v}" for k, v in combo) or "run0")


def test_sweep_labels_reject_shared_or_nested_dirs():
    assert cli.sweep_labels(cli.sweep_grid(["run.seed=1,2", "method.unlearning=true,false"])) == [
        "seed=1_unlearning=true", "seed=1_unlearning=false",
        "seed=2_unlearning=true", "seed=2_unlearning=false",
    ]
    assert cli.sweep_labels([[]]) == ["run0"]
    with pytest.raises(ConfigurationError, match="share the run directory 'seed=1'"):
        cli.sweep_labels(cli.sweep_grid(["run.seed=1,1"]))
    with pytest.raises(ConfigurationError, match="'seed=1_spread=1.5/x' is not a plain directory name"):
        cli.sweep_labels(cli.sweep_grid(["run.seed=1,1", "dataset.spread=1.5,1.5/x"]))
    with pytest.raises(ConfigurationError, match="not a plain directory name"):
        cli.sweep_labels(cli.sweep_grid(["dataset.path=a\0b"]))


def test_sweep_grid_order():
    assert cli.sweep_grid(["run.seed=1,2", "method.t_unl=0.1,0.2"]) == [
        [("run.seed", "1"), ("method.t_unl", "0.1")], [("run.seed", "1"), ("method.t_unl", "0.2")],
        [("run.seed", "2"), ("method.t_unl", "0.1")], [("run.seed", "2"), ("method.t_unl", "0.2")],
    ]
    assert cli.sweep_grid([]) == [[]]
    with pytest.raises(ConfigurationError, match="--set 'seed' must look like"):
        cli.sweep_grid(["run.seed=1", "seed"])


def test_bool_width_rejected_naming_the_index():
    with pytest.raises(ConfigurationError, match=r"net_scratch\.hidden\[0\]"):
        build_config({"net_scratch": {"hidden": [True, 32]}, "method": {"t_unl": 0.05}})
    with pytest.raises(ConfigurationError, match=r"net_embed\.hidden\[1\]"):
        build_config({"net_embed": {"hidden": [16, False]}, "method": {"t_unl": 0.05}})


@pytest.mark.parametrize("value", ["[" * 1000, "[" * 1000 + "]" * 1000, "!!int x", "!!float",
                                   "!!timestamp x", "!!bool x", "2001-13-45"],
                         ids=["deep-open", "deep-closed", "int-tag", "empty-float-tag",
                              "timestamp-tag", "bool-tag", "bad-date"])
def test_unparsable_override_value_names_the_override(value):
    with pytest.raises(ConfigurationError, match=r"override 'dataset\.seed=.*not valid YAML"):
        apply_overrides({}, [f"dataset.seed={value}"])


def test_deeply_nested_config_file_names_the_file(tmp_path):
    path = tmp_path / "deep.yaml"
    path.write_text("dataset:\n  classes: " + "[" * 1000 + "\n")
    with pytest.raises(ConfigurationError, match=rf"{re.escape(str(path))}: config is not valid YAML"):
        load_config(path)


def test_huge_int_for_a_float_field_is_rejected():
    with pytest.raises(ConfigurationError, match="method.t_unl"):
        build_config({"method": {"t_unl": 10**400}})


@pytest.mark.parametrize("cfg, field", [
    ({"method": {"kind": 10**5000}}, "method.kind"),
    ({"dataset": {"path": 10**5000}}, "dataset.path"),
    ({"dataset": {"classes": [10**5000]}}, "dataset.classes"),
    ({"run": {"seed": -10**5000}}, "run.seed"),
    ({"schedule": {"warmup": 10**5000}}, "schedule.warmup"),
    ({"net_scratch": {"hidden": [-10**5000]}}, r"net_scratch\.hidden\[0\]"),
    ({"dataset": {10**5000: 1}}, "unknown key dataset."),
], ids=["str-field", "path-field", "list-in-int-field", "seed", "schedule", "hidden", "key"])
def test_int_too_long_to_print_is_a_configuration_error(cfg, field):
    with pytest.raises(ConfigurationError, match=field):
        build_config({"method": {"t_unl": 0.05}, **cfg})
