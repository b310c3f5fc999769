"""Hypothesis fuzz of the config surface: build_config over arbitrary dicts,
apply_overrides over arbitrary strings, the report --window parse and the
sweep --set grid parse. Only errors.py types may escape, and none of it
runs training or launches a sweep member."""

import math
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
