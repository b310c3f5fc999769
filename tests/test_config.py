"""Config domains: every field of the schema is bounded by a row of
config._DOMAINS, walked item by item for lists, or named here as free, and
each row rejects a value outside its domain naming the field and the value."""

import dataclasses
import re

import pytest

from coforget.config import _DOMAINS, _SECTIONS, RunConfig, build_config, validate_config
from coforget.errors import ConfigurationError

VALID = {
    "dataset": {"classes": 3, "per_class": 40, "test_per_class": 20, "dim": 4, "spread": 1.5},
    "noise": {"kind": "symmetric", "eta": 0.4},
    "schedule": {
        "max_epoch": 12, "warmup": 2, "start_unlearn": 6,
        "encoder_unfreeze": 4, "unlearn_period": 3, "unlearn_duration": 1,
    },
    "method": {"t_unl": 0.05},
}

# fields no domain row bounds, and why
FREE = {
    "run.outdir": "any path, or empty for the default",
    "optim.decay_epoch": "any epoch; one past schedule.max_epoch never decays",
    "oracle.accuracy": "bounded by the dataset's class count once the run builds its oracle",
    "oracle.confidence": "bounded by the dataset's class count once the run builds its oracle",
    "oracle.embed_dim": "bounded by the dataset's class count in driver.run",
    **{f"method.{name}": "a switch" for name in
       ("unlearning", "asymmetric", "cond_low_loss", "cond_loss_drop", "cond_oracle")},
}

# (field as the message names it, a value out of its domain, other fields
# the row's condition needs); a list item's field carries its index
OUT_OF_DOMAIN = [
    ("dataset.kind", "csv", {}),
    ("dataset.path", "", {"dataset.kind": "file"}),
    ("dataset.classes", 1, {}),
    ("dataset.per_class", 0, {}),
    ("dataset.dim", 0, {}),
    ("dataset.spread", -1.5, {}),
    ("dataset.test_per_class", -1, {}),
    ("dataset.seed", -1, {}),
    ("noise.kind", "uniform", {}),
    ("noise.eta", 1.0, {}),
    ("noise.pair_map", None, {"noise.kind": "asymmetric"}),
    ("noise.pair_map[1]", [1, "x", 0], {"noise.kind": "asymmetric"}),
    ("noise.seed", -1, {}),
    ("oracle.kind", "remote", {}),
    ("oracle.path", "", {"oracle.kind": "file"}),
    ("oracle.seed", -2, {}),
    ("net_scratch.hidden", [], {}),
    ("net_scratch.hidden[1]", [32, 0], {}),
    ("net_scratch.activation", "sigmoid", {}),
    ("net_embed.hidden", [], {}),
    ("net_embed.hidden[0]", [-4, 16], {}),
    ("net_embed.activation", "ReLU", {}),
    ("optim.lr_scratch", 0.0, {}),
    ("optim.lr_embed", -0.02, {}),
    ("optim.momentum", 1.0, {}),
    ("optim.weight_decay", -0.1, {}),
    ("optim.decay_factor", 0.0, {}),
    ("optim.batch_size", 0, {}),
    ("schedule.max_epoch", 0, {}),
    ("schedule.warmup", -1, {}),
    ("schedule.start_unlearn", 2, {}),
    ("schedule.unlearn_period", 0, {}),
    ("schedule.unlearn_duration", 3, {}),
    ("schedule.encoder_unfreeze", 13, {}),
    ("method.kind", "mixmatch", {}),
    ("method.t_unl", 0.0, {}),
    ("method.batch_unlearn", 0, {}),
    ("method.p_low", 1.5, {}),
    ("method.p_drop", -0.1, {}),
    ("method.tau_w", 2.0, {}),
    ("method.t_sharp", 0.0, {}),
    ("method.mixup_alpha", 0.0, {}),
    ("method.lambda_u", -1.0, {}),
    ("method.reg_coef", -0.5, {}),
    ("run.seed", -1, {}),
]


def _row_name(field: str) -> str:
    return re.sub(r"\[\d+\]$", "[]", field)


def _with(settings: dict) -> dict:
    raw = {section: dict(fields) for section, fields in VALID.items()}
    for key, value in settings.items():
        section, name = key.split(".")
        raw.setdefault(section, {})[name] = value
    return raw


def test_valid_base_config_is_accepted():
    build_config(_with({}))


@pytest.mark.parametrize("field, value, needs", OUT_OF_DOMAIN,
                         ids=[field for field, _, _ in OUT_OF_DOMAIN])
def test_each_row_rejects_a_value_out_of_its_domain(field, value, needs):
    name, _, index = field.partition("[")
    shown = value[int(index[:-1])] if index else value
    with pytest.raises(ConfigurationError) as info:
        build_config(_with({**needs, name: value}))
    message = str(info.value)
    assert message.startswith(f"{field} must be "), message
    assert message.endswith(f", got {shown!r}"), message


@pytest.mark.parametrize("field, value, needs", OUT_OF_DOMAIN,
                         ids=[field for field, _, _ in OUT_OF_DOMAIN])
def test_rejection_names_its_field_in_a_check_of_its_sections(field, value, needs):
    """The error's `field` is the row's field, without a list index, and a
    check of only the sections involved finds the same fault."""
    name, _, _ = field.partition("[")
    cfg = build_config(_with({}))
    for key, item in {**needs, name: value}.items():
        section, attr = key.split(".")
        setattr(getattr(cfg, section), attr, item)
    for sections in (_SECTIONS, {key.split(".")[0] for key in (*needs, name)}):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(field)} must be ") as info:
            validate_config(cfg, sections)
        assert info.value.field == name


def test_data_sections_of_the_defaults_pass():
    """make-data and make-oracle check only the sections they fill; the
    defaults of the others (a null method.t_unl) fail a whole-config check."""
    validate_config(RunConfig(), ("dataset", "noise", "oracle"))
    with pytest.raises(ConfigurationError, match="method.t_unl"):
        validate_config(RunConfig())


def test_non_finite_value_names_its_field():
    cfg = RunConfig()
    cfg.noise.eta = float("nan")
    with pytest.raises(ConfigurationError, match="noise.eta must be finite") as info:
        validate_config(cfg, ("noise",))
    assert info.value.field == "noise.eta"


def test_every_row_has_a_case():
    rows = [name for name, _, _ in _DOMAINS]
    assert len(set(rows)) == len(rows)
    assert sorted(_row_name(field) for field, _, _ in OUT_OF_DOMAIN) == sorted(rows)


def test_every_field_has_a_domain_or_is_named_free():
    """A field added to the schema fails here until a row bounds it or FREE
    says why nothing does."""
    bounded = {name.removesuffix("[]") for name, _, _ in _DOMAINS}
    fields = {f"{section.name}.{f.name}" for section in dataclasses.fields(RunConfig)
              for f in dataclasses.fields(section.default_factory())}
    assert sorted(fields - bounded - FREE.keys()) == []
    assert sorted(FREE.keys() & bounded) == []
    assert sorted(FREE.keys() - fields) == []


@pytest.mark.parametrize("settings", [
    {"dataset.kind": "file", "dataset.path": "ds.csv", "dataset.classes": 1, "dataset.dim": 0},
    {"noise.kind": "none", "noise.eta": 1.5},
    {"method.unlearning": False, "method.t_unl": None, "method.batch_unlearn": 0},
    {"method.kind": "naive-ce", "method.t_unl": -1.0, "method.batch_unlearn": 0},
    {"dataset.kind": "file", "dataset.path": "ds.csv", "dataset.seed": -1},
    {"noise.kind": "none", "noise.seed": -1},
    {"noise.kind": "instance", "noise.eta": 0.0, "noise.seed": -1},
    {"method.kind": "naive-ce", "oracle.seed": -1},
    {"oracle.kind": "file", "oracle.path": "oracle.csv", "oracle.seed": -1},
], ids=["file-dataset-sizes", "eta-without-noise", "unlearning-off", "naive-ce",
        "file-dataset-seed", "seed-without-noise", "instance-seed-at-eta-0",
        "naive-ce-oracle-seed", "file-oracle-seed"])
def test_conditional_rows_skip_when_their_condition_is_off(settings):
    build_config(_with(settings))
