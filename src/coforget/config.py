"""Config schema for experiment runs: YAML in, strictly validated, unknown
keys rejected (a silent hyperparameter typo is the main reproducibility
hazard). All randomness in a run flows from run.seed unless a section pins
its own seed.
"""

import dataclasses
import hashlib
import json
import math
import typing
from dataclasses import dataclass, field

import yaml

from .errors import ConfigurationError
from .net import ACTIVATIONS

NOISE_KINDS = ("none", "symmetric", "asymmetric", "instance")
ORACLE_KINDS = ("synthetic", "file")
DATASET_KINDS = ("blobs", "file")
METHOD_KINDS = ("coforget", "naive-ce")


@dataclass
class DatasetCfg:
    kind: str = "blobs"
    path: str = ""
    classes: int = 3
    per_class: int = 300
    test_per_class: int = 100
    dim: int = 8
    spread: float = 1.0
    seed: int | None = None


@dataclass
class NoiseCfg:
    kind: str = "symmetric"
    eta: float = 0.4
    pair_map: list | None = None
    seed: int | None = None


@dataclass
class OracleCfg:
    kind: str = "synthetic"
    path: str = ""
    accuracy: float = 0.7
    confidence: float = 0.6
    embed_dim: int = 16
    seed: int | None = None


@dataclass
class NetCfg:
    hidden: list = field(default_factory=lambda: [32, 32])
    activation: str = "relu"


@dataclass
class OptimCfg:
    lr_scratch: float = 0.02
    lr_embed: float = 0.02
    momentum: float = 0.9
    weight_decay: float = 0.0005
    decay_epoch: int = 60
    decay_factor: float = 0.1
    batch_size: int = 128


@dataclass
class ScheduleCfg:
    max_epoch: int = 120
    warmup: int = 5
    start_unlearn: int = 30
    encoder_unfreeze: int = 25
    unlearn_period: int = 10
    unlearn_duration: int = 5


@dataclass
class MethodCfg:
    kind: str = "coforget"
    unlearning: bool = True
    asymmetric: bool = True
    cond_low_loss: bool = True
    cond_loss_drop: bool = True
    cond_oracle: bool = True
    p_low: float = 0.05
    p_drop: float = 0.2
    t_unl: float | None = None
    batch_unlearn: int = 128
    tau_w: float = 0.5
    lambda_u: float = 25.0
    t_sharp: float = 0.5
    mixup_alpha: float = 4.0
    reg_coef: float = 1.0


@dataclass
class RunCfg:
    seed: int = 1
    outdir: str = ""


@dataclass
class RunConfig:
    dataset: DatasetCfg = field(default_factory=DatasetCfg)
    noise: NoiseCfg = field(default_factory=NoiseCfg)
    oracle: OracleCfg = field(default_factory=OracleCfg)
    net_scratch: NetCfg = field(default_factory=NetCfg)
    net_embed: NetCfg = field(default_factory=lambda: NetCfg(hidden=[32, 16]))
    optim: OptimCfg = field(default_factory=OptimCfg)
    schedule: ScheduleCfg = field(default_factory=ScheduleCfg)
    method: MethodCfg = field(default_factory=MethodCfg)
    run: RunCfg = field(default_factory=RunCfg)

    def to_dict(self) -> dict:
        return {name: dataclasses.asdict(getattr(self, name)) for name in _SECTIONS}

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


_SECTIONS = tuple(f.name for f in dataclasses.fields(RunConfig))


# field type -> (what a message says is expected, the YAML types it accepts);
# bools are ints to isinstance, so only a bool field takes one
_COERCE = {
    int: ("an integer", int),
    float: ("a number", (int, float)),
    bool: ("true/false", bool),
    str: ("a string", str),
    list: ("a list", list),
}


def show_value(value) -> str:
    """repr of a user value for an error message. repr raises ValueError on
    an int past Python's int-to-str digit limit, alone or inside a list or
    mapping; such a value is shown by its type alone."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too large to print>"


def _coerce(section: str, key: str, value, annotation):
    """Check one YAML value against its field type; `X | None` also takes null."""
    args = typing.get_args(annotation)
    optional = type(None) in args
    if optional:
        if value is None:
            return None
        (annotation,) = (a for a in args if a is not type(None))
    if annotation not in _COERCE:
        raise ConfigurationError(f"{section}.{key}: unsupported config field type {annotation}")
    what, accepted = _COERCE[annotation]
    if not isinstance(value, accepted) or (isinstance(value, bool) and annotation is not bool):
        null = " or null" if optional else ""
        raise ConfigurationError(f"{section}.{key}: expected {what}{null}, got {show_value(value)}")
    try:
        return annotation(value)
    except OverflowError:
        raise ConfigurationError(f"{section}.{key}: integer too large for a float") from None


def _apply_section(cfg_obj, section: str, data: dict):
    fields = {f.name: f for f in dataclasses.fields(cfg_obj)}
    for key, value in data.items():
        if key not in fields:
            raise ConfigurationError(
                f"unknown key {section}.{key if isinstance(key, str) else show_value(key)}; "
                f"valid keys: {sorted(fields)}"
            )
        setattr(cfg_obj, key, _coerce(section, key, value, fields[key].type))


def build_config(data: dict) -> RunConfig:
    """Construct and validate a RunConfig from a nested plain dict."""
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be a mapping of sections")
    cfg = RunConfig()
    for section, content in data.items():
        if section not in _SECTIONS:
            raise ConfigurationError(
                f"unknown config section {show_value(section)}; valid sections: {sorted(_SECTIONS)}"
            )
        if content is None:
            continue
        if not isinstance(content, dict):
            raise ConfigurationError(f"section {section!r} must be a mapping")
        _apply_section(getattr(cfg, section), section, content)
    validate_config(cfg)
    return cfg


def _blobs(cfg: RunConfig) -> bool:
    return cfg.dataset.kind == "blobs"


def _unlearns(cfg: RunConfig) -> bool:
    return cfg.method.unlearning and cfg.method.kind == "coforget"


def _draws_noise(cfg: RunConfig) -> bool:
    """Whether building the dataset seeds a noise draw: instance noise at
    eta 0 returns before it."""
    return cfg.noise.kind != "none" and not (cfg.noise.kind == "instance" and cfg.noise.eta == 0)


def _seeds_oracle(cfg: RunConfig) -> bool:
    return cfg.oracle.kind == "synthetic" and cfg.method.kind == "coforget"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# (field, domain, test of the field's value and the config), in the order
# validate_config checks them; a field ending in [] is tested item by item
_DOMAINS = (
    ("dataset.kind", f"one of {DATASET_KINDS}", lambda v, c: v in DATASET_KINDS),
    ("dataset.path", "set when dataset.kind = file", lambda v, c: c.dataset.kind != "file" or v),
    ("dataset.classes", ">= 2", lambda v, c: not _blobs(c) or v >= 2),
    ("dataset.per_class", ">= 1", lambda v, c: not _blobs(c) or v >= 1),
    ("dataset.dim", ">= 1", lambda v, c: not _blobs(c) or v >= 1),
    ("dataset.spread", "> 0", lambda v, c: not _blobs(c) or v > 0),
    ("dataset.test_per_class", ">= 0", lambda v, c: not _blobs(c) or v >= 0),
    ("dataset.seed", ">= 0 or null", lambda v, c: not _blobs(c) or v is None or v >= 0),
    ("noise.kind", f"one of {NOISE_KINDS}", lambda v, c: v in NOISE_KINDS),
    ("noise.eta", "in [0, 1)", lambda v, c: c.noise.kind == "none" or 0 <= v < 1),
    ("noise.pair_map", "a list when noise.kind = asymmetric",
     lambda v, c: c.noise.kind != "asymmetric" or v is not None),
    ("noise.pair_map[]", "a class index", lambda v, c: _is_int(v)),
    ("noise.seed", ">= 0 or null", lambda v, c: not _draws_noise(c) or v is None or v >= 0),
    ("oracle.kind", f"one of {ORACLE_KINDS}", lambda v, c: v in ORACLE_KINDS),
    ("oracle.path", "set when oracle.kind = file", lambda v, c: c.oracle.kind != "file" or v),
    ("oracle.seed", ">= 0 or null", lambda v, c: not _seeds_oracle(c) or v is None or v >= 0),
    ("net_scratch.hidden", "a non-empty list of widths", lambda v, c: len(v) > 0),
    ("net_scratch.hidden[]", "a width >= 1", lambda v, c: _is_int(v) and v >= 1),
    ("net_scratch.activation", f"one of {tuple(ACTIVATIONS)}", lambda v, c: v in ACTIVATIONS),
    ("net_embed.hidden", "a non-empty list of widths", lambda v, c: len(v) > 0),
    ("net_embed.hidden[]", "a width >= 1", lambda v, c: _is_int(v) and v >= 1),
    ("net_embed.activation", f"one of {tuple(ACTIVATIONS)}", lambda v, c: v in ACTIVATIONS),
    ("optim.lr_scratch", "> 0", lambda v, c: v > 0),
    ("optim.lr_embed", "> 0", lambda v, c: v > 0),
    ("optim.momentum", "in [0, 1)", lambda v, c: 0 <= v < 1),
    ("optim.weight_decay", ">= 0", lambda v, c: v >= 0),
    ("optim.decay_factor", "> 0", lambda v, c: v > 0),
    ("optim.batch_size", ">= 1", lambda v, c: v >= 1),
    ("schedule.max_epoch", ">= 1", lambda v, c: v >= 1),
    ("schedule.warmup", ">= 0", lambda v, c: v >= 0),
    ("schedule.start_unlearn", "> schedule.warmup", lambda v, c: v > c.schedule.warmup),
    ("schedule.unlearn_period", ">= 1", lambda v, c: v >= 1),
    ("schedule.unlearn_duration", "in [0, schedule.unlearn_period)",
     lambda v, c: 0 <= v < c.schedule.unlearn_period),
    ("schedule.encoder_unfreeze", "in [0, schedule.max_epoch]",
     lambda v, c: 0 <= v <= c.schedule.max_epoch),
    ("method.kind", f"one of {METHOD_KINDS}", lambda v, c: v in METHOD_KINDS),
    ("method.t_unl", "> 0 while method.unlearning is true",
     lambda v, c: not _unlearns(c) or (v is not None and v > 0)),
    ("method.batch_unlearn", ">= 1 while method.unlearning is true",
     lambda v, c: not _unlearns(c) or v >= 1),
    ("method.p_low", "in [0, 1]", lambda v, c: 0 <= v <= 1),
    ("method.p_drop", "in [0, 1]", lambda v, c: 0 <= v <= 1),
    ("method.tau_w", "in [0, 1]", lambda v, c: 0 <= v <= 1),
    ("method.t_sharp", "> 0", lambda v, c: v > 0),
    ("method.mixup_alpha", "> 0", lambda v, c: v > 0),
    ("method.lambda_u", ">= 0", lambda v, c: v >= 0),
    ("method.reg_coef", ">= 0", lambda v, c: v >= 0),
    ("run.seed", ">= 0", lambda v, c: v >= 0),
)


def validate_config(cfg: RunConfig, sections=_SECTIONS) -> None:
    """Check the fields of the given sections (all by default); the first
    fault raises ConfigurationError, whose `field` names the field at fault."""
    # NaN compares false with every bound below, so non-finite values are
    # rejected first
    for section in sections:
        obj = getattr(cfg, section)
        for f in dataclasses.fields(obj):
            val = getattr(obj, f.name)
            if isinstance(val, float) and not math.isfinite(val):
                name = f"{section}.{f.name}"
                raise ConfigurationError(f"{name} must be finite, got {show_value(val)}", field=name)

    for name, domain, ok in _DOMAINS:
        section, key = name.split(".")
        if section not in sections:
            continue
        value = getattr(getattr(cfg, section), key.removesuffix("[]"))
        items = enumerate(value or ()) if key.endswith("[]") else [(None, value)]
        for i, item in items:
            if not ok(item, cfg):
                where = name if i is None else f"{name[:-2]}[{i}]"
                raise ConfigurationError(f"{where} must be {domain}, got {show_value(item)}",
                                         field=name.removesuffix("[]"))


# what yaml.safe_load raises on bad text: YAMLError, and from its constructors
# ValueError, LookupError or AttributeError on malformed tagged scalars and
# dates ("!!int x", "2001-13-45"), RecursionError on deep nesting
_YAML_ERRORS = (yaml.YAMLError, ValueError, LookupError, AttributeError, RecursionError)


def apply_overrides(data: dict, overrides) -> dict:
    """Apply 'section.key=value' strings (bare 'seed' means run.seed)."""
    if overrides and not isinstance(data, dict):
        raise ConfigurationError("config root must be a mapping of sections")
    for item in overrides:
        if "=" not in item:
            raise ConfigurationError(f"override {item!r} must look like section.key=value")
        key, raw = item.split("=", 1)
        key = key.strip()
        if key == "seed":
            key = "run.seed"
        parts = key.split(".")
        if len(parts) != 2:
            raise ConfigurationError(f"override key {key!r} must be section.key")
        section, name = parts
        try:
            value = yaml.safe_load(raw)
        except _YAML_ERRORS as exc:
            raise ConfigurationError(f"override {item!r}: value is not valid YAML ({exc!r})") from None
        if data.get(section) is None:
            data[section] = {}
        elif not isinstance(data[section], dict):
            raise ConfigurationError(f"section {section!r} must be a mapping")
        data[section][name] = value
    return data


def load_config(path, overrides=()) -> RunConfig:
    """Read a YAML config file, apply overrides, and validate. A file that
    cannot be read or parsed raises ConfigurationError naming it."""
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh) or {}
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"{path}: cannot read config ({exc})") from None
    except _YAML_ERRORS as exc:
        raise ConfigurationError(f"{path}: config is not valid YAML ({exc!r})") from None
    data = apply_overrides(data, overrides)
    return build_config(data)
