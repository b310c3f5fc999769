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


_SECTIONS = {
    "dataset": DatasetCfg,
    "noise": NoiseCfg,
    "oracle": OracleCfg,
    "net_scratch": NetCfg,
    "net_embed": NetCfg,
    "optim": OptimCfg,
    "schedule": ScheduleCfg,
    "method": MethodCfg,
    "run": RunCfg,
}


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


# field type -> (what a message says is expected, the YAML types it accepts);
# bools are ints to isinstance, so only a bool field takes one
_COERCE = {
    int: ("an integer", int),
    float: ("a number", (int, float)),
    bool: ("true/false", bool),
    str: ("a string", str),
    list: ("a list", list),
}


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
        raise ConfigurationError(f"{section}.{key}: expected {what}{null}, got {value!r}")
    return annotation(value)


def _apply_section(cfg_obj, section: str, data: dict):
    fields = {f.name: f for f in dataclasses.fields(cfg_obj)}
    for key, value in data.items():
        if key not in fields:
            raise ConfigurationError(
                f"unknown key {section}.{key}; valid keys: {sorted(fields)}"
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
                f"unknown config section {section!r}; valid sections: {sorted(_SECTIONS)}"
            )
        if content is None:
            continue
        if not isinstance(content, dict):
            raise ConfigurationError(f"section {section!r} must be a mapping")
        _apply_section(getattr(cfg, section), section, content)
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    # NaN compares false with every bound below, so non-finite values are
    # rejected first
    for section in _SECTIONS:
        obj = getattr(cfg, section)
        for f in dataclasses.fields(obj):
            val = getattr(obj, f.name)
            if isinstance(val, float) and not math.isfinite(val):
                raise ConfigurationError(f"{section}.{f.name} must be finite, got {val}")

    ds, noise, oracle = cfg.dataset, cfg.noise, cfg.oracle
    sched, method, optim = cfg.schedule, cfg.method, cfg.optim

    if ds.kind not in DATASET_KINDS:
        raise ConfigurationError(f"dataset.kind must be one of {DATASET_KINDS}, got {ds.kind!r}")
    if ds.kind == "file" and not ds.path:
        raise ConfigurationError("dataset.path is required when dataset.kind = file")
    if ds.kind == "blobs":
        if ds.classes < 2 or ds.per_class < 1 or ds.dim < 1 or ds.spread <= 0:
            raise ConfigurationError(
                "dataset needs classes >= 2, per_class >= 1, dim >= 1, spread > 0"
            )
        if ds.test_per_class < 0:
            raise ConfigurationError("dataset.test_per_class must be >= 0")

    if noise.kind not in NOISE_KINDS:
        raise ConfigurationError(f"noise.kind must be one of {NOISE_KINDS}, got {noise.kind!r}")
    if noise.kind != "none" and not (0.0 <= noise.eta < 1.0):
        raise ConfigurationError(f"noise.eta must be in [0, 1), got {noise.eta}")
    if noise.kind == "asymmetric" and noise.pair_map is None:
        raise ConfigurationError("noise.pair_map is required for asymmetric noise")
    for i, target in enumerate(noise.pair_map or ()):
        if isinstance(target, bool) or not isinstance(target, int):
            raise ConfigurationError(f"noise.pair_map[{i}] must be a class index, got {target!r}")

    if oracle.kind not in ORACLE_KINDS:
        raise ConfigurationError(f"oracle.kind must be one of {ORACLE_KINDS}, got {oracle.kind!r}")
    if oracle.kind == "file" and not oracle.path:
        raise ConfigurationError("oracle.path is required when oracle.kind = file")

    for name in ("net_scratch", "net_embed"):
        netcfg = getattr(cfg, name)
        if not netcfg.hidden or any(not isinstance(h, int) or h < 1 for h in netcfg.hidden):
            raise ConfigurationError(f"{name}.hidden must be a non-empty list of widths >= 1")

    if optim.lr_scratch <= 0 or optim.lr_embed <= 0:
        raise ConfigurationError("optim learning rates must be > 0")
    if not (0.0 <= optim.momentum < 1.0):
        raise ConfigurationError(f"optim.momentum must be in [0, 1), got {optim.momentum}")
    if optim.weight_decay < 0 or optim.decay_factor <= 0 or optim.batch_size < 1:
        raise ConfigurationError("optim needs weight_decay >= 0, decay_factor > 0, batch_size >= 1")

    if sched.max_epoch < 1 or sched.warmup < 0:
        raise ConfigurationError("schedule needs max_epoch >= 1 and warmup >= 0")
    if sched.warmup >= sched.start_unlearn:
        raise ConfigurationError(
            f"schedule.warmup ({sched.warmup}) must be < start_unlearn ({sched.start_unlearn})"
        )
    if sched.unlearn_period < 1 or not (0 <= sched.unlearn_duration < sched.unlearn_period):
        raise ConfigurationError(
            "schedule needs unlearn_period >= 1 and 0 <= unlearn_duration < unlearn_period"
        )
    if sched.encoder_unfreeze < 0 or sched.encoder_unfreeze > sched.max_epoch:
        raise ConfigurationError("schedule.encoder_unfreeze must lie in [0, max_epoch]")

    if method.kind not in METHOD_KINDS:
        raise ConfigurationError(f"method.kind must be one of {METHOD_KINDS}, got {method.kind!r}")
    if method.unlearning and method.kind == "coforget":
        if method.t_unl is None:
            raise ConfigurationError("method.t_unl is required while method.unlearning is true")
        if method.t_unl <= 0:
            raise ConfigurationError(f"method.t_unl must be > 0, got {method.t_unl}")
        if method.batch_unlearn < 1:
            raise ConfigurationError("method.batch_unlearn must be >= 1")
    for key in ("p_low", "p_drop", "tau_w"):
        val = getattr(method, key)
        if not (0.0 <= val <= 1.0):
            raise ConfigurationError(f"method.{key} must be in [0, 1], got {val}")
    if method.t_sharp <= 0 or method.mixup_alpha <= 0:
        raise ConfigurationError("method.t_sharp and method.mixup_alpha must be > 0")
    if method.lambda_u < 0 or method.reg_coef < 0:
        raise ConfigurationError("method.lambda_u and method.reg_coef must be >= 0")

    if cfg.run.seed < 0:
        raise ConfigurationError(f"run.seed must be >= 0, got {cfg.run.seed}")


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
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"override {item!r}: value is not valid YAML ({exc})") from None
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
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"{path}: config is not valid YAML ({exc})") from None
    data = apply_overrides(data, overrides)
    return build_config(data)
