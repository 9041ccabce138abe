"""Run configuration: one JSON file mirroring the library's config types.

Sections map one-to-one onto the dataclasses they configure. Unknown keys
anywhere are rejected so a typo cannot silently fall back to a default.
"""

import dataclasses
import json
import math
from dataclasses import dataclass, field

from .condnet import InferenceConfig
from .evaluate import DEFAULT_THRESHOLDS
from .loss import LossConfig
from .synthgen import ProposalConfig, SceneConfig
from .train import TrainConfig


class ConfigError(Exception):
    pass


@dataclass
class EvalConfig:
    thresholds: tuple = DEFAULT_THRESHOLDS

    def __post_init__(self):
        if not self.thresholds:
            raise ValueError("thresholds must be non-empty")
        for t in self.thresholds:
            if not 0.0 < t <= 1.0:
                raise ValueError("thresholds must lie in (0, 1]")


@dataclass
class RunConfig:
    seed: int = 0
    n_scenes: int = 50
    n_eval_scenes: int = 12
    scene: SceneConfig = field(default_factory=SceneConfig)
    proposal: ProposalConfig = field(default_factory=ProposalConfig)
    inference: InferenceConfig = field(default_factory=InferenceConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.n_scenes < 1:
            raise ValueError("n_scenes must be at least 1")
        if self.n_eval_scenes < 0:
            raise ValueError("n_eval_scenes must be non-negative")


_SECTIONS = {
    "scene": SceneConfig,
    "proposal": ProposalConfig,
    "inference": InferenceConfig,
    "loss": LossConfig,
    "train": TrainConfig,
    "eval": EvalConfig,
}
_SCALARS = ("seed", "n_scenes", "n_eval_scenes")


# the values a field takes, by the type of its default, and their name; a
# bool, although an int in Python, fits only a bool field. JSON gives a
# list where a tuple field is set in code; its entries take the type of
# the default's entries, so a list is never an entry.
_KINDS = {
    bool: ((bool,), "a bool"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    tuple: ((list, tuple), "a list"),
}


def _check_kind(value, default, what: str) -> None:
    accepted, kind = _KINDS[type(default)]
    if (not isinstance(value, accepted)
            or isinstance(value, bool) != isinstance(default, bool)):
        raise ConfigError(f"{what} must be {kind}, not {value!r}")
    # json reads NaN, Infinity and -Infinity as floats
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, not {value!r}")


def _build_section(cls, obj: dict, where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(obj) - names)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    for f in dataclasses.fields(cls):
        if f.name not in obj:
            continue
        default = (f.default_factory() if f.default is dataclasses.MISSING
                   else f.default)
        value = obj[f.name]
        _check_kind(value, default, f"{where}: {f.name}")
        if isinstance(default, tuple):
            for v in value:
                _check_kind(v, default[0], f"{where}: {f.name} entries")
    kwargs = {k: tuple(v) if isinstance(v, list) else v
              for k, v in obj.items()}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def config_from_obj(obj: dict) -> RunConfig:
    if not isinstance(obj, dict):
        raise ConfigError("top level: expected an object")
    allowed = set(_SCALARS) | set(_SECTIONS)
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"top level: unknown keys {unknown}")
    kwargs = {}
    for key in _SCALARS:
        if key in obj:
            if not isinstance(obj[key], int) or isinstance(obj[key], bool):
                raise ConfigError(f"{key}: expected an integer")
            kwargs[key] = obj[key]
    for key, cls in _SECTIONS.items():
        if key in obj:
            kwargs[key] = _build_section(cls, obj[key], key)
    try:
        cfg = RunConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    # the top-level seed drives every stage, training included
    if "seed" in obj.get("train", {}) and cfg.train.seed != cfg.seed:
        raise ConfigError(f"train: seed {cfg.train.seed!r} differs from the "
                          f"top-level seed {cfg.seed}")
    cfg.train.seed = cfg.seed
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return config_from_obj(obj)


def config_to_obj(cfg: RunConfig) -> dict:
    obj: dict = {key: getattr(cfg, key) for key in _SCALARS}
    for key, _cls in _SECTIONS.items():
        section = dataclasses.asdict(getattr(cfg, key))
        obj[key] = {k: list(v) if isinstance(v, tuple) else v
                    for k, v in section.items()}
    return obj


def save_config(path: str, cfg: RunConfig) -> None:
    with open(path, "w") as fh:
        json.dump(config_to_obj(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
