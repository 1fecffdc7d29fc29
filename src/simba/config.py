"""Experiment configuration and the published dataset presets."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

from .errors import ConfigError


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# what each field annotation accepts, and how a failure names it
_TYPE_CHECKS = {
    "int": (_is_int, "an integer"),
    "float": (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "list": (lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers"),
}


@dataclass
class TrainConfig:
    """Every knob of model construction and optimization, JSON round-trippable.

    The Shift-GCN recipe's fixed parts are constants where they are read:
    Nesterov momentum 0.9 (``train.MOMENTUM``), a 5-epoch warmup and 0.1
    step decay (``train.WARMUP_EPOCHS``, ``train.LR_DECAY_RATE``), batch-norm
    momentum 0.1 (``tensor.BN_MOMENTUM``), and a temporal shift of radius 1
    (``shift_gcn.temporal_shift``).
    """

    # optimization
    base_lr: float = 0.025
    milestones: list = field(default_factory=lambda: [75, 85])
    weight_decay: float = 1e-4
    epochs: int = 90
    batch_size_train: int = 64
    batch_size_eval: int = 512
    repeat_augmentation: int = 1
    # data
    window_T: int = 64
    # model
    depth_l: int = 10
    channels_C: int = 216
    mamba_D: int = 20
    ssm_W: int = 16
    partitions_enabled: bool = True
    with_imamba: bool = True
    scan_chunk: int = 0  # 0, 1 or >= window_T streams the sequential scan; else chunk length
    # run
    seed: int = 1
    precision: str = "float32"

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            ok, want = _TYPE_CHECKS[f.type]
            value = getattr(self, f.name)
            if not ok(value):
                raise ConfigError(f"{f.name} must be {want}, got {value!r}")
        if not 0 < self.base_lr < math.inf:
            raise ConfigError(f"base_lr must be finite and > 0, got {self.base_lr}")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        ms = list(self.milestones)
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ConfigError(f"milestones must be strictly increasing, got {ms}")
        if any(m >= self.epochs or m < 0 for m in ms):
            raise ConfigError(f"milestones must lie in [0, epochs), got {ms}")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.channels_C < 4 or self.channels_C % 4 != 0:
            raise ConfigError(f"channels_C must be a positive multiple of 4, got {self.channels_C}")
        if self.precision not in ("float32", "float64"):
            raise ConfigError(f"precision must be float32 or float64, got {self.precision!r}")
        for name in ("repeat_augmentation", "batch_size_train", "batch_size_eval", "window_T",
                     "depth_l", "mamba_D", "ssm_W"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.scan_chunk < 0:
            raise ConfigError(f"scan_chunk must be >= 0, got {self.scan_chunk}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TrainConfig":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"unknown config fields: {unknown}")
        return cls(**raw)

    @classmethod
    def load(cls, path) -> "TrainConfig":
        with open(path) as f:
            return cls.from_json(f.read())


def preset_ntu60() -> TrainConfig:
    return TrainConfig()  # the defaults are the 25-joint / window-64 recipe


def preset_ucla() -> TrainConfig:
    return TrainConfig(
        weight_decay=4e-4, epochs=400, milestones=[110],
        batch_size_train=16, batch_size_eval=64, window_T=52,
        mamba_D=25, partitions_enabled=False, repeat_augmentation=2,
    )


def preset_toy() -> TrainConfig:
    """Desk-scale config for the synthetic overfit experiments."""
    return TrainConfig(
        base_lr=0.05, milestones=[80, 110], epochs=120, batch_size_train=16,
        batch_size_eval=64, window_T=16, depth_l=2, channels_C=32, mamba_D=4,
        ssm_W=8, partitions_enabled=False,
    )


PRESETS = {
    "ntu60": preset_ntu60,
    "ntu120": preset_ntu60,  # the same recipe
    "ucla": preset_ucla,
    "toy": preset_toy,
}
