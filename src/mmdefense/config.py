"""Flat key-value run configuration: `key = value` lines, `#` comments."""
from __future__ import annotations

from dataclasses import dataclass, field, fields


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Defaults match the reference hyperparameters used throughout."""

    seed: int = 0
    dataset: str = ""  # synth_digits | synth_blobs | idx  (required)
    batch_size: int = 100
    train_fraction: float = 0.7
    # synth_digits
    digits_n: int = 4000
    digits_classes: int = 4
    digits_size: int = 8
    digits_noise: float = 0.1
    # synth_blobs
    blobs_n: int = 1000
    blobs_dim: int = 2
    blobs_delta: float = 3.0
    # idx
    idx_images: str = ""
    idx_labels: str = ""
    # classifier
    classifier_epochs: int = 30
    classifier_lr: float = 1e-3
    # kernel optimization
    kernel_epochs: int = 200
    kernel_lr: float = 2e-4
    kernel_lambda: float = 1e-8
    # denoiser
    denoiser_epochs: int = 60
    denoiser_lr: float = 1e-3
    denoiser_decay_epochs: tuple = (45, 60)
    alpha: float = 1e-2
    noise_sigma: float = 0.25
    # attacks
    attack_norm: str = "linf"
    attack_eps: float = 0.1
    attack_step: float = 0.02
    attack_iters: int = 40
    attack_eot: int = 10
    attack_random_start: bool = True
    train_attack_iters: int = 10
    # threshold
    far_target: float = 0.05
    calibration_trials: int = 200
    # evaluation
    trials: int = 20
    mixed_proportions: tuple = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5,
                                0.6, 0.7, 0.8, 0.9, 1.0)
    batch_sizes: tuple = (10, 25, 50, 100)
    # bound verification
    domains: int = 50
    domain_size: int = 8
    warnings: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        if self.alpha <= 0:
            raise ConfigError(f"alpha must be > 0, got {self.alpha}")
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.dataset not in ("", "synth_digits", "synth_blobs", "idx"):
            raise ConfigError(f"bad dataset {self.dataset!r}")

    def require_dataset(self):
        if not self.dataset:
            raise ConfigError("config must select a dataset "
                              "(synth_digits | synth_blobs | idx)")
        if self.dataset == "idx" and not self.idx_images:
            raise ConfigError("dataset=idx requires idx_images")


_FIELDS = {f.name: f for f in fields(RunConfig) if f.name != "warnings"}


def _parse_value(name: str, raw: str, lineno: int):
    """`raw` as the type of the key's default; a tuple's elements as the
    type of the default's elements."""
    default = _FIELDS[name].default
    try:
        if isinstance(default, bool):
            low = raw.lower()
            if low not in ("true", "false"):
                raise ValueError(raw)
            return low == "true"
        if isinstance(default, tuple):
            kind = type(default[0])
            return tuple(kind(p) for p in raw.split(",") if p.strip())
        return type(default)(raw)
    except ValueError:
        raise ConfigError(
            f"line {lineno}: malformed value {raw!r} for key {name!r}") from None


def parse_config(path: str) -> RunConfig:
    """Parse the file into a RunConfig; duplicate keys are last-wins with a
    recorded warning, unknown keys are errors with their line number."""
    values: dict = {}
    warnings: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"line {lineno}: expected 'key = value', "
                                  f"got {stripped!r}")
            key, raw = (s.strip() for s in stripped.split("=", 1))
            if key not in _FIELDS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in values:
                warnings.append(f"line {lineno}: duplicate key {key!r}, "
                                "last value wins")
            values[key] = _parse_value(key, raw, lineno)
    cfg = RunConfig(**values)
    cfg.warnings = warnings
    cfg.require_dataset()
    return cfg


def config_echo(cfg: RunConfig) -> str:
    """Fully-resolved config as reparsable text; warnings as comments."""
    lines = []
    for warning in cfg.warnings:
        lines.append(f"# warning: {warning}")
    for name in _FIELDS:
        value = getattr(cfg, name)
        if isinstance(value, tuple):
            value = ",".join(repr(v) if isinstance(v, float) else str(v)
                             for v in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{name} = {value}")
    return "\n".join(lines) + "\n"
