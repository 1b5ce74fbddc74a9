"""Run configuration: JSON file plus command-line overrides.

Unknown keys are rejected by name before any work starts.  The "paper" and
"desk" presets pick the encoder sizes; explicit keys win over the preset.
"""

from __future__ import annotations

import json
import types
from dataclasses import dataclass, fields, asdict
from typing import get_args, get_origin, get_type_hints

from .corpus import open_text
from .encoders import PRESETS

__all__ = ["RunConfig", "load_config", "merge_overrides", "effective_sizes"]


@dataclass
class RunConfig:
    seed: int | None = None
    preset: str = "desk"
    model: str = "attentive_cnn"  # or paraformer_lite
    # lexical
    k1: float = 1.2
    b: float = 0.75
    n_train: int = 50
    n_predict: int = 150
    # ensembling
    alpha: float | str = "grid"
    step: float = 0.01
    eval_k: int = 1
    # training
    K: int = 2
    lr: float = 0.05
    epochs: int = 10
    # injection; positions None means the last min(3, n_layers) layers
    positions: list[int] | None = None
    portions: list[float] | None = None
    # encoder sizes; None means take the preset value
    embed_dim: int | None = None
    filters: int | None = None
    attn_dim: int | None = None
    dropout: float | None = None
    width: int = 3
    n_layers: int = 2
    n_heads: int = 2

    def validate(self) -> None:
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}")
        if self.model not in ("attentive_cnn", "paraformer_lite"):
            raise ValueError(f"unknown model {self.model!r}")
        if isinstance(self.alpha, str):
            if self.alpha != "grid":
                raise ValueError(f'alpha must be a number in [0, 1] or "grid", got {self.alpha!r}')
        elif not 0.0 <= float(self.alpha) <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 < self.step <= 1.0:
            raise ValueError(f"step must be in (0, 1], got {self.step}")
        for key in ("n_train", "n_predict", "epochs", "eval_k", "n_layers", "n_heads", "width"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
        if self.K < 0:
            raise ValueError("K must be >= 0")
        for key in ("embed_dim", "filters", "attn_dim"):
            if getattr(self, key) is not None and getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
        if self.dropout is not None and not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.lr <= 0.0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if self.k1 < 0.0:
            raise ValueError(f"k1 must be >= 0, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {self.b}")


# each key's annotation as written, and as the type it names
_FIELDS = {f.name: f.type for f in fields(RunConfig)}
_HINTS = get_type_hints(RunConfig)


def _fits(value, hint) -> bool:
    """Whether a JSON value has the annotated type: an int is a float, a
    bool is neither."""
    if isinstance(hint, types.UnionType):
        return any(_fits(value, h) for h in get_args(hint))
    if get_origin(hint) is list:
        return isinstance(value, list) and all(_fits(v, get_args(hint)[0]) for v in value)
    if hint in (int, float):
        return isinstance(value, (int, hint)) and not isinstance(value, bool)
    return isinstance(value, hint)


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    """Read a JSON config object whose keys override `base` (the defaults
    when None), as command-line flags do; any fault raises ValueError naming
    the file."""
    with open_text(path) as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError(f"expected a JSON object, got a {type(obj).__name__}")
        for key, value in obj.items():
            if key in _FIELDS and value is not None and not _fits(value, _HINTS[key]):
                raise ValueError(f"config key {key!r} must be {_FIELDS[key]}, got {json.dumps(value)}")
        return merge_overrides(base or RunConfig(), obj)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def merge_overrides(cfg: RunConfig, overrides: dict) -> RunConfig:
    """Apply non-None overrides on top of `cfg`; an unknown key is an error
    naming the key."""
    data = asdict(cfg)
    for key, value in overrides.items():
        if key not in _FIELDS:
            raise ValueError(f"unknown config key {key!r}")
        if value is not None:
            data[key] = value
    merged = RunConfig(**data)
    merged.validate()
    return merged


def effective_sizes(cfg: RunConfig) -> dict:
    """Encoder sizes with the preset filled in where keys were left unset."""
    preset = PRESETS[cfg.preset]
    return {
        "embed_dim": cfg.embed_dim if cfg.embed_dim is not None else preset["embed_dim"],
        "filters": cfg.filters if cfg.filters is not None else preset["filters"],
        "attn_dim": cfg.attn_dim if cfg.attn_dim is not None else preset["attn_dim"],
        "dropout": cfg.dropout if cfg.dropout is not None else preset["dropout"],
    }
