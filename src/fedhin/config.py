"""Experiment configuration: defaults, type and bounds checking, JSON parsing.

A config file is a flat JSON object whose keys mirror the
:class:`ExperimentConfig` fields; an empty file means all defaults.
Each field must match its annotation before its range is checked: a
bool is not an integer, an integer must fit in 64 bits, an integer is a
number, a float field must be finite, and a tuple field is a JSON list.
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Union, get_args, get_origin, get_type_hints

from .federation import AGGREGATORS
from .graph import DEFAULT_TYPE_ALPHABET
from .model import ACTIVATIONS


class ConfigError(Exception):
    pass


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_INT64 = (-(2**63), 2**63 - 1)

# plain annotation types: (test, singular name, plural name)
_PLAIN = {
    int: (
        lambda v: _is_int(v) and _INT64[0] <= v <= _INT64[1],
        "a 64-bit integer", "64-bit integers",
    ),
    float: (
        lambda v: _is_int(v) or (isinstance(v, float) and math.isfinite(v)),
        "a finite number", "finite numbers",
    ),
    str: (lambda v: isinstance(v, str), "a string", "strings"),
    type(None): (lambda v: v is None, "null", "nulls"),
}


def _conforms(value, hint) -> bool:
    """Whether ``value`` has the type annotation ``hint`` of a config field."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, types.UnionType):
        return any(_conforms(value, arg) for arg in args)
    if origin is tuple:  # tuple[X, ...]
        return isinstance(value, tuple) and all(_conforms(v, args[0]) for v in value)
    if origin is Mapping:
        return isinstance(value, Mapping) and all(
            _conforms(k, args[0]) and _conforms(v, args[1]) for k, v in value.items()
        )
    return _PLAIN[hint][0](value)


def _describe(hint, plural: bool = False) -> str:
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, types.UnionType):
        return " or ".join(_describe(arg, plural) for arg in args)
    if origin is tuple:
        return f"{'lists' if plural else 'a list'} of {_describe(args[0], plural=True)}"
    if origin is Mapping:
        return f"{'objects' if plural else 'an object'} of {_describe(args[1], plural=True)}"
    return _PLAIN[hint][2 if plural else 1]


@dataclass
class ExperimentConfig:
    clients: int = 3
    rounds: int = 50
    local_epochs: int = 1
    batch_size: int = 256
    learning_rate: float = 0.001
    embedding_dim: int = 128
    preference_dim: int = 16
    metapaths: tuple[str, ...] = ("APA", "APPA")
    adjacency_mode: str = "counts"
    activation: str = "elu"
    neighbor_sample_size: int | None = 16
    aggregator: str = "staleness"
    staleness_exponent: float = 0.5
    gap_threshold: int = 5
    ema_beta: float = 0.9
    speed_multipliers: tuple[int, ...] | None = None
    granularity: str = "round"
    scheduling: str = "deterministic"
    partition_strategy: str = "uniform"
    dirichlet_alpha: float = 1.0
    train_fraction: float = 0.8
    target_type: str = "author"
    type_alphabet: Mapping[str, str] = field(default_factory=lambda: dict(DEFAULT_TYPE_ALPHABET))
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        def require(cond: bool, message: str):
            if not cond:
                raise ConfigError(message)

        for name, hint in get_type_hints(type(self)).items():
            value = getattr(self, name)
            require(_conforms(value, hint), f"{name} must be {_describe(hint)}, got {value!r}")

        require(self.clients >= 1, f"clients must be >= 1, got {self.clients}")
        require(self.rounds >= 0, f"rounds must be >= 0, got {self.rounds}")
        require(self.local_epochs >= 0, f"local_epochs must be >= 0, got {self.local_epochs}")
        require(self.batch_size >= 1, f"batch_size must be >= 1, got {self.batch_size}")
        require(self.learning_rate > 0, f"learning_rate must be > 0, got {self.learning_rate}")
        require(self.embedding_dim >= 1, f"embedding_dim must be >= 1, got {self.embedding_dim}")
        require(self.preference_dim >= 1, f"preference_dim must be >= 1, got {self.preference_dim}")
        require(len(self.metapaths) >= 1, "metapaths must list at least one meta path")
        require(
            self.adjacency_mode in ("counts", "binary"),
            f"adjacency_mode must be 'counts' or 'binary', got {self.adjacency_mode!r}",
        )
        require(
            self.activation in ACTIVATIONS,
            f"activation must be one of {sorted(ACTIVATIONS)}, got {self.activation!r}",
        )
        require(
            self.neighbor_sample_size is None or self.neighbor_sample_size >= 1,
            f"neighbor_sample_size must be >= 1 or null, got {self.neighbor_sample_size}",
        )
        require(
            self.aggregator in AGGREGATORS,
            f"aggregator must be one of {AGGREGATORS}, got {self.aggregator!r}",
        )
        require(
            self.staleness_exponent >= 0,
            f"staleness_exponent must be >= 0, got {self.staleness_exponent}",
        )
        require(self.gap_threshold >= 1, f"gap_threshold must be >= 1, got {self.gap_threshold}")
        require(0.0 <= self.ema_beta <= 1.0, f"ema_beta must lie in [0, 1], got {self.ema_beta}")
        if self.speed_multipliers is not None:
            require(
                len(self.speed_multipliers) == self.clients,
                f"speed_multipliers length {len(self.speed_multipliers)} != clients {self.clients}",
            )
            require(
                all(s >= 1 for s in self.speed_multipliers),
                "speed_multipliers must be positive integers",
            )
        require(
            self.granularity in ("round", "batch"),
            f"granularity must be 'round' or 'batch', got {self.granularity!r}",
        )
        require(
            self.scheduling in ("deterministic", "concurrent"),
            f"scheduling must be 'deterministic' or 'concurrent', got {self.scheduling!r}",
        )
        require(
            self.partition_strategy in ("uniform", "label_skew"),
            f"partition_strategy must be 'uniform' or 'label_skew', got {self.partition_strategy!r}",
        )
        require(self.dirichlet_alpha > 0, f"dirichlet_alpha must be > 0, got {self.dirichlet_alpha}")
        require(
            0.0 < self.train_fraction < 1.0,
            f"train_fraction must lie in (0, 1), got {self.train_fraction}",
        )
        require(self.seed >= 0, f"seed must be a non-negative integer, got {self.seed}")

    def speeds(self) -> tuple[int, ...]:
        if self.speed_multipliers is None:
            return (1,) * self.clients
        return tuple(self.speed_multipliers)

    @classmethod
    def from_dict(cls, raw: Mapping) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
        # JSON lists become the tuple fields; anything else is left for
        # validate to reject
        kwargs = {
            name: tuple(value) if isinstance(value, list) else value
            for name, value in raw.items()
        }
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None


def parse_config(path) -> ExperimentConfig:
    """Load and validate a config file; empty or blank files mean defaults."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read the config file: {exc}") from None
    if not text.strip():
        return ExperimentConfig()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return ExperimentConfig.from_dict(raw)
