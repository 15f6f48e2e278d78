"""Experiment configuration, and the one reader of the JSON files the CLI reads.

A config, a run manifest, a dataset's ``schema.json`` and an
``aggregate-demo`` records file are each declared once as a dataclass and
read by :func:`read_document`: a UTF-8 JSON object (an empty file is ``{}``)
with no unknown key and no missing one, whose values match their fields'
annotations.  A bool is not an integer, an integer must fit in 64 bits,
a number must be finite, a tuple is a JSON list, a dataclass a JSON
object, a choice field (a ``Literal``) one of its strings, and nothing is
coerced.  Ranges are checked after types, by the document's own code (for
the config, :meth:`ExperimentConfig.validate`, which checks the choice
fields of a config built in Python too).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
import types
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Literal, Union, get_args, get_origin, get_type_hints

from .federation import AGGREGATORS
from .graph import DEFAULT_TYPE_ALPHABET


class ConfigError(Exception):
    pass


# plain annotation types: (test, singular name, plural name); a bool's
# type is not int
_PLAIN = {
    int: (
        lambda v: type(v) is int and -(2**63) <= v < 2**63, "a 64-bit integer", "64-bit integers"
    ),
    float: (
        lambda v: (type(v) is int and abs(v) <= sys.float_info.max)
        or (isinstance(v, float) and math.isfinite(v)),
        "a finite number", "finite numbers",
    ),
    str: (lambda v: isinstance(v, str), "a string", "strings"),
    dict: (lambda v: isinstance(v, dict), "an object", "objects"),
    type(None): (lambda v: v is None, "null", "nulls"),
}


_hints = functools.cache(get_type_hints)  # a dataclass's resolved field annotations


def _conforms(value, hint) -> bool:
    """Whether ``value`` has the type annotation ``hint`` of a document field."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Literal:  # of strings
        return isinstance(value, str) and value in args
    if origin in (Union, types.UnionType):
        return any(_conforms(value, arg) for arg in args)
    if origin is tuple:  # tuple[X, ...], or tuple[X, X, X] for exactly three X
        return (
            isinstance(value, tuple)
            and (args[-1] is Ellipsis or len(value) == len(args))
            and all(_conforms(v, args[0]) for v in value)
        )
    if origin is Mapping:
        return isinstance(value, Mapping) and all(
            _conforms(k, args[0]) and _conforms(v, args[1]) for k, v in value.items()
        )
    if dataclasses.is_dataclass(hint):
        return isinstance(value, hint)
    return _PLAIN[hint][0](value)


def _describe(hint, plural: bool = False) -> str:
    origin, args = get_origin(hint), get_args(hint)
    if origin is Literal:
        return " or ".join(map(repr, args))
    if origin in (Union, types.UnionType):
        return " or ".join(_describe(arg, plural) for arg in args)
    if origin is tuple:
        count = "" if args[-1] is Ellipsis else f"{len(args)} "
        return f"{'lists' if plural else 'a list'} of {count}{_describe(args[0], plural=True)}"
    if origin is Mapping:
        return f"{'objects' if plural else 'an object'} of {_describe(args[1], plural=True)}"
    if dataclasses.is_dataclass(hint):
        return "objects" if plural else "an object"
    return _PLAIN[hint][2 if plural else 1]


def from_json(value, hint, error, where: str = ""):
    """``value``, parsed from JSON, as ``hint`` asks: a list becomes a tuple, and an
    object the dataclass ``hint`` names, with its fields (all without a default)
    as keys and values that match them; else ``error`` naming the key at ``where``."""
    if dataclasses.is_dataclass(hint):
        if not isinstance(value, dict):
            raise error(f"{where or 'the document'} must be a JSON object, got {value!r}")
        fields = dataclasses.fields(hint)
        prefix = f"{where}: " if where else ""
        unknown = sorted(set(value) - {f.name for f in fields})
        if unknown:
            raise error(f"{prefix}unknown key(s): {unknown}")
        missing = [f.name for f in fields if f.name not in value
                   and f.default is f.default_factory is dataclasses.MISSING]
        if missing:
            raise error(f"{prefix}missing key(s): {missing}")
        hints = _hints(hint)
        kwargs = {}
        for name, item in value.items():
            key = f"{where}.{name}" if where else name
            kwargs[name] = from_json(item, hints[name], error, key)
            if not _conforms(kwargs[name], hints[name]):
                raise error(f"{key} must be {_describe(hints[name])}, got {item!r}")
        return hint(**kwargs)
    if isinstance(value, list):
        element = get_args(hint)[0] if get_origin(hint) is tuple else None
        return tuple(from_json(v, element, error, f"{where}[{i}]") for i, v in enumerate(value))
    return value


def read_document(path, cls, error, what: str):
    """The dataclass ``cls`` read by :func:`from_json` from the JSON file ``path``,
    a ``what`` such as "config file"; every failure is an ``error`` naming ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        raw = json.loads(text) if text.strip() else {}
    # ValueError: undecodable bytes, bad JSON, or a NUL byte in the path
    except (OSError, ValueError) as exc:
        raise error(f"{path}: cannot read the {what}: {exc}") from None
    try:
        return from_json(raw, cls, error)
    except error as exc:
        raise error(f"{path}: {exc}") from None


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
    neighbor_sample_size: int | None = 16
    aggregator: Literal[AGGREGATORS] = "staleness"
    staleness_exponent: float = 0.5
    gap_threshold: int = 5
    ema_beta: float = 0.9
    speed_multipliers: tuple[int, ...] | None = None
    granularity: Literal["round", "batch"] = "round"
    partition_strategy: Literal["uniform", "label_skew"] = "uniform"
    dirichlet_alpha: float = 1.0
    train_fraction: float = 0.8
    type_alphabet: Mapping[str, str] = field(default_factory=lambda: dict(DEFAULT_TYPE_ALPHABET))
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Check each field's range and choice; other types are :func:`from_json`'s to check."""
        def require(cond: bool, message: str):
            if not cond:
                raise ConfigError(message)

        for name, hint in _hints(type(self)).items():
            if get_origin(hint) is Literal:
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
            self.neighbor_sample_size is None or self.neighbor_sample_size >= 1,
            f"neighbor_sample_size must be >= 1 or null, got {self.neighbor_sample_size}",
        )
        require(
            0 <= self.staleness_exponent < math.inf,
            f"staleness_exponent must be finite and >= 0, got {self.staleness_exponent}",
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
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        return from_json(raw, cls, ConfigError)


def parse_config(path=None) -> ExperimentConfig:
    """Load and validate a config file; no path, or an empty or blank file, means defaults."""
    if not path:
        return ExperimentConfig()
    return read_document(path, ExperimentConfig, ConfigError, "config file")
