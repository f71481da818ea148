"""Run configuration: defaults, config-file loading and env overrides.

Every knob has a default; a JSON config file overrides defaults, environment
variables prefixed ``KGDIALOG_`` override the file, and CLI flags override
everything.  The full effective configuration is echoed into every output
artifact so runs stay reproducible.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

ENV_PREFIX = "KGDIALOG_"


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    seed: int = 0
    # question filtering
    answer_cap: int = 1000
    # response rendering
    display_limit: int = 10
    sample_size: int = 10
    number_words: bool = False
    # dialog shape
    min_questions: int = 5
    max_questions: int = 9
    ambiguity_rate: float = 0.15
    transition_weights: dict[str, float] = field(default_factory=dict)
    # algebra
    include_zero_groups: bool = True
    # pathology blocklists
    generic_relations: list[str] = field(
        default_factory=lambda: ["lake_outflow", "fabrication_method"]
    )
    peer_type_blocklist: list[list[str]] = field(
        default_factory=lambda: [["religion", "social group"]]
    )
    # corpus statistics
    vocab_threshold: int = 10
    # split
    split_fractions: list[float] = field(default_factory=lambda: [0.8, 0.1, 0.1])
    # entity linking / memory
    memory_cap: int = 10000
    link_use_context: bool = True
    # embeddings
    embed_dim: int = 32
    embed_margin: float = 1.0
    embed_lr: float = 0.05
    embed_epochs: int = 500
    embed_negatives: int = 1
    # memory kernel
    hops: int = 2

    def as_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    def validate(self) -> None:
        """Reject settings that would crash a run halfway.

        Each error names the offending field.
        """
        for name in ("min_questions", "max_questions", "display_limit", "sample_size"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.min_questions > self.max_questions:
            raise ConfigError(
                f"min_questions ({self.min_questions}) must not exceed "
                f"max_questions ({self.max_questions})"
            )
        if self.sample_size > self.display_limit:
            # an answer with more members than display_limit but fewer than
            # sample_size could not be sampled for its negotiation turn
            raise ConfigError(
                f"sample_size ({self.sample_size}) must not exceed "
                f"display_limit ({self.display_limit})"
            )


def load_config(
    path: str | Path | None = None,
    env: Mapping[str, str] | None = None,
    overrides: Mapping[str, Any] | None = None,
) -> RunConfig:
    """Merge defaults <- config file <- env vars <- explicit overrides, then
    validate the result (see :meth:`RunConfig.validate`)."""
    values: dict[str, Any] = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid json ({exc})") from None
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: config must be a json object")
        values.update(data)

    env = os.environ if env is None else env
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    for name, f in fields.items():
        var = ENV_PREFIX + name.upper()
        if var in env:
            try:
                values[name] = _parse_env(env[var], f)
            except ValueError as exc:
                raise ConfigError(f"{var}={env[var]!r}: {exc}") from None

    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})

    unknown = set(values) - set(fields)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    config = RunConfig(**values)
    config.validate()
    return config


def _parse_env(raw: str, f: dataclasses.Field) -> Any:
    if f.type in ("int", int):
        return int(raw)
    if f.type in ("float", float):
        return float(raw)
    if f.type in ("bool", bool):
        return raw.lower() in ("1", "true", "yes", "on")
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw
