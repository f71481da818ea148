"""Run configuration: defaults, config-file loading and env overrides.

Every knob has a default; a JSON config file overrides defaults, environment
variables prefixed ``KGDIALOG_`` override the file, and CLI flags override
everything.  The full effective configuration is echoed into every output
artifact so runs stay reproducible.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from . import kg_embed

ENV_PREFIX = "KGDIALOG_"

# embedding fields and the kg_embed.TrainConfig settings they feed
EMBED_SETTINGS = {
    "embed_dim": "dim",
    "embed_margin": "margin",
    "embed_lr": "learning_rate",
    "embed_epochs": "epochs",
    "embed_negatives": "negatives",
}


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
        from .dialog_machine import TRANSFORM_KINDS  # dialog_machine imports this module

        for name, setting in EMBED_SETTINGS.items():
            problem = kg_embed.setting_problem(setting, getattr(self, name))
            if problem:
                raise ConfigError(f"{name} {problem}")
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type in ("int", int) and type(value) is not int:
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            if f.type in ("bool", bool) and type(value) is not bool:
                raise ConfigError(f"{f.name} must be true or false, got {value!r}")
        # below these a run yields nothing: an entity answer has at least one
        # member and is refused at answer_cap members, a sampled response of
        # no members is an empty utterance, and every dialog opens with a question
        bounds = (("answer_cap", 2), ("sample_size", 1), ("min_questions", 1), ("memory_cap", 1))
        for name, least in bounds:
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
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
        if not _is_real(self.ambiguity_rate) or not 0 <= self.ambiguity_rate <= 1:
            raise ConfigError(f"ambiguity_rate must be in [0, 1], got {self.ambiguity_rate!r}")
        if not isinstance(self.transition_weights, Mapping):
            raise ConfigError(f"transition_weights must be an object, got {self.transition_weights!r}")
        for kind, weight in self.transition_weights.items():
            if kind not in TRANSFORM_KINDS:
                raise ConfigError(
                    f"transition_weights: unknown kind {kind!r} (known: {', '.join(TRANSFORM_KINDS)})"
                )
            if not _is_real(weight) or not math.isfinite(weight) or weight < 0:
                raise ConfigError(
                    f"transition_weights[{kind!r}] must be a finite number >= 0, got {weight!r}"
                )
        relations = self.generic_relations
        if not _is_string_list(relations):
            raise ConfigError(f"generic_relations must be a list of strings, got {relations!r}")
        pairs = self.peer_type_blocklist
        if not isinstance(pairs, (list, tuple)) or not all(
            _is_string_list(p) and len(p) == 2 for p in pairs
        ):
            raise ConfigError(f"peer_type_blocklist must be a list of string pairs, got {pairs!r}")
        problem = split_fractions_problem(self.split_fractions)
        if problem:
            raise ConfigError(f"split_fractions: {problem}")


def split_fractions_problem(fractions) -> str | None:
    """Why ``fractions`` cannot divide a corpus into train, valid and test
    shares, or None when they can: three numbers >= 0 summing to 1."""
    if (
        not isinstance(fractions, (list, tuple))
        or len(fractions) != 3
        or not all(_is_real(f) and f >= 0 for f in fractions)
    ):
        return f"bad split fractions {fractions}"
    if abs(sum(fractions) - 1.0) > 1e-9:
        return f"split fractions must sum to 1, got {fractions}"
    return None


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_string_list(value) -> bool:
    return isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)


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
