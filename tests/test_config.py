"""Run configuration: layering of defaults, file, env and overrides, and
validation at load time."""

import json
import re
from pathlib import Path

import pytest

from kgdialog.config import ConfigError, RunConfig, load_config, split_fractions_problem
from kgdialog.dataset_pipeline import PipelineError, SplitSpec
from kgdialog.dialog_machine import TRANSFORM_KINDS


def test_defaults_validate():
    assert load_config(env={}) == RunConfig()


def test_layers_apply_in_order(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 1, "max_questions": 7}))
    config = load_config(path, env={"KGDIALOG_SEED": "2"}, overrides={"min_questions": 3})
    assert (config.seed, config.min_questions, config.max_questions) == (2, 3, 7)


def test_min_questions_above_max_is_rejected_at_load():
    with pytest.raises(ConfigError, match="min_questions"):
        load_config(env={}, overrides={"min_questions": 9, "max_questions": 6})


def test_equal_min_and_max_questions_are_accepted():
    config = load_config(env={}, overrides={"min_questions": 4, "max_questions": 4})
    assert config.min_questions == config.max_questions == 4


def test_sample_size_above_display_limit_is_rejected_at_load(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"display_limit": 5, "sample_size": 8}))
    with pytest.raises(ConfigError, match="sample_size"):
        load_config(path, env={})


def test_non_integer_question_count_names_the_field(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"max_questions": "many"}))
    with pytest.raises(ConfigError, match="max_questions"):
        load_config(path, env={})


@pytest.mark.parametrize(
    "var, raw",
    [("KGDIALOG_SEED", "abc"), ("KGDIALOG_AMBIGUITY_RATE", "often"), ("KGDIALOG_MAX_QUESTIONS", "1.5")],
)
def test_env_parse_error_names_the_variable(var, raw):
    with pytest.raises(ConfigError, match=var):
        load_config(env={var: raw})


def test_env_values_are_validated_too():
    with pytest.raises(ConfigError, match="min_questions"):
        load_config(env={"KGDIALOG_MIN_QUESTIONS": "10"})


@pytest.mark.parametrize("weight", [-0.5, float("inf"), float("nan"), "heavy", True])
def test_bad_transition_weight_names_the_kind(weight):
    with pytest.raises(ConfigError, match=r"transition_weights\['count'\]"):
        RunConfig(transition_weights={"count": weight}).validate()


def test_negative_transition_weight_is_rejected_at_load(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"transition_weights": {"direct": 1, "boolean": -1}}))
    with pytest.raises(ConfigError, match=r"transition_weights\['boolean'\]"):
        load_config(path, env={})


def test_unknown_transition_kind_is_rejected():
    with pytest.raises(ConfigError, match="transition_weights.*'comparitive'"):
        load_config(env={}, overrides={"transition_weights": {"comparitive": 1.0}})


def test_zero_transition_weights_are_accepted():
    config = load_config(env={}, overrides={"transition_weights": {k: 0 for k in TRANSFORM_KINDS}})
    assert set(config.transition_weights) == set(TRANSFORM_KINDS)


@pytest.mark.parametrize("rate", [-0.1, 1.5, float("nan"), "often"])
def test_ambiguity_rate_outside_unit_interval_is_rejected(rate):
    with pytest.raises(ConfigError, match="ambiguity_rate"):
        load_config(env={}, overrides={"ambiguity_rate": rate})


@pytest.mark.parametrize("rate", [0, 1, 0.5])
def test_ambiguity_rate_bounds_are_accepted(rate):
    assert load_config(env={}, overrides={"ambiguity_rate": rate}).ambiguity_rate == rate


def test_non_integer_seed_in_config_file_is_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": "abc"}))
    with pytest.raises(ConfigError, match="seed"):
        load_config(path, env={})


def test_split_fractions_that_are_not_a_list_are_rejected():
    with pytest.raises(ConfigError, match="split_fractions"):
        load_config(env={"KGDIALOG_SPLIT_FRACTIONS": "0.8"})


@pytest.mark.parametrize("fractions", [[1.0], [0.5, 0.5, 0.5], [0.9, 0.2, -0.1], [0.8, "0.1", 0.1]])
def test_bad_split_fractions_are_rejected_with_the_split_rule(fractions):
    problem = split_fractions_problem(fractions)
    assert problem
    with pytest.raises(ConfigError, match="split_fractions") as raised:
        load_config(env={}, overrides={"split_fractions": fractions})
    assert problem in str(raised.value)
    with pytest.raises(PipelineError, match=re.escape(split_fractions_problem(tuple(fractions)))):
        SplitSpec(tuple(fractions)).validate()


@pytest.mark.parametrize(
    "field, value, shown",
    [
        ("embed_dim", 0, "embed_dim must be an integer >= 1, got 0"),
        ("embed_margin", float("nan"), "embed_margin must be a finite number > 0, got nan"),
        ("embed_lr", 0, "embed_lr must be a finite number > 0, got 0"),
        ("embed_epochs", -2, "embed_epochs must be an integer >= 0, got -2"),
        ("embed_negatives", 0, "embed_negatives must be an integer >= 1, got 0"),
    ],
)
def test_embedding_setting_that_trains_nothing_or_backwards_names_the_field(field, value, shown):
    with pytest.raises(ConfigError, match=re.escape(shown)):
        load_config(env={}, overrides={field: value})


def test_zero_embedding_epochs_are_accepted():
    assert load_config(env={}, overrides={"embed_epochs": 0}).embed_epochs == 0


@pytest.mark.parametrize(
    "field, value, shown",
    [
        ("link_use_context", "false", "link_use_context must be true or false, got 'false'"),
        ("number_words", "yes", "number_words must be true or false, got 'yes'"),
        ("include_zero_groups", "no", "include_zero_groups must be true or false, got 'no'"),
        ("answer_cap", 10.5, "answer_cap must be an integer, got 10.5"),
        ("vocab_threshold", "5", "vocab_threshold must be an integer, got '5'"),
        ("hops", "x", "hops must be an integer, got 'x'"),
        ("memory_cap", 0, "memory_cap must be >= 1, got 0"),
        ("answer_cap", 0, "answer_cap must be >= 2, got 0"),
        ("answer_cap", 1, "answer_cap must be >= 2, got 1"),
        ("sample_size", 0, "sample_size must be >= 1, got 0"),
        ("min_questions", 0, "min_questions must be >= 1, got 0"),
        ("generic_relations", "capital", "generic_relations must be a list of strings, got 'capital'"),
        (
            "peer_type_blocklist",
            [["religion"]],
            "peer_type_blocklist must be a list of string pairs, got [['religion']]",
        ),
    ],
)
def test_config_value_that_looks_legal_fails_at_load_naming_the_field(field, value, shown, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({field: value}))
    with pytest.raises(ConfigError, match=re.escape(shown)):
        load_config(path, env={})


def test_boolean_env_values_still_parse_as_booleans():
    config = load_config(env={"KGDIALOG_LINK_USE_CONTEXT": "false", "KGDIALOG_NUMBER_WORDS": "yes"})
    assert (config.link_use_context, config.number_words) == (False, True)


def test_readme_lists_the_question_kinds_in_offer_order():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = " ".join(readme.read_text(encoding="utf-8").split())
    listed = re.search(r"`transition_weights` keys must be question kinds \(([^)]*)\)", text)
    assert listed, "README's configuration paragraph no longer lists the question kinds"
    assert tuple(re.findall(r"`(\w+)`", listed.group(1))) == TRANSFORM_KINDS
