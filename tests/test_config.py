"""Run configuration: layering of defaults, file, env and overrides, and
validation at load time."""

import json

import pytest

from kgdialog.config import ConfigError, RunConfig, load_config


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
