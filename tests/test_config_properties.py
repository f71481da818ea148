"""Property check: a drawn run config never stops `generate`, `split` or
`stats` halfway.  Each run on the fixture either succeeds, or fails with
one `error:` line naming a config field and writes nothing."""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from conftest import KG_T_DIR  # noqa: E402
from kgdialog.cli import dispatch  # noqa: E402
from kgdialog.config import RunConfig  # noqa: E402
from kgdialog.dialog_machine import TRANSFORM_KINDS  # noqa: E402

FIELDS = dataclasses.fields(RunConfig)

# bounded, so that no drawn max_questions makes a run long
INTS = st.integers(-2, 12)
REALS = INTS | st.floats(-2, 12) | st.sampled_from([math.nan, math.inf])
LABELS = st.sampled_from(["capital", "flows_through", "river", "country", "city", "religion", ""])
JUNK = (
    st.none() | st.booleans() | st.text(max_size=3) | st.lists(INTS, max_size=2)
    | st.dictionaries(LABELS, INTS, max_size=1)
)
BY_TYPE = {
    "int": INTS,
    "float": REALS,
    "bool": st.booleans(),
    "dict[str, float]": st.dictionaries(st.sampled_from(TRANSFORM_KINDS) | LABELS, REALS, max_size=4),
    "list[str]": st.lists(LABELS, max_size=3),
    "list[list[str]]": st.lists(st.lists(LABELS, max_size=3), max_size=2),
    "list[float]": st.lists(REALS | st.sampled_from([0.8, 0.1, 0.5]), max_size=4)
    | st.sampled_from([[0.8, 0.1, 0.1], [1.0, 0.0, 0.0], [0.5, 0.25, 0.25]]),
}


@st.composite
def configs(draw):
    """A few fields, each set to a value of its type (in or out of bounds)
    or, one time in four, of another type; the rest keep their defaults."""
    chosen = draw(st.sets(st.sampled_from(FIELDS), max_size=5))
    return {f.name: draw(JUNK if draw(st.integers(0, 3)) == 3 else BY_TYPE[f.type]) for f in chosen}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert dispatch(["generate", "--kg", str(KG_T_DIR), "--n", "4", "--out", str(out)]) == 0
    return out / "dialogs.jsonl"


def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    return code, err.getvalue()


# the example count comes from the hypothesis profile (see conftest)
@given(config=configs())
def test_a_drawn_config_runs_or_fails_at_load_naming_a_field(config, corpus):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        common = ["--kg", str(KG_T_DIR), "--config", str(path)]
        for command, out, extra in (
            ("generate", Path(tmp) / "g", ["--n", "2"]),
            ("split", Path(tmp) / "s", ["--corpus", str(corpus)]),
            ("stats", Path(tmp) / "stats.json", ["--corpus", str(corpus)]),
        ):
            code, err = run([command, *common, *extra, "--out", str(out)])
            hypothesis.event(f"{command} exit {code}")
            if code == 0:
                continue
            assert code == 1, (command, err)
            assert err.count("\n") == 1 and err.startswith("error: "), (command, err)
            assert any(f.name in err for f in FIELDS), (command, err)
            assert not out.exists(), (command, err)
