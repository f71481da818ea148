"""Property checks: the compiled-pattern tokenizer equals the character loop
on drawn strings, both in the tokens and in the error raised; and every plan
of a generated dialog prints, parses into a symbolic plan of its own class
and binds back to itself, and executes as the oracle does."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import REPO  # noqa: E402
from kgdialog import dialog_machine as dm, plan_text, query_algebra as qa  # noqa: E402
from test_plan_text import TOKEN_ALPHABET, reference_tokenize, tokenize_outcome  # noqa: E402


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=TOKEN_ALPHABET, max_size=40) | st.text(max_size=20))
def test_tokenize_equals_the_character_loop(text):
    expected = tokenize_outcome(reference_tokenize, text)
    assert tokenize_outcome(plan_text._tokenize, text) == expected


@pytest.fixture(scope="module")
def stores(store):
    """The fixture, and a seeded synthetic graph of about 1.5k tuples in the
    fixture's schema."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(REPO / "bench"))
        import graphgen
    return {"fixture": store, "graphgen": graphgen.make_graph(5, 1500, "heavy")}


# the example count comes from the hypothesis profile (see conftest)
@given(seed=st.integers(0, 2**20), where=st.sampled_from(["fixture", "graphgen"]))
def test_generated_plans_survive_the_symbolic_stage(seed, where, stores, templates):
    store = stores[where]
    plans = [turn.plan for turn in dm.generate_dialog(store, templates, seed) if turn.plan is not None]
    assert plans
    for plan in plans:
        symbolic = plan_text.parse_symbolic(plan_text.print_plan(plan, store))
        assert isinstance(symbolic, type(plan))
        assert plan_text.bind(symbolic, store) == plan
        assert qa.execute(store, plan) == qa.brute_force_execute(store, plan)
