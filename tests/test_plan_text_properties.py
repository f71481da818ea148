"""Property check: the compiled-pattern tokenizer equals the character loop
on drawn strings, both in the tokens and in the error raised."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from kgdialog import plan_text  # noqa: E402
from test_plan_text import TOKEN_ALPHABET, reference_tokenize, tokenize_outcome  # noqa: E402


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=TOKEN_ALPHABET, max_size=40) | st.text(max_size=20))
def test_tokenize_equals_the_character_loop(text):
    expected = tokenize_outcome(reference_tokenize, text)
    assert tokenize_outcome(plan_text._tokenize, text) == expected
