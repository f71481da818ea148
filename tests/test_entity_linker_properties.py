"""Property check: candidate_tuples' merge over dense tuple ids equals the
round-robin loop over sorted tuples, on drawn stores, matched entities and
caps."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import make_random_store  # noqa: E402
from kgdialog import entity_linker as el  # noqa: E402
from test_entity_linker import sort_per_call_candidates  # noqa: E402


@st.composite
def stores_and_matches(draw):
    store = make_random_store(
        draw(st.integers(0, 2**32)),
        n_tuples=draw(st.integers(0, 150)),
        n_entities=draw(st.integers(8, 30)),  # few entities: self-loops are common
    )
    tuples = sorted(store.tuples)
    matched = draw(st.lists(st.integers(0, store.n_entities - 1), max_size=5))
    if tuples:
        # both ends of a tuple: it sits in two pools
        for t in draw(st.lists(st.sampled_from(tuples), max_size=4)):
            matched += [t.subject, t.object]
        loops = [t.subject for t in tuples if t.subject == t.object]
        if loops:
            matched.append(draw(st.sampled_from(loops)))
    matched = draw(st.permutations(matched))
    if matched:
        matched += draw(st.lists(st.sampled_from(matched), max_size=3))  # repeated ids
    n = len(sort_per_call_candidates(store, matched, 10**9)[0])
    return store, matched, draw(st.integers(1, n + 1))


@settings(max_examples=300, deadline=None)
@given(stores_and_matches())
def test_id_merge_equals_the_round_robin_loop(case):
    store, matched, cap = case
    got = el.candidate_tuples(store, matched, cap)
    assert (got.tuples, got.truncated) == sort_per_call_candidates(store, matched, cap)
    assert got.tuples.ids.shape == (len(got.tuples), 3)
