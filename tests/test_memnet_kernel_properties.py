"""Property check: the vectorised read path equals its per-row loop
references on small drawn tables, candidate lists and distributions."""

import re

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from kgdialog import memnet_kernel as mk  # noqa: E402
from kgdialog.kg_embed import EmbeddingTable  # noqa: E402
from kgdialog.kg_store import Tuple, UnknownIdError  # noqa: E402


def reference_build_memory(tuples, table):
    """build_memory as a per-row loop of table lookups."""
    d = table.dim
    keys = np.zeros((len(tuples), 2 * d))
    values = np.zeros((len(tuples), d))
    for i, t in enumerate(tuples):
        keys[i, :d] = table.relation(t.relation)
        keys[i, d:] = table.entity(t.subject)
        values[i] = table.entity(t.object)
    return mk.MemorySlab(keys, values, tuple(tuples))


def reference_substitute(tokens, distribution, slab, labels=None, placeholder=mk.KG_WORD):
    """substitute_kg_words as a dict loop over the rows."""
    per_entity = {}
    for i, t in enumerate(slab.provenance):
        per_entity[t.object] = per_entity.get(t.object, 0.0) + float(distribution[i])
    ranked = sorted(per_entity.items(), key=lambda kv: (-kv[1], kv[0]))
    out, cursor = [], 0
    for token in tokens:
        if token == placeholder and cursor < len(ranked):
            entity = ranked[cursor][0]
            cursor += 1
            out.append(labels[entity] if labels is not None else str(entity))
        else:
            out.append(token)
    return out


def reference_hop(q, slab, A, R_j, anchor_q):
    """hop with the values zero-padded on the relation half to the key width."""
    pad = np.zeros((slab.size, slab.keys.shape[1] - slab.values.shape[1]))
    lifted = np.concatenate([pad, slab.values], axis=1)
    weights = mk.softmax((slab.keys @ A.T) @ q)
    return R_j @ (anchor_q + (lifted @ A.T).T @ weights), weights


@st.composite
def tables_and_tuples(draw):
    n_entities = draw(st.integers(1, 8))
    n_relations = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 4))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    elements = st.floats(-2, 2, width=32)
    table = EmbeddingTable(
        draw(hnp.arrays(dtype, (n_entities, dim), elements=elements)),
        draw(hnp.arrays(dtype, (n_relations, dim), elements=elements)),
    )
    # ids a little outside the table now and then, negative ones included
    slack = draw(st.sampled_from([0, 0, 0, 2]))
    ids = lambda n: st.integers(-slack, n - 1 + slack)  # noqa: E731
    tuple_ids = st.builds(Tuple, ids(n_relations), ids(n_entities), ids(n_entities))
    tuples = draw(st.lists(tuple_ids, max_size=30))
    return table, tuples


@settings(max_examples=150, deadline=None)
@given(tables_and_tuples())
def test_build_memory_equals_the_per_row_loop(case):
    table, tuples = case
    try:
        expected = reference_build_memory(tuples, table)
    except UnknownIdError as exc:
        with pytest.raises(UnknownIdError, match=f"^{re.escape(str(exc))}$"):
            mk.build_memory(tuples, table)
        return
    got = mk.build_memory(tuples, table)
    assert got.keys.dtype == got.values.dtype == np.float64
    assert np.array_equal(got.keys, expected.keys)
    assert np.array_equal(got.values, expected.values)
    assert got.provenance == expected.provenance


@st.composite
def fills(draw):
    objects = draw(st.lists(st.integers(0, 5), max_size=12))
    # few distinct masses, so sums per entity tie often
    mass = st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.3, 0.5, 1 / 3])
    distribution = np.array(draw(st.lists(mass, min_size=len(objects), max_size=len(objects))))
    placeholder = draw(st.sampled_from([mk.KG_WORD, "<kg>"]))
    tokens = draw(st.lists(st.sampled_from(["the", placeholder, mk.KG_WORD]), max_size=10))
    labels = draw(st.sampled_from([None, [f"L{i}" for i in range(6)]]))
    n = len(objects)
    slab = mk.MemorySlab(np.zeros((n, 2)), np.zeros((n, 1)), tuple(Tuple(0, 0, o) for o in objects))
    return tokens, distribution, slab, labels, placeholder


@settings(max_examples=300, deadline=None)
@given(fills())
def test_kg_word_fill_equals_the_dict_loop(case):
    tokens, distribution, slab, labels, placeholder = case
    expected = reference_substitute(tokens, distribution, slab, labels, placeholder)
    assert mk.substitute_kg_words(tokens, distribution, slab, labels, placeholder) == expected


@st.composite
def hops(draw):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 5))
    d_emb = draw(st.integers(1, 4))
    elements = st.floats(-2, 2, width=64)
    arrays = lambda *shape: draw(hnp.arrays(np.float64, shape, elements=elements))  # noqa: E731
    slab = mk.MemorySlab(arrays(n, 2 * d_emb), arrays(n, d_emb), ())
    return arrays(d), slab, arrays(d, 2 * d_emb), arrays(d, d), arrays(d)


@settings(max_examples=150, deadline=None)
@given(hops())
def test_sliced_value_projection_equals_the_padded_one(case):
    q, slab, A, R_j, anchor = case
    q_next, weights = mk.hop(q, slab, A, R_j, anchor)
    expected_q, expected_weights = reference_hop(q, slab, A, R_j, anchor)
    assert np.array_equal(weights, expected_weights)
    assert np.allclose(q_next, expected_q, atol=1e-12)
