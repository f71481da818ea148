"""Property check: blocked link-prediction ranking equals the per-row loop
on small drawn tables, held-out sets and block sizes."""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from kgdialog import kg_embed  # noqa: E402
from kgdialog.kg_embed import EmbeddingTable  # noqa: E402
from kgdialog.kg_store import Tuple  # noqa: E402
from test_kg_embed import reference_report  # noqa: E402


@st.composite
def ranking_cases(draw):
    n_entities = draw(st.integers(1, 12))
    n_relations = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 4))
    # small integer coordinates tie often; the scale moves them off the grid
    scale = draw(st.sampled_from([1.0, 0.1, 1e3]))
    coords = st.integers(-2, 2)
    ents = np.array(draw(st.lists(coords, min_size=n_entities * dim, max_size=n_entities * dim)))
    rels = np.array(draw(st.lists(coords, min_size=n_relations * dim, max_size=n_relations * dim)))
    table = EmbeddingTable(
        scale * ents.reshape(n_entities, dim).astype(float),
        scale * rels.reshape(n_relations, dim).astype(float),
    )
    tuples = st.builds(
        Tuple, st.integers(0, n_relations - 1), st.integers(0, n_entities - 1), st.integers(0, n_entities - 1)
    )
    held = draw(st.lists(tuples, min_size=1, max_size=10))
    known = held + draw(st.lists(tuples, max_size=20))
    return table, held, known, draw(st.integers(1, 40))


@settings(max_examples=60, deadline=None)
@given(ranking_cases())
def test_blocked_ranking_equals_the_per_row_loop(case):
    table, held, known, screen_entries = case
    with mock.patch.object(kg_embed, "SCREEN_ENTRIES", screen_entries):
        for all_tuples in (None, known):
            got = kg_embed.link_prediction_eval(table, held, k=2, all_tuples=all_tuples)
            assert got.as_dict() == reference_report(table, held, k=2, all_tuples=all_tuples)


@st.composite
def scatter_cases(draw):
    n_rows = draw(st.integers(1, 5))
    dim = draw(st.integers(1, 4))
    n_index = draw(st.integers(0, 30))
    # few rows and many indices: most rows are hit several times, and the
    # mixed magnitudes make the order of the additions show in the bits
    rows = np.array(draw(st.lists(st.integers(0, n_rows - 1), min_size=2 * n_index, max_size=2 * n_index)), dtype=np.int64)
    floats = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)
    table = np.array(draw(st.lists(floats, min_size=n_rows * dim, max_size=n_rows * dim)), dtype=float)
    values = np.array(draw(st.lists(floats, min_size=2 * n_index * dim, max_size=2 * n_index * dim)), dtype=float)
    scales = 10.0 ** np.array(draw(st.lists(st.integers(-8, 8), min_size=values.size, max_size=values.size)))
    return (
        table.reshape(n_rows, dim),
        rows.reshape(2, n_index),
        (values * scales).reshape(2, n_index, dim),
    )


@settings(max_examples=80, deadline=None)
@given(scatter_cases())
def test_flat_scatter_equals_row_wise_add_at_bit_for_bit(case):
    table, rows, values = case
    want, got = table.copy(), table.copy()
    np.add.at(want, rows, values)
    kg_embed._add_rows(got, rows, values)
    assert got.tobytes() == want.tobytes()
