"""Memory kernel: golden vectors, softmax properties, shape and invariance."""

import json
import math

import numpy as np
import pytest

from conftest import KERNEL_VECTORS, brute_fanout
from kgdialog import entity_linker as el, kg_embed, memnet_kernel as mk
from kgdialog.entity_linker import CandidateSet
from kgdialog.kg_store import Tuple, UnknownIdError


def small_slab(rng, n, d_emb):
    return mk.MemorySlab(
        rng.standard_normal((n, 2 * d_emb)),
        rng.standard_normal((n, d_emb)),
        tuple(Tuple(0, i, i) for i in range(n)),
    )


def rand_params(rng, d, d_emb, hops=2):
    return mk.HopParams(
        A=rng.standard_normal((d, 2 * d_emb)),
        R=tuple(rng.standard_normal((d, d)) for _ in range(hops)),
        B=rng.standard_normal((d, d_emb)),
    )


# -- build_memory -----------------------------------------------------------------------


def test_build_memory_shapes_and_provenance(store, ids):
    table = kg_embed.init_table(store.n_entities, store.n_relations, kg_embed.TrainConfig(dim=8, seed=0))
    india = sorted(brute_fanout(store, ids["India"]))
    slab = mk.build_memory(CandidateSet((), tuple(india), False), table)
    assert slab.keys.shape == (4, 16)
    assert slab.values.shape == (4, 8)
    assert slab.provenance == tuple(india)
    for i, t in enumerate(slab.provenance):
        assert np.allclose(slab.keys[i, :8], table.relation(t.relation))
        assert np.allclose(slab.keys[i, 8:], table.entity(t.subject))
        assert np.allclose(slab.values[i], table.entity(t.object))


def _seeded_table(n_entities=5, n_relations=2, dim=3, dtype=np.float64):
    rng = np.random.default_rng(12)
    return kg_embed.EmbeddingTable(
        rng.standard_normal((n_entities, dim)).astype(dtype),
        rng.standard_normal((n_relations, dim)).astype(dtype),
    )


@pytest.mark.parametrize(
    "bad, message",
    [
        (Tuple(0, 5, 1), "entity id 5 not embedded"),
        (Tuple(1, 2, 9), "entity id 9 not embedded"),
        (Tuple(2, 0, 1), "relation id 2 not embedded"),
        (Tuple(0, -1, 1), "entity id -1 not embedded"),
        (Tuple(0, 1, -1), "entity id -1 not embedded"),
        (Tuple(-1, 1, 1), "relation id -1 not embedded"),
    ],
)
def test_build_memory_rejects_an_id_the_table_lacks(bad, message):
    table = _seeded_table()
    with pytest.raises(UnknownIdError, match=f"^{message}$"):
        mk.build_memory([Tuple(0, 0, 1), bad, Tuple(1, 4, 4)], table)


def test_build_memory_with_an_id_outside_int64_names_the_tuple():
    with pytest.raises(UnknownIdError, match=r"^tuple \(0, 9223372036854775808, 1\) holds an id outside int64$"):
        mk.build_memory([Tuple(0, 0, 1), Tuple(0, 2**63, 1)], _seeded_table())


def test_build_memory_names_the_first_bad_id_in_candidate_order():
    table = _seeded_table()
    candidates = [Tuple(0, 0, 1), Tuple(0, 1, 7), Tuple(3, 0, 0), Tuple(0, 6, 0)]
    with pytest.raises(UnknownIdError, match="^entity id 7 not embedded$"):
        mk.build_memory(candidates, table)
    # within a row the relation is checked before the subject and the object
    with pytest.raises(UnknownIdError, match="^relation id 4 not embedded$"):
        mk.build_memory([Tuple(4, 8, 9)], table)


def test_build_memory_of_a_candidate_set_equals_that_of_its_tuples(store):
    table = kg_embed.init_table(store.n_entities, store.n_relations, kg_embed.TrainConfig(dim=4, seed=1))
    candidates = el.candidate_tuples(store, range(store.n_entities), cap=7)
    tuples = list(candidates.tuples)
    assert len(tuples) == 7 and candidates.truncated
    from_set, from_list = mk.build_memory(candidates, table), mk.build_memory(tuples, table)
    assert np.array_equal(from_set.keys, from_list.keys)
    assert np.array_equal(from_set.values, from_list.values)
    assert from_set.provenance == from_list.provenance == tuples
    # the slab keeps the candidates' id rows rather than rebuilding them
    assert from_set.provenance is candidates.tuples


def test_build_memory_of_a_candidate_set_names_its_first_bad_id():
    table = _seeded_table()
    candidates = CandidateSet((), [Tuple(0, 0, 1), Tuple(0, 1, 7), Tuple(3, 0, 0), Tuple(0, 6, 0)], False)
    with pytest.raises(UnknownIdError, match="^entity id 7 not embedded$"):
        mk.build_memory(candidates, table)
    with pytest.raises(UnknownIdError, match="^relation id 3 not embedded$"):
        mk.build_memory(CandidateSet((), candidates.tuples[2:], False), table)


def test_build_memory_of_no_candidates_is_an_empty_float64_slab():
    slab = mk.build_memory(CandidateSet((), (), False), _seeded_table(dim=3))
    assert slab.keys.shape == (0, 6) and slab.keys.dtype == np.float64
    assert slab.values.shape == (0, 3) and slab.values.dtype == np.float64
    assert slab.provenance == ()


def test_build_memory_rows_follow_candidate_order():
    table = _seeded_table()
    candidates = [Tuple(1, 4, 0), Tuple(0, 0, 3), Tuple(1, 4, 0), Tuple(0, 2, 2)]
    slab = mk.build_memory(candidates, table)
    assert slab.provenance == tuple(candidates)
    for i, t in enumerate(candidates):
        assert np.array_equal(
            slab.keys[i], np.concatenate([table.relation(t.relation), table.entity(t.subject)])
        )
        assert np.array_equal(slab.values[i], table.entity(t.object))


def test_build_memory_of_a_float32_table_gives_float64_slabs():
    table = _seeded_table(dtype=np.float32)
    slab = mk.build_memory([Tuple(1, 0, 2), Tuple(0, 3, 4)], table)
    assert slab.keys.dtype == np.float64 and slab.values.dtype == np.float64
    assert np.array_equal(slab.keys[1, 3:], table.entity(3).astype(np.float64))
    assert np.array_equal(slab.values[0], table.entity(2).astype(np.float64))


def test_empty_memory_build_then_hop_errors():
    table = kg_embed.EmbeddingTable(np.zeros((2, 4)), np.zeros((1, 4)))
    slab = mk.build_memory(CandidateSet((), (), False), table)
    assert slab.size == 0
    params = mk.HopParams(A=np.zeros((3, 8)), R=(np.eye(3),), B=np.zeros((3, 4)))
    with pytest.raises(mk.KernelError):
        mk.multi_hop(np.zeros(3), slab, params)
    with pytest.raises(mk.KernelError):
        mk.entity_distribution(np.zeros(3), slab, params.B)


# -- golden hand arithmetic ---------------------------------------------------------------
#
# Two rows, d=2, embedding width 1, identity maps.  With q1=[1,0] the key
# logits are [1,0]; the zero-padded values contribute [0, +-1], so after
# one identity hop q2 = [1, (e-1)/(e+1)].  All numbers below were computed
# with scalar math away from the kernel code.

W1 = math.exp(1.0) / (math.exp(1.0) + 1.0)          # 0.7310585786300049
Q2_Y = (math.e - 1.0) / (math.e + 1.0)              # 0.4621171572600098


def _golden_slab_and_params():
    slab = mk.MemorySlab(
        np.array([[1.0, 0.0], [0.0, 1.0]]),
        np.array([[1.0], [-1.0]]),
        (Tuple(0, 0, 0), Tuple(0, 0, 1)),
    )
    params = mk.HopParams(A=np.eye(2), R=(np.eye(2),), B=np.array([[1.0], [0.0]]))
    return slab, params


def test_golden_single_hop_matches_hand_arithmetic():
    slab, params = _golden_slab_and_params()
    result = mk.multi_hop(np.array([1.0, 0.0]), slab, params)
    assert np.allclose(result.attentions[0], [W1, 1.0 - W1], atol=1e-9, rtol=0.0)
    assert np.allclose(result.q_final, [1.0, Q2_Y], atol=1e-9, rtol=0.0)


def test_golden_distribution_matches_hand_arithmetic():
    slab, params = _golden_slab_and_params()
    result = mk.multi_hop(np.array([1.0, 0.0]), slab, params)
    dist = mk.entity_distribution(result.q_final, slab, params.B)
    # logits are [q2[0], -q2[0]] = [1, -1]
    expected = math.exp(2.0) / (math.exp(2.0) + 1.0)
    assert np.allclose(dist, [expected, 1.0 - expected], atol=1e-9, rtol=0.0)


def test_golden_vector_file_passes():
    outcomes = mk.run_vector_file(KERNEL_VECTORS, tolerance=1e-9)
    assert len(outcomes) == 3
    for outcome in outcomes:
        assert outcome.passed, (outcome.name, outcome.detail)


# -- softmax and hop properties ----------------------------------------------------------


def test_singleton_memory_attends_fully_regardless_of_params():
    rng = np.random.default_rng(0)
    for _ in range(5):
        slab = small_slab(rng, 1, 3)
        params = rand_params(rng, 4, 3, hops=1)
        result = mk.multi_hop(rng.standard_normal(4), slab, params)
        assert result.attentions[0].shape == (1,)
        assert result.attentions[0][0] == pytest.approx(1.0, abs=1e-12)


def test_zero_projection_gives_uniform_attention():
    rng = np.random.default_rng(1)
    slab = small_slab(rng, 7, 3)
    params = mk.HopParams(A=np.zeros((4, 6)), R=(np.eye(4),), B=np.zeros((4, 3)))
    result = mk.multi_hop(rng.standard_normal(4), slab, params)
    assert np.allclose(result.attentions[0], 1.0 / 7.0, atol=1e-12)
    dist = mk.entity_distribution(result.q_final, slab, np.zeros((4, 3)))
    assert np.allclose(dist, 1.0 / 7.0, atol=1e-12)


def test_softmax_outputs_normalized_and_stable():
    rng = np.random.default_rng(2)
    for scale in (1.0, 1e2, 1e4):
        logits = rng.standard_normal(50) * scale
        w = mk.softmax(logits)
        assert np.all(w >= 0)
        assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.isfinite(w))


def test_hop_output_finite_for_huge_logits():
    rng = np.random.default_rng(3)
    slab = mk.MemorySlab(
        rng.standard_normal((5, 6)) * 1e4,
        rng.standard_normal((5, 3)),
        tuple(Tuple(0, i, i) for i in range(5)),
    )
    params = rand_params(rng, 4, 3)
    result = mk.multi_hop(rng.standard_normal(4), slab, params)
    assert np.all(np.isfinite(result.q_final))
    for w in result.attentions:
        assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-9)


def test_default_hop_count_and_memory_cap_constants():
    assert mk.DEFAULT_HOPS == 2
    assert mk.DEFAULT_MEMORY_CAP == 10000
    from kgdialog.config import RunConfig

    assert RunConfig().hops == 2
    assert RunConfig().memory_cap == 10000


def test_h1_equals_single_hop_call():
    rng = np.random.default_rng(4)
    slab = small_slab(rng, 6, 3)
    A = rng.standard_normal((4, 6))
    R1 = rng.standard_normal((4, 4))
    q1 = rng.standard_normal(4)
    params = mk.HopParams(A=A, R=(R1,), B=rng.standard_normal((4, 3)))
    via_multi = mk.multi_hop(q1, slab, params)
    direct_q, direct_w = mk.hop(q1, slab, A, R1, q1)
    assert np.allclose(via_multi.q_final, direct_q)
    assert np.allclose(via_multi.attentions[0], direct_w)


def test_multi_hop_equals_chained_hop_calls_bit_for_bit():
    rng = np.random.default_rng(14)
    for n, hops in ((1, 1), (7, 2), (40, 3)):
        slab = small_slab(rng, n, 3)
        params = rand_params(rng, 4, 3, hops)
        q1 = rng.standard_normal(4)
        out = mk.multi_hop(q1, slab, params)
        q = q1
        assert len(out.attentions) == hops
        for R_j, got in zip(params.R, out.attentions):
            q, weights = mk.hop(q, slab, params.A, R_j, q)
            assert np.array_equal(got, weights)
        assert np.array_equal(out.q_final, q)


def test_duplicating_memory_rows_preserves_final_query():
    rng = np.random.default_rng(5)
    slab = small_slab(rng, 6, 3)
    params = rand_params(rng, 4, 3)
    q1 = rng.standard_normal(4)
    base = mk.multi_hop(q1, slab, params)
    doubled = mk.MemorySlab(
        np.concatenate([slab.keys, slab.keys]),
        np.concatenate([slab.values, slab.values]),
        slab.provenance + slab.provenance,
    )
    dup = mk.multi_hop(q1, doubled, params)
    assert np.allclose(base.q_final, dup.q_final, atol=1e-7)
    # each duplicated row carries exactly half the original weight
    assert np.allclose(dup.attentions[0][: slab.size], base.attentions[0] / 2, atol=1e-9)


def test_permuting_rows_permutes_attention_and_keeps_query():
    rng = np.random.default_rng(6)
    slab = small_slab(rng, 8, 3)
    params = rand_params(rng, 4, 3)
    q1 = rng.standard_normal(4)
    base = mk.multi_hop(q1, slab, params)
    perm = rng.permutation(8)
    shuffled = mk.MemorySlab(
        slab.keys[perm], slab.values[perm], tuple(slab.provenance[i] for i in perm)
    )
    out = mk.multi_hop(q1, shuffled, params)
    assert np.allclose(out.q_final, base.q_final, atol=1e-9)
    for w_base, w_perm in zip(base.attentions, out.attentions):
        assert np.allclose(w_perm, w_base[perm], atol=1e-9)
    dist_base = mk.entity_distribution(base.q_final, slab, params.B)
    dist_perm = mk.entity_distribution(out.q_final, shuffled, params.B)
    assert np.allclose(dist_perm, dist_base[perm], atol=1e-9)


def test_shape_closure_over_random_parameter_shapes():
    rng = np.random.default_rng(7)
    for _ in range(10):
        d = int(rng.integers(2, 7))
        d_emb = int(rng.integers(1, 5))
        n = int(rng.integers(1, 9))
        hops = int(rng.integers(1, 4))
        slab = small_slab(rng, n, d_emb)
        params = rand_params(rng, d, d_emb, hops)
        result = mk.multi_hop(rng.standard_normal(d), slab, params)
        assert result.q_final.shape == (d,)
        assert len(result.attentions) == hops
        for w in result.attentions:
            assert w.shape == (n,)


def test_dimension_mismatch_raises():
    rng = np.random.default_rng(8)
    slab = small_slab(rng, 4, 3)
    bad = mk.HopParams(A=rng.standard_normal((4, 5)), R=(np.eye(4),), B=np.zeros((4, 3)))
    with pytest.raises(mk.KernelError):
        mk.multi_hop(rng.standard_normal(4), slab, bad)
    bad_r = mk.HopParams(A=rng.standard_normal((4, 6)), R=(np.eye(3),), B=np.zeros((4, 3)))
    with pytest.raises(mk.KernelError):
        mk.multi_hop(rng.standard_normal(4), slab, bad_r)


def test_values_wider_than_keys_without_a_value_map_raise_naming_both_shapes():
    rng = np.random.default_rng(13)
    slab = mk.MemorySlab(rng.standard_normal((3, 2)), rng.standard_normal((3, 4)), ())
    params = mk.HopParams(A=rng.standard_normal((2, 2)), R=(np.eye(2),), B=np.zeros((2, 4)))
    q1 = rng.standard_normal(2)
    with pytest.raises(mk.KernelError, match=r"values \(3, 4\) .*keys \(3, 2\)"):
        mk.multi_hop(q1, slab, params)
    with pytest.raises(mk.KernelError, match=r"values \(3, 4\) .*keys \(3, 2\)"):
        mk.hop(q1, slab, params.A, params.R[0], q1)


def test_keys_and_values_of_different_row_counts_raise_naming_both_shapes():
    rng = np.random.default_rng(14)
    slab = mk.MemorySlab(rng.standard_normal((3, 6)), rng.standard_normal((2, 3)), ())
    params = rand_params(rng, 4, 3)
    q1 = rng.standard_normal(4)
    with pytest.raises(mk.KernelError, match=r"keys \(3, 6\) and values \(2, 3\)"):
        mk.multi_hop(q1, slab, params)
    with pytest.raises(mk.KernelError, match=r"keys \(3, 6\) and values \(2, 3\)"):
        mk.hop(q1, slab, params.A, params.R[0], q1)


def test_a_malformed_vector_record_fails_alone(tmp_path):
    good = KERNEL_VECTORS.read_text().splitlines()[0]
    wide = {
        **json.loads(good), "name": "wide", "keys": [[1.0], [0.0]],
        "values": [[1.0, 0.0], [0.0, 1.0]], "A": [[1.0], [0.0]], "B": [[1.0, 0.0], [0.0, 1.0]],
    }
    short = {**json.loads(good), "name": "short", "values": [[1.0]]}
    vectors = tmp_path / "vectors.jsonl"
    vectors.write_text("\n".join([json.dumps(wide), json.dumps(short), good]) + "\n")
    outcomes = mk.run_vector_file(vectors)
    assert [(o.name, o.passed) for o in outcomes] == [
        ("wide", False), ("short", False), ("two_rows_one_hop_identity", True)
    ]
    assert "values (2, 2) are wider than keys (2, 1)" in outcomes[0].detail
    assert "keys (2, 2) and values (1, 1) differ in row count" in outcomes[1].detail


# -- distribution / copy mechanism ---------------------------------------------------------


def test_distribution_sums_to_one_and_singleton_is_certain():
    rng = np.random.default_rng(11)
    slab = small_slab(rng, 1, 3)
    dist = mk.entity_distribution(rng.standard_normal(4), slab, rng.standard_normal((4, 3)))
    assert dist.shape == (1,)
    assert dist[0] == pytest.approx(1.0, abs=1e-12)


def test_kg_word_substitution_orders_by_probability():
    slab = mk.MemorySlab(
        np.zeros((4, 2)),
        np.zeros((4, 1)),
        (Tuple(0, 0, 7), Tuple(0, 0, 3), Tuple(0, 0, 7), Tuple(0, 0, 5)),
    )
    dist = np.array([0.3, 0.25, 0.3, 0.15])
    # entity 7 accumulates 0.6, entity 3 has 0.25, entity 5 has 0.15
    labels = [f"ent{i}" for i in range(8)]
    out = mk.substitute_kg_words(
        ["answer:", mk.KG_WORD, mk.KG_WORD, "and", mk.KG_WORD], dist, slab, labels
    )
    assert out == ["answer:", "ent7", "ent3", "and", "ent5"]


def test_kg_word_ties_break_on_the_lower_entity_id():
    slab = mk.MemorySlab(
        np.zeros((2, 2)), np.zeros((2, 1)), (Tuple(0, 0, 9), Tuple(0, 0, 4))
    )
    dist = np.array([0.5, 0.5])
    out = mk.substitute_kg_words([mk.KG_WORD, mk.KG_WORD], dist, slab)
    assert out == ["4", "9"]


def test_duplicated_rows_do_not_double_rank_an_entity():
    slab = mk.MemorySlab(
        np.zeros((3, 2)), np.zeros((3, 1)), (Tuple(0, 0, 1), Tuple(0, 0, 1), Tuple(0, 0, 2))
    )
    dist = np.array([0.26, 0.26, 0.48])
    out = mk.substitute_kg_words([mk.KG_WORD, mk.KG_WORD, mk.KG_WORD], dist, slab)
    # entity 1 sums to 0.52 > 0.48; only two distinct entities exist so the
    # third placeholder stays literal
    assert out == ["1", "2", mk.KG_WORD]
