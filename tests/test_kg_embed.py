"""Embedding training, scoring, gradients and link-prediction metrics."""

import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest

from conftest import KG_T_DIR, make_random_store
from kgdialog import kg_embed, kg_store
from kgdialog.kg_embed import EmbeddingTable, TrainConfig
from kgdialog.kg_store import KgStore, Tuple, UnknownIdError


def test_score_zero_on_exact_translation():
    ents = np.array([[1.0, 0.0], [1.0, 2.0]])
    rels = np.array([[0.0, 2.0]])
    table = EmbeddingTable(ents, rels)
    assert kg_embed.score(table, Tuple(0, 0, 1)) == pytest.approx(0.0)


def test_score_nonnegative_on_random_tables():
    rng = np.random.default_rng(0)
    table = EmbeddingTable(rng.standard_normal((20, 8)), rng.standard_normal((3, 8)))
    for _ in range(100):
        t = Tuple(int(rng.integers(3)), int(rng.integers(20)), int(rng.integers(20)))
        assert kg_embed.score(table, t) >= 0.0


def test_score_unknown_id_raises():
    table = EmbeddingTable(np.zeros((2, 4)), np.zeros((1, 4)))
    with pytest.raises(UnknownIdError):
        kg_embed.score(table, Tuple(0, 0, 5))


def test_zero_epochs_returns_seeded_initialization(store):
    config = TrainConfig(dim=8, epochs=0, seed=4)
    trained = kg_embed.train(store, config)
    init = kg_embed.init_table(store.n_entities, store.n_relations, config)
    assert np.array_equal(trained.entity_vecs, init.entity_vecs)
    assert np.array_equal(trained.relation_vecs, init.relation_vecs)


def test_training_is_deterministic(store):
    config = TrainConfig(dim=8, epochs=40, seed=9)
    a = kg_embed.train(store, config)
    b = kg_embed.train(store, config)
    assert np.array_equal(a.entity_vecs, b.entity_vecs)
    assert np.array_equal(a.relation_vecs, b.relation_vecs)
    assert a.epoch_losses == b.epoch_losses


def test_entity_vectors_stay_unit_norm(store):
    table = kg_embed.train(store, TrainConfig(dim=8, epochs=30, seed=2))
    norms = np.linalg.norm(table.entity_vecs, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-9)
    assert np.all(np.isfinite(table.entity_vecs))
    assert np.all(np.isfinite(table.relation_vecs))


def test_true_tuples_score_below_corrupted(store):
    table = kg_embed.train(store, TrainConfig(dim=8, epochs=200, seed=0))
    rng = np.random.default_rng(1)
    true_scores = [kg_embed.score(table, t) for t in sorted(store.tuples)]
    corrupted_scores = []
    for t in sorted(store.tuples):
        for _ in range(10):
            other = int(rng.integers(store.n_entities))
            if rng.integers(2):
                neg = Tuple(t.relation, other, t.object)
            else:
                neg = Tuple(t.relation, t.subject, other)
            if neg not in store.tuples:
                corrupted_scores.append(kg_embed.score(table, neg))
    assert np.mean(true_scores) < np.mean(corrupted_scores)


def test_epoch_loss_window_means_non_increasing(store):
    """10-epoch window means trend monotonically down; a small allowance
    absorbs the negative-sampling jitter left at the converged floor."""
    for seed in (0, 3):
        table = kg_embed.train(store, TrainConfig(dim=16, epochs=120, seed=seed))
        losses = table.epoch_losses
        windows = [np.mean(losses[i : i + 10]) for i in range(0, len(losses) - 9, 10)]
        jitter = 0.05 * windows[0]
        for earlier, later in zip(windows, windows[1:]):
            assert later <= earlier + jitter
        assert windows[-1] < 0.2 * windows[0]


def test_entity_renaming_leaves_scores_invariant(store):
    config = TrainConfig(dim=8, epochs=0, seed=5)
    table = kg_embed.init_table(store.n_entities, store.n_relations, config)
    rng = np.random.default_rng(6)
    perm = rng.permutation(store.n_entities)
    permuted = EmbeddingTable(table.entity_vecs[perm], table.relation_vecs)
    inverse = np.argsort(perm)
    for t in sorted(store.tuples):
        renamed = Tuple(t.relation, int(inverse[t.subject]), int(inverse[t.object]))
        assert kg_embed.score(permuted, renamed) == pytest.approx(kg_embed.score(table, t))


def test_gradient_matches_central_finite_differences():
    """Analytic margin-loss gradients vs the finite-difference oracle at
    five random points, including pairs sharing vectors."""
    rng = np.random.default_rng(12)
    for trial in range(5):
        table = EmbeddingTable(
        	rng.standard_normal((6, 5)), rng.standard_normal((2, 5))
        )
        pos = Tuple(0, 0, 1)
        neg = Tuple(0, 2, 1) if trial % 2 == 0 else Tuple(0, 0, 3)  # shares vectors
        margin = 10.0  # large enough to keep the hinge active
        loss, grads = kg_embed.margin_loss_grads(table, pos, neg, margin)
        assert loss > 0.0
        assert grads

        h = 1e-6
        for (kind, idx), grad in grads.items():
            array = table.entity_vecs if kind == "entity" else table.relation_vecs
            numeric = np.zeros_like(grad)
            for d in range(array.shape[1]):
                orig = array[idx, d]
                array[idx, d] = orig + h
                up = kg_embed.margin_loss(table, pos, neg, margin)
                array[idx, d] = orig - h
                down = kg_embed.margin_loss(table, pos, neg, margin)
                array[idx, d] = orig
                numeric[d] = (up - down) / (2 * h)
            rel_err = np.linalg.norm(grad - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert rel_err < 1e-4, (kind, idx, rel_err)


def test_inactive_margin_has_zero_gradient():
    rng = np.random.default_rng(3)
    table = EmbeddingTable(rng.standard_normal((4, 3)), rng.standard_normal((1, 3)))
    # tiny margin plus identical pos/neg keeps the hinge at zero... use a
    # corrupted tuple scoring far above the positive instead
    pos = Tuple(0, 0, 1)
    neg = Tuple(0, 2, 3)
    margin = 1e-9
    if kg_embed.margin_loss(table, pos, neg, margin) == 0.0:
        loss, grads = kg_embed.margin_loss_grads(table, pos, neg, margin)
        assert loss == 0.0 and grads == {}


# -- pinned bits ------------------------------------------------------------------------
#
# Each case trains one table and evaluates filtered link prediction on every
# fifth of its sorted tuples.  TRAIN_SHA256 pins the table's float64 entity
# and relation bytes followed by its epoch losses as float64; LINK_SHA256
# pins the report's sorted-key json.

PIN_CASES = {
    "fixture": (lambda: kg_store.load_dir(KG_T_DIR), TrainConfig(dim=8, epochs=40, seed=3)),
    "random-300": (lambda: make_random_store(11, n_tuples=300), TrainConfig(dim=16, epochs=6, seed=1)),
    "random-3000": (
        lambda: make_random_store(12, n_tuples=3000, n_relations=6, n_entities=600),
        TrainConfig(dim=32, epochs=2, seed=5),
    ),
    "negatives-3": (lambda: make_random_store(13, n_tuples=400), TrainConfig(dim=8, epochs=4, negatives=3, seed=2)),
}
TRAIN_SHA256 = {
    "fixture": "0ca6cdd751ff1e938ec1c84c3098583817d7efc4b2a33698111a8228966e8c85",
    "random-300": "2223a3dbb906a0cccd6e24cb0f8cb6217b327208e8b99cd982ebf52ebc525267",
    "random-3000": "e8380379c7240ce889544da5437b29dc1af4d5a31db9b6850d8ad213538f24fe",
    "negatives-3": "59cb6a1d887c427a005589abd378e29061066b0553e05af52c992b96f56f727e",
}
LINK_SHA256 = {
    "fixture": "3ab9bc5e93ce03e4ab5285281539d0e590ea021e6ebc399a0b6f936e647d3795",
    "random-300": "8c8f87a4bb3ba40d821db2c1022f3ac0a99c77145586f8a2aa2afba6f1acee4f",
    "random-3000": "6b13ea90c1d453c820c11bec1e857f696664ccf1443309560f00c3168c5c1671",
    "negatives-3": "5cdd3a5fcfebe3acd1fa6d7dc153868c069f242a9adc91e2ee1e894e28e4d5ae",
}


def table_digest(table: EmbeddingTable) -> str:
    digest = hashlib.sha256(table.entity_vecs.astype(np.float64).tobytes())
    digest.update(table.relation_vecs.astype(np.float64).tobytes())
    digest.update(np.array(table.epoch_losses, dtype=np.float64).tobytes())
    return digest.hexdigest()


def link_digest(table: EmbeddingTable, store: KgStore) -> str:
    report = kg_embed.link_prediction_eval(table, sorted(store.tuples)[::5], all_tuples=store.tuples)
    return hashlib.sha256(json.dumps(report.as_dict(), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("case", PIN_CASES)
def test_training_and_link_report_match_their_pins(case):
    make, config = PIN_CASES[case]
    store = make()
    table = kg_embed.train(store, config)
    assert table_digest(table) == TRAIN_SHA256[case]
    assert link_digest(table, store) == LINK_SHA256[case]


def row_wise_step(E, R, pos, neg, margin, lr):
    """The SGD step as first written, kept as the reference: one row-wise
    ``np.add.at`` per table and tuple end, then ``np.unique`` of the
    touched entities."""
    loss, g = kg_embed._batch_grads(E, R, pos, neg, margin)
    pairs = np.stack([pos, neg])
    np.add.at(E, pairs[..., 1], -lr * g)
    np.add.at(R, pairs[..., 0], -lr * g)
    np.add.at(E, pairs[..., 2], lr * g)
    touched = np.unique(pairs[..., 1:])
    rows = E[touched]
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    E[touched] = np.divide(rows, norms, out=rows, where=norms > 0)
    return float(loss.sum())


@pytest.mark.parametrize("case", PIN_CASES)
def test_training_equals_the_row_wise_step_bit_for_bit(case, monkeypatch):
    make, config = PIN_CASES[case]
    store = make()
    got = kg_embed.train(store, config)
    monkeypatch.setattr(kg_embed, "_step", row_wise_step)
    assert table_digest(got) == table_digest(kg_embed.train(store, config))


# -- link prediction --------------------------------------------------------------------


def test_perfect_table_ranks_first():
    # construct embeddings where each object is exactly subject+relation
    ents = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    rels = np.array([[1.0, 0.0], [0.0, 1.0]])
    tuples = [Tuple(0, 0, 1), Tuple(1, 1, 3), Tuple(1, 0, 2)]
    table = EmbeddingTable(ents, rels)
    report = kg_embed.link_prediction_eval(table, tuples, k=10)
    assert report.object_side.mean_rank == 1.0
    assert report.object_side.hits_at_k == 1.0


def test_random_table_mean_rank_near_analytic_expectation():
    s = make_random_store(4, n_tuples=120, n_relations=3, n_types=2, n_entities=50)
    rng = np.random.default_rng(8)
    mean_ranks = []
    for trial in range(8):
        table = EmbeddingTable(
            rng.standard_normal((s.n_entities, 16)), rng.standard_normal((s.n_relations, 16))
        )
        report = kg_embed.link_prediction_eval(table, s.tuples)
        mean_ranks.append((report.object_side.mean_rank + report.subject_side.mean_rank) / 2)
    expected = kg_embed.random_baseline_mean_rank(s.n_entities)  # 25.5
    assert expected == 25.5
    assert abs(np.mean(mean_ranks) - expected) < 4.0


def test_trained_table_beats_random_mean_rank(store):
    table = kg_embed.train(store, TrainConfig(dim=8, epochs=200, seed=0))
    report = kg_embed.link_prediction_eval(table, store.tuples)
    random_rank = kg_embed.random_baseline_mean_rank(store.n_entities)
    trained = (report.object_side.mean_rank + report.subject_side.mean_rank) / 2
    assert trained < random_rank


def test_filtered_ranks_not_worse_than_raw(store):
    table = kg_embed.train(store, TrainConfig(dim=8, epochs=100, seed=1))
    report = kg_embed.link_prediction_eval(table, store.tuples, all_tuples=store.tuples)
    assert report.object_side.filtered_mean_rank <= report.object_side.mean_rank
    assert report.subject_side.filtered_mean_rank <= report.subject_side.mean_rank


def test_filtered_ranks_by_hand():
    # 1-d embeddings: relation 0 is the identity, so scores are distances
    ents = np.array([[0.0], [1.0], [2.0], [4.0], [8.0]])
    rels = np.array([[0.0], [100.0]])
    held = [Tuple(0, 0, 3)]
    known = [Tuple(0, 0, 1), Tuple(0, 0, 3), Tuple(0, 0, 4), Tuple(0, 2, 3), Tuple(0, 3, 3), Tuple(1, 0, 2)]
    report = kg_embed.link_prediction_eval(EmbeddingTable(ents, rels), held, k=2, all_tuples=known)
    # object side: distances to entity 0 are 0 1 2 4 8 and the true object 3
    # is at 4; entities 0, 1 and 2 are closer, and of those only 1 is a
    # known object of (0, 0, ?) -- entity 2 is one only under relation 1
    assert report.object_side.mean_rank == 4.0
    assert report.object_side.filtered_mean_rank == 3.0
    assert report.object_side.filtered_hits_at_k == 0.0
    # subject side: distances to entity 3 are 4 3 2 0 4 and the true subject
    # 0 is at 4; entity 4 ties and does not count, and of 1, 2 and 3 the
    # known subjects of (0, ?, 3) are 2 and 3
    assert report.subject_side.mean_rank == 4.0
    assert report.subject_side.filtered_mean_rank == 2.0
    assert report.subject_side.filtered_hits_at_k == 1.0


def rivals_of(known, t, side):
    """The objects (resp. subjects) of the tuples in ``known`` that share
    ``t``'s relation and subject (resp. object)."""
    if side == "object":
        return [u.object for u in known if (u.relation, u.subject) == (t.relation, t.subject)]
    return [u.subject for u in known if (u.relation, u.object) == (t.relation, t.object)]


def reference_ranks(table, held, all_tuples=None):
    """The per-row loop the blocked ranking replaced, kept as the oracle:
    per side, the raw and filtered rank of each sorted held-out tuple from
    one exact norm per entity."""
    ents, rels = table.entity_vecs, table.relation_vecs
    known = set(all_tuples) if all_tuples is not None else set()
    out = {}
    for side in ("object", "subject"):
        raw, filtered = [], []
        for t in sorted(held):
            if side == "object":
                scores = np.linalg.norm(ents - (ents[t.subject] + rels[t.relation]), axis=1)
                true_id = t.object
            else:
                scores = np.linalg.norm(ents - (ents[t.object] - rels[t.relation]), axis=1)
                true_id = t.subject
            rank = 1 + int(np.count_nonzero(scores < scores[true_id]))
            raw.append(rank)
            rival_scores = scores[rivals_of(known, t, side)]
            filtered.append(rank - int(np.count_nonzero(rival_scores < scores[true_id])))
        out[side] = (raw, filtered if all_tuples is not None else None)
    return out


def reference_report(table, held, k=10, all_tuples=None) -> dict:
    """:meth:`LinkPredictionReport.as_dict` built from :func:`reference_ranks`."""
    def summary(raw, filtered):
        def hits(ranks):
            return sum(1 for r in ranks if r <= k) / len(ranks)

        return {
            "mean_rank": sum(raw) / len(raw),
            "hits_at_k": hits(raw),
            "filtered_mean_rank": sum(filtered) / len(filtered) if filtered else None,
            "filtered_hits_at_k": hits(filtered) if filtered else None,
        }

    ranks = reference_ranks(table, held, all_tuples)
    return {"k": k, **{side: summary(*ranks[side]) for side in ("object", "subject")}}


def assert_ranks_match_reference(table, held, all_tuples):
    """Per-row raw and filtered ranks, and the whole report with and
    without the filter, equal the per-row loop's."""
    held = sorted(held)
    ents, rels = table.entity_vecs, table.relation_vecs
    rel, subj, obj = np.array(held).T
    ranks = reference_ranks(table, held, all_tuples)
    known = set(all_tuples)
    sides = (("object", ents[subj] + rels[rel], obj), ("subject", ents[obj] - rels[rel], subj))
    for side, target, true_id in sides:
        pairs = [(i, e) for i, t in enumerate(held) for e in rivals_of(known, t, side)]
        pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        raw, filtered = kg_embed._ranks(ents, target, true_id, pairs[:, 0], pairs[:, 1])
        assert (raw.tolist(), filtered.tolist()) == ranks[side], side
    for known in (None, all_tuples):
        got = kg_embed.link_prediction_eval(table, held, k=3, all_tuples=known)
        assert got.as_dict() == reference_report(table, held, k=3, all_tuples=known)
        for side in (got.object_side, got.subject_side):
            assert all(type(v) is float for v in side.__dict__.values() if v is not None)


N_BLOCKED = 4096  # entities: a ranking block then holds SCREEN_ENTRIES // 4096 == 8 rows
ONE_BLOCK = kg_embed.SCREEN_ENTRIES // N_BLOCKED


@pytest.mark.parametrize("n_held", [1, ONE_BLOCK, ONE_BLOCK + 1])
@pytest.mark.parametrize(
    "case", ["gaussian", "duplicate rows", "near ties", "target on an entity", "scaled 1e3"]
)
def test_blocked_ranks_equal_the_per_row_loop(case, n_held):
    rng = np.random.default_rng(n_held)
    ents, rels = rng.standard_normal((N_BLOCKED, 8)), rng.standard_normal((3, 8))
    held = [
        Tuple(int(rng.integers(3)), int(rng.integers(N_BLOCKED)), int(rng.integers(N_BLOCKED)))
        for _ in range(n_held)
    ]
    # rivals: other true tuples sharing each held tuple's (relation, anchor)
    known = list(held)
    for t in held:
        for other in rng.integers(N_BLOCKED, size=4).tolist():
            known += [Tuple(t.relation, t.subject, other), Tuple(t.relation, other, t.object)]
    if case == "duplicate rows":
        # every entity has a twin, so each true entity ties with another,
        # which is also among its rivals
        ents[N_BLOCKED // 2 :] = ents[: N_BLOCKED // 2]
        twin = N_BLOCKED // 2
        for t in held:
            known += [Tuple(t.relation, t.subject, (t.object + twin) % N_BLOCKED),
                      Tuple(t.relation, (t.subject + twin) % N_BLOCKED, t.object)]
    elif case == "near ties":
        # entities a hair closer to or farther from the object-side target
        # than the true object: inside the screen's tolerance, so only the
        # exact refinement can order them
        for t in held:
            target = ents[t.subject] + rels[t.relation]
            for j, step in enumerate((1e-11, -1e-11, 1e-13)):
                nudged = ents[t.object] + step * (target - ents[t.object])
                ents[(t.object + 1000 * (j + 1)) % N_BLOCKED] = nudged
    elif case == "target on an entity":
        for t in held:
            ents[t.object] = ents[t.subject] + rels[t.relation]  # object-side score 0
    elif case == "scaled 1e3":
        ents *= 1e3
        rels *= 1e3
    assert_ranks_match_reference(EmbeddingTable(ents, rels), held, known)


def test_blocked_ranks_count_ties_on_an_integer_grid():
    """Small integer coordinates make many entities exactly tie with the
    true one; none of them counts."""
    rng = np.random.default_rng(4)
    ents = rng.integers(-2, 3, size=(300, 3)).astype(float)
    rels = rng.integers(-1, 2, size=(2, 3)).astype(float)
    held = [Tuple(int(rng.integers(2)), int(rng.integers(300)), int(rng.integers(300))) for _ in range(250)]
    known = held + [Tuple(t.relation, t.subject, (t.object + 1) % 300) for t in held]
    assert_ranks_match_reference(EmbeddingTable(ents, rels), held, known)


def test_blocks_with_one_tied_row_or_none_rank_as_the_per_row_loop(monkeypatch):
    """Four held-out rows share each ranking block.  In the first block one
    row has an exact tie, a copy of its true object; in the second one row
    has a near tie, an entity a hair closer than its true object that only
    the exact refinement can order and that is also a rival.  Their
    neighbours have neither, and the third block has no tie at all."""
    n, per_block = 60, 4
    monkeypatch.setattr(kg_embed, "SCREEN_ENTRIES", per_block * n)
    rng = np.random.default_rng(9)
    ents, rels = rng.standard_normal((n, 6)), rng.standard_normal((2, 6))
    objects = rng.permutation(50)[:12].tolist()  # distinct, so a tie belongs to one row
    held = sorted(Tuple(int(rng.integers(2)), int(rng.integers(50)), o) for o in objects)
    assert len(held) == 3 * per_block
    exact, near = held[2], held[5]
    target = ents[near.subject] + rels[near.relation]
    ents[50] = ents[near.object] + 1e-11 * (target - ents[near.object])
    ents[51] = ents[exact.object]
    known = held + [Tuple(near.relation, near.subject, 50), Tuple(near.relation, near.subject, 52)]

    def ties(t):
        scores = np.linalg.norm(ents - (ents[t.subject] + rels[t.relation]), axis=1)
        return [e for e in np.flatnonzero(np.abs(scores - scores[t.object]) <= 1e-8) if e != t.object]

    assert [ties(t) for t in held] == [[50] if t == near else [51] if t == exact else [] for t in held]
    assert np.linalg.norm(ents[50] - target) < np.linalg.norm(ents[near.object] - target)
    assert_ranks_match_reference(EmbeddingTable(ents, rels), held, known)


def test_ranking_memory_is_bounded_by_the_block():
    """The per-row loop allocated an n_entities x D difference (5 MB here)
    per held-out tuple; a block's scores stay within SCREEN_ENTRIES."""
    rng = np.random.default_rng(0)
    n = 20_000
    table = EmbeddingTable(rng.standard_normal((n, 32)), rng.standard_normal((4, 32)))
    held = [Tuple(int(rng.integers(4)), int(rng.integers(n)), int(rng.integers(n))) for _ in range(200)]
    tracemalloc.start()
    try:
        kg_embed.link_prediction_eval(table, held, all_tuples=held)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


@pytest.mark.parametrize("k", [0, -1, 2.0, True, False, "10", None])
def test_k_must_be_an_integer_of_at_least_one(k):
    table = EmbeddingTable(np.zeros((2, 2)), np.zeros((1, 2)))
    with pytest.raises(kg_embed.EmbedError, match=rf"^k must be an integer >= 1, got {k!r}$"):
        kg_embed.link_prediction_eval(table, [Tuple(0, 0, 1)], k=k)


def test_empty_held_out_rejected():
    table = EmbeddingTable(np.zeros((2, 2)), np.zeros((1, 2)))
    with pytest.raises(kg_embed.EmbedError):
        kg_embed.link_prediction_eval(table, [])


@pytest.mark.parametrize(
    "bad",
    [Tuple(0, 1, 9), Tuple(0, 9, 1), Tuple(4, 1, 2), Tuple(0, -1, 2)],
)
def test_held_out_ids_are_checked_before_ranking(bad):
    table = EmbeddingTable(np.zeros((5, 2)), np.zeros((2, 2)))
    good = Tuple(1, 0, 3)
    with pytest.raises(UnknownIdError, match=rf"held-out tuple \({bad.relation}, {bad.subject}, {bad.object}\)"):
        kg_embed.link_prediction_eval(table, [good, bad], all_tuples=[good])



@pytest.mark.parametrize(
    "bad",
    [Tuple(0, 0, -1), Tuple(0, 0, 9), Tuple(0, -1, 3), Tuple(0, 9, 3)],
)
def test_rival_ids_are_checked_before_ranking(bad):
    # a negative id would be read as an entity counted from the end of the
    # table, one past it as an index error
    table = EmbeddingTable(np.arange(5.0).reshape(5, 1), np.zeros((1, 1)))
    held = Tuple(0, 0, 3)
    with pytest.raises(UnknownIdError, match=rf"tuple \({bad.relation}, {bad.subject}, {bad.object}\) of all_tuples"):
        kg_embed.link_prediction_eval(table, [held], all_tuples=[held, bad])


@pytest.mark.parametrize("side", ["held_out", "all_tuples"])
def test_an_id_outside_int64_names_the_tuple(side):
    table = EmbeddingTable(np.arange(5.0).reshape(5, 1), np.zeros((1, 1)))
    held, bad = Tuple(0, 0, 3), Tuple(0, 2**63, 3)
    held_out, all_tuples = ([held, bad], [held]) if side == "held_out" else ([held], [held, bad])
    with pytest.raises(UnknownIdError, match=r"^tuple \(0, 9223372036854775808, 3\) holds an id outside int64$"):
        kg_embed.link_prediction_eval(table, held_out, all_tuples=all_tuples)


def test_tuples_that_rival_no_held_out_tuple_are_not_checked():
    table = EmbeddingTable(np.arange(5.0).reshape(5, 1), np.zeros((1, 1)))
    held = Tuple(0, 0, 3)
    report = kg_embed.link_prediction_eval(table, [held], all_tuples=[held, Tuple(7, 9, -1)])
    assert report == kg_embed.link_prediction_eval(table, [held], all_tuples=[held])


@pytest.mark.parametrize("n", [5, 6])
def test_rival_rows_outside_the_table_are_neither_counted_nor_checked(n):
    """Keyed naively as relation * n + anchor, each stray row would collide
    with the held-out tuple's key on one side, and name a closer rival or
    one outside the table."""
    table = EmbeddingTable(np.arange(float(n)).reshape(n, 1), np.zeros((1, 1)))
    held = Tuple(0, 0, 3)
    strays = [Tuple(-1, n, 1), Tuple(-1, n, -7), Tuple(1, -n, 1), Tuple(-1, 2, n + 3), Tuple(-1, 9, n + 3)]
    report = kg_embed.link_prediction_eval(table, [held], all_tuples=[held, *strays])
    assert report == kg_embed.link_prediction_eval(table, [held], all_tuples=[held])


def dict_built_report(table, held_out, k, all_tuples) -> dict:
    """Filtered link prediction with its checks and rival sets built as
    first written, from dicts keyed by each held-out tuple's (relation,
    subject) and (relation, object), kept as the reference."""
    held = sorted(held_out)
    for t in held:
        try:
            table.entity(t.subject), table.relation(t.relation), table.entity(t.object)
        except UnknownIdError as exc:
            raise UnknownIdError(f"held-out tuple {tuple(t)}: {exc}") from None

    def rival(t, e):
        try:
            table.entity(e)
        except UnknownIdError as exc:
            raise UnknownIdError(f"tuple {tuple(t)} of all_tuples: {exc}") from None
        return e

    by_subject = {(t.relation, t.subject): set() for t in held}
    by_object = {(t.relation, t.object): set() for t in held}
    for t in all_tuples:
        if (t.relation, t.subject) in by_subject:
            by_subject[t.relation, t.subject].add(rival(t, t.object))
        if (t.relation, t.object) in by_object:
            by_object[t.relation, t.object].add(rival(t, t.subject))
    E, R = table.entity_vecs, table.relation_vecs
    rel, subj, obj = np.array(held, dtype=np.int64).T

    def report(target, true_id, rivals):
        pairs = [(i, e) for i, others in enumerate(rivals) for e in others]
        raw, filtered = kg_embed._ranks(E, target, true_id, *np.array(pairs, dtype=np.int64).reshape(-1, 2).T)
        return kg_embed.DirectionReport(*kg_embed._summary(raw, k), *kg_embed._summary(filtered, k))

    obj_rivals = [by_subject[t.relation, t.subject] for t in held]
    subj_rivals = [by_object[t.relation, t.object] for t in held]
    return kg_embed.LinkPredictionReport(
        k, report(E[subj] + R[rel], obj, obj_rivals), report(E[obj] - R[rel], subj, subj_rivals)
    ).as_dict()


def outcome(evaluate, *args):
    try:
        return evaluate(*args)
    except UnknownIdError as exc:
        return f"UnknownIdError: {exc}"


@pytest.mark.parametrize("seed", range(6))
def test_array_rivals_equal_the_dict_built_ones_on_random_stores(seed):
    """Held-out tuples in and out of the store, repeated; all_tuples with
    repeats and rows outside the table, and then with rivals outside it."""
    store = make_random_store(seed, n_tuples=300, n_relations=3, n_entities=40)
    rng = np.random.default_rng(seed)
    n, tuples = store.n_entities, sorted(store.tuples)
    table = EmbeddingTable(rng.standard_normal((n, 4)), rng.standard_normal((store.n_relations, 4)))
    held = [tuples[i] for i in rng.integers(len(tuples), size=40)]
    held += [Tuple(int(rng.integers(3)), int(rng.integers(n)), int(rng.integers(n))) for _ in range(10)]
    known = tuples + tuples[:30]
    known += [Tuple(int(r), int(s), int(o)) for r, s, o in rng.integers(-3, n + 3, size=(60, 3)) if not 0 <= r < 3]
    rng.shuffle(known)
    for all_tuples in (known, store.tuples):
        got = kg_embed.link_prediction_eval(table, held, k=3, all_tuples=all_tuples).as_dict()
        assert got == dict_built_report(table, held, 3, all_tuples)
    # held-out tuples outside the table: the lowest is named, and its
    # subject is checked before its relation
    bad_held = held + [Tuple(7, -1, 2), Tuple(3, n, 0)]
    got = outcome(lambda: kg_embed.link_prediction_eval(table, bad_held, k=3, all_tuples=known).as_dict())
    assert got == outcome(dict_built_report, table, bad_held, 3, known) == (
        f"UnknownIdError: held-out tuple (3, {n}, 0): entity id {n} not embedded"
    )
    # rivals outside the table; which one is named depends on the order
    for t in held[:3]:
        known.insert(int(rng.integers(len(known))), Tuple(t.relation, t.subject, n + int(rng.integers(3))))
        known.insert(int(rng.integers(len(known))), Tuple(t.relation, -1 - int(rng.integers(3)), t.object))
        got = outcome(lambda: kg_embed.link_prediction_eval(table, held, k=3, all_tuples=known).as_dict())
        assert got.startswith("UnknownIdError: tuple (")
        assert got == outcome(dict_built_report, table, held, 3, known)


@pytest.mark.parametrize(
    "setting, value",
    [
        ("dim", 0),
        ("epochs", -2),
        ("negatives", 0),
        ("learning_rate", 0.0),
        ("learning_rate", float("inf")),
        ("margin", float("nan")),
        ("margin", -1.0),
        ("seed", -1),
    ],
)
def test_settings_that_train_nothing_or_backwards_are_rejected(store, setting, value):
    with pytest.raises(kg_embed.EmbedError, match=f"^{setting} must be"):
        kg_embed.train(store, TrainConfig(**{"dim": 4, "epochs": 1, setting: value}))


def test_batch_step_equals_the_sum_of_per_pair_gradients():
    """One block: entities and relations shared across pairs, and one pair
    whose negative is so far off that its hinge is inactive."""
    rng = np.random.default_rng(21)
    ents, rels = rng.standard_normal((6, 4)), rng.standard_normal((2, 4))
    ents[5] = 100.0
    pos = np.array([[0, 0, 1], [1, 0, 2], [0, 2, 1], [1, 3, 3], [0, 0, 1]])
    neg = np.array([[0, 0, 4], [1, 3, 2], [0, 2, 0], [1, 3, 4], [0, 0, 5]])
    margin, lr = 10.0, 0.05

    table = EmbeddingTable(ents.copy(), rels.copy())
    expected_e, expected_r = ents.copy(), rels.copy()
    expected_loss = 0.0
    for p, n in zip(pos, neg):
        loss, grads = kg_embed.margin_loss_grads(table, Tuple(*p), Tuple(*n), margin)
        inactive = n[2] == 5
        assert (loss == 0.0) == inactive and (grads == {}) == inactive
        expected_loss += loss
        for (kind, i), grad in grads.items():
            (expected_e if kind == "entity" else expected_r)[i] -= lr * grad
    touched = sorted({int(i) for i in np.concatenate([pos[:, 1:], neg[:, 1:]]).ravel()})
    expected_e[touched] /= np.linalg.norm(expected_e[touched], axis=1, keepdims=True)

    E, R = ents.copy(), rels.copy()
    assert kg_embed._step(E, R, pos, neg, margin, lr) == pytest.approx(expected_loss, abs=1e-12)
    assert np.allclose(E, expected_e, rtol=0, atol=1e-12)
    assert np.allclose(R, expected_r, rtol=0, atol=1e-12)


def first_batch_grads(E, R, pos, neg, margin):
    """:func:`kg_embed._batch_grads` as first written: out-of-place
    residual, ``np.linalg.norm`` and a guarded divide into zeros."""
    pairs = np.stack([pos, neg])
    residual = E[pairs[..., 1]] + R[pairs[..., 0]] - E[pairs[..., 2]]
    norms = np.linalg.norm(residual, axis=2, keepdims=True)
    loss = np.maximum(0.0, margin + norms[0, :, 0] - norms[1, :, 0])
    g = np.divide(residual, norms, out=np.zeros_like(residual), where=norms > 0)
    g *= (loss > 0)[:, None] * np.array([1.0, -1.0])[:, None, None]
    return loss, g


def test_a_zero_norm_gets_gradient_zero_with_the_same_bits():
    """A positive and a negative whose residual is exactly 0 (the object is
    stored as subject + relation), and a positive whose residual is too
    small for its square: all three norms are 0, so the ``norms > 0`` guard
    runs, and both the gradients and the step keep their bits."""
    rng = np.random.default_rng(17)
    ents, rels = rng.standard_normal((10, 5)), rng.standard_normal((3, 5))
    ents[2] = ents[0] + rels[1]
    ents[6] = ents[3] + rels[0]
    ents[8], ents[9], rels[2] = 3e-170, 1e-170, 0.0
    pos = np.array([[1, 0, 2], [0, 1, 4], [0, 3, 5], [2, 8, 9]])
    neg = np.array([[1, 0, 7], [0, 3, 6], [0, 1, 5], [2, 8, 4]])
    margin, lr = 10.0, 0.05
    loss, g = kg_embed._batch_grads(ents, rels, pos, neg, margin)
    want_loss, want_g = first_batch_grads(ents, rels, pos, neg, margin)
    assert np.all(loss > 0)  # every hinge is active, so only the guard zeroes
    assert not g[0, 0].any() and not g[1, 1].any() and not g[0, 3].any()
    assert np.count_nonzero(g) == g.size - 3 * g.shape[2]
    assert (loss.tobytes(), g.tobytes()) == (want_loss.tobytes(), want_g.tobytes())

    E, R = ents.copy(), rels.copy()
    want_e, want_r = ents.copy(), rels.copy()
    assert kg_embed._step(E, R, pos, neg, margin, lr) == row_wise_step(want_e, want_r, pos, neg, margin, lr)
    assert (E.tobytes(), R.tobytes()) == (want_e.tobytes(), want_r.tobytes())


@pytest.mark.parametrize("shape", [(2, 128, 32), (2, 7, 5), (2, 1, 1), (2, 40, 129)])
def test_the_steps_norm_formula_is_numpys_norm_bit_for_bit(shape):
    """The step takes norms as ``sqrt(add.reduce(x * x))``; this pins that
    to ``np.linalg.norm`` on every axis it is used on, so a numpy whose
    norm changes fails here rather than moving the trained-table pins."""
    rng = np.random.default_rng(shape[1])
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, size=shape)
    for axis, arr in ((2, x), (1, x[0])):
        got = np.sqrt(np.add.reduce(arr * arr, axis=axis, keepdims=True))
        assert got.tobytes() == np.linalg.norm(arr, axis=axis, keepdims=True).tobytes()


def test_vectorised_corruption_changes_one_slot_and_avoids_facts(store):
    positives = np.array(sorted(store.tuples), dtype=np.int64)
    known = kg_embed._keys(positives, store.n_entities)
    pos = np.repeat(positives, 20, axis=0)
    negs = [kg_embed._corrupt(pos, store.n_entities, known, np.random.default_rng(5)) for _ in range(2)]
    assert np.array_equal(negs[0], negs[1])
    neg = negs[0]
    assert np.array_equal(neg[:, 0], pos[:, 0])
    assert np.all(np.count_nonzero(neg != pos, axis=1) == 1)
    assert not {Tuple(*map(int, row)) for row in neg} & store.tuples
    assert len(np.unique(neg, axis=0)) > len(positives)


def test_train_requires_tuples():
    empty = KgStore([], ["A"], ["r"], ["t"], {0: frozenset({0})})
    with pytest.raises(kg_embed.EmbedError):
        kg_embed.train(empty, TrainConfig(dim=4, epochs=1))


# -- file format -----------------------------------------------------------------------


def test_save_load_round_trip(store, tmp_path):
    table = kg_embed.train(store, TrainConfig(dim=8, epochs=20, seed=7))
    path = tmp_path / "embeddings.bin"
    kg_embed.save_embeddings(table, path)
    loaded = kg_embed.load_embeddings(path)
    assert loaded.dim == 8
    assert np.allclose(loaded.entity_vecs, table.entity_vecs, atol=1e-6)
    assert np.allclose(loaded.relation_vecs, table.relation_vecs, atol=1e-6)

    manifest_path = tmp_path / "embeddings.bin.manifest.json"
    assert manifest_path.exists()
    import json

    manifest = json.loads(manifest_path.read_text())
    assert manifest["dim"] == 8
    assert manifest["entities"] == list(range(store.n_entities))
    assert manifest["relations"] == list(range(store.n_relations))


@pytest.fixture
def saved_10x4(tmp_path):
    """The bytes of a saved 10-entity, 3-relation, D = 4 table, and a path."""
    table = EmbeddingTable(np.arange(40.0).reshape(10, 4), np.arange(12.0).reshape(3, 4))
    kg_embed.save_embeddings(table, tmp_path / "table.bin")
    return (tmp_path / "table.bin").read_bytes(), tmp_path / "damaged.bin"


def assert_load_fails(path, data, message):
    path.write_bytes(data)
    with pytest.raises(kg_embed.EmbedError, match=f"^{re.escape(f'{path}: {message}')}$"):
        kg_embed.load_embeddings(path)


def test_load_names_truncated_entity_rows(saved_10x4):
    data, path = saved_10x4
    assert_load_fails(path, data[: 16 + 4 * 38], "entity rows short, 152 of 160 bytes")


def test_load_names_truncated_relation_rows(saved_10x4):
    data, path = saved_10x4
    assert_load_fails(path, data[:-3], "relation rows short, 45 of 48 bytes")


def test_load_names_a_header_fragment(saved_10x4):
    data, path = saved_10x4
    assert_load_fails(path, data[:9], "header short, 5 of 12 bytes")


def test_load_names_trailing_bytes(saved_10x4):
    data, path = saved_10x4
    assert_load_fails(path, data + b"\x00\x00", "2 trailing bytes after the relation rows")


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(kg_embed.EmbedError, match="magic"):
        kg_embed.load_embeddings(path)
