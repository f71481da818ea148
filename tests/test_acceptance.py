"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with -s to see them inline).

Expected values are computed by the stated independent oracles inside the
tests (brute-force evaluation, hand arithmetic, raw recounts), never by
the code paths under test.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import KERNEL_VECTORS, make_random_store
from kgdialog import (
    dataset_pipeline as pipe,
    dialog_machine as dm,
    entity_linker as el,
    eval_harness as ev,
    kg_embed,
    memnet_kernel as mk,
    query_algebra as qa,
    templates as tpl,
)
from kgdialog.config import RunConfig
from kgdialog.kg_store import Tuple
from test_query_algebra import random_plan

CORPUS_SEED = 2024
CORPUS_SIZE = 1000
CFG = RunConfig(min_questions=5, max_questions=9, seed=CORPUS_SEED)


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {label}: FAIL")
        raise
    print(f"\nACCEPTANCE {label}: PASS")


@pytest.fixture(scope="module")
def big_corpus(store, templates):
    return pipe.generate_corpus(store, templates, CORPUS_SIZE, CFG, seed=CORPUS_SEED)


# -- criterion 1: oracle equivalence ------------------------------------------------------


def _check(store, plan):
    assert qa.execute(store, plan) == qa.brute_force_execute(store, plan), plan


def _enumerate_kg_t_plans(store):
    """The full plan space over the fixture: every plan kind crossed with
    every relation, entity, type and thresholds up to 4."""
    rels = range(store.n_relations)
    ents = range(store.n_entities)
    types = range(store.n_types)
    dirs = ("obj", "subj")

    lookups = [
        qa.Lookup(d, r, e, ty) for d in dirs for r in rels for e in ents for ty in types
    ]
    for lk in lookups:
        yield qa.Retrieve(lk)
        yield qa.Count(lk)

    by_type: dict[int, list[qa.Lookup]] = {}
    for lk in lookups:
        by_type.setdefault(lk.result_type, []).append(lk)
    for ty, group in by_type.items():
        for a in group:
            for b in group:
                for cls in (qa.Union, qa.Intersection, qa.Difference):
                    yield qa.Retrieve(cls(a, b))
                    yield qa.Count(cls(a, b))

    for anchor in ents:
        for ty_a in types:
            for ty_b in types:
                if ty_a == ty_b:
                    continue
                for r_a in rels:
                    for r_b in rels:
                        expr = qa.TypeUnion(
                            (
                                qa.Lookup("obj", r_a, anchor, ty_a),
                                qa.Lookup("obj", r_b, anchor, ty_b),
                            )
                        )
                        yield qa.Retrieve(expr)
                        yield qa.Count(expr)

    for r in rels:
        for s in ents:
            for o in ents:
                yield qa.Verify((Tuple(r, s, o),))
    pool = sorted(store.tuples)
    rng = random.Random(0)
    for _ in range(100):
        yield qa.Verify((rng.choice(pool), Tuple(rng.randrange(2), rng.randrange(10), rng.randrange(10))))

    legs = [
        qa.Counted(r, d, ty) for r in rels for d in dirs for ty in types
    ]
    specs = [qa.GroupSpec(g, (leg,)) for g in types for leg in legs]
    specs += [qa.GroupSpec(g, (a, b)) for g in types for a in legs[:6] for b in legs[6:]]
    for spec in specs:
        for direction in ("min", "max"):
            yield qa.ArgOpt(spec, direction)
        for comparator in qa.COMPARATORS:
            for n in range(0, 5):
                yield qa.ThresholdFilter(spec, comparator, n)
                yield qa.CountOverThreshold(spec, comparator, n)
        for ref in ents:
            for direction in ("more", "less"):
                yield qa.Comparative(spec, ref, direction)
                yield qa.CountOverComparative(spec, ref, direction)


def test_criterion_1_oracle_equivalence(store):
    with criterion("1 oracle equivalence (execute == brute force)"):
        started = time.monotonic()
        n_plans = 0
        for plan in _enumerate_kg_t_plans(store):
            _check(store, plan)
            n_plans += 1

        rng = random.Random(12345)
        for i in range(100):
            synth = make_random_store(
                seed=9000 + i,
                n_tuples=rng.randint(50, 1000),
                n_relations=rng.randint(1, 5),
                n_types=rng.randint(1, 4),
            )
            for _ in range(15):
                plan = random_plan(rng, synth)
                include_zero = rng.random() < 0.5
                assert qa.execute(synth, plan, include_zero) == qa.brute_force_execute(
                    synth, plan, include_zero
                ), plan
                n_plans += 1
        elapsed = time.monotonic() - started
        print(f"\n  checked {n_plans} plans in {elapsed:.1f}s")
        assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s (budget 60s)"


# -- criterion 2: full question-type coverage ---------------------------------------------


def test_criterion_2_question_type_coverage(store, templates):
    with criterion("2 question taxonomy coverage end to end"):
        river = next(t for t in templates if t.id == "river_flows")
        capital = next(t for t in templates if t.id == "capital_city")
        multi = tpl.transform_add_type(river, "capital", "city")
        india_and_china = {"entity:1": "India", "entity:2": "China"}

        cases = {
            "logical_union": (tpl.transform_logical(river, "or"), india_and_china),
            "logical_intersection": (tpl.transform_logical(river, "and"), india_and_china),
            "logical_difference": (tpl.transform_logical(river, "but_not"), india_and_china),
            "logical_multi_relation": (
                tpl.transform_multi_relation(river, capital, "but_not"),
                {"entity:1": "India", "object_type_b": "river"},
            ),
            "quant_count": (tpl.transform_to_count(river), {"entity:1": "India"}),
            "quant_count_multi_type": (tpl.transform_to_count(multi), {"entity:1": "India"}),
            "quant_count_logical": (
                tpl.transform_to_count(tpl.transform_logical(river, "and")),
                india_and_china,
            ),
            "quant_max": (tpl.transform_argopt(river, "max"), {}),
            "quant_min": (tpl.transform_argopt(river, "min"), {}),
            "threshold_single": (tpl.transform_threshold(river, "atleast", 2), {}),
            "threshold_multi_type": (tpl.transform_threshold(multi, "atleast", 2), {}),
            "count_over_threshold_single": (
                tpl.transform_to_count(tpl.transform_threshold(river, "atleast", 2)),
                {},
            ),
            "count_over_threshold_multi": (
                tpl.transform_to_count(tpl.transform_threshold(multi, "atleast", 2)),
                {},
            ),
            "comparative_single": (tpl.transform_comparative(river, "more"), {"entity:ref": "Ganga"}),
            "comparative_multi_type": (tpl.transform_comparative(multi, "more"), {"entity:ref": "Egypt"}),
            "count_over_comparative_single": (
                tpl.transform_to_count(tpl.transform_comparative(river, "more")),
                {"entity:ref": "Ganga"},
            ),
            "count_over_comparative_multi": (
                tpl.transform_to_count(tpl.transform_comparative(multi, "less")),
                {"entity:ref": "India"},
            ),
        }

        for name, (template, bindings) in cases.items():
            built = tpl.instantiate(store, template, bindings)
            assert not isinstance(built, tpl.Rejection), (name, built)
            assert "⟨" not in built.question, name
            oracle = qa.brute_force_execute(store, built.plan)
            assert built.answer == oracle, (name, built.question)

        # verification row: multi-entity boolean
        verify2 = next(t for t in templates if t.id == "verify_flows_2")
        built = tpl.instantiate(
            store, verify2, {"entity:1": "Ganga", "entity:2": "India", "entity:3": "Mekong"}
        )
        assert built.answer == qa.brute_force_execute(store, built.plan)
        assert built.answer == qa.Booleans((True, False))

        # frozen fixture expectations for a few anchor cases
        inter = tpl.instantiate(store, *cases["logical_intersection"])
        assert {store.entity_label(e) for e in inter.answer.members} == {"Brahmaputra"}
        count = tpl.instantiate(store, cases["quant_count"][0], {"entity:1": "India"})
        assert count.answer == qa.Counts(((None, 3),))


# -- criterion 3: dialog structural properties ---------------------------------------------


def _question_pairs(turns):
    pairs, current = [], None
    for t in turns:
        if t.speaker == "user" and t.state in dm.QUESTION_STATES:
            if current is not None:
                pairs.append(current)
            current = [t]
        elif current is not None:
            current.append(t)
    if current is not None:
        pairs.append(current)
    return pairs


def test_criterion_3_dialog_structure(store, templates, big_corpus):
    with criterion("3 dialog structure on a 1000-dialog corpus"):
        assert len(big_corpus.dialogs) == CORPUS_SIZE

        n_questions = 0
        n_clarifications = 0
        for dialog in big_corpus.dialogs:
            turns = dialog.turns
            pairs = _question_pairs(turns)
            for prev, nxt in zip(pairs, pairs[1:]):
                n_questions += 1
                prev_entities = {e for t in prev for e in t.entities}
                prev_relations = set()
                for t in prev:
                    if t.plan is not None:
                        prev_relations |= qa.plan_relations(t.plan)
                nxt_entities = {e for t in nxt for e in t.entities}
                nxt_relations = set()
                for t in nxt:
                    if t.plan is not None:
                        nxt_relations |= qa.plan_relations(t.plan)
                assert (prev_entities & nxt_entities) or (prev_relations & nxt_relations), (
                    dialog.dialog_id,
                    nxt[0].utterance,
                )

            for i, t in enumerate(turns):
                if t.state != dm.TurnState.CLARIFICATION_Q:
                    continue
                n_clarifications += 1
                asker = turns[i - 1]
                assert asker.speaker == "user" and asker.plan is None
                assert "that " in asker.utterance
                mention_type = next(
                    ty
                    for ty in range(store.n_types)
                    if f"that {store.type_label(ty)}" in asker.utterance
                )
                previous_response = turns[i - 2]
                candidates = [
                    e for e in previous_response.entities if store.has_type(e, mention_type)
                ]
                assert len(candidates) >= 2, (dialog.dialog_id, asker.utterance)
                assert turns[i + 1].state == dm.TurnState.CLARIFICATION_A
                assert turns[i + 2].state == dm.TurnState.RESPONSE

            for t in turns:
                if t.plan is not None and t.answer is not None:
                    assert qa.execute(store, t.plan) == t.answer

        assert n_questions > 0 and n_clarifications > 0
        print(f"\n  {n_questions} linked questions, {n_clarifications} clarification exchanges")


def test_criterion_3_determinism_byte_identical(store, templates, big_corpus, tmp_path):
    with criterion("3b identical seed gives a byte-identical corpus"):
        again = pipe.generate_corpus(store, templates, CORPUS_SIZE, CFG, seed=CORPUS_SEED)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        pipe.write_corpus(big_corpus, store, p1)
        pipe.write_corpus(again, store, p2)
        assert p1.read_bytes() == p2.read_bytes()


# -- criterion 4: split constraint -----------------------------------------------------------


def test_criterion_4_split_constraint(store, templates, big_corpus):
    with criterion("4 tuple-disjoint train/valid/test split"):
        corpora = [big_corpus] + [
            pipe.generate_corpus(store, templates, 100, CFG, seed=s) for s in (1, 2)
        ]
        for idx, corpus in enumerate(corpora):
            spec = pipe.SplitSpec((0.8, 0.1, 0.1), seed=idx)
            result = pipe.split_corpus(corpus, spec)
            report = pipe.split_report(corpus, result)
            assert report["provenance_overlap_train_eval"] == 0
            total = (
                report["n_train"] + report["n_valid"] + report["n_test"] + report["n_discarded"]
            )
            assert total == len(corpus.dialogs)
            buckets = [d.dialog_id for b in (result.train, result.valid, result.test, result.discarded) for d in b]
            assert sorted(buckets) == sorted(d.dialog_id for d in corpus.dialogs)


# -- criterion 5: corpus statistics -----------------------------------------------------------


def test_criterion_5_corpus_statistics(big_corpus):
    with criterion("5 corpus statistics match an independent recount"):
        stats = pipe.corpus_stats(big_corpus, vocab_threshold=10)

        # independent single-pass recount over raw turn data
        dialogs = big_corpus.dialogs
        turns = [t for d in dialogs for t in d.turns]
        questions = [
            t for t in turns if t.speaker == "user" and t.state in dm.QUESTION_STATES
        ]
        responses = [
            t for t in turns if t.speaker == "system" and t.state == dm.TurnState.RESPONSE
        ]
        freq: dict[str, int] = {}
        for t in turns:
            for token in t.utterance.split():
                freq[token] = freq.get(token, 0) + 1
        expected = {
            "n_dialogs": len(dialogs),
            "n_turns": len(turns),
            "n_questions": len(questions),
            "avg_utterances_per_dialog": len(turns) / len(dialogs),
            "avg_question_words": sum(len(t.utterance.split()) for t in questions) / len(questions),
            "avg_response_words": sum(len(t.utterance.split()) for t in responses) / len(responses),
            "avg_distinct_states_per_dialog": sum(
                len({t.state for t in d.turns}) for d in dialogs
            ) / len(dialogs),
            "vocab_size": sum(1 for c in freq.values() if c >= 10),
            "vocab_threshold": 10,
        }
        assert stats.as_dict() == expected

        ref = pipe.FULL_SCALE_REFERENCE["train"]
        print(
            f"\n  toy corpus: {stats.avg_utterances_per_dialog:.2f} utterances/dialog, "
            f"{stats.avg_question_words:.2f} question words"
        )
        print(
            f"  full-scale reference (context only, not reproduced): "
            f"{ref['avg_utterances_per_dialog']} utterances/dialog, "
            f"{ref['avg_question_words']} question words"
        )


# -- criterion 6: memory kernel ----------------------------------------------------------------


def test_criterion_6_memory_kernel(store):
    with criterion("6 memory kernel golden and property suite"):
        # hand-computed golden: keys [[1,0],[0,1]], values [[1],[-1]],
        # identity maps, q1=[1,0] -> attention [e/(1+e), 1/(1+e)] and
        # q2 = [1, (e-1)/(e+1)]
        slab = mk.MemorySlab(
            np.array([[1.0, 0.0], [0.0, 1.0]]),
            np.array([[1.0], [-1.0]]),
            (Tuple(0, 0, 0), Tuple(0, 0, 1)),
        )
        params = mk.HopParams(A=np.eye(2), R=(np.eye(2),), B=np.array([[1.0], [0.0]]))
        out = mk.multi_hop(np.array([1.0, 0.0]), slab, params)
        w1 = math.e / (1.0 + math.e)
        assert np.allclose(out.attentions[0], [w1, 1.0 - w1], atol=1e-9, rtol=0.0)
        assert np.allclose(
            out.q_final, [1.0, (math.e - 1.0) / (math.e + 1.0)], atol=1e-9, rtol=0.0
        )
        for outcome in mk.run_vector_file(KERNEL_VECTORS, tolerance=1e-9):
            assert outcome.passed, (outcome.name, outcome.detail)

        rng = np.random.default_rng(0)
        for scale in (1.0, 1e2, 1e4):
            w = mk.softmax(rng.standard_normal(64) * scale)
            assert abs(float(np.sum(w)) - 1.0) <= 1e-9
            assert np.all(w >= 0.0) and np.all(np.isfinite(w))

        single = mk.MemorySlab(
            rng.standard_normal((1, 6)), rng.standard_normal((1, 3)), (Tuple(0, 0, 0),)
        )
        p = mk.HopParams(
            A=rng.standard_normal((4, 6)),
            R=(rng.standard_normal((4, 4)), rng.standard_normal((4, 4))),
            B=rng.standard_normal((4, 3)),
        )
        res = mk.multi_hop(rng.standard_normal(4), single, p)
        for w in res.attentions:
            assert w[0] == pytest.approx(1.0, abs=1e-12)

        many = mk.MemorySlab(
            rng.standard_normal((6, 6)), rng.standard_normal((6, 3)),
            tuple(Tuple(0, i, i) for i in range(6)),
        )
        q1 = rng.standard_normal(4)
        base = mk.multi_hop(q1, many, p)
        doubled = mk.MemorySlab(
            np.concatenate([many.keys, many.keys]),
            np.concatenate([many.values, many.values]),
            many.provenance + many.provenance,
        )
        dup = mk.multi_hop(q1, doubled, p)
        assert np.allclose(base.q_final, dup.q_final, atol=1e-7, rtol=0.0)

        assert mk.DEFAULT_HOPS == 2
        assert mk.DEFAULT_MEMORY_CAP == 10000
        assert RunConfig().hops == 2
        assert RunConfig().memory_cap == 10000
        assert len(p.R) == 2  # the default-hop shape exercised above


# -- criterion 7: embeddings --------------------------------------------------------------------


def test_criterion_7_embeddings(store):
    with criterion("7 embeddings: mean rank, gradient check, runtime"):
        started = time.monotonic()
        table = kg_embed.train(store, kg_embed.TrainConfig(dim=32, epochs=500, seed=0))
        report = kg_embed.link_prediction_eval(table, store.tuples)
        random_rank = kg_embed.random_baseline_mean_rank(store.n_entities)
        trained_rank = (report.object_side.mean_rank + report.subject_side.mean_rank) / 2
        print(f"\n  mean rank {trained_rank:.3f} vs random {random_rank:.2f}")
        assert trained_rank * 2.0 <= random_rank, "mean rank must improve at least 2x"

        rng = np.random.default_rng(12)
        for trial in range(5):
            probe = kg_embed.EmbeddingTable(
                rng.standard_normal((6, 5)), rng.standard_normal((2, 5))
            )
            pos = Tuple(0, 0, 1)
            neg = Tuple(0, 2, 1) if trial % 2 == 0 else Tuple(0, 0, 3)
            loss, grads = kg_embed.margin_loss_grads(probe, pos, neg, 10.0)
            assert loss > 0.0 and grads
            h = 1e-6
            for (kind, idx), grad in grads.items():
                array = probe.entity_vecs if kind == "entity" else probe.relation_vecs
                numeric = np.zeros_like(grad)
                for d in range(array.shape[1]):
                    orig = array[idx, d]
                    array[idx, d] = orig + h
                    up = kg_embed.margin_loss(probe, pos, neg, 10.0)
                    array[idx, d] = orig - h
                    down = kg_embed.margin_loss(probe, pos, neg, 10.0)
                    array[idx, d] = orig
                    numeric[d] = (up - down) / (2 * h)
                rel_err = np.linalg.norm(grad - numeric) / max(np.linalg.norm(numeric), 1e-12)
                assert rel_err < 1e-4

        elapsed = time.monotonic() - started
        print(f"  embedding suite in {elapsed:.1f}s")
        assert elapsed < 30.0, f"embedding suite took {elapsed:.1f}s (budget 30s)"


def test_criterion_7_hits_at_10_exceeds_baseline(store):
    """Stated criterion: trained hits@10 strictly exceeds the analytic
    random baseline on the fixture graph.

    The fixture has 10 entities, so every rank is at most 10 and hits@10
    is exactly 1.0 for any scoring whatsoever, the random baseline
    included; strict exceedance is arithmetically impossible at this
    fixture size.  The assertion is kept as stated rather than weakened;
    see the decisions ledger for the analysis.
    """
    with criterion("7b trained hits@10 strictly exceeds the random baseline"):
        table = kg_embed.train(store, kg_embed.TrainConfig(dim=32, epochs=500, seed=0))
        report = kg_embed.link_prediction_eval(table, store.tuples, k=10)
        trained_hits = (report.object_side.hits_at_k + report.subject_side.hits_at_k) / 2
        baseline = kg_embed.random_baseline_hits_at_k(store.n_entities, k=10)
        print(f"\n  trained hits@10 {trained_hits:.3f} vs analytic random baseline {baseline:.3f}")
        assert trained_hits > baseline, (
            f"hits@10 is saturated at {trained_hits} on a {store.n_entities}-entity graph: "
            f"every rank is <= 10, so no scorer can strictly exceed the baseline {baseline}"
        )


# -- criterion 8: metric goldens -------------------------------------------------------------------


def test_criterion_8_metric_goldens():
    with criterion("8 metric golden cases"):
        assert ev.precision_recall({"a", "b", "c"}, {"a", "b", "c"}) == (1.0, 1.0)
        assert ev.precision_recall({"a", "b", "c", "d"}, {"a", "x"}) == (0.5, 0.25)
        assert ev.precision_recall({"a"}, set()) == (0.0, 0.0)

        pairs = [(qa.Booleans((True, False)), qa.Booleans((True, True)))]
        assert ev.exact_match_f1(pairs) == pytest.approx(0.5)
        assert ev.exact_match_f1([]) is None

        assert ev.bleu4("did you mean robbiate ?", "did you mean robbiate ?") == pytest.approx(1.0)
        # hand arithmetic: clipped 4/5, 3/4, 2/3, 1/2 with BP=1
        assert ev.bleu4(
            "did you mean robbiate ?", "did you mean robbiate !"
        ) == pytest.approx(0.2 ** 0.25, abs=1e-12)
        # an interior substitution kills every 4-gram: raw clipping gives 0
        assert ev.bleu4("did you mean robbiate ?", "did you mean kappeln ?") == 0.0
        assert ev.bleu4("no overlap here", "entirely different phrase") == 0.0

        records = [
            ev.EvalRecord(
                "Simple Question (Direct)",
                qa.Entities(frozenset({1, 2, 3})),
                qa.Entities(frozenset({1, 2, 3})),
            ),
            ev.EvalRecord(
                "Verification (Boolean) (All)",
                qa.Booleans((True, False)),
                qa.Booleans((True, True)),
            ),
            ev.EvalRecord(
                "Clarification (Natural Language Generation)",
                "did you mean robbiate ?",
                "did you mean kappeln ?",
            ),
        ]
        report = ev.aggregate(records)
        shuffled = list(records)
        random.Random(5).shuffle(shuffled)
        assert ev.aggregate(shuffled) == report
        perfect = next(r for r in report.rows if r.question_type == "Simple Question (Direct)")
        assert perfect.macro_precision == 1.0 and perfect.macro_recall == 1.0


# -- criterion 9: linker -----------------------------------------------------------------------


def test_criterion_9_linker(store, templates, big_corpus):
    with criterion("9 linker longest-match, completeness and recall accounting"):
        gaz = el.build_gazetteer(store)
        matches = el.link(gaz, "which rivers flow through india and china ?")
        assert [m.text for m in matches] == ["india", "china"]
        nd = el.link(gaz, "does new delhi belong to india ?")
        assert [m.text for m in nd] == ["new delhi", "india"]
        assert nd[0].entities == (store.entity_id("New Delhi"),)
        assert el.link(gaz, "no entities at all ?") == []

        rng = random.Random(0)
        for seed in range(3):
            synth = make_random_store(seed, n_tuples=300)
            matched = rng.sample(range(synth.n_entities), k=6)
            cands = el.candidate_tuples(synth, matched, cap=10**9)
            brute = {
                t
                for t in synth.tuples
                if t.subject in set(matched) or t.object in set(matched)
            }
            assert set(cands.tuples) == brute
            assert not cands.truncated

        sample = big_corpus.dialogs[:200]
        report = el.recall_report(store, gaz, sample, cap=10000)
        assert report.n_questions_with_gold > 0
        assert 0.0 <= report.micro_recall <= 1.0
        assert 0.0 <= report.macro_recall <= 1.0
        assert report.per_state
        print(
            f"\n  candidate recall over {report.n_questions_with_gold} questions: "
            f"micro {report.micro_recall:.3f}, macro {report.macro_recall:.3f}"
        )
