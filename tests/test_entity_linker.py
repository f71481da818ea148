"""Gazetteer construction, longest-match linking, candidate retrieval."""

import dataclasses

import pytest

from conftest import brute_fanout, make_random_store
from kgdialog import dataset_pipeline as pipe, entity_linker as el
from kgdialog.config import RunConfig
from kgdialog.kg_store import KgStore, Tuple, UnknownIdError


def test_gazetteer_indexes_every_entity_label(store):
    gaz = el.build_gazetteer(store)
    assert len(gaz.entries) == 10
    for e in range(store.n_entities):
        assert [e in m.entities for m in el.link(gaz, store.entity_label(e))] == [True]
    assert gaz.max_len == 2  # "New Delhi"


def test_gazetteer_empty_store():
    empty = KgStore([], [], [], [], {})
    gaz = el.build_gazetteer(empty)
    assert gaz.entries == {}


def test_normalization_matches_variants(store):
    gaz = el.build_gazetteer(store)
    nd = store.entity_id("New Delhi")
    for variant in ("new delhi", "New   Delhi", "NEW-DELHI"):
        assert [m.entities for m in el.link(gaz, variant)] == [(nd,)]


def test_link_finds_entities_in_question(store, ids):
    gaz = el.build_gazetteer(store)
    matches = el.link(gaz, "which rivers flow through india and china ?")
    assert [m.entities for m in matches] == [(ids["India"],), (ids["China"],)]


def test_link_prefers_longest_match(store):
    gaz = el.build_gazetteer(store, aliases=[(store.entity_id("India"), "new")])
    # "new" alone is now an entity alias, but the bigram must win
    matches = el.link(gaz, "does new delhi border anything ?")
    assert [m.text for m in matches] == ["new delhi"]
    assert matches[0].entities == (store.entity_id("New Delhi"),)
    # the unigram still matches when the bigram cannot
    matches = el.link(gaz, "a new start")
    assert [m.text for m in matches] == ["new"]


def test_link_no_entities(store):
    gaz = el.build_gazetteer(store)
    assert el.link(gaz, "nothing to see here ?") == []


def test_aliases_extend_the_gazetteer(store, tmp_path, ids):
    path = tmp_path / "aliases.tsv"
    path.write_text(f"{ids['Ganga']}\tGanges\n")
    gaz = el.build_gazetteer(store, el.load_aliases(path, store))
    assert [m.entities for m in el.link(gaz, "ganges")] == [(ids["Ganga"],)]


def test_candidate_tuples_for_india(store, ids):
    cands = el.candidate_tuples(store, [ids["India"]], cap=10000)
    assert len(cands.tuples) == 4
    assert not cands.truncated
    assert set(cands.tuples) == brute_fanout(store, ids["India"])


def test_candidate_cap_truncates_round_robin(store, ids):
    cands = el.candidate_tuples(store, [ids["India"], ids["China"]], cap=3)
    assert len(cands.tuples) == 3
    assert cands.truncated
    touched = {ids["India"], ids["China"]}
    for t in cands.tuples:
        assert {t.subject, t.object} & touched


def test_rare_entities_survive_truncation():
    # hub touches 50 tuples, rare only 1: under a small cap the rare
    # entity's tuple must still be present
    tuples = [Tuple(0, 0, i + 2) for i in range(50)] + [Tuple(0, 1, 52)]
    labels = ["Hub", "Rare"] + [f"X{i}" for i in range(51)]
    types = {i: frozenset({0}) for i in range(len(labels))}
    s = KgStore(tuples, labels, ["rel"], ["thing"], types)
    cands = el.candidate_tuples(s, [0, 1], cap=4)
    assert cands.truncated
    assert Tuple(0, 1, 52) in cands.tuples


def test_candidate_set_with_an_id_outside_int64_names_the_tuple():
    with pytest.raises(UnknownIdError, match=r"^tuple \(0, 9223372036854775808, 3\) holds an id outside int64$"):
        el.CandidateSet((), [Tuple(0, 2**63, 3)], False)


def test_empty_match_list(store):
    cands = el.candidate_tuples(store, [], cap=5)
    assert cands.tuples == ()
    assert not cands.truncated


@pytest.mark.parametrize("seed", [0, 1])
def test_completeness_under_unbounded_cap(seed):
    s = make_random_store(seed, n_tuples=300)
    import random

    rng = random.Random(seed)
    matched = rng.sample(range(s.n_entities), k=5)
    cands = el.candidate_tuples(s, matched, cap=10**9)
    brute = {t for t in s.tuples if t.subject in set(matched) or t.object in set(matched)}
    assert set(cands.tuples) == brute
    assert not cands.truncated


def sort_per_call_candidates(store, matched, cap):
    """candidate_tuples as it was before fanouts were cached: each call
    sorts every matched entity's whole fanout."""
    entities = list(dict.fromkeys(matched))
    pools = {e: sorted(brute_fanout(store, e)) for e in entities}
    order = sorted(entities, key=lambda e: (len(pools[e]), e))
    pending = [iter(pools[e]) for e in order]
    chosen, seen = [], set()
    while pending:
        live = []
        for tuples in pending:
            for t in tuples:
                if t not in seen:
                    break
            else:
                continue
            if len(chosen) >= cap:
                return tuple(chosen), True
            chosen.append(t)
            seen.add(t)
            live.append(tuples)
        pending = live
    return tuple(chosen), False


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("cap", [7, 40, 10**9])
def test_candidate_tuples_equal_the_sort_per_call_version(seed, cap):
    import random

    s = make_random_store(seed, n_tuples=400)
    rng = random.Random(seed)
    for _ in range(20):
        matched = [rng.randrange(s.n_entities) for _ in range(rng.randint(1, 6))]
        got = el.candidate_tuples(s, matched, cap)
        assert (got.tuples, got.truncated) == sort_per_call_candidates(s, matched, cap)


def test_recall_report_on_toy_corpus(store, templates):
    corpus = pipe.generate_corpus(
        store, templates, 20, RunConfig(min_questions=4, max_questions=6), seed=5
    )
    gaz = el.build_gazetteer(store)
    report = el.recall_report(store, gaz, corpus.dialogs, cap=10000)
    assert report.n_questions > 0
    assert report.n_questions_with_gold > 0
    assert 0.0 <= report.micro_recall <= 1.0
    assert 0.0 <= report.macro_recall <= 1.0
    assert report.per_state
    # context off can only lower (or keep) recall
    without = el.recall_report(store, gaz, corpus.dialogs, cap=10000, use_context=False)
    assert without.micro_recall <= report.micro_recall + 1e-12


def test_recall_report_looks_for_a_plan_only_in_the_question_s_own_turn_pair(store, templates):
    dialog = pipe.generate_corpus(store, templates, 30, RunConfig(), seed=7).dialogs[0]
    question, response = dialog.turns[:2]
    assert (question.state.value, response.state.value) == ("SimpleQ", "Response")
    assert question.plan is not None and response.plan == question.plan
    gaz = el.build_gazetteer(store)

    def report(*turns):
        edited = dataclasses.replace(dialog, turns=(*turns, *dialog.turns[2:]))
        return el.recall_report(store, gaz, [edited])

    full = report(question, response)
    assert (full.n_questions, full.n_questions_with_gold) == (9, 7)
    assert full.per_state["SimpleQ"] == 1.0
    # the response still carries the plan, inside the opening pair
    assert report(dataclasses.replace(question, plan=None), response) == full
    # with no plan in the opening pair, the opening question has no gold; the
    # next question's ComparativeQ plan must not be scored against it
    unplanned = report(*(dataclasses.replace(t, plan=None) for t in (question, response)))
    assert (unplanned.n_questions, unplanned.n_questions_with_gold) == (9, 6)
    assert unplanned.per_state["SimpleQ"] == 1.0
