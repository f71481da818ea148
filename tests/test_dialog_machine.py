"""Dialog generation: linking, coreference, clarification, rendering."""

import hashlib
import itertools
import random
from collections import Counter

import pytest

from conftest import REPO, make_random_store
from kgdialog import dialog_machine as dm, query_algebra as qa, templates as tpl
from kgdialog.config import RunConfig
from kgdialog.kg_store import KgStore, Tuple


CFG = RunConfig(min_questions=5, max_questions=8)


def question_turns(turns):
    return [t for t in turns if t.speaker == "user" and t.state in dm.QUESTION_STATES]


def test_start_dialog_is_direct_and_answered(store, templates):
    turns, context = dm.start_dialog(store, templates, 1, CFG)
    user, system = turns[0], turns[1]
    assert user.speaker == "user" and user.state == dm.TurnState.SIMPLE_Q
    assert "that " not in user.utterance
    assert user.plan is not None
    assert system.speaker == "system" and system.state == dm.TurnState.RESPONSE
    assert system.answer == qa.execute(store, user.plan)
    assert context.salience


def test_start_dialog_same_seed_identical(store, templates):
    a, _ = dm.start_dialog(store, templates, 5, CFG)
    b, _ = dm.start_dialog(store, templates, 5, CFG)
    assert a == b


def test_start_dialog_without_templates_fails(store):
    with pytest.raises(dm.DialogError):
        dm.start_dialog(store, [], 0, CFG)


def test_generate_dialog_links_consecutive_questions(store, templates):
    for seed in range(12):
        turns = dm.generate_dialog(store, templates, seed, CFG)
        _assert_linked(store, turns)


def _pairs(turns):
    """(question turn, following turns up to the next question)."""
    out = []
    current = None
    for t in turns:
        if t.speaker == "user" and t.state in dm.QUESTION_STATES:
            if current is not None:
                out.append(current)
            current = [t]
        elif current is not None:
            current.append(t)
    if current is not None:
        out.append(current)
    return out


def _assert_linked(store, turns):
    pairs = _pairs(turns)
    for prev, nxt in zip(pairs, pairs[1:]):
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
            prev,
            nxt,
        )


def test_recorded_answers_replay_through_the_algebra(store, templates):
    for seed in range(8):
        turns = dm.generate_dialog(store, templates, seed, CFG)
        replayed = 0
        for t in turns:
            if t.plan is not None and t.answer is not None:
                assert qa.execute(store, t.plan) == t.answer
                replayed += 1
        assert replayed > 0


def test_generate_dialog_deterministic(store, templates):
    assert dm.generate_dialog(store, templates, 123, CFG) == dm.generate_dialog(
        store, templates, 123, CFG
    )


def test_clarifications_follow_ambiguity_and_resolve(store, templates):
    config = RunConfig(min_questions=6, max_questions=9, ambiguity_rate=1.0)
    seen_clarification = False
    for seed in range(30):
        turns = dm.generate_dialog(store, templates, seed, config)
        for i, t in enumerate(turns):
            if t.state == dm.TurnState.CLARIFICATION_Q:
                seen_clarification = True
                assert t.speaker == "system"
                assert t.utterance.startswith("Did you mean ")
                prev = turns[i - 1]
                assert prev.speaker == "user" and prev.plan is None
                assert "that " in prev.utterance
                nxt = turns[i + 1]
                assert nxt.state == dm.TurnState.CLARIFICATION_A
                assert nxt.speaker == "user"
                assert nxt.plan is not None
                response = turns[i + 2]
                assert response.state == dm.TurnState.RESPONSE
                assert response.answer == qa.execute(store, nxt.plan)
                # the corrected entity is spoken unless the guess was right
                if nxt.utterance != dm.CLARIFICATION_YES:
                    assert nxt.utterance.startswith("No, I meant ")
                    assert store.entity_label(nxt.entities[0]) in nxt.utterance
    assert seen_clarification


def test_coreference_mentions_resolve_to_previous_pair(store, templates):
    config = RunConfig(min_questions=6, max_questions=9, ambiguity_rate=0.0)
    seen = 0
    for seed in range(30):
        turns = dm.generate_dialog(store, templates, seed, config)
        pairs = _pairs(turns)
        for prev, nxt in zip(pairs, pairs[1:]):
            q = nxt[0]
            if q.state != dm.TurnState.COREFERENCE_Q:
                continue
            seen += 1
            prev_entities = {e for t in prev for e in t.entities}
            assert set(q.entities) <= prev_entities
    assert seen > 0


def _pair_plan_and_answer_entities(pair):
    """Entities a turn pair's plans mention or its system turns render."""
    out = set()
    for t in pair:
        if t.plan is not None:
            out |= qa.plan_entities(t.plan)
        if t.speaker == "system":
            out.update(t.entities)
    return out


def test_that_mentions_resolve_to_previous_plan_or_answer(store, templates):
    config = RunConfig(min_questions=6, max_questions=9, ambiguity_rate=0.3)
    seen = 0
    for seed in range(60):
        pairs = _pairs(dm.generate_dialog(store, templates, seed, config))
        for prev, nxt in zip(pairs, pairs[1:]):
            if nxt[0].state != dm.TurnState.COREFERENCE_Q:
                continue
            # an ambiguous mention is answered on its clarification turn
            asked = next(t for t in nxt if t.speaker == "user" and t.plan is not None)
            antecedent = qa.plan_lookups(asked.plan)[0].anchor
            assert antecedent in _pair_plan_and_answer_entities(prev), (seed, prev, nxt)
            seen += 1
    assert seen > 0


def _assert_question_entities_come_from_plans(turns):
    asked = [
        (t, qa.plan_entities(t.plan) if t.plan is not None else frozenset())
        for t in question_turns(turns)
    ]
    # no phantom entity first, then the id order
    for t, mentioned in asked:
        assert set(t.entities) == mentioned, t
    for t, mentioned in asked:
        assert t.entities == tuple(sorted(mentioned)), t


def test_question_entities_are_the_entities_of_their_plan(store, templates):
    config = RunConfig(min_questions=6, max_questions=9, ambiguity_rate=0.3)
    states = set()
    for seed in range(60):
        turns = dm.generate_dialog(store, templates, seed, config)
        _assert_question_entities_come_from_plans(turns)
        states.update(t.state for t in question_turns(turns))
    assert set(dm.QUESTION_STATES) <= states


def test_question_entities_are_the_entities_of_their_plan_on_random_stores():
    synth, synth_templates = _synthetic_dialog_setup(150)
    config = RunConfig(min_questions=6, max_questions=9)
    states = set()
    for seed in range(40):
        turns = dm.generate_dialog(synth, synth_templates, seed, config)
        _assert_question_entities_come_from_plans(turns)
        states.update(t.state for t in question_turns(turns))
    assert dm.TurnState.QUANTITATIVE_THRESHOLD_Q in states


def _context_after(store, templates, kind):
    """The context left by the first question of ``kind`` that follows an
    opening question."""
    config = RunConfig(transition_weights={k: float(k == kind) for k in dm.TRANSFORM_KINDS})
    for seed in range(50):
        rng = random.Random(seed)
        _, context = dm.start_dialog(store, templates, rng, config)
        step = dm.next_turn(store, templates, context, rng, config)
        if step is not None:
            return step[1]
    pytest.fail(f"no {kind} question over 50 seeds")


_DRAWN = {
    "threshold": (dm._build_threshold, lambda plan: plan.n),
    "comparative": (dm._build_comparative, lambda plan: plan.reference),
}


@pytest.mark.parametrize("kind", sorted(_DRAWN))
def test_grouped_questions_draw_fresh_numbers_and_references(store, templates, kind):
    # a threshold (comparative) turn must not pin n (the reference) of the
    # next one through the context it leaves
    build, drawn = _DRAWN[kind]
    context = _context_after(store, templates, kind)
    values = set()
    for seed in range(50):
        question = build(store, templates, context, random.Random(seed), CFG)
        if question is not None:
            values.add(drawn(question.instantiation.plan))
    assert len(values) > 1, values


# -- resolve_coreference ----------------------------------------------------------------


def _context_for(store, question_entities, answer_entities):
    return dm.DialogContext(
        salience=tuple(dict.fromkeys((*answer_entities, *question_entities))),
        last_question_entities=tuple(question_entities),
        last_answer_entities=tuple(answer_entities),
    )


def test_resolve_unique_singleton(store, ids):
    context = _context_for(store, [ids["India"]], [ids["Ganga"]])
    assert dm.resolve_coreference(store, context, "that river") == ids["Ganga"]
    assert dm.resolve_coreference(store, context, "that country") == ids["India"]


def test_resolve_ambiguous_lists_answer_candidates(store, ids):
    context = _context_for(
        store, [ids["India"]], [ids["Ganga"], ids["Yamuna"], ids["Brahmaputra"]]
    )
    result = dm.resolve_coreference(store, context, "that river")
    assert isinstance(result, dm.Ambiguous)
    assert set(result.candidates) == {ids["Ganga"], ids["Yamuna"], ids["Brahmaputra"]}


def test_resolve_without_candidate_is_an_error(store, ids):
    context = _context_for(store, [ids["India"]], [ids["Ganga"]])
    with pytest.raises(dm.DialogError):
        dm.resolve_coreference(store, context, "that city")


# -- clarification_exchange ----------------------------------------------------------------


def _pending_context(store, templates, ids, intended):
    river = next(t for t in templates if t.id == "country_of_river")
    candidates = (ids["Ganga"], ids["Yamuna"], ids["Brahmaputra"])
    pending = dm.PendingClarification(
        candidates=candidates,
        intended=intended,
        template=river,
    )
    return dm.DialogContext(
        salience=candidates,
        last_answer_entities=candidates,
        pending=pending,
    )


def test_clarification_no_branch(store, templates, ids):
    context = _pending_context(store, templates, ids, intended=ids["Yamuna"])
    # seed chosen so the guess differs from the intended entity
    for seed in range(10):
        turns, new_context = dm.clarification_exchange(
            store, context, None, random.Random(seed), CFG
        )
        guess = turns[0].entities[0]
        if guess == ids["Yamuna"]:
            continue
        assert turns[0].utterance == f"Did you mean {store.entity_label(guess)} ?"
        assert turns[1].utterance == "No, I meant Yamuna. Could you tell me the answer for that?"
        assert turns[2].state == dm.TurnState.RESPONSE
        assert turns[2].utterance == "India"
        assert new_context.pending is None
        return
    pytest.fail("no differing guess over 10 seeds")


def test_clarification_yes_branch(store, templates, ids):
    context = _pending_context(store, templates, ids, intended=ids["Yamuna"])
    for seed in range(10):
        turns, _ = dm.clarification_exchange(store, context, None, random.Random(seed), CFG)
        if turns[0].entities[0] == ids["Yamuna"]:
            assert turns[1].utterance == dm.CLARIFICATION_YES
            return
    pytest.fail("no matching guess over 10 seeds")


def test_clarification_requires_valid_intended(store, templates, ids):
    context = _pending_context(store, templates, ids, intended=ids["Yamuna"])
    with pytest.raises(dm.DialogError):
        dm.clarification_exchange(store, context, ids["Beijing"], random.Random(0), CFG)


# -- render_response ----------------------------------------------------------------------


def test_render_small_entity_set(store, ids):
    answer = qa.Entities(frozenset({ids["Ganga"], ids["Yamuna"], ids["Brahmaputra"]}))
    rendered = dm.render_response(store, answer, display_limit=10)
    assert rendered.utterance == "Ganga, Yamuna, Brahmaputra"
    assert rendered.followups == ()


def _wide_store(n_objects: int) -> KgStore:
    entity_labels = ["Hub"] + [f"Leaf{i}" for i in range(n_objects)]
    tuples = [Tuple(0, 0, i + 1) for i in range(n_objects)]
    types = {0: frozenset({0})}
    types.update({i + 1: frozenset({1}) for i in range(n_objects)})
    return KgStore(tuples, entity_labels, ["points_at"], ["hub", "leaf"], types)


def test_render_large_entity_set_negotiates(store):
    wide = _wide_store(11)
    answer = qa.Entities(frozenset(range(1, 12)))
    rendered = dm.render_response(wide, answer, display_limit=10, sample_size=10, rng=random.Random(0))
    assert rendered.utterance == "The answer count is 11. Do you want to see all possibilities?"
    assert len(rendered.followups) == 2
    decline, listing = rendered.followups
    assert decline.speaker == "user"
    assert decline.state == dm.TurnState.LARGE_ANSWER_NEGOTIATION
    assert decline.utterance == "No, show only a few of them"
    assert listing.speaker == "system" and listing.state == dm.TurnState.RESPONSE
    assert len(listing.entities) == 10
    assert set(listing.entities) <= answer.members


def test_render_counts_and_booleans(store, ids):
    assert dm.render_response(store, qa.Counts(((None, 3),))).utterance == "3"
    labeled = qa.Counts(((ids["river"], 3), (ids["city"], 1)))
    assert dm.render_response(store, labeled).utterance == "3 rivers and 1 city"
    assert dm.render_response(store, qa.Booleans((True,))).utterance == "YES"
    assert dm.render_response(store, qa.Booleans((True, False))).utterance == "YES and NO respectively"
    assert (
        dm.render_response(store, qa.Booleans((False, True, True))).utterance
        == "NO, YES and YES respectively"
    )


def test_render_counts_as_words(store):
    assert dm.render_response(store, qa.Counts(((None, 31),)), words=True).utterance == "thirty-one"


def test_generator_covers_every_question_state(store, templates):
    config = RunConfig(min_questions=6, max_questions=9, ambiguity_rate=0.3)
    seen = set()
    for seed in range(120):
        for t in dm.generate_dialog(store, templates, seed, config):
            seen.add(t.state)
    expected = set(dm.QUESTION_STATES) | {
        dm.TurnState.RESPONSE,
        dm.TurnState.CLARIFICATION_Q,
        dm.TurnState.CLARIFICATION_A,
    }
    assert expected <= seen


def test_transition_weights_steer_question_mix(store, templates):
    boolean_heavy = RunConfig(
        min_questions=6,
        max_questions=8,
        transition_weights={k: (50.0 if k == "boolean" else 0.01) for k in dm.TRANSFORM_KINDS},
    )
    states = []
    for seed in range(10):
        turns = dm.generate_dialog(store, templates, seed, boolean_heavy)
        states.extend(t.state for t in question_turns(turns))
    non_initial = [s for s in states if s != dm.TurnState.SIMPLE_Q]
    assert non_initial
    boolean_share = sum(1 for s in non_initial if s == dm.TurnState.BOOLEAN_Q) / len(non_initial)
    assert boolean_share > 0.9


# written out by hand, in the order next_turn offers the kinds, as the
# reference for dm.QUESTION_KINDS
_KIND_STATES = {
    "direct": {dm.TurnState.SIMPLE_Q},
    "coreference": {dm.TurnState.COREFERENCE_Q},
    "ellipsis": {dm.TurnState.ELLIPSIS_Q},
    "logical": {dm.TurnState.LOGICAL_Q},
    "count": {dm.TurnState.QUANTITATIVE_COUNT_Q},
    "argopt": {dm.TurnState.QUANTITATIVE_ARGOPT_Q},
    "threshold": {dm.TurnState.QUANTITATIVE_THRESHOLD_Q},
    "comparative": {dm.TurnState.COMPARATIVE_Q, dm.TurnState.COMPARATIVE_COUNT_Q},
    "boolean": {dm.TurnState.BOOLEAN_Q},
    None: set(),
}


def test_question_kinds_ask_in_their_states_in_offer_order():
    rows = [(k.name, set(k.states)) for k in dm.QUESTION_KINDS]
    assert rows == [(k, v) for k, v in _KIND_STATES.items() if k is not None]
    assert dm.TRANSFORM_KINDS == tuple(k for k in _KIND_STATES if k is not None)
    assert dm.QUESTION_STATES == frozenset().union(*_KIND_STATES.values())


@pytest.mark.parametrize("only", list(_KIND_STATES))
def test_zero_weight_kinds_are_never_tried_and_never_crash(store, templates, only):
    # with every other weight 0, generation used to fail with "Total of
    # weights must be greater than zero" once the one positive kind failed
    weights = {k: (1.0 if k == only else 0.0) for k in dm.TRANSFORM_KINDS}
    config = RunConfig(transition_weights=weights)
    allowed = _KIND_STATES[only]
    asked = set()
    for seed in range(100):
        turns = dm.generate_dialog(store, templates, seed, config)
        later = [t.state for t in question_turns(turns)][1:]
        assert set(later) <= allowed, (seed, later)
        asked.update(later)
    assert bool(asked) == bool(allowed)


def _wide_linked_store(n_hubs=3, n_leaves=40, per_hub=25, seed=0):
    labels = [f"Hub{h}" for h in range(n_hubs)] + [f"Leaf{i}" for i in range(n_leaves)]
    types = {h: frozenset({0}) for h in range(n_hubs)}
    types.update({n_hubs + i: frozenset({1}) for i in range(n_leaves)})
    rng = random.Random(seed)
    tuples = [
        Tuple(0, h, n_hubs + i)
        for h in range(n_hubs)
        for i in rng.sample(range(n_leaves), per_hub)
    ]
    store = KgStore(tuples, labels, ["linked_to"], ["hub", "leaf"], types)
    records = [
        {
            "id": "hub_leaves",
            "direction": "object_based",
            "paraphrase_group": "pg1",
            "surface": {
                "singular": "Which ⟨object_type⟩ is linked to ⟨entity:1⟩ ?",
                "plural": "Which ⟨object_type+pl⟩ are linked to ⟨entity:1⟩ ?",
            },
            "plan_schema": "Retrieve(Lookup(obj, ⟨relation⟩, ⟨entity:1⟩, ⟨object_type⟩))",
            "fixed": {"relation": "linked_to", "subject_type": "hub", "object_type": "leaf"},
        },
        {
            "id": "leaf_hubs",
            "direction": "subject_based",
            "paraphrase_group": "pg2",
            "surface": {
                "singular": "Which ⟨subject_type⟩ links to ⟨entity:1⟩ ?",
                "plural": "Which ⟨subject_type+pl⟩ link to ⟨entity:1⟩ ?",
            },
            "plan_schema": "Retrieve(Lookup(subj, ⟨relation⟩, ⟨entity:1⟩, ⟨subject_type⟩))",
            "fixed": {"relation": "linked_to", "subject_type": "hub", "object_type": "leaf"},
        },
    ]
    return store, [tpl.template_from_record(r) for r in records]


def test_generated_negotiations_follow_the_protocol():
    """On a store with large answers the generator emits negotiation
    sub-dialogs whose sample stays inside the full recorded answer."""
    store, wide_templates = _wide_linked_store()
    config = RunConfig(min_questions=6, max_questions=9, ambiguity_rate=0.4)
    negotiations = 0
    for seed in range(30):
        turns = dm.generate_dialog(store, wide_templates, seed, config)
        _assert_linked(store, turns)
        for t in turns:
            if t.plan is not None and t.answer is not None:
                assert qa.execute(store, t.plan) == t.answer
        for i, t in enumerate(turns):
            if t.state != dm.TurnState.LARGE_ANSWER_NEGOTIATION:
                continue
            negotiations += 1
            assert t.speaker == "user"
            assert t.utterance == dm.NEGOTIATION_DECLINE
            opener = turns[i - 1]
            assert opener.state == dm.TurnState.RESPONSE
            assert opener.utterance.startswith("The answer count is ")
            assert opener.answer is not None
            assert opener.utterance.startswith(
                f"The answer count is {len(opener.answer.members)}."
            )
            listing = turns[i + 1]
            assert listing.state == dm.TurnState.RESPONSE
            assert 0 < len(listing.entities) <= config.sample_size
            assert set(listing.entities) <= opener.answer.members
    assert negotiations > 0


def test_generation_works_on_random_stores(templates):
    # templates are label-driven, so re-author minimal ones for the synthetic store
    synth = make_random_store(3, n_tuples=120, n_relations=2, n_types=2)
    record = {
        "id": "rel0_objects",
        "direction": "object_based",
        "paraphrase_group": "pg0",
        "surface": {
            "singular": "Which ⟨object_type⟩ is linked by rel0 to ⟨entity:1⟩ ?",
            "plural": "Which ⟨object_type+pl⟩ are linked by rel0 to ⟨entity:1⟩ ?",
        },
        "plan_schema": "Retrieve(Lookup(obj, ⟨relation⟩, ⟨entity:1⟩, ⟨object_type⟩))",
        "fixed": {"relation": "rel0", "subject_type": "type0", "object_type": "type1"},
    }
    synth_templates = [tpl.template_from_record(record)]
    turns = dm.generate_dialog(synth, synth_templates, 0, RunConfig(min_questions=4, max_questions=6))
    assert len(question_turns(turns)) >= 1
    _assert_linked(synth, turns)


# -- lazy candidate sampling ----------------------------------------------------------------


@pytest.mark.parametrize(
    "sizes", [(), (0,), (1,), (3,), (5, 0, 2), (0, 7, 1, 0, 4), (40,), (13, 29)]
)
def test_random_candidates_yield_every_candidate_once(sizes):
    segments = [(k, tuple(range(100 * k, 100 * k + n))) for k, n in enumerate(sizes)]
    expected = sorted((k, m) for k, members in segments for m in members)
    for seed in range(5):
        got = list(dm.random_candidates(random.Random(seed), segments))
        assert sorted(got) == expected
        assert len(got) == len(expected)


def test_random_candidates_reach_every_order():
    segments = [("a", (0, 1)), ("b", (2,))]
    orders = {
        tuple(m for _, m in dm.random_candidates(random.Random(seed), segments))
        for seed in range(60)
    }
    assert orders == set(itertools.permutations(range(3)))


def test_random_candidates_first_pick_is_uniform_over_all_members():
    # segment sizes 1 and 3: the first pick comes from the larger one about
    # three times in four, not once in two
    segments = [("small", (0,)), ("large", (1, 2, 3))]
    firsts = Counter(
        next(dm.random_candidates(random.Random(seed), segments))[1] for seed in range(4000)
    )
    assert set(firsts) == {0, 1, 2, 3}
    assert all(850 < n < 1150 for n in firsts.values()), firsts


def test_random_candidates_draw_once_per_yield():
    rng = CountingRandom(0)
    candidates = dm.random_candidates(rng, [(None, range(10**6))])
    for _ in range(5):
        next(candidates)
    assert rng.draws <= 5 * 3  # rejection sampling may redraw a few bits


class CountingRandom(random.Random):
    """A seeded Random that counts the draws made from it."""

    def __init__(self, seed):
        self.draws = 0
        super().__init__(seed)

    def random(self):
        self.draws += 1
        return super().random()

    def getrandbits(self, k):
        self.draws += 1
        return super().getrandbits(k)


def _synthetic_dialog_setup(n_entities):
    synth = make_random_store(
        11, n_tuples=3 * n_entities, n_relations=2, n_types=2, n_entities=n_entities
    )
    record = {
        "id": "rel0_objects",
        "direction": "object_based",
        "paraphrase_group": "pg0",
        "surface": {
            "singular": "Which ⟨object_type⟩ is linked by rel0 to ⟨entity:1⟩ ?",
            "plural": "Which ⟨object_type+pl⟩ are linked by rel0 to ⟨entity:1⟩ ?",
        },
        "plan_schema": "Retrieve(Lookup(obj, ⟨relation⟩, ⟨entity:1⟩, ⟨object_type⟩))",
        "fixed": {"relation": "rel0", "subject_type": "type0", "object_type": "type1"},
    }
    return synth, [tpl.template_from_record(record)]


def _draws_per_turn(n_entities, seeds):
    store, templates = _synthetic_dialog_setup(n_entities)
    config = RunConfig(min_questions=6, max_questions=6)
    draws = turns = 0
    for seed in seeds:
        rng = CountingRandom(seed)
        _, context = dm.start_dialog(store, templates, rng, config)
        turns += 1
        for _ in range(5):
            step = dm.next_turn(store, templates, context, rng, config)
            if step is None:
                break
            _, context = step
            turns += 1
            if context.pending is not None:
                _, context = dm.clarification_exchange(store, context, None, rng, config)
        draws += rng.draws
    return draws / turns


def test_draws_per_turn_do_not_grow_with_type_size():
    small = _draws_per_turn(150, range(12))
    large = _draws_per_turn(1500, range(12))
    # shuffling every candidate would cost hundreds of draws per turn on the
    # small store and ten times that on the large one
    assert large < 2 * small + 5, (small, large)


def test_count_falls_back_to_other_members_when_the_anchor_gives_no_question(store, templates, ids):
    # a river cannot anchor "how many cities are the capital of ...", so the
    # count question moves to the members of the anchor type
    base = next(t for t in templates if t.id == "capital_city")
    counted = tpl.transform_to_count(base)
    nile = ids["Nile"]
    with pytest.raises(tpl.TemplateError):
        tpl.instantiate(store, counted, {base.anchor_slot(): nile})
    context = dm.DialogContext(
        salience=(nile,), last_template=base, last_retrieve_template=base, last_anchor=nile
    )
    anchors = set()
    for seed in range(20):
        question = dm._build_count(store, templates, context, random.Random(seed), CFG)
        assert question.state == dm.TurnState.QUANTITATIVE_COUNT_Q
        assert question.template.id == counted.id
        anchors |= {lookup.anchor for lookup in qa.plan_lookups(question.instantiation.plan)}
    assert anchors == {ids["India"], ids["China"], ids["Egypt"]}


# -- grouped candidates that cannot fit are skipped ---------------------------------------


def _grouped_setups(monkeypatch, templates):
    """(store, retrieve templates) pairs: random stores, and a heavy-tailed
    synthetic graph with the fixture's templates."""
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    import graphgen

    synthetic = _synthetic_dialog_setup(150)[1]
    for seed in (11, 12, 13):
        yield make_random_store(seed, n_tuples=450, n_relations=2, n_types=2, n_entities=150), synthetic
    yield graphgen.make_graph(7, 1800, "heavy"), [t for t in templates if t.kind == "Retrieve"]


def _asked(build, store, base, seed, config):
    """What a builder asks from a context whose base is ``base``, and the
    RNG state it leaves."""
    context = dm.DialogContext(last_template=base, last_retrieve_template=base)
    rng = random.Random(seed)
    question = build(store, [base], context, rng, config)
    if question is None:
        return None, rng.getstate()
    inst = question.instantiation
    return (question.state, inst.plan, inst.answer, inst.question), rng.getstate()


@pytest.mark.parametrize("answer_cap, include_zero", itertools.product([2, 5, 1000], [True, False]))
def test_skipping_grouped_candidates_that_cannot_fit_asks_the_same_question(
    monkeypatch, templates, answer_cap, include_zero
):
    # the unfiltered builders are the filtered ones with every candidate fitting
    config = RunConfig(
        answer_cap=answer_cap, sample_size=2, display_limit=2, include_zero_groups=include_zero
    )
    instantiate = tpl.instantiate
    calls = Counter()

    def counted(*args, **kwargs):
        built = instantiate(*args, **kwargs)
        calls[mode, isinstance(built, tpl.Rejection)] += 1
        return built

    monkeypatch.setattr(tpl, "instantiate", counted)
    asked = 0
    for store, bases in _grouped_setups(monkeypatch, templates):
        for base, build, seed in itertools.product(bases, (dm._build_threshold, dm._build_comparative), range(6)):
            mode = "filtered"
            filtered = _asked(build, store, base, seed, config)
            mode = "unfiltered"
            with monkeypatch.context() as m:
                m.setattr(dm, "_fits", lambda *args: True)
                unfiltered = _asked(build, store, base, seed, config)
            assert filtered == unfiltered, (base.id, build.__name__, seed)
            asked += filtered[0] is not None
    assert asked > 0
    # a rejection here is one for the answer's size, which the filter foresees
    assert calls["filtered", True] == 0 < calls["unfiltered", True], calls


SIZED_CORPUS_SHA256 = "5f6be05213e252c4f87f16f0a187a4965e17a5c1cc5475efeba5a33d1acdb324"


def test_grouped_builders_instantiate_no_candidate_of_a_rejected_size(monkeypatch, templates, tmp_path):
    # 40 dialogs on a 6,097-tuple graph.  Before the builders sized their
    # candidates, they instantiated 26 that were rejected for their size:
    # 15 thresholds and 6 comparatives hit answer_cap, 5 comparatives were
    # empty.  Skipping them leaves the corpus as it was, byte for byte.
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    import graphgen

    from kgdialog import dataset_pipeline as dp

    instantiate = tpl.instantiate
    rejected = Counter()

    def counted(store, template, *args, **kwargs):
        built = instantiate(store, template, *args, **kwargs)
        if isinstance(built, tpl.Rejection) and ("#th_" in template.id or "#cmp_" in template.id):
            rejected[template.id, built.reason] += 1
        return built

    monkeypatch.setattr(tpl, "instantiate", counted)
    store = graphgen.make_graph(1, 6000, "uniform")
    corpus = dp.generate_corpus(store, templates, 40, RunConfig(seed=1), seed=1)
    assert rejected == Counter()
    path = tmp_path / "dialogs.jsonl"
    dp.write_corpus(corpus, store, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SIZED_CORPUS_SHA256

