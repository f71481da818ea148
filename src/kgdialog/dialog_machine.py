"""Sequential dialog synthesis over a tuple store.

Chains instantiated questions into a coherent dialog: every question after
the first shares an entity or a relation with the immediately preceding
question, coreferent mentions ("that river") resolve against the previous
turn pair, ambiguous mentions open a clarification exchange, and oversized
answers trigger a negotiation sub-dialog.  Generation is fully driven by a
seeded RNG, so identical inputs give byte-identical dialogs.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Callable, Iterator, Mapping, Sequence

from . import plan_text, query_algebra as qa, templates as tpl
from .config import RunConfig
from .kg_store import KgStore
from .text import number_words, pluralize


class DialogError(ValueError):
    pass


class TurnState(str, Enum):
    SIMPLE_Q = "SimpleQ"
    COREFERENCE_Q = "CoreferenceQ"
    ELLIPSIS_Q = "EllipsisQ"
    LOGICAL_Q = "LogicalQ"
    QUANTITATIVE_COUNT_Q = "QuantitativeCountQ"
    QUANTITATIVE_ARGOPT_Q = "QuantitativeArgOptQ"
    QUANTITATIVE_THRESHOLD_Q = "QuantitativeThresholdQ"
    COMPARATIVE_Q = "ComparativeQ"
    COMPARATIVE_COUNT_Q = "ComparativeCountQ"
    BOOLEAN_Q = "BooleanQ"
    CLARIFICATION_Q = "ClarificationQ"
    CLARIFICATION_A = "ClarificationA"
    LARGE_ANSWER_NEGOTIATION = "LargeAnswerNegotiation"
    RESPONSE = "Response"


_ELLIPSIS_BANK = (
    "And what about {entity}?",
    "And how about {entity}?",
    "And also tell me about {entity}?",
)

NEGOTIATION_PROMPT = "The answer count is {n}. Do you want to see all possibilities?"
NEGOTIATION_DECLINE = "No, show only a few of them"
CLARIFICATION_PROMPT = "Did you mean {entity} ?"
CLARIFICATION_NO = "No, I meant {entity}. Could you tell me the answer for that?"
CLARIFICATION_YES = "Yes."


@dataclass(frozen=True)
class DialogTurn:
    speaker: str  # "user" | "system"
    state: TurnState
    utterance: str
    entities: tuple[int, ...] = ()
    plan: qa.QueryPlan | None = None
    answer: qa.AnswerSet | None = None


@dataclass(frozen=True)
class PendingClarification:
    candidates: tuple[int, ...]
    intended: int
    template: tpl.QuestionTemplate


@dataclass(frozen=True)
class DialogContext:
    """Linking state carried between turn pairs.

    ``salience`` lists entities from the previous turn pair, most recent
    first (answer entities as rendered, then question entities).
    ``last_anchor`` is the anchor of the first lookup of the last question
    whose plan has one; a grouped or verify question carries it on, as it
    carries ``last_retrieve_template``.  Derived questions bind it to the
    anchor slot of ``last_retrieve_template`` and nothing else.
    """

    salience: tuple[int, ...] = ()
    last_relations: frozenset[int] = frozenset()
    last_question_entities: tuple[int, ...] = ()
    last_answer_entities: tuple[int, ...] = ()
    last_template: tpl.QuestionTemplate | None = None
    last_retrieve_template: tpl.QuestionTemplate | None = None
    last_anchor: int | None = None
    pending: PendingClarification | None = None


@dataclass(frozen=True)
class Ambiguous:
    candidates: tuple[int, ...]


@dataclass(frozen=True)
class RenderedResponse:
    utterance: str
    entities: tuple[int, ...]
    followups: tuple[DialogTurn, ...] = ()


# -- response rendering -----------------------------------------------------------


def render_response(
    store: KgStore,
    answer: qa.AnswerSet,
    display_limit: int = 10,
    sample_size: int = 10,
    rng: random.Random | None = None,
    words: bool = False,
) -> RenderedResponse:
    """Render an answer set into a system utterance.

    Entity answers up to ``display_limit`` are comma-joined labels; larger
    ones become a count sentence plus a negotiation pair whose system turn
    lists a seeded sample.  Counts render as numerals (or number words when
    ``words`` is set), booleans as YES/NO with a trailing "respectively"
    when several facts were asked at once.
    """
    if isinstance(answer, qa.Entities):
        members = sorted(answer.members)
        if len(members) <= display_limit:
            return RenderedResponse(_labels(store, members), tuple(members))
        rng = rng or random.Random(0)
        sample = sorted(rng.sample(members, sample_size))
        followups = (
            DialogTurn("user", TurnState.LARGE_ANSWER_NEGOTIATION, NEGOTIATION_DECLINE),
            DialogTurn(
                "system",
                TurnState.RESPONSE,
                _labels(store, sample),
                tuple(sample),
                None,
                answer,
            ),
        )
        return RenderedResponse(
            NEGOTIATION_PROMPT.format(n=len(members)), tuple(sample), followups
        )
    if isinstance(answer, qa.Counts):
        return RenderedResponse(_render_counts(store, answer, words), ())
    if isinstance(answer, qa.Booleans):
        tokens = ["YES" if v else "NO" for v in answer.values]
        if len(tokens) == 1:
            return RenderedResponse(tokens[0], ())
        joined = ", ".join(tokens[:-1]) + " and " + tokens[-1]
        return RenderedResponse(f"{joined} respectively", ())
    raise DialogError(f"cannot render {type(answer).__name__}")


def render_answer(
    store: KgStore, answer: qa.AnswerSet, config: RunConfig, rng: random.Random
) -> RenderedResponse:
    """``render_response`` under the run's rendering settings."""
    return render_response(
        store, answer, config.display_limit, config.sample_size, rng, config.number_words
    )


def _labels(store: KgStore, entities: Sequence[int]) -> str:
    return ", ".join(store.entity_label(e) for e in entities)


def _render_counts(store: KgStore, answer: qa.Counts, words: bool) -> str:
    def num(n: int) -> str:
        return number_words(n) if words else str(n)

    if len(answer.counts) == 1 and answer.counts[0][0] is None:
        return num(answer.counts[0][1])
    parts = []
    for ty, n in answer.counts:
        label = store.type_label(ty) if ty is not None else ""
        if label:
            label = label if n == 1 else pluralize(label)
            parts.append(f"{num(n)} {label}")
        else:
            parts.append(num(n))
    return " and ".join(parts)


# -- coreference ---------------------------------------------------------------------


def resolve_coreference(
    store: KgStore, context: DialogContext, mention: str
) -> int | Ambiguous:
    """Resolve "that ⟨type⟩" against the previous turn pair.

    Unique if exactly one salient entity carries the mentioned type;
    otherwise ambiguous with the type-compatible candidates from the last
    system response.  No candidate at all is an error: the generator must
    never emit such a mention.
    """
    label = mention.strip()
    if label.lower().startswith("that "):
        label = label[5:].strip()
    ty = store.type_id(label)
    matches = [e for e in context.salience if store.has_type(e, ty)]
    if not matches:
        raise DialogError(f"no antecedent for mention {mention!r}")
    if len(matches) == 1:
        return matches[0]
    from_answer = [e for e in context.last_answer_entities if store.has_type(e, ty)]
    candidates = from_answer if len(from_answer) >= 2 else matches
    return Ambiguous(tuple(dict.fromkeys(candidates)))


# -- question construction helpers ------------------------------------------------------


def _linked(context: DialogContext, plan: qa.QueryPlan) -> bool:
    if qa.plan_entities(plan).intersection(context.salience):
        return True
    return bool(context.last_relations & qa.plan_relations(plan))


@dataclass(frozen=True)
class _Question:
    state: TurnState
    instantiation: tpl.Instantiation
    template: tpl.QuestionTemplate
    ambiguous: PendingClarification | None = None
    retrieve_base: tpl.QuestionTemplate | None = None


def _respond_turns(
    store: KgStore,
    question: _Question,
    rng: random.Random,
    config: RunConfig,
    previous: DialogContext,
) -> tuple[list[DialogTurn], DialogContext]:
    inst = question.instantiation
    turns, context = _answer_turns(
        store, inst, question.template, question.retrieve_base, rng, config, previous
    )
    user_turn = DialogTurn(
        "user", question.state, inst.question, context.last_question_entities, inst.plan, None
    )
    return [user_turn, *turns], context


def _answer_turns(
    store: KgStore,
    inst: tpl.Instantiation,
    template: tpl.QuestionTemplate,
    retrieve_base: tpl.QuestionTemplate | None,
    rng: random.Random,
    config: RunConfig,
    previous: DialogContext,
) -> tuple[list[DialogTurn], DialogContext]:
    """The system response to an asked question (plus any negotiation
    follow-ups) and the context it leaves for the next turn pair, given
    the context ``previous`` the question was asked in."""
    rendered = render_answer(store, inst.answer, config, rng)
    response = DialogTurn(
        "system", TurnState.RESPONSE, rendered.utterance, rendered.entities, inst.plan, inst.answer
    )
    user_entities = tuple(sorted(qa.plan_entities(inst.plan)))
    lookups = qa.plan_lookups(inst.plan)
    context = DialogContext(
        salience=tuple(dict.fromkeys((*rendered.entities, *user_entities))),
        last_relations=qa.plan_relations(inst.plan),
        last_question_entities=user_entities,
        last_answer_entities=rendered.entities,
        last_template=template,
        last_retrieve_template=retrieve_base,
        last_anchor=lookups[0].anchor if lookups else previous.last_anchor,
    )
    return [response, *rendered.followups], context


# -- dialog entry points ------------------------------------------------------------------


def start_dialog(
    store: KgStore,
    templates: Sequence[tpl.QuestionTemplate],
    seed: int | random.Random,
    config: RunConfig | None = None,
) -> tuple[list[DialogTurn], DialogContext]:
    """Open a dialog with a fully specified direct question and its answer."""
    config = config or RunConfig()
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    segments = []
    for t in templates:
        ty = tpl.anchor_type(store, t) if t.kind == "Retrieve" else None
        if ty is not None:
            segments.append((t, store.sorted_members(ty)))

    question = _first(rng, segments, lambda t, e: _simple_question(store, config, t, e))
    if question is None:
        raise DialogError("no template is instantiable over this store")
    return _respond_turns(store, question, rng, config, DialogContext())


def next_turn(
    store: KgStore,
    templates: Sequence[tpl.QuestionTemplate],
    context: DialogContext,
    rng: random.Random,
    config: RunConfig | None = None,
) -> tuple[list[DialogTurn], DialogContext] | None:
    """Produce the next linked question (and its system turn, unless the
    question is ambiguous and opens a clarification).

    Returns None when nothing linkable can be built, signalling the end of
    the dialog.
    """
    config = config or RunConfig()
    if context.pending is not None:
        raise DialogError("clarification pending; call clarification_exchange first")
    weight_of = config.transition_weights.get
    # a kind of weight 0 is never picked; keeping it would leave only zero
    # weights once the positive kinds have failed
    kinds = [
        k for k in QUESTION_KINDS if weight_of(k.name, 1.0) > 0 and k.applicable(context, templates)
    ]
    while kinds:
        weights = [weight_of(k.name, 1.0) for k in kinds]
        kind = rng.choices(kinds, weights=weights, k=1)[0]
        question = kind.build(store, templates, context, rng, config)
        if question is None:
            kinds.remove(kind)
            continue
        if question.ambiguous is not None:
            inst = question.instantiation
            user_turn = DialogTurn("user", question.state, inst.question, (), None, None)
            return [user_turn], replace(context, pending=question.ambiguous)
        if not _linked(context, question.instantiation.plan):
            kinds.remove(kind)
            continue
        return _respond_turns(store, question, rng, config, context)
    return None


def clarification_exchange(
    store: KgStore,
    context: DialogContext,
    intended: int | None = None,
    rng: random.Random | None = None,
    config: RunConfig | None = None,
) -> tuple[list[DialogTurn], DialogContext]:
    """Complete a pending ambiguous mention: system guess, user correction
    (or confirmation), then the answer for the intended entity."""
    config = config or RunConfig()
    rng = rng or random.Random(0)
    pending = context.pending
    if pending is None:
        raise DialogError("no clarification pending")
    intended = pending.intended if intended is None else intended
    if intended not in pending.candidates:
        raise DialogError(
            f"intended entity {intended} is not among candidates {pending.candidates}"
        )
    guess = rng.choice(sorted(pending.candidates))
    clarify_q = DialogTurn(
        "system",
        TurnState.CLARIFICATION_Q,
        CLARIFICATION_PROMPT.format(entity=store.entity_label(guess)),
        (guess,),
    )
    if guess == intended:
        answer_text = CLARIFICATION_YES
    else:
        answer_text = CLARIFICATION_NO.format(entity=store.entity_label(intended))

    built = tpl.instantiate(
        store,
        pending.template,
        {pending.template.anchor_slot(): intended},
        answer_cap=config.answer_cap,
        number="plural",
        include_zero_groups=config.include_zero_groups,
    )
    if isinstance(built, tpl.Rejection):
        # the generator validates its own intended candidate up front, so
        # this only triggers for caller-overridden candidates whose
        # question has no presentable answer
        raise DialogError(f"clarified question not answerable: {built.reason}")
    clarify_a = DialogTurn(
        "user", TurnState.CLARIFICATION_A, answer_text, (intended,), built.plan, None
    )
    retrieve_base = pending.template if pending.template.kind == "Retrieve" else None
    turns, new_context = _answer_turns(
        store, built, pending.template, retrieve_base, rng, config, context
    )
    return [clarify_q, clarify_a, *turns], new_context


def generate_dialog(
    store: KgStore,
    templates: Sequence[tpl.QuestionTemplate],
    seed: int,
    config: RunConfig | None = None,
) -> list[DialogTurn]:
    """Generate one complete dialog; deterministic per seed."""
    config = config or RunConfig()
    rng = random.Random(seed)
    turns, context = start_dialog(store, templates, rng, config)
    n_questions = rng.randint(config.min_questions, config.max_questions)
    for _ in range(n_questions - 1):
        step = next_turn(store, templates, context, rng, config)
        if step is None:
            break
        new_turns, context = step
        turns.extend(new_turns)
        if context.pending is not None:
            new_turns, context = clarification_exchange(store, context, None, rng, config)
            turns.extend(new_turns)
    return turns


# -- candidate sampling -------------------------------------------------------------------


def random_candidates(
    rng: random.Random, segments: Sequence[tuple[Any, Sequence]]
) -> Iterator[tuple[Any, Any]]:
    """Yield every ``(key, member)`` pair of ``segments`` once, in uniformly
    random order.

    ``segments`` is a sequence of ``(key, members)``; the candidates are the
    segments' members in concatenation, each paired with its segment's key.
    The order is drawn lazily by a sparse Fisher–Yates shuffle over the
    concatenated positions: one ``rng.randrange`` per yielded candidate and
    one remembered swap per draw.  A caller that stops after k candidates
    pays one pass over the segments plus O(k log(#segments)), however many
    members the segments hold.
    """
    keys: list = []
    members: list[Sequence] = []
    starts: list[int] = []
    n = 0
    for key, seg in segments:
        if seg:
            keys.append(key)
            members.append(seg)
            starts.append(n)
            n += len(seg)
    swapped: dict[int, int] = {}
    for i in range(n):
        j = rng.randrange(i, n)
        pos = swapped.get(j, j)
        swapped[j] = swapped.get(i, i)
        s = bisect_right(starts, pos) - 1
        yield keys[s], members[s][pos - starts[s]]


def _first(
    rng: random.Random, segments: Sequence[tuple[Any, Sequence]], attempt: Callable[[Any, Any], Any]
) -> Any:
    """The first non-None ``attempt(key, member)`` over the segments'
    candidates in uniformly random order, or None when every one fails."""
    for key, member in random_candidates(rng, segments):
        question = attempt(key, member)
        if question is not None:
            return question
    return None


# -- per-kind builders --------------------------------------------------------------------


def _try_instantiate(
    store: KgStore,
    template: tpl.QuestionTemplate,
    bindings: Mapping[str, int | str],
    config: RunConfig,
) -> tpl.Instantiation | None:
    try:
        built = tpl.instantiate(
            store,
            template,
            bindings,
            answer_cap=config.answer_cap,
            number="plural",
            include_zero_groups=config.include_zero_groups,
        )
    except (tpl.TemplateError, qa.PlanError):
        return None
    if isinstance(built, tpl.Rejection):
        return None
    if (
        tpl.pathology_filter(
            store,
            built,
            config.generic_relations,
            [tuple(p) for p in config.peer_type_blocklist],
        )
        is not None
    ):
        return None
    return built


def _ask(store, state, template, bindings, config, base):
    """The question ``template`` asks under ``bindings``, or None when it
    cannot be instantiated; ``base`` is the retrieve template it derives from."""
    built = _try_instantiate(store, template, bindings, config)
    return None if built is None else _Question(state, built, template, retrieve_base=base)


def _simple_question(store, config, t, anchor):
    """The direct question template ``t`` asks of ``anchor``, or None."""
    return _ask(store, TurnState.SIMPLE_Q, t, {t.anchor_slot(): anchor}, config, t)


def _simple_templates(store, templates):
    out = []
    for t in templates:
        if t.kind != "Retrieve" or t.free_slots() != (t.anchor_slot(),):
            continue
        ty = tpl.anchor_type(store, t)
        if ty is not None:
            out.append((t, ty))
    return out


def _build_direct(store, templates, context, rng, config):
    # anchors of a template whose relation was just used may be any member
    # of the anchor type; otherwise only the salient ones link
    salient = _holders_by_type(store, context.salience)
    segments = []
    for t, ty in _simple_templates(store, templates):
        if _template_relation(store, t) in context.last_relations:
            segments.append((t, store.sorted_members(ty)))
        else:
            segments.append((t, salient.get(ty, [])))
    return _first(rng, segments, lambda t, e: _simple_question(store, config, t, e))


def _build_coreference(store, templates, context, rng, config):
    if rng.random() < config.ambiguity_rate:
        built = _build_ambiguous(store, templates, context, rng, config)
        if built is not None:
            return built
    holders = _holders_by_type(store, context.salience)
    segments = []
    for t, ty in _simple_templates(store, templates):
        if len(holders.get(ty, ())) == 1:
            segments.append(((t, ty), holders[ty]))
    return _first(rng, segments, lambda key, e: _mention_question(store, config, key, e, None))


def _build_ambiguous(store, templates, context, rng, config):
    holders = _holders_by_type(store, context.last_answer_entities)
    # one candidate per template: the answer entities its mention could mean
    segments = []
    for t, ty in _simple_templates(store, templates):
        if len(holders.get(ty, ())) >= 2:
            segments.append(((t, ty), [holders[ty]]))

    def attempt(key, candidates):
        intended = rng.choice(sorted(candidates))
        pending = PendingClarification(tuple(dict.fromkeys(candidates)), intended, key[0])
        return _mention_question(store, config, key, intended, pending)

    return _first(rng, segments, attempt)


def _holders_by_type(store, entities):
    """Each type's holders among ``entities``, in their order."""
    holders: dict[int, list[int]] = {}
    for e in entities:
        for ty in store.types_of(e):
            holders.setdefault(ty, []).append(e)
    return holders


def _mention_question(store, config, key, anchor, ambiguous):
    """The coreference question ``t`` asks of ``anchor``, its anchor spoken
    as "that ⟨ty⟩" (``key`` is ``(t, ty)``), opening the clarification
    ``ambiguous`` unless that is None; None when it cannot be instantiated."""
    t, ty = key
    built = _try_instantiate(store, t, {t.anchor_slot(): anchor}, config)
    if built is None:
        return None
    mention = {t.anchor_slot(): f"that {store.type_label(ty)}"}
    question = tpl.render_question(
        store, t, built.bindings, number=built.number, mention_overrides=mention
    )
    return _Question(TurnState.COREFERENCE_Q, replace(built, question=question), t, ambiguous, t)


def _build_ellipsis(store, templates, context, rng, config):
    t = context.last_template
    ty = tpl.anchor_type(store, t)
    if ty is None:
        return None
    pattern = rng.choice(_ELLIPSIS_BANK)
    base = context.last_retrieve_template

    def attempt(_, anchor):
        if anchor == context.last_anchor:
            return None
        built = _try_instantiate(store, t, {t.anchor_slot(): anchor}, config)
        if built is None:
            return None
        built = replace(built, question=pattern.format(entity=store.entity_label(anchor)))
        return _Question(TurnState.ELLIPSIS_Q, built, t, retrieve_base=base)

    return _first(rng, [(None, store.sorted_members(ty))], attempt)


def _first_derived(store, context, rng, config, state, segments, derive):
    """The first question that ``derive(key, member)`` makes from the last
    retrieve template over the segments' candidates in uniformly random
    order: a derived template and the bindings to ask it under, or None to
    skip the candidate.  A derivation the template does not admit ends the
    search with None."""
    base = context.last_retrieve_template

    def attempt(key, member):
        derived = derive(key, member)
        return None if derived is None else _ask(store, state, *derived, config, base)

    try:
        return _first(rng, segments, attempt)
    except tpl.TemplateError:
        return None


def _build_logical(store, templates, context, rng, config):
    base = context.last_retrieve_template
    anchor = context.last_anchor
    ty = tpl.anchor_type(store, base)
    if anchor is None or ty is None:
        return None
    members = store.sorted_members(ty)
    segments = [(op, members) for op in ("and", "or", "but_not")]
    anchor_slot, extra_slot = base.anchor_slot(), tpl.extra_anchor_slot(base)

    def derive(op, extra):
        if extra == anchor:
            return None
        return tpl.derived(base, tpl.transform_logical, op), {anchor_slot: anchor, extra_slot: extra}

    return _first_derived(store, context, rng, config, TurnState.LOGICAL_Q, segments, derive)


def _build_count(store, templates, context, rng, config):
    base = context.last_retrieve_template
    try:
        derived = tpl.derived(base, tpl.transform_to_count)
    except tpl.TemplateError:
        return None

    def ask(anchor):
        bindings = {base.anchor_slot(): anchor}
        return _ask(store, TurnState.QUANTITATIVE_COUNT_Q, derived, bindings, config, base)

    # the previous anchor first, then the other members of its type
    old = context.last_anchor
    if old is not None:
        question = ask(old)
        if question is not None:
            return question
    ty = tpl.anchor_type(store, base)
    members = store.sorted_members(ty) if ty is not None else ()
    return _first(rng, [(None, members)], lambda _, e: None if e == old else ask(e))


def _build_argopt(store, templates, context, rng, config):
    base = context.last_retrieve_template
    direction = rng.choice(["max", "min"])
    try:
        derived = tpl.derived(base, tpl.transform_argopt, direction)
    except tpl.TemplateError:
        return None
    state = TurnState.QUANTITATIVE_ARGOPT_Q
    return _ask(store, state, derived, {}, config, base)


def _store_group(store, base):
    """The store group that ``base``'s grouped forms count over, or None
    when it does not resolve (their derivation or instantiation then fails
    on its own)."""
    try:
        return plan_text.bind(tpl.derived(base, tpl.group_schema), store, base.fixed)
    except ValueError:
        return None


def _fits(store, plan, config) -> bool:
    """Whether the entity answer of a grouped plan has a size that
    ``instantiate`` accepts: not empty and below ``answer_cap``.  The size
    takes two bisections; no answer is built."""
    return 0 < qa.answer_size(store, plan, config.include_zero_groups) < config.answer_cap


_THRESHOLD_NS = (1, 2, 3, 4)


def _build_threshold(store, templates, context, rng, config):
    base = context.last_retrieve_template
    counting = rng.random() < 0.5
    group = None if counting else _store_group(store, base)

    def derive(cmp_, n):
        derived = tpl.derived(base, tpl.transform_threshold, cmp_, n)
        if counting:
            return tpl.derived(derived, tpl.transform_to_count), {}
        if group is not None and not _fits(store, qa.ThresholdFilter(group, cmp_, n), config):
            return None
        return derived, {}

    segments = [(cmp_, _THRESHOLD_NS) for cmp_ in qa.COMPARATORS]
    state = TurnState.QUANTITATIVE_THRESHOLD_Q
    return _first_derived(store, context, rng, config, state, segments, derive)


def _build_comparative(store, templates, context, rng, config):
    base = context.last_retrieve_template
    counting = rng.random() < 0.5
    try:
        more = tpl.derived(base, tpl.transform_comparative, "more")
    except tpl.TemplateError:
        return None
    group_ty = tpl.slot_expected_type(store, more, tpl.REFERENCE_SLOT)
    if group_ty is None:
        return None
    state = TurnState.COMPARATIVE_COUNT_Q if counting else TurnState.COMPARATIVE_Q
    group = None if counting else _store_group(store, base)

    def derive(direction, ref):
        derived = tpl.derived(base, tpl.transform_comparative, direction)
        if counting:
            return tpl.derived(derived, tpl.transform_to_count), {tpl.REFERENCE_SLOT: ref}
        if group is not None and not _fits(store, qa.Comparative(group, ref, direction), config):
            return None
        return derived, {tpl.REFERENCE_SLOT: ref}

    refs = store.sorted_members(group_ty)
    segments = [(d, refs) for d in qa.CMP_DIRECTIONS]
    return _first_derived(store, context, rng, config, state, segments, derive)


def _build_boolean(store, templates, context, rng, config):
    def attempt(_, t):
        bindings: dict[str, int | str] = {}
        for slot in t.free_slots():
            ty = tpl.slot_expected_type(store, t, slot)
            pool = store.sorted_members(ty) if ty is not None else ()
            if not pool:
                return None
            taken = {v for v in bindings.values() if isinstance(v, int)}
            preferred = [e for e in context.salience if store.has_type(e, ty) and e not in taken]
            bindings[slot] = rng.choice(preferred) if preferred else _untaken(rng, pool, taken)
        rel = _template_relation(store, t)
        linked = (rel is not None and rel in context.last_relations) or any(
            v in context.salience for v in bindings.values() if isinstance(v, int)
        )
        if not linked:
            return None
        return _ask(store, TurnState.BOOLEAN_Q, t, bindings, config, context.last_retrieve_template)

    return _first(rng, [(None, [t for t in templates if t.kind == "Verify"])], attempt)


def _untaken(rng: random.Random, pool: Sequence[int], taken: set[int]) -> int:
    """A uniform draw from ``pool`` minus ``taken``, or from all of ``pool``
    when nothing is left."""
    for _, e in random_candidates(rng, [(None, pool)]):
        if e not in taken:
            return e
    return rng.choice(pool)


def _template_relation(store: KgStore, t: tpl.QuestionTemplate) -> int | None:
    value = t.fixed.get("relation")
    if value is None:
        return None
    return value if isinstance(value, int) else store.relation_id(value)


# -- question kinds -----------------------------------------------------------------------


@dataclass(frozen=True)
class QuestionKind:
    """A follow-up question kind: its ``transition_weights`` name, whether a
    context admits it, its builder, and the turn states its questions take."""

    name: str
    applicable: Callable[[DialogContext, Sequence[tpl.QuestionTemplate]], bool]
    build: Callable[..., _Question | None]
    states: frozenset[TurnState]


def _has_base(context: DialogContext, templates) -> bool:
    # the builders of these kinds read last_retrieve_template, their base, unchecked
    return context.last_retrieve_template is not None


_S = TurnState
# next_turn offers the kinds to its seeded draw in this order, so reordering
# the rows changes every generated corpus
QUESTION_KINDS = tuple(
    QuestionKind(name, applicable, build, frozenset(states))
    for name, applicable, build, states in (
        ("direct", lambda c, _: True, _build_direct, {_S.SIMPLE_Q}),
        ("coreference", lambda c, _: bool(c.salience), _build_coreference, {_S.COREFERENCE_Q}),
        ("ellipsis", lambda c, _: c.last_template is not None, _build_ellipsis, {_S.ELLIPSIS_Q}),
        ("logical", _has_base, _build_logical, {_S.LOGICAL_Q}),
        ("count", _has_base, _build_count, {_S.QUANTITATIVE_COUNT_Q}),
        ("argopt", _has_base, _build_argopt, {_S.QUANTITATIVE_ARGOPT_Q}),
        ("threshold", _has_base, _build_threshold, {_S.QUANTITATIVE_THRESHOLD_Q}),
        ("comparative", _has_base, _build_comparative, {_S.COMPARATIVE_Q, _S.COMPARATIVE_COUNT_Q}),
        ("boolean", lambda _, ts: "Verify" in {t.kind for t in ts}, _build_boolean, {_S.BOOLEAN_Q}),
    )
)

# the ``transition_weights`` keys, and the states of the user turns that ask a question
TRANSFORM_KINDS = tuple(k.name for k in QUESTION_KINDS)
QUESTION_STATES = frozenset().union(*(k.states for k in QUESTION_KINDS))
