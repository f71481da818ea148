"""Question templates: typed slots, instantiation, and question transforms.

A template couples surface strings (with ``⟨slot⟩`` markers) to a symbolic
plan schema.  Templates are authored per relation with the relation and
type slots pre-bound in ``fixed``; entity slots are filled at
instantiation time; a template works out its slot facts when it is built.
Transforms mechanically derive complex templates (counting, logical
combinations, thresholds, arg-min/max, comparatives, multi-type unions)
from simple ones, each through one step that suffixes the base's id and
paraphrase group; ``derived`` makes each derivation once and keeps it on
its base template.  A comparative's reference and a logical form's second
anchor are slots, bound per instantiation.

Surface markers may carry a ``+pl`` modifier (``⟨subject_type+pl⟩``) that
pluralizes the bound label; transforms use it for the phrases they build.
Authored surfaces instead ship explicit singular/plural variants.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple

from . import plan_text, query_algebra as qa
from .kg_store import KgError, KgStore, UnknownIdError, json_field, read_json_lines
from .plan_text import SLOT_CLOSE, SLOT_OPEN, Slot
from .text import pluralize

OBJECT_BASED = "object_based"
SUBJECT_BASED = "subject_based"

_MARKER = re.compile(re.escape(SLOT_OPEN) + r"([^" + SLOT_CLOSE + r"]+)" + re.escape(SLOT_CLOSE))

_CONJUNCTIONS = {"and": "and", "or": "or", "but_not": "but not"}
_LOGICAL_NODES = {"and": qa.Intersection, "or": qa.Union, "but_not": qa.Difference}
REFERENCE_SLOT = "entity:ref"  # the comparative reference's slot
_COMPARATOR_PHRASES = {
    "atleast": "atleast",
    "atmost": "atmost",
    "equal": "exactly",
    "approx": "approximately",
}


class TemplateError(ValueError):
    """Malformed template, unresolved slot, or binding type mismatch."""


def slot_kind(name: str) -> str:
    """Classify a slot name: entity, number, relation or type."""
    if name.startswith("entity"):
        return "entity"
    if _number_slot(name):
        return "number"
    if "relation" in name:
        return "relation"
    if "type" in name:
        return "type"
    raise TemplateError(f"cannot classify slot {name!r}")


def _number_slot(name: str) -> bool:
    return name == "n" or name.startswith("n:")


class _TemplateBase:
    """Base of ``QuestionTemplate``.  Its slots keep what is worked out from a
    template: its slot facts, when it is built, and what ``derived``
    derives from it; a dict entry would slow every attribute read."""

    __slots__ = ("_plan_slots", "_free_slots", "_anchor_slot", "_derivations")


@dataclass(frozen=True)
class QuestionTemplate(_TemplateBase):
    id: str
    direction: str
    paraphrase_group: str
    surface: Mapping[str, str]  # "singular" required, "plural" optional
    # a symbolic plan: the plan classes, with labels, keywords and slots unresolved
    plan_schema: qa.QueryPlan
    fixed: Mapping[str, int | str] = field(default_factory=dict)
    slot_types: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # the slot facts, worked out once: the template is frozen
        slots = plan_text.slots_of(self.plan_schema)
        expr = _root_expr(self.plan_schema)
        if isinstance(expr, qa.TypeUnion):  # its branches share one anchor
            expr = expr.branches[0]
        anchor = expr.anchor.name if isinstance(expr, qa.Lookup) and isinstance(expr.anchor, Slot) else None
        object.__setattr__(self, "_plan_slots", slots)
        object.__setattr__(self, "_free_slots", tuple(sorted(slots - set(self.fixed))))
        object.__setattr__(self, "_anchor_slot", anchor)
        object.__setattr__(self, "_derivations", {})

    @property
    def kind(self) -> str:
        return type(self.plan_schema).__name__

    def surface_variant(self, number: str) -> str:
        return self.surface.get(number) or self.surface["singular"]

    def plan_slots(self) -> frozenset[str]:
        return self._plan_slots

    def free_slots(self) -> tuple[str, ...]:
        """Plan slots not pre-bound, in sorted order."""
        return self._free_slots

    def anchor_slot(self) -> str | None:
        """Slot name anchoring the root lookup, if there is one."""
        return self._anchor_slot


def derived(template: QuestionTemplate, transform: Callable, *args):
    """``transform(template, *args)``, worked out once per template and
    arguments and kept on the template.  A transform that raises keeps
    nothing, so it raises again on the next call."""
    cache = template._derivations
    key = (transform, *args)
    try:
        return cache[key]
    except KeyError:
        value = cache[key] = transform(template, *args)
        return value


@dataclass(frozen=True)
class Instantiation:
    template_id: str
    bindings: Mapping[str, int | str]
    question: str
    plan: qa.QueryPlan
    answer: qa.AnswerSet
    number: str = "singular"


@dataclass(frozen=True)
class Rejection:
    template_id: str
    reason: str  # empty_answer | answer_cap


# -- loading / validation --------------------------------------------------------


def load_templates(path: str | Path, store: KgStore | None = None) -> list[QuestionTemplate]:
    """Read a json-lines template file; validates every record and, given a
    ``store``, checks each relation and type label in ``fixed`` and
    ``slot_types`` against it."""
    out = read_json_lines(path, lambda record, _: template_from_record(record, store), TemplateError)
    out.sort(key=lambda t: t.id)
    return out


def template_from_record(record: Mapping, store: KgStore | None = None) -> QuestionTemplate:
    def optional(name: str, kind: type, default):
        return json_field(record, name, kind) if name in record else default

    try:
        template_id = json_field(record, "id", str)
        template = QuestionTemplate(
            id=template_id,
            direction=json_field(record, "direction", str),
            paraphrase_group=optional("paraphrase_group", str, template_id),
            surface=_surface_variants(json_field(record, "surface", str, dict, list)),
            plan_schema=plan_text.parse_symbolic(json_field(record, "plan_schema", str)),
            fixed=_fixed(optional("fixed", dict, {})),
            slot_types=_strings("slot_types", optional("slot_types", dict, {})),
        )
    except KeyError as exc:
        raise TemplateError(f"missing field {exc}") from None
    except TypeError as exc:
        raise TemplateError(str(exc)) from None
    except plan_text.PlanTextError as exc:
        raise TemplateError(f"field 'plan_schema': {exc}") from None
    validate_template(template)
    if store is not None:
        resolvers = {"relation": store.relation_id, "type": store.type_id}
        for name, label in template.fixed.items():
            try:
                resolve = resolvers.get(slot_kind(name))  # entity and number slots name no label
                if resolve is not None:
                    resolve(label)
            except (TemplateError, UnknownIdError) as exc:
                raise TemplateError(f"field 'fixed': {exc}") from None
        for ref in template.slot_types.values():
            # a type label, or the name of a type slot that ``fixed`` binds
            if ref not in template.fixed or slot_kind(ref) != "type":
                try:
                    store.type_id(ref)
                except UnknownIdError as exc:
                    raise TemplateError(f"field 'slot_types': {exc}") from None

        def known(kind: str, atom):  # a free slot is left to instantiation
            free = isinstance(atom, Slot) and atom.name not in template.fixed
            return None if free else plan_text.bind_atom(store, template.fixed, kind, atom)

        try:
            # the plan rules, as far as ``fixed`` and the labels resolve the schema
            qa._validate_plan(store, qa.map_atoms(template.plan_schema, known), partial=True)
        except (qa.PlanError, plan_text.PlanTextError, KgError) as exc:
            raise TemplateError(f"field 'plan_schema': {exc}") from None
    return template


def _surface_variants(surface) -> dict[str, str]:
    """Surfaces may be a {number form: text} object or a [singular, plural]
    array; a bare string is taken as the singular form."""
    if isinstance(surface, str):
        return {"singular": surface}
    if isinstance(surface, Mapping):
        return _strings("surface", surface)
    if not surface:
        raise TemplateError("surface list may not be empty")
    _strings("surface", dict(enumerate(surface)))
    return dict(zip(("singular", "plural"), surface))


def _strings(name: str, mapping: Mapping) -> dict:
    """``mapping`` as a dict, once each value is checked to be a string;
    otherwise a ``TypeError`` naming the record field ``name``."""
    for value in mapping.values():
        if not isinstance(value, str):
            raise TypeError(f"field {name!r} must hold only strings, got {type(value).__name__}")
    return dict(mapping)


def _fixed(mapping: Mapping) -> dict:
    """``fixed`` as a dict, once each value is checked to be a string, or a
    JSON integer >= 0 (not a bool) for a number slot."""
    numbers = {name for name, value in mapping.items() if _number_slot(name) and type(value) is int and value >= 0}
    _strings("fixed", {name: value for name, value in mapping.items() if name not in numbers})
    return dict(mapping)


def validate_template(t: QuestionTemplate) -> None:
    ctx = f"template {t.id}"
    if t.direction not in (OBJECT_BASED, SUBJECT_BASED):
        raise TemplateError(f"{ctx}: unknown direction {t.direction!r}")
    if "singular" not in t.surface:
        raise TemplateError(f"{ctx}: surface needs at least a singular variant")
    plan_slots = t.plan_slots()
    for name in plan_slots:
        slot_kind(name)  # raises on unclassifiable slots
    for variant, text_ in t.surface.items():
        for name in surface_slots(text_):
            if slot_kind(name) == "entity" and name not in plan_slots:
                raise TemplateError(
                    f"{ctx}: surface slot {SLOT_OPEN}{name}{SLOT_CLOSE} not in plan schema"
                )
    expr = _root_expr(t.plan_schema)
    if isinstance(expr, qa.Lookup) and isinstance(expr.direction, str):
        want = qa.OBJ if t.direction == OBJECT_BASED else qa.SUBJ
        if expr.direction != want:
            raise TemplateError(
                f"{ctx}: direction {t.direction} conflicts with lookup direction {expr.direction}"
            )


def surface_slots(text_: str) -> list[str]:
    """Slot names referenced by a surface string (``+pl`` modifier stripped)."""
    return [m.split("+", 1)[0] for m in _MARKER.findall(text_)]


def _root_expr(schema: qa.QueryPlan) -> qa.SetExpr | None:
    return schema.expr if isinstance(schema, (qa.Retrieve, qa.Count)) else None


# -- instantiation ----------------------------------------------------------------


def instantiate(
    store: KgStore,
    template: QuestionTemplate,
    bindings: Mapping[str, int | str],
    answer_cap: int = 1000,
    number: str = "singular",
    include_zero_groups: bool = True,
) -> Instantiation | Rejection:
    """Bind a template, execute its plan and render the question.

    Returns a :class:`Rejection` when the answer is empty or reaches
    ``answer_cap``; raises :class:`TemplateError` on binding type
    mismatches.
    """
    merged: dict[str, int | str] = {**template.fixed, **bindings}
    _type_check(store, template, merged)
    try:
        plan = plan_text.bind(template.plan_schema, store, merged)
    except plan_text.PlanTextError as exc:
        raise TemplateError(f"template {template.id}: {exc}") from None
    answer = qa.execute(store, plan, include_zero_groups=include_zero_groups)

    if isinstance(answer, qa.Entities):
        if not answer.members:
            return Rejection(template.id, "empty_answer")
        if len(answer.members) >= answer_cap:
            return Rejection(template.id, "answer_cap")
    if isinstance(answer, qa.Booleans) and not answer.values:
        return Rejection(template.id, "empty_answer")

    question = render_question(store, template, merged, number=number)
    return Instantiation(
        template_id=template.id,
        bindings=dict(merged),
        question=question,
        plan=plan,
        answer=answer,
        number=number,
    )


def _type_check(store: KgStore, template: QuestionTemplate, merged: Mapping[str, int | str]) -> None:
    # declared slots first, then an undeclared anchor; None is never bound
    for slot in dict.fromkeys([*template.slot_types, template.anchor_slot()]):
        if slot not in merged:
            continue
        expected = _resolve_type(store, _slot_type_ref(template, slot), merged)
        if expected is None:
            continue
        entity = _resolve_entity(store, merged[slot])
        if not store.has_type(entity, expected):
            raise TemplateError(
                f"template {template.id}: binding {slot}={merged[slot]!r} is not of type "
                f"{store.type_label(expected)!r}"
            )


def _resolve_type(store: KgStore, type_ref: str, merged: Mapping[str, int | str]) -> int | None:
    if type_ref in merged:
        value = merged[type_ref]
        return value if isinstance(value, int) else store.type_id(value)
    try:
        return store.type_id(type_ref)
    except UnknownIdError:
        return None


def _resolve_entity(store: KgStore, value: int | str) -> int:
    return value if isinstance(value, int) else store.entity_id(value)


def _slot_type_ref(template: QuestionTemplate, slot: str) -> str | None:
    """Type reference (a type slot or label) a slot's entity must have: the
    declared one, or for an undeclared anchor the lookup's anchor-side type
    slot."""
    ref = template.slot_types.get(slot)
    if ref is None and slot == template.anchor_slot():
        return _anchor_type_slot(template)
    return ref


def _anchor_type_slot(template: QuestionTemplate) -> str:
    return "subject_type" if template.direction == OBJECT_BASED else "object_type"


def _result_type_slot(template: QuestionTemplate) -> str:
    return "object_type" if template.direction == OBJECT_BASED else "subject_type"


def anchor_type(store: KgStore, template: QuestionTemplate) -> int | None:
    """Type id the anchor slot binding must have, if determinable."""
    anchor = template.anchor_slot()
    return None if anchor is None else slot_expected_type(store, template, anchor)


def slot_expected_type(store: KgStore, template: QuestionTemplate, slot: str) -> int | None:
    """Type id declared for any entity slot, if determinable."""
    ref = _slot_type_ref(template, slot)
    return None if ref is None else _resolve_type(store, ref, template.fixed)


def render_question(
    store: KgStore,
    template: QuestionTemplate,
    merged: Mapping[str, int | str],
    number: str = "singular",
    mention_overrides: Mapping[str, str] | None = None,
) -> str:
    """Substitute slot labels into a surface variant.

    ``mention_overrides`` replaces a slot's rendering verbatim (used for
    coreference mentions like "that river").  The result must contain no
    marker; a leftover marker is an authoring error.
    """
    overrides = mention_overrides or {}

    def sub(m: re.Match) -> str:
        raw = m.group(1)
        name, _, modifier = raw.partition("+")
        if name in overrides:
            return overrides[name]
        if name not in merged:
            raise TemplateError(f"template {template.id}: unbound surface slot {SLOT_OPEN}{raw}{SLOT_CLOSE}")
        label = _slot_label(store, name, merged[name])
        return pluralize(label) if modifier == "pl" else label

    rendered = _MARKER.sub(sub, template.surface_variant(number))
    if SLOT_OPEN in rendered:
        raise TemplateError(f"template {template.id}: unresolved marker in {rendered!r}")
    return rendered


def _slot_label(store: KgStore, name: str, value: int | str) -> str:
    kind = slot_kind(name)
    if kind == "number":
        return str(value)
    if isinstance(value, str):
        return value
    if kind == "entity":
        return store.entity_label(value)
    if kind == "relation":
        return store.relation_label(value)
    return store.type_label(value)


# -- transforms --------------------------------------------------------------------


def _derive(
    template: QuestionTemplate, tag: str, surface: Mapping[str, str], plan_schema: qa.QueryPlan,
    group_tag: str | None = None, **changes,
) -> QuestionTemplate:
    """``template`` with a new surface and schema, its id suffixed ``#tag``
    and its paraphrase group ``#group_tag`` (``#tag`` if none)."""
    return replace(
        template,
        id=f"{template.id}#{tag}",
        paraphrase_group=f"{template.paraphrase_group}#{group_tag or tag}",
        surface=surface,
        plan_schema=plan_schema,
        **changes,
    )


def transform_to_count(template: QuestionTemplate) -> QuestionTemplate:
    """Turn a "Which ..." template into its "How many ..." counting form."""
    base = template.surface_variant("plural")
    if not base.startswith("Which "):
        raise TemplateError(f"template {template.id}: counting transform needs a Which-question")
    schema = template.plan_schema
    if type(schema) not in qa.COUNTING:
        raise TemplateError(f"template {template.id}: cannot count a {template.kind} plan")
    counted = qa.COUNTING[type(schema)](*(getattr(schema, f.name) for f in fields(schema)))
    return _derive(template, "count", {"singular": "How many " + base[len("Which ") :]}, counted)


def transform_logical(template: QuestionTemplate, op: str) -> QuestionTemplate:
    """Add a second anchor under and/or/but_not ("... India and China ?"), in
    the slot ``extra_anchor_slot(template)``, bound at instantiation."""
    if op not in _LOGICAL_NODES:
        raise TemplateError(f"unknown logical op {op!r}")
    lookup = _require_lookup(template)
    anchor = template.anchor_slot()
    if anchor is None:
        raise TemplateError(f"template {template.id}: logical transform needs a slot anchor")
    new_slot = extra_anchor_slot(template)
    new_expr = _LOGICAL_NODES[op](lookup, replace(lookup, anchor=Slot(new_slot)))

    marker = f"{SLOT_OPEN}{anchor}{SLOT_CLOSE}"
    addition = f"{marker} {_CONJUNCTIONS[op]} {SLOT_OPEN}{new_slot}{SLOT_CLOSE}"
    surface = {
        variant: text_.replace(marker, addition, 1)
        for variant, text_ in template.surface.items()
        if marker in text_
    }
    if not surface:
        raise TemplateError(f"template {template.id}: surface never mentions the anchor")

    slot_types = dict(template.slot_types)
    if anchor in slot_types:
        slot_types[new_slot] = slot_types[anchor]
    return _derive(template, op, surface, qa.Retrieve(new_expr), slot_types=slot_types)


def transform_add_type(
    template: QuestionTemplate, extra_relation: int | str, extra_type: int | str
) -> QuestionTemplate:
    """Extend a single-lookup template with a second result type leg
    ("Which rivers and cities ...")."""
    lookup = _require_lookup(template)
    type_slot = _result_type_slot(template)
    rel2, type2 = "relation2", type_slot + "2"
    new_expr = qa.TypeUnion((lookup, replace(lookup, relation=Slot(rel2), result_type=Slot(type2))))

    marker = f"{SLOT_OPEN}{type_slot}{SLOT_CLOSE}"
    marker_pl = f"{SLOT_OPEN}{type_slot}+pl{SLOT_CLOSE}"
    surface: dict[str, str] = {}
    for variant, text_ in template.surface.items():
        for old, pl in ((marker_pl, True), (marker + "s", True), (marker, False)):
            if old in text_:
                new_marker = f"{SLOT_OPEN}{type2}{'+pl' if pl else ''}{SLOT_CLOSE}"
                surface[variant] = text_.replace(old, f"{old} and {new_marker}", 1)
                break
    if not surface:
        raise TemplateError(f"template {template.id}: surface never mentions {marker}")

    fixed = {**template.fixed, rel2: extra_relation, type2: extra_type}
    return _derive(template, "multitype", surface, qa.Retrieve(new_expr), fixed=fixed)


def transform_threshold(template: QuestionTemplate, comparator: str, n: int) -> QuestionTemplate:
    """Group form asking which result entities reach a counted threshold."""
    if comparator not in _COMPARATOR_PHRASES:
        raise TemplateError(f"unknown comparator {comparator!r}")
    try:
        qa.check_word("number", n)
    except qa.PlanError as exc:
        raise TemplateError(f"template {template.id}: threshold n: {exc}") from None
    group, words = _derive_group(template)
    phrase = f"{_COMPARATOR_PHRASES[comparator]} {SLOT_OPEN}n{SLOT_CLOSE}"
    if words.multi:
        surface = f"Which {words.group_pl} have {phrase} {words.counted_pl} combined ?"
    else:
        counted = words.counted_pl if n != 1 else words.counted_sg
        surface = _swap_anchor(template, "plural", f"{phrase} {counted}")
    schema = qa.ThresholdFilter(group, comparator, Slot("n"))
    return _derive(
        template, f"th_{comparator}_{n}", {"singular": surface}, schema,
        group_tag=f"th_{comparator}", fixed={**template.fixed, "n": n},
    )


def transform_argopt(template: QuestionTemplate, direction: str) -> QuestionTemplate:
    """Group form asking for the arg-min/arg-max result entity."""
    if direction not in qa.OPT_DIRECTIONS:
        raise TemplateError(f"unknown opt direction {direction!r}")
    group, words = _derive_group(template)
    phrase = f"{'maximum' if direction == 'max' else 'minimum'} number of {words.counted_pl}"
    if words.multi:
        surface = f"Which {words.group_sg} has {phrase} combined ?"
    else:
        surface = _swap_anchor(template, "singular", phrase)
    return _derive(template, f"argopt_{direction}", {"singular": surface}, qa.ArgOpt(group, direction))


def transform_comparative(template: QuestionTemplate, direction: str) -> QuestionTemplate:
    """Group form comparing counted totals against a reference entity, in
    the slot ``REFERENCE_SLOT``, bound at instantiation."""
    if direction not in qa.CMP_DIRECTIONS:
        raise TemplateError(f"unknown comparative direction {direction!r}")
    group, words = _derive_group(template)
    than = f"{words.counted_pl} than {SLOT_OPEN}{REFERENCE_SLOT}{SLOT_CLOSE}"
    if words.multi:
        surface = f"Which {words.group_pl} have {direction} {than} ?"
    else:
        surface = _swap_anchor(template, "plural", f"{direction} number of {than}")
    return _derive(
        template, f"cmp_{direction}", {"singular": surface},
        qa.Comparative(group, Slot(REFERENCE_SLOT), direction),
        slot_types={**template.slot_types, REFERENCE_SLOT: words.group_type},
    )


def transform_multi_relation(
    template_a: QuestionTemplate, template_b: QuestionTemplate, op: str
) -> QuestionTemplate:
    """Combine two single-lookup templates over a shared anchor slot.

    The second template's non-anchor slots are renamed with a ``_b``
    suffix; its surface loses the "Which ⟨type⟩s" prefix and is appended
    under the chosen conjunction.
    """
    if op not in _LOGICAL_NODES:
        raise TemplateError(f"unknown logical op {op!r}")
    lookup_a = _require_lookup(template_a)
    lookup_b = _require_lookup(template_b)
    anchor_a = template_a.anchor_slot()
    anchor_b = template_b.anchor_slot()
    if anchor_a is None or anchor_b is None:
        raise TemplateError("multi-relation combination needs slot anchors on both sides")

    def rename(name: str) -> str:
        return anchor_a if name == anchor_b else name + "_b"

    lookup_b = plan_text.rewrite_atoms(
        lookup_b, lambda a: Slot(rename(a.name)) if isinstance(a, Slot) else a
    )
    new_expr = _LOGICAL_NODES[op](lookup_a, lookup_b)

    b_text = template_b.surface_variant("plural")
    type_slot_b = _result_type_slot(template_b)
    type_marker = re.escape(SLOT_OPEN + type_slot_b) + r"(?:\+pl)?" + re.escape(SLOT_CLOSE)
    remainder, stripped = re.subn(rf"^Which\s+{type_marker}s?\s+", "", b_text)
    if not stripped:
        raise TemplateError(f"template {template_b.id}: cannot strip Which-prefix for combination")

    def renamed(m: re.Match) -> str:  # the marker, its slot renamed and its modifier kept
        name, plus, modifier = m.group(1).partition("+")
        return f"{SLOT_OPEN}{rename(name)}{plus}{modifier}{SLOT_CLOSE}"

    remainder = _MARKER.sub(renamed, remainder)
    a_text = template_a.surface_variant("plural").rstrip()
    a_text = a_text[:-1].rstrip() if a_text.endswith("?") else a_text
    surface = f"{a_text} {_CONJUNCTIONS[op]} {remainder}"

    fixed = dict(template_a.fixed)
    slot_types = dict(template_a.slot_types)
    for k, v in template_b.fixed.items():
        fixed.setdefault(rename(k), v)
    for k, v in template_b.slot_types.items():
        slot_types.setdefault(rename(k), v)
    return QuestionTemplate(
        id=f"{template_a.id}+{template_b.id}#{op}",
        direction=template_a.direction,
        paraphrase_group=f"{template_a.paraphrase_group}+{template_b.paraphrase_group}#{op}",
        surface={"singular": surface},
        plan_schema=qa.Retrieve(new_expr),
        fixed=fixed,
        slot_types=slot_types,
    )


def _require_lookup(template: QuestionTemplate) -> qa.Lookup:
    schema = template.plan_schema
    if not isinstance(schema, qa.Retrieve) or not isinstance(schema.expr, qa.Lookup):
        raise TemplateError(
            f"template {template.id}: transform needs a Retrieve(Lookup(...)) schema"
        )
    return schema.expr


def extra_anchor_slot(template: QuestionTemplate) -> str:
    """The entity slot ``transform_logical`` adds to ``template`` for its
    second anchor."""
    taken = {s for s in template.plan_slots() if slot_kind(s) == "entity"}
    k = 2
    while f"entity:{k}" in taken:
        k += 1
    return f"entity:{k}"


def _swap_anchor(template: QuestionTemplate, number: str, replacement: str) -> str:
    """``template``'s ``number`` surface with its anchor marker replaced."""
    anchor = template.anchor_slot()
    if anchor is None:
        raise TemplateError(f"template {template.id}: transform needs a slot anchor")
    marker = f"{SLOT_OPEN}{anchor}{SLOT_CLOSE}"
    base = template.surface_variant(number)
    if marker not in base:
        raise TemplateError(f"template {template.id}: surface never mentions the anchor")
    return base.replace(marker, replacement, 1)


def _surface_token(atom, plural: bool) -> str:
    """Render a schema type atom into a transform-built surface."""
    if isinstance(atom, Slot):
        return f"{SLOT_OPEN}{atom.name}{'+pl' if plural else ''}{SLOT_CLOSE}"
    return pluralize(str(atom)) if plural else str(atom)


def group_schema(template: QuestionTemplate) -> qa.GroupSpec:
    """The symbolic group that ``template``'s threshold, arg-min/max and
    comparative forms count over."""
    return _derive_group(template)[0]


class _GroupWords(NamedTuple):
    """How the grouped transforms phrase a group."""

    multi: bool  # the group counts the branches of a multi-type template
    group_sg: str
    group_pl: str
    counted_sg: str
    counted_pl: str  # every counted type, listed
    group_type: str  # the group's type reference: a type slot or label


def _derive_group(template: QuestionTemplate) -> tuple[qa.GroupSpec, _GroupWords]:
    """Group schema for threshold/argopt/comparative transforms, and its words.

    Single-lookup templates group over the result type and count anchors;
    multi-type templates group over the anchor's type and count the union
    of the branch types.
    """
    if not isinstance(template.plan_schema, qa.Retrieve):
        raise TemplateError(f"template {template.id}: group transform needs a Retrieve schema")
    expr = template.plan_schema.expr
    anchor_type_atom = _anchor_type_atom(template)
    if isinstance(expr, qa.Lookup):
        flipped = qa.SUBJ if expr.direction == qa.OBJ else qa.OBJ
        group = qa.GroupSpec(expr.result_type, (qa.Counted(expr.relation, flipped, anchor_type_atom),))
    elif isinstance(expr, qa.TypeUnion):
        legs = tuple(qa.Counted(b.relation, b.direction, b.result_type) for b in expr.branches)
        group = qa.GroupSpec(anchor_type_atom, legs)
    else:
        raise TemplateError(f"template {template.id}: group transform needs a lookup schema")
    counted = [leg.counted_type for leg in group.counted]
    return group, _GroupWords(
        multi=isinstance(expr, qa.TypeUnion),
        group_sg=_surface_token(group.group_type, plural=False),
        group_pl=_surface_token(group.group_type, plural=True),
        counted_sg=_listing([_surface_token(atom, plural=False) for atom in counted]),
        counted_pl=_listing([_surface_token(atom, plural=True) for atom in counted]),
        group_type=_type_ref(group.group_type),
    )


def _listing(tokens: list[str]) -> str:
    """``a``, ``a and b``, ``a, b and c``."""
    *rest, last = tokens
    return f"{', '.join(rest)} and {last}" if rest else last


def _anchor_type_atom(template: QuestionTemplate):
    name = _anchor_type_slot(template)
    mentioned = (surface_slots(text_) for text_ in template.surface.values())
    if name in template.fixed or name in template.plan_slots() or any(name in m for m in mentioned):
        return Slot(name)
    literal = template.slot_types.get(template.anchor_slot() or "")
    if literal is not None:
        return literal
    raise TemplateError(f"template {template.id}: cannot determine the anchor's type")


def _type_ref(atom) -> str:
    return atom.name if isinstance(atom, Slot) else str(atom)


# -- pathology filters ---------------------------------------------------------------


def plan_type_labels(store: KgStore, plan: qa.QueryPlan) -> set[str]:
    """Labels of every type a plan mentions."""
    return {store.type_label(ty) for kind, ty in qa.plan_atoms(plan) if kind == "type"}


def pathology_filter(
    store: KgStore,
    inst: Instantiation,
    generic_relations: Iterable[str] = (),
    peer_type_blocklist: Iterable[tuple[str, str]] = (),
) -> str | None:
    """Reject instantiations with known-unnatural shapes.

    Returns None to accept, otherwise one of "label_overlap" (a relation
    label repeats a bound type label), "generic_predicate" (relation is
    configured as too generic) or "peer_block" (a configured unnatural
    type pairing).
    """
    relations = {store.relation_label(r).lower() for r in qa.plan_relations(inst.plan)}
    if relations & {t.lower() for t in plan_type_labels(store, inst.plan)}:
        return "label_overlap"
    if relations & {g.lower() for g in generic_relations}:
        return "generic_predicate"
    blocked = [{a.lower(), b.lower()} for a, b in peer_type_blocklist]
    for types in qa.plan_peer_types(inst.plan):
        peers = {store.type_label(ty).lower() for ty in types}
        if any(pair <= peers for pair in blocked):
            return "peer_block"
    return None
