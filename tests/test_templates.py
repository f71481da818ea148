"""Template loading, instantiation, transforms and pathology filters.

Answers asserted here were derived with the brute-force evaluator over the
fixture graph before being frozen.
"""

import re
from dataclasses import fields

import pytest

from kgdialog import query_algebra as qa, templates as tpl
from kgdialog.kg_store import KgStore, Tuple
from kgdialog.templates import (
    Rejection,
    TemplateError,
    instantiate,
    load_templates,
    pathology_filter,
    template_from_record,
    transform_add_type,
    transform_argopt,
    transform_comparative,
    transform_logical,
    transform_multi_relation,
    transform_threshold,
    transform_to_count,
)


@pytest.fixture()
def river(templates):
    return next(t for t in templates if t.id == "river_flows")


@pytest.fixture()
def capital(templates):
    return next(t for t in templates if t.id == "capital_city")


def answer_names(store, inst):
    assert isinstance(inst.answer, qa.Entities)
    return {store.entity_label(e) for e in inst.answer.members}


# -- loading -------------------------------------------------------------------------


def test_fixture_templates_load_and_validate(templates):
    assert {t.id for t in templates} >= {
        "river_flows",
        "country_of_river",
        "capital_city",
        "verify_flows",
    }
    river = next(t for t in templates if t.id == "river_flows")
    assert river.direction == "object_based"
    assert river.anchor_slot() == "entity:1"


def test_slot_facts_are_worked_out_once_per_template(river, monkeypatch):
    from kgdialog import plan_text

    walks = []
    slots_of = plan_text.slots_of
    monkeypatch.setattr(plan_text, "slots_of", lambda plan: walks.append(plan) or slots_of(plan))
    derived = transform_to_count(river)
    for _ in range(3):
        assert derived.anchor_slot() == "entity:1"
        assert derived.free_slots() == ("entity:1",)
        assert derived.plan_slots() >= {"entity:1"}
    assert walks == [derived.plan_schema]


def test_worked_out_facts_and_derivations_live_in_slots(river):
    # a dict entry would slow every later attribute read on the template
    river = transform_logical(river, "and")
    river.anchor_slot()
    tpl.derived(river, transform_to_count)
    assert set(vars(river)) == {f.name for f in fields(river)}


def test_a_derivation_is_made_once_per_template_and_arguments(river, capital):
    made = []

    def transform(template, *args):
        made.append((template.id, args))
        return transform_threshold(template, *args)

    first = tpl.derived(river, transform, "atleast", 2)
    assert tpl.derived(river, transform, "atleast", 2) is first
    assert tpl.derived(river, transform, "atmost", 2) is not first
    tpl.derived(capital, transform, "atleast", 2)
    assert made == [("river_flows", ("atleast", 2)), ("river_flows", ("atmost", 2)), ("capital_city", ("atleast", 2))]
    assert first == transform_threshold(river, "atleast", 2)


def test_a_failing_derivation_keeps_nothing(river):
    calls = []

    def transform(template):
        calls.append(template.id)
        raise TemplateError("not admitted")

    for _ in range(2):
        with pytest.raises(TemplateError):
            tpl.derived(river, transform)
    assert calls == ["river_flows", "river_flows"]


def test_empty_file_loads_empty_set(tmp_path):
    path = tmp_path / "templates.jsonl"
    path.write_text("")
    assert load_templates(path) == []


def test_surface_entity_slot_missing_from_plan_is_an_error():
    record = {
        "id": "broken",
        "direction": "object_based",
        "surface": {"singular": "Which ⟨object_type⟩ near ⟨entity:2⟩ flows through ⟨entity:1⟩ ?"},
        "plan_schema": "Retrieve(Lookup(obj, ⟨relation⟩, ⟨entity:1⟩, ⟨object_type⟩))",
    }
    with pytest.raises(TemplateError, match="entity:2"):
        template_from_record(record)


def test_direction_must_match_lookup():
    record = {
        "id": "broken",
        "direction": "subject_based",
        "surface": {"singular": "Which ⟨object_type⟩ flows through ⟨entity:1⟩ ?"},
        "plan_schema": "Retrieve(Lookup(obj, ⟨relation⟩, ⟨entity:1⟩, ⟨object_type⟩))",
    }
    with pytest.raises(TemplateError, match="direction"):
        template_from_record(record)


def test_bad_json_reports_line(tmp_path):
    path = tmp_path / "templates.jsonl"
    path.write_text("{not json}\n")
    with pytest.raises(TemplateError, match=":1"):
        load_templates(path)


def test_surface_accepts_array_form(store):
    record = {
        "id": "array_surface",
        "direction": "object_based",
        "surface": [
            "Which ⟨object_type⟩ flows through ⟨entity:1⟩ ?",
            "Which ⟨object_type+pl⟩ flow through ⟨entity:1⟩ ?",
        ],
        "plan_schema": "Retrieve(Lookup(obj, ⟨relation⟩, ⟨entity:1⟩, ⟨object_type⟩))",
        "fixed": {"relation": "flows_through", "subject_type": "country", "object_type": "river"},
    }
    template = template_from_record(record)
    assert template.surface["singular"].startswith("Which ⟨object_type⟩")
    inst = instantiate(store, template, {"entity:1": "India"}, number="plural")
    assert inst.question == "Which rivers flow through India ?"


@pytest.mark.parametrize(
    "ref, accepted",
    [("country", True), ("subject_type", True), ("object_type", False), ("relation", False)],
)
def test_slot_type_is_a_store_type_or_a_type_slot_that_fixed_binds(store, ref, accepted):
    record = {
        "id": "typed_anchor",
        "direction": "object_based",
        "surface": {"singular": "Which ⟨object_type⟩ flows through ⟨entity:1⟩ ?"},
        "plan_schema": "Retrieve(Lookup(obj, ⟨relation⟩, ⟨entity:1⟩, ⟨object_type⟩))",
        "fixed": {"relation": "flows_through", "subject_type": "country"},
        "slot_types": {"entity:1": ref},
    }
    assert template_from_record(record).slot_types == {"entity:1": ref}
    if accepted:
        assert tpl.anchor_type(store, template_from_record(record, store)) == store.type_id("country")
    else:
        with pytest.raises(TemplateError, match=f"field 'slot_types': unknown type label '{ref}'"):
            template_from_record(record, store)


@pytest.mark.parametrize(
    "schema, fixed, shown",
    [
        (
            "Retrieve(Union(Lookup(obj, ⟨relation⟩, ⟨entity:1⟩, ⟨object_type⟩), Lookup(obj, ⟨relation⟩, ⟨entity:1⟩, river)))",
            {"object_type": "city"},
            "type-incompatible branches",
        ),
        (
            "Retrieve(TypeUnion(Lookup(obj, capital, India, city), Lookup(obj, flows_through, ⟨entity:2⟩, river)))",
            {"entity:2": "China"},
            "TypeUnion branches must share one anchor",
        ),
        (
            "Retrieve(TypeUnion(Lookup(obj, capital, ⟨entity:1⟩, city), Lookup(obj, ⟨relation⟩, ⟨entity:1⟩, ⟨object_type⟩)))",
            {"object_type": "city"},
            "TypeUnion branches must differ in result type",
        ),
        ("Retrieve(Lookup(obj, ⟨relation⟩, ⟨entity:1⟩, lake))", {}, "unknown type label 'lake'"),
        # a number slot takes a JSON integer in ``fixed``, not a numeral string
        ("ThresholdFilter(Group(country, By(⟨relation⟩, obj, river)), atleast, ⟨n⟩)", {"n": "2"}, "got '2'"),
    ],
)
def test_schema_breaking_a_plan_rule_fails_at_load_given_a_store(store, schema, fixed, shown):
    record = {
        "id": "broken",
        "direction": "object_based",
        "surface": "Which ⟨object_type⟩ is it ?",
        "plan_schema": schema,
        "fixed": {"relation": "flows_through", **fixed},
    }
    template_from_record(record)  # without a store only the text is checked
    with pytest.raises(TemplateError, match=f"^field 'plan_schema': .*{re.escape(shown)}"):
        template_from_record(record, store)


def test_a_template_record_fixes_a_number_slot(store, river):
    record = {
        "id": "rivers_atleast",
        "direction": "object_based",
        "surface": "Which rivers flow through atleast ⟨n⟩ countries ?",
        "plan_schema": "ThresholdFilter(Group(⟨object_type⟩, By(⟨relation⟩, subj, ⟨subject_type⟩)), atleast, ⟨n⟩)",
        "fixed": {**river.fixed, "n": 2},
    }
    template = template_from_record(record, store)
    inst = instantiate(store, template, {})
    assert inst.question == "Which rivers flow through atleast 2 countries ?"
    assert inst.answer == instantiate(store, transform_threshold(river, "atleast", 2), {}).answer
    assert answer_names(store, inst) == {"Brahmaputra"}


@pytest.mark.parametrize(
    "fixed, got",
    [
        ({"n": True}, "bool"),
        ({"n": -1}, "int"),
        ({"n": 2.0}, "float"),
        ({"n:2": [2]}, "list"),
        ({"relation": 0}, "int"),
        ({"entity:1": 3}, "int"),
    ],
)
def test_other_non_string_fixed_values_fail_naming_the_field(fixed, got):
    record = {
        "id": "t",
        "direction": "object_based",
        "surface": "Which rivers flow through atleast ⟨n⟩ countries ?",
        "plan_schema": "ThresholdFilter(Group(river, By(flows_through, subj, country)), atleast, ⟨n⟩)",
        "fixed": fixed,
    }
    with pytest.raises(TemplateError, match=f"^field 'fixed' must hold only strings, got {got}$"):
        template_from_record(record)


def test_free_slots_are_left_to_instantiation(store):
    # the result types are free, so the union may still be well typed
    record = {
        "id": "free",
        "direction": "object_based",
        "surface": "Which ⟨object_type⟩ is it ?",
        "plan_schema": "Retrieve(Union(Lookup(obj, ⟨relation⟩, ⟨entity:1⟩, ⟨object_type⟩), "
        "Lookup(obj, ⟨relation⟩, ⟨entity:2⟩, ⟨object_type2⟩)))",
    }
    assert template_from_record(record, store).free_slots() == (
        "entity:1", "entity:2", "object_type", "object_type2", "relation"
    )


# -- instantiation --------------------------------------------------------------------


def test_instantiate_river_template(store, river):
    inst = instantiate(store, river, {"entity:1": "India"})
    assert inst.question == "Which river flows through India ?"
    assert answer_names(store, inst) == {"Ganga", "Yamuna", "Brahmaputra"}
    assert inst.plan == qa.Retrieve(
        qa.Lookup(
            "obj",
            store.relation_id("flows_through"),
            store.entity_id("India"),
            store.type_id("river"),
        )
    )


def test_instantiate_rejects_empty_answer(store, capital):
    rejected = instantiate(store, capital, {"entity:1": "Egypt"})
    assert isinstance(rejected, Rejection)
    assert rejected.reason == "empty_answer"


def test_instantiate_rejects_on_answer_cap(store, river):
    rejected = instantiate(store, river, {"entity:1": "India"}, answer_cap=2)
    assert isinstance(rejected, Rejection)
    assert rejected.reason == "answer_cap"


def test_instantiate_type_mismatch_is_an_error(store, river):
    with pytest.raises(TemplateError, match="not of type"):
        instantiate(store, river, {"entity:1": "Ganga"})


def test_rendered_question_has_no_markers(store, templates):
    for t in templates:
        if t.kind != "Retrieve" or t.anchor_slot() is None:
            continue
        ty = tpl.anchor_type(store, t)
        for anchor in sorted(store.entities_of_type(ty)):
            built = instantiate(store, t, {t.anchor_slot(): anchor}, number="plural")
            if isinstance(built, Rejection):
                continue
            assert "⟨" not in built.question


def test_paraphrase_group_shares_plans_and_answers(store, templates):
    group = [t for t in templates if t.paraphrase_group == "pg_river_flows"]
    assert len(group) == 2
    insts = [instantiate(store, t, {"entity:1": "China"}) for t in group]
    assert insts[0].plan == insts[1].plan
    assert insts[0].answer == insts[1].answer
    assert insts[0].question != insts[1].question


# -- transforms ------------------------------------------------------------------------


def test_transform_to_count(store, river):
    counting = transform_to_count(river)
    inst = instantiate(store, counting, {"entity:1": "India"})
    assert inst.question == "How many rivers flow through India ?"
    assert inst.answer == qa.Counts(((None, 3),))
    with pytest.raises(TemplateError):
        transform_to_count(counting)


def test_count_equals_base_cardinality_everywhere(store, river):
    counting = transform_to_count(river)
    for anchor in sorted(store.entities_of_type(tpl.anchor_type(store, river))):
        base = instantiate(store, river, {"entity:1": anchor})
        counted = instantiate(store, counting, {"entity:1": anchor})
        if isinstance(base, Rejection):
            continue
        assert counted.answer == qa.Counts(((None, len(base.answer.members)),))


def test_transform_logical_and_or_butnot(store, river):
    land = transform_logical(river, "and")
    inst = instantiate(store, land, {"entity:1": "India", "entity:2": "China"})
    assert inst.question == "Which river flows through India and China ?"
    assert answer_names(store, inst) == {"Brahmaputra"}

    lor = transform_logical(river, "or")
    inst = instantiate(store, lor, {"entity:1": "India", "entity:2": "China"}, number="plural")
    assert inst.question == "Which rivers flow through India or China ?"
    assert answer_names(store, inst) == {"Ganga", "Yamuna", "Brahmaputra", "Mekong"}

    lnot = transform_logical(river, "but_not")
    rejected = instantiate(store, lnot, {"entity:1": "India", "entity:2": "India"})
    assert isinstance(rejected, Rejection) and rejected.reason == "empty_answer"


def test_transform_threshold_and_count_over(store, river):
    th = transform_threshold(river, "atleast", 2)
    inst = instantiate(store, th, {})
    assert inst.question == "Which rivers flow through atleast 2 countries ?"
    assert answer_names(store, inst) == {"Brahmaputra"}
    over = transform_to_count(th)
    inst2 = instantiate(store, over, {})
    assert inst2.question == "How many rivers flow through atleast 2 countries ?"
    assert inst2.answer == qa.Counts(((None, 1),))


def test_transform_argopt(store, river):
    best = transform_argopt(river, "max")
    inst = instantiate(store, best, {})
    assert inst.question == "Which river flows through maximum number of countries ?"
    assert answer_names(store, inst) == {"Brahmaputra"}


def test_transform_comparative_and_count_over(store, river):
    cmp_ = transform_comparative(river, "more")
    inst = instantiate(store, cmp_, {"entity:ref": "Ganga"})
    assert inst.question == "Which rivers flow through more number of countries than Ganga ?"
    assert answer_names(store, inst) == {"Brahmaputra"}
    over = transform_to_count(cmp_)
    inst2 = instantiate(store, over, {"entity:ref": "Ganga"})
    assert inst2.answer == qa.Counts(((None, 1),))


def test_reference_and_second_anchor_are_slots_bound_at_instantiation(river):
    # one derivation serves every reference and every second anchor
    assert transform_comparative(river, "more").free_slots() == ("entity:ref",)
    assert tpl.extra_anchor_slot(river) == "entity:2"
    for op in ("and", "or", "but_not"):
        assert transform_logical(river, op).free_slots() == ("entity:1", "entity:2")


def test_transform_add_type_and_grouped_variants(store, river):
    multi = transform_add_type(river, "capital", "city")
    inst = instantiate(store, multi, {"entity:1": "India"}, number="plural")
    assert inst.question == "Which rivers and cities flow through India ?"
    assert answer_names(store, inst) == {"Ganga", "Yamuna", "Brahmaputra", "New Delhi"}

    counts = instantiate(store, transform_to_count(multi), {"entity:1": "India"})
    assert counts.answer == qa.Counts(
        ((store.type_id("river"), 3), (store.type_id("city"), 1))
    )

    th = instantiate(store, transform_threshold(multi, "atleast", 2), {})
    assert th.question == "Which countries have atleast 2 rivers and cities combined ?"
    assert answer_names(store, th) == {"India", "China"}

    ao = instantiate(store, transform_argopt(multi, "max"), {})
    assert ao.question == "Which country has maximum number of rivers and cities combined ?"
    assert answer_names(store, ao) == {"India"}

    cmp_ = instantiate(store, transform_comparative(multi, "more"), {"entity:ref": "Egypt"})
    assert cmp_.question == "Which countries have more rivers and cities than Egypt ?"
    assert answer_names(store, cmp_) == {"India", "China"}


def test_group_transforms_on_subject_based_template(store, templates):
    base = next(t for t in templates if t.id == "country_of_river")
    th = instantiate(store, transform_threshold(base, "atleast", 2), {})
    assert th.question == "Which countries does atleast 2 rivers flow through ?"
    assert answer_names(store, th) == {"India", "China"}
    ao = instantiate(store, transform_argopt(base, "max"), {})
    assert ao.question == "Which country does maximum number of rivers flow through ?"
    assert answer_names(store, ao) == {"India"}
    cmp_ = instantiate(store, transform_comparative(base, "less"), {"entity:ref": "India"})
    assert answer_names(store, cmp_) == {"China", "Egypt"}
    for inst in (th, ao, cmp_):
        assert qa.brute_force_execute(store, inst.plan) == inst.answer


def test_transform_multi_relation(store, river, capital):
    combined = transform_multi_relation(river, capital, "but_not")
    inst = instantiate(store, combined, {"entity:1": "India", "object_type_b": "river"})
    assert answer_names(store, inst) == {"Ganga", "Yamuna", "Brahmaputra"}
    assert isinstance(inst.plan.expr, qa.Difference)
    relations = qa.plan_relations(inst.plan)
    assert relations == {store.relation_id("flows_through"), store.relation_id("capital")}


def test_transforms_match_brute_force(store, river):
    derived = [
        (transform_threshold(river, "approx", 2), {}),
        (transform_argopt(river, "min"), {}),
        (transform_comparative(river, "less"), {"entity:ref": "Brahmaputra"}),
        (transform_to_count(transform_logical(river, "or")), {"entity:1": "China", "entity:2": "Egypt"}),
    ]
    for template, bindings in derived:
        built = instantiate(store, template, bindings)
        if isinstance(built, Rejection):
            continue
        assert qa.brute_force_execute(store, built.plan) == built.answer


# -- pathology filters ------------------------------------------------------------------


def _religion_store() -> KgStore:
    # relation label coincides with the subject type label
    return KgStore(
        [Tuple(0, 0, 1)],
        ["Alice", "Buddhism"],
        ["religion"],
        ["person", "religion"],
        {0: frozenset({0}), 1: frozenset({1})},
    )


def test_label_overlap_rejected():
    store = _religion_store()
    record = {
        "id": "religion_q",
        "direction": "object_based",
        "surface": {"singular": "Which ⟨object_type⟩ is the ⟨relation⟩ practised by ⟨entity:1⟩ ?"},
        "plan_schema": "Retrieve(Lookup(obj, ⟨relation⟩, ⟨entity:1⟩, ⟨object_type⟩))",
        "fixed": {"relation": "religion", "subject_type": "person", "object_type": "religion"},
    }
    template = template_from_record(record)
    inst = instantiate(store, template, {"entity:1": "Alice"})
    assert inst.question == "Which religion is the religion practised by Alice ?"
    assert pathology_filter(store, inst) == "label_overlap"


def test_generic_relation_rejected(store, river):
    inst = instantiate(store, river, {"entity:1": "India"})
    assert pathology_filter(store, inst) is None
    assert (
        pathology_filter(store, inst, generic_relations=["flows_through"])
        == "generic_predicate"
    )


def test_peer_type_blocklist_rejects_unions(store, river):
    multi = transform_add_type(river, "capital", "city")
    inst = instantiate(store, multi, {"entity:1": "India"})
    assert pathology_filter(store, inst) is None
    assert (
        pathology_filter(store, inst, peer_type_blocklist=[("river", "city")])
        == "peer_block"
    )
    grouped = instantiate(store, transform_threshold(multi, "atleast", 1), {})
    assert (
        pathology_filter(store, grouped, peer_type_blocklist=[("river", "city")])
        == "peer_block"
    )


def test_peer_type_blocklist_sees_type_unions_nested_in_set_operations(store):
    def typed(country):
        e = store.entity_id(country)
        return qa.TypeUnion(
            (
                qa.Lookup("obj", store.relation_id("flows_through"), e, store.type_id("river")),
                qa.Lookup("obj", store.relation_id("capital"), e, store.type_id("city")),
            )
        )

    blocked = [("city", "river")]
    for expr in (
        qa.Union(typed("India"), typed("China")),
        qa.Difference(typed("India"), typed("China")),
        qa.Intersection(qa.Union(typed("India"), typed("China")), typed("Egypt")),
    ):
        plan = qa.Retrieve(expr)
        inst = tpl.Instantiation("nested", {}, "q", plan, qa.execute(store, plan))
        assert pathology_filter(store, inst) is None
        assert pathology_filter(store, inst, peer_type_blocklist=blocked) == "peer_block"
        assert pathology_filter(store, inst, peer_type_blocklist=[("river", "country")]) is None


def test_plan_type_labels_cover_lookups_and_groups(store):
    group = qa.GroupSpec(
        store.type_id("country"),
        (qa.Counted(store.relation_id("capital"), "obj", store.type_id("city")),),
    )
    assert tpl.plan_type_labels(store, qa.ArgOpt(group, "max")) == {"country", "city"}
    lookup = qa.Lookup("subj", store.relation_id("flows_through"), store.entity_id("Nile"), store.type_id("country"))
    assert tpl.plan_type_labels(store, qa.Count(lookup)) == {"country"}
    fact = Tuple(store.relation_id("capital"), store.entity_id("India"), store.entity_id("New Delhi"))
    assert tpl.plan_type_labels(store, qa.Verify((fact,))) == set()
