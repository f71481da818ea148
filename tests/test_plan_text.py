"""Canonical plan text: parse/print round-trips and slot handling."""

import random
import re

import pytest

from conftest import make_random_store
from kgdialog import plan_text, query_algebra as qa
from kgdialog.kg_store import Tuple
from kgdialog.plan_text import PlanTextError, Slot
from test_query_algebra import random_plan


CASES = [
    "Retrieve(Lookup(obj, flows_through, India, river))",
    "Count(Lookup(obj, flows_through, India, river))",
    "Retrieve(Intersection(Lookup(obj, flows_through, India, river), Lookup(obj, flows_through, China, river)))",
    "Retrieve(TypeUnion(Lookup(obj, flows_through, India, river), Lookup(obj, capital, India, city)))",
    'Verify((flows_through, India, Ganga), (capital, India, "New Delhi"))',
    "ArgOpt(Group(country, By(flows_through, obj, river)), max)",
    "ThresholdFilter(Group(river, By(flows_through, subj, country)), atleast, 2)",
    "CountOverThreshold(Group(river, By(flows_through, subj, country)), approx, 3)",
    "Comparative(Group(country, By(flows_through, obj, river)), China, more)",
    "CountOverComparative(Group(country, By(flows_through, obj, river)), Egypt, less)",
]


@pytest.mark.parametrize("text", CASES)
def test_parse_print_round_trip(store, text):
    plan = plan_text.parse_plan(text, store)
    printed = plan_text.print_plan(plan, store)
    assert plan_text.parse_plan(printed, store) == plan


@pytest.mark.parametrize("text", CASES)
def test_print_reproduces_canonical_text(store, text):
    assert plan_text.print_plan(plan_text.parse_plan(text, store), store) == text


def test_node_table_follows_class_field_order(store):
    from dataclasses import fields
    from typing import get_args

    # one row per class, with one kind per dataclass field
    classes = {cls for union in (qa.SetExpr, qa.QueryPlan) for cls in get_args(union)}
    assert set(qa.NODES) == classes | {qa.Counted, qa.GroupSpec}
    for cls, row in qa.NODES.items():
        assert [f.name for f in row.fields] == [f.name for f in fields(cls)], cls
    names = [row.name for row in qa.NODES.values()]
    assert len(set(names)) == len(names)
    # every node name round-trips, on a plan that holds it
    printed = {plan_text.print_plan(plan_text.parse_plan(text, store), store) for text in CASES}
    assert printed == set(CASES)
    used = {m for text in CASES for m in re.findall(r"([A-Za-z]+)\(", text)}
    assert used | {"Union", "Difference"} == set(names)
    for op in ("Union", "Difference"):
        text = f"Retrieve({op}(Lookup(obj, flows_through, India, river), Lookup(obj, flows_through, China, river)))"
        assert plan_text.print_plan(plan_text.parse_plan(text, store), store) == text


MISPLACED = [
    "Retrieve(TypeUnion(Lookup(obj, flows_through, India, river), By(capital, obj, city)))",
    "ArgOpt(Group(country, Lookup(obj, flows_through, India, river)), max)",
    "Verify(India)",
    "Retrieve(India)",
    "Lookup(obj, flows_through, India, river)",
    "ArgOpt(Lookup(obj, flows_through, India, river), max)",
    "Comparative(By(flows_through, obj, river), China, more)",
    "Retrieve(Group(river, By(flows_through, subj, country)))",
    "Count(By(flows_through, subj, country))",
    "Retrieve(Union(Lookup(obj, flows_through, India, river), Retrieve(Lookup(obj, flows_through, China, river))))",
]


@pytest.mark.parametrize("bad", MISPLACED)
def test_misplaced_nodes_are_rejected(store, bad):
    with pytest.raises(PlanTextError):
        plan_text.parse_plan(bad, store)


def test_printed_form_is_canonical(store, ids):
    plan = qa.Count(qa.Lookup("obj", ids["flows_through"], ids["India"], ids["river"]))
    assert plan_text.print_plan(plan, store) == "Count(Lookup(obj, flows_through, India, river))"


def test_labels_with_spaces_are_quoted(store, ids):
    plan = qa.Verify(
        (Tuple(ids["capital"], ids["India"], store.entity_id("New Delhi")),)
    )
    printed = plan_text.print_plan(plan, store)
    assert '"New Delhi"' in printed
    assert plan_text.parse_plan(printed, store) == plan


@pytest.mark.parametrize("seed", range(4))
def test_round_trip_over_random_plans(seed):
    s = make_random_store(seed, n_tuples=120, n_relations=3, n_types=3)
    rng = random.Random(seed)
    for _ in range(60):
        plan = random_plan(rng, s)
        assert plan_text.parse_plan(plan_text.print_plan(plan, s), s) == plan


def test_awkward_labels_round_trip():
    from kgdialog.kg_store import KgStore

    labels = ['42', 'He said "hi"', "back\\slash", "min"]
    s = KgStore(
        [Tuple(0, 0, 1), Tuple(0, 2, 3)],
        labels,
        ["rel"],
        ["thing"],
        {i: frozenset({0}) for i in range(4)},
    )
    for e in range(4):
        plan = qa.Retrieve(qa.Lookup("obj", 0, e, 0))
        printed = plan_text.print_plan(plan, s)
        assert plan_text.parse_plan(printed, s) == plan
    # the all-digit label must be quoted so it is not read as a number
    printed = plan_text.print_plan(qa.Retrieve(qa.Lookup("obj", 0, 0, 0)), s)
    assert '"42"' in printed


def test_slot_markers_parse_symbolically():
    node = plan_text.parse_symbolic("Retrieve(Lookup(obj, ⟨relation⟩, ⟨entity:1⟩, ⟨object_type⟩))")
    assert plan_text.slots_of(node) == frozenset({"relation", "entity:1", "object_type"})


def test_unresolved_slot_raises_by_name(store):
    node = plan_text.parse_symbolic("Count(Lookup(obj, flows_through, ⟨entity:1⟩, river))")
    with pytest.raises(PlanTextError, match="entity:1"):
        plan_text.bind(node, store)
    plan = plan_text.bind(node, store, {"entity:1": "India"})
    assert qa.execute(store, plan) == qa.Counts(((None, 3),))


def test_bindings_accept_ids_and_labels(store, ids):
    node = plan_text.parse_symbolic("Retrieve(Lookup(obj, ⟨relation⟩, ⟨entity:1⟩, river))")
    by_label = plan_text.bind(node, store, {"relation": "flows_through", "entity:1": "China"})
    by_id = plan_text.bind(node, store, {"relation": ids["flows_through"], "entity:1": ids["China"]})
    assert by_label == by_id


MALFORMED = [
    "",
    "Nonsense(1)",
    "Retrieve(",
    "Retrieve(Lookup(obj, flows_through, India, river)) trailing",
    "Retrieve(Lookup(obj, flows_through, India))",
    'Verify((flows_through, India))',
    "ThresholdFilter(Group(river, By(flows_through, subj, country)), atleast, many)",
]


@pytest.mark.parametrize("bad", MALFORMED)
def test_malformed_text_raises(store, bad):
    with pytest.raises(PlanTextError):
        plan_text.parse_plan(bad, store)


def reference_tokenize(text):
    """The tokenizer as a character loop: the reference `_tokenize` must equal."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "(),":
            tokens.append((ch, ch))
            i += 1
        elif ch == '"':
            j = i + 1
            out = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    j += 1
                out.append(text[j])
                j += 1
            if j >= n:
                raise PlanTextError(f"unterminated quote in plan text: {text!r}")
            tokens.append(("quoted", "".join(out)))
            i = j + 1
        elif ch == "⟨":
            j = text.find("⟩", i + 1)
            if j < 0:
                raise PlanTextError(f"unterminated slot marker in plan text: {text!r}")
            tokens.append(("slot", text[i + 1 : j]))
            i = j + 1
        else:
            m = re.match(r"[^\s(),\"]+", text[i:])
            tokens.append(("atom", m.group(0)))
            i += m.end()
    return tokens


def tokenize_outcome(tokenize, text):
    """The tokens, or the message of the PlanTextError raised instead."""
    try:
        return tokenize(text)
    except PlanTextError as exc:
        return str(exc)


# the characters the tokenizer branches on, two that str.isspace counts as
# whitespace beyond ASCII, and ordinary label characters
TOKEN_ALPHABET = '(),"\\⟨⟩ \t\n\x1c\xa0abcXYZ019-_:é'


def test_tokenize_equals_the_character_loop():
    rng = random.Random(0)
    weights = [6 if ch in '(),"\\⟨⟩ ' else 1 for ch in TOKEN_ALPHABET]
    for _ in range(20_000):
        text = "".join(rng.choices(TOKEN_ALPHABET, weights, k=rng.randint(0, 24)))
        expected = tokenize_outcome(reference_tokenize, text)
        assert tokenize_outcome(plan_text._tokenize, text) == expected, text


def test_unknown_labels_are_reported(store):
    with pytest.raises(Exception, match="Atlantis"):
        plan_text.parse_plan("Retrieve(Lookup(obj, flows_through, Atlantis, river))", store)


def test_rewrite_atoms_renames_slots():
    node = plan_text.parse_symbolic("Retrieve(Lookup(obj, ⟨relation⟩, ⟨entity:1⟩, river))")
    renamed = plan_text.rewrite_atoms(
        node, lambda a: Slot(a.name + "_b") if isinstance(a, Slot) else a
    )
    assert plan_text.slots_of(renamed) == frozenset({"relation_b", "entity:1_b"})


def test_symbolic_plan_is_made_of_the_plan_classes():
    plan = plan_text.parse_symbolic("Retrieve(Lookup(obj, ⟨relation⟩, ⟨entity:1⟩, river))")
    assert plan == qa.Retrieve(qa.Lookup("obj", Slot("relation"), Slot("entity:1"), "river"))


def test_symbolic_plan_keeps_numbers_facts_and_repeated_arguments():
    plan = plan_text.parse_symbolic(
        'ThresholdFilter(Group(river, By(flows_through, subj, ⟨type⟩), By(capital, obj, city)), atleast, 2)'
    )
    legs = (qa.Counted("flows_through", "subj", Slot("type")), qa.Counted("capital", "obj", "city"))
    assert plan == qa.ThresholdFilter(qa.GroupSpec("river", legs), "atleast", 2)
    plan = plan_text.parse_symbolic('Verify((capital, India, "New Delhi"), (⟨relation⟩, 7, ⟨entity:2⟩))')
    assert plan == qa.Verify((("capital", "India", "New Delhi"), (Slot("relation"), 7, Slot("entity:2"))))


MALFORMED_SYMBOLIC = [
    ("Retrieve(Lookup(obj, ⟨relation⟩, ⟨entity:1⟩))", "Lookup takes 4 arguments, got 3"),
    ("Retrieve(Lookup(obj, a, b, c), Lookup(obj, a, b, c))", "Retrieve takes 1 arguments, got 2"),
    ("ArgOpt()", "ArgOpt takes 2 arguments, got 0"),
    ("Group()", "Group takes at least 2 arguments"),
    ("Verify()", "Verify takes at least 1 argument"),
    ("Retrieve(TypeUnion())", "TypeUnion takes at least 1 argument"),
    ("ThresholdFilter(Group(river), atleast, 2)", "Group takes at least 2 arguments"),
    ("Retrieve(⟨object_type⟩)", "Retrieve argument 1 must be a set expression"),
    ("Count(Group(river, By(flows_through, subj, country)))", "Count argument 1 must be a set expression"),
    ("Retrieve(TypeUnion(Lookup(obj, a, b, c), By(a, obj, c)))", "TypeUnion argument 2 must be a Lookup(...)"),
    ("ArgOpt(Group(c, Lookup(obj, a, b, c)), max)", "Group argument 2 must be a By(...)"),
    ("ArgOpt(Lookup(obj, a, b, c), max)", "ArgOpt argument 1 must be a Group(...)"),
    ("Verify(India)", "Verify argument 1 must be a (rel, subj, obj) fact"),
    ("Retrieve(Lookup(obj, Lookup(obj, a, b, c), b, c))", "Lookup argument 2 must be a label, number or slot marker"),
    ("Lookup(obj, flows_through, India, river)", "Lookup is not a top-level plan"),
    ("Retrieve(Lookup(sideways, a, b, c))", "Lookup argument 1: unknown direction 'sideways', expected one of obj, subj"),
    (
        "ThresholdFilter(Group(c, By(a, obj, c)), sometimes, 2)",
        "ThresholdFilter argument 2: unknown comparator 'sometimes', expected one of atleast, atmost, equal, approx",
    ),
    ("ThresholdFilter(Group(c, By(a, obj, c)), atleast, -1)", "ThresholdFilter argument 3: expected a number >= 0, got -1"),
    ("CountOverThreshold(Group(c, By(a, obj, c)), atmost, many)", "CountOverThreshold argument 3: expected a number >= 0, got 'many'"),
    ("ArgOpt(Group(c, By(a, obj, c)), middle)", "ArgOpt argument 2: unknown optimum 'middle', expected one of min, max"),
    ("Comparative(Group(c, By(a, obj, c)), b, bigger)", "Comparative argument 3: unknown comparison 'bigger', expected one of more, less"),
]


@pytest.mark.parametrize("text, shown", MALFORMED_SYMBOLIC)
def test_malformed_symbolic_plans_fail_at_parse_naming_the_node(text, shown):
    with pytest.raises(PlanTextError, match=f"^{re.escape(shown)}$"):
        plan_text.parse_symbolic(text)


def test_slot_markers_pass_the_keyword_check_until_bound(store):
    node = plan_text.parse_symbolic("ArgOpt(Group(country, By(flows_through, ⟨dir⟩, river)), ⟨opt⟩)")
    plan = plan_text.bind(node, store, {"dir": "obj", "opt": "max"})
    assert qa.execute(store, plan) == qa.execute(store, plan_text.parse_plan(
        "ArgOpt(Group(country, By(flows_through, obj, river)), max)", store))
    with pytest.raises(qa.PlanError, match="^unknown direction 'up', expected one of obj, subj$"):
        plan_text.bind(node, store, {"dir": "up", "opt": "max"})
    with pytest.raises(qa.PlanError, match="^expected a number >= 0, got -2$"):
        plan_text.bind(plan_text.parse_symbolic("CountOverThreshold(Group(river, By(flows_through, subj, country)), atleast, ⟨n⟩)"), store, {"n": -2})


def test_fixture_template_schemas_parse_into_the_plan_classes(templates):
    lookup = {
        direction: qa.Lookup(direction, Slot("relation"), Slot("entity:1"), Slot(f"{side}_type"))
        for direction, side in (("obj", "object"), ("subj", "subject"))
    }
    fact = (Slot("relation"), Slot("entity:2"), Slot("entity:1"))
    expected = {
        "capital_city": qa.Retrieve(lookup["obj"]),
        "capital_country": qa.Retrieve(lookup["subj"]),
        "country_of_river": qa.Retrieve(lookup["subj"]),
        "river_flows": qa.Retrieve(lookup["obj"]),
        "river_flows_p2": qa.Retrieve(lookup["obj"]),
        "verify_flows": qa.Verify((fact,)),
        "verify_flows_2": qa.Verify((fact, (Slot("relation"), Slot("entity:2"), Slot("entity:3")))),
    }
    assert {t.id: t.plan_schema for t in templates} == expected
    assert [t.kind for t in templates] == [type(expected[t.id]).__name__ for t in templates]


# -- one pass: parse_plan equals parse_symbolic then bind ----------------------------


def outcome(parse):
    """The plan with its walk, or the class and message of what was raised."""
    try:
        plan = parse()
    except Exception as exc:
        return type(exc), str(exc)
    return plan, list(qa.plan_atoms(plan)), qa.plan_nodes(plan)


def assert_one_pass_equals_two(text, store, bindings=None):
    one = outcome(lambda: plan_text.parse_plan(text, store, bindings))
    two = outcome(lambda: plan_text.bind(plan_text.parse_symbolic(text), store, bindings))
    assert one == two, text
    return one


@pytest.mark.parametrize("seed", range(3))
def test_one_pass_parse_equals_bind_over_random_plans(seed):
    s = make_random_store(seed, n_tuples=120, n_relations=3, n_types=3)
    rng = random.Random(seed)
    for _ in range(60):
        plan = random_plan(rng, s)
        got = assert_one_pass_equals_two(plan_text.print_plan(plan, s), s)
        assert got[0] == plan


def test_one_pass_parse_equals_bind_over_a_graphgen_corpus(templates, monkeypatch):
    from conftest import REPO
    from kgdialog import dataset_pipeline as pipe
    from kgdialog.config import RunConfig

    monkeypatch.syspath_prepend(str(REPO / "bench"))
    import graphgen

    s = graphgen.make_graph(7, 1800, "heavy")
    corpus = pipe.generate_corpus(s, templates, 40, RunConfig(seed=7), seed=7)
    plans = {id(t.plan): t.plan for d in corpus.dialogs for t in d.turns if t.plan is not None}
    kinds = set()
    for plan in plans.values():
        assert assert_one_pass_equals_two(plan_text.print_plan(plan, s), s)[0] == plan
        kinds.add(type(plan))
    assert {qa.ThresholdFilter, qa.Comparative, qa.Verify} <= kinds


def test_one_pass_parse_walks_no_copy(store, monkeypatch):
    def no_copy(*args):
        raise AssertionError("parse_plan copied the plan")

    monkeypatch.setattr(qa, "map_atoms", no_copy)
    plan = plan_text.parse_plan(CASES[6], store)
    assert [v for _, v in qa.plan_atoms(plan)][-2:] == ["atleast", 2]
    assert [type(n) for n in qa.plan_nodes(plan)] == [qa.ThresholdFilter, qa.GroupSpec, qa.Counted]


MIXED_FAULTS = [
    # a syntax fault after an unknown label: the syntax fault is reported
    ("Retrieve(Lookup(obj, flows_through, Atlantis))", "Lookup takes 4 arguments, got 3"),
    ("Retrieve(Lookup(obj, nope, Atlantis, river)) trailing", "trailing tokens after plan"),
    ("Retrieve(Lookup(obj, nope, India, river)", "unexpected end of plan text"),
    ("Retrieve(Lookup(sideways, nope, India, river))", "Lookup argument 1: unknown direction 'sideways'"),
    ("Lookup(obj, nope, India, river)", "Lookup is not a top-level plan"),
    ('Verify((nope, India, "Atlantis"), (capital, India))', "facts need 3 elements, got 2"),
    ("Count(Lookup(obj, ⟨relation⟩, India, river), Atlantis)", "Count takes 1 arguments, got 2"),
    # resolution faults alone: the first in text order
    ("Retrieve(Lookup(obj, nope, Atlantis, river))", "unknown relation label 'nope'"),
    ("Retrieve(Lookup(obj, flows_through, Atlantis, lake))", "unknown entity label 'Atlantis'"),
    ("Count(Lookup(obj, flows_through, ⟨entity:1⟩, river))", "unresolved slot ⟨entity:1⟩"),
]


@pytest.mark.parametrize("text, shown", MIXED_FAULTS)
def test_one_pass_parse_reports_syntax_before_resolution(store, text, shown):
    kind, message = assert_one_pass_equals_two(text, store)
    assert shown in message


@pytest.mark.parametrize("text", [*MALFORMED, *MISPLACED, *(text for text, _ in MALFORMED_SYMBOLIC)])
def test_one_pass_parse_keeps_every_malformed_text_error(store, text):
    kind, _ = assert_one_pass_equals_two(text, store)
    assert kind is PlanTextError


def test_one_pass_parse_binds_slots_as_bind_does(store, ids):
    text = "ArgOpt(Group(country, By(flows_through, ⟨dir⟩, river)), ⟨opt⟩)"
    for bindings in ({"dir": "obj", "opt": "max"}, {"dir": "up", "opt": "max"}, {"dir": "obj"}, {}):
        assert_one_pass_equals_two(text, store, bindings)
    text = "Retrieve(Lookup(obj, ⟨relation⟩, ⟨entity:1⟩, river))"
    for bindings in ({"relation": "flows_through", "entity:1": "China"}, {"relation": ids["flows_through"], "entity:1": 1.5}):
        assert_one_pass_equals_two(text, store, bindings)
