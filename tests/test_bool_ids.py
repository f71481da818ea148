"""A bool is no id and no cap, though Python counts it as an int: the store's
id checks and ``candidate_tuples``' cap refuse it, as ``json_field`` does."""

import pytest

from kgdialog import entity_linker as el, plan_text, query_algebra as qa
from kgdialog.kg_store import UnknownIdError


@pytest.mark.parametrize(
    "read, message",
    [
        (lambda s: s.entity_label(True), "unknown entity id True"),
        (lambda s: s.relation_label(False), "unknown relation id False"),
        (lambda s: s.type_label(True), "unknown type id True"),
        (lambda s: s.tuple_ids_containing(True), "unknown entity id True"),
        (lambda s: s.objects_of(False, 0), "unknown relation id False"),
        (lambda s: s.subjects_of(0, True), "unknown entity id True"),
        (lambda s: s.sorted_members(False), "unknown type id False"),
    ],
)
def test_store_reads_reject_a_bool_id(store, read, message):
    with pytest.raises(UnknownIdError, match=f"^{message}$"):
        read(store)


def test_candidate_tuples_rejects_a_bool_entity(store):
    with pytest.raises(UnknownIdError, match="^unknown entity id True$"):
        el.candidate_tuples(store, [True])


def test_a_plan_with_bool_ids_fails_validation_and_printing(store):
    plan = qa.Retrieve(qa.Lookup("obj", False, True, True))
    with pytest.raises(UnknownIdError, match="^unknown relation id False$"):
        qa.execute(store, plan)
    with pytest.raises(UnknownIdError, match="^unknown relation id False$"):
        plan_text.print_plan(plan, store)


@pytest.mark.parametrize("cap", [True, False, 1.5, 0, -3, "2"])
def test_candidate_cap_must_be_an_integer_of_at_least_one(store, ids, cap):
    with pytest.raises(ValueError, match=f"^cap must be an integer >= 1, got {cap!r}$"):
        el.candidate_tuples(store, [ids["India"]], cap)


def test_candidate_cap_of_one_still_truncates(store, ids):
    cands = el.candidate_tuples(store, [ids["India"]], 1)
    assert len(cands.tuples) == 1 and cands.truncated
