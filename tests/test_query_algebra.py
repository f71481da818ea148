"""Plan semantics on the fixture graph plus oracle-equivalence properties.

Expected values on the fixture were derived with the brute-force evaluator
(or by hand over the eight tuples) before being frozen here.
"""

import itertools
import random

import pytest

from conftest import KG_T_DIR, make_random_store
from kgdialog import kg_store, query_algebra as qa
from kgdialog.kg_store import KgStore, Tuple


def lookup(ids, direction, rel, anchor, ty):
    return qa.Lookup(direction, ids[rel], ids[anchor], ids[ty])


def names(store, answer):
    assert isinstance(answer, qa.Entities)
    return {store.entity_label(e) for e in answer.members}


# -- retrieve / set operations ----------------------------------------------------


def test_intersection_india_china(store, ids):
    plan = qa.Retrieve(
        qa.Intersection(
            lookup(ids, "obj", "flows_through", "India", "river"),
            lookup(ids, "obj", "flows_through", "China", "river"),
        )
    )
    assert names(store, qa.execute(store, plan)) == {"Brahmaputra"}


def test_difference_india_minus_china(store, ids):
    plan = qa.Retrieve(
        qa.Difference(
            lookup(ids, "obj", "flows_through", "India", "river"),
            lookup(ids, "obj", "flows_through", "China", "river"),
        )
    )
    assert names(store, qa.execute(store, plan)) == {"Ganga", "Yamuna"}


def test_union_is_idempotent(store, ids):
    x = lookup(ids, "obj", "flows_through", "India", "river")
    assert qa.execute(store, qa.Retrieve(qa.Union(x, x))) == qa.execute(store, qa.Retrieve(x))


def test_verify_booleans_align_with_facts(store, ids):
    plan = qa.Verify(
        (
            Tuple(ids["flows_through"], ids["India"], ids["Ganga"]),
            Tuple(ids["flows_through"], ids["India"], ids["Mekong"]),
        )
    )
    assert qa.execute(store, plan) == qa.Booleans((True, False))


def test_count_rivers_of_india(store, ids):
    plan = qa.Count(lookup(ids, "obj", "flows_through", "India", "river"))
    assert qa.execute(store, plan) == qa.Counts(((None, 3),))


def test_argopt_max_country_by_rivers(store, ids):
    group = qa.GroupSpec(ids["country"], (qa.Counted(ids["flows_through"], "obj", ids["river"]),))
    assert names(store, qa.execute(store, qa.ArgOpt(group, "max"))) == {"India"}
    assert names(store, qa.execute(store, qa.ArgOpt(group, "min"))) == {"Egypt"}


def test_threshold_rivers_in_at_least_two_countries(store, ids):
    group = qa.GroupSpec(ids["river"], (qa.Counted(ids["flows_through"], "subj", ids["country"]),))
    plan = qa.ThresholdFilter(group, "atleast", 2)
    assert names(store, qa.execute(store, plan)) == {"Brahmaputra"}
    count = qa.execute(store, qa.CountOverThreshold(group, "atleast", 2))
    assert count == qa.Counts(((None, 1),))


def test_comparative_more_rivers_than_reference(store, ids):
    group = qa.GroupSpec(ids["country"], (qa.Counted(ids["flows_through"], "obj", ids["river"]),))
    more_than_china = qa.execute(store, qa.Comparative(group, ids["China"], "more"))
    assert names(store, more_than_china) == {"India"}
    over_egypt = qa.execute(store, qa.CountOverComparative(group, ids["Egypt"], "more"))
    assert over_egypt == qa.Counts(((None, 2),))


def test_type_union_partitions_by_type(store, ids):
    branches = (
        lookup(ids, "obj", "flows_through", "India", "river"),
        lookup(ids, "obj", "capital", "India", "city"),
    )
    answer = qa.execute(store, qa.Retrieve(qa.TypeUnion(branches)))
    assert names(store, answer) == {"Ganga", "Yamuna", "Brahmaputra", "New Delhi"}
    by_type = {b.result_type: qa.execute(store, qa.Retrieve(b)).members for b in branches}
    assert by_type[ids["river"]] == frozenset(
        {ids["Ganga"], ids["Yamuna"], ids["Brahmaputra"]}
    )
    assert by_type[ids["city"]] == frozenset({store.entity_id("New Delhi")})
    assert answer.members == by_type[ids["river"]] | by_type[ids["city"]]


def test_unknown_ids_and_type_mismatch_raise(store, ids):
    with pytest.raises(Exception):
        qa.execute(store, qa.Retrieve(qa.Lookup("obj", 99, ids["India"], ids["river"])))
    bad = qa.Union(
        lookup(ids, "obj", "flows_through", "India", "river"),
        lookup(ids, "obj", "capital", "India", "city"),
    )
    with pytest.raises(qa.PlanError):
        qa.execute(store, qa.Retrieve(bad))


def count_walks(monkeypatch) -> list:
    """The (plan, store) pairs ``_validate_plan`` walks in full, from now on."""
    walks = []
    validate = qa._validate_plan

    def counting(store, plan, partial=False):
        if not partial:
            walks.append((plan, store))
        return validate(store, plan, partial)

    monkeypatch.setattr(qa, "_validate_plan", counting)
    return walks


def test_a_plan_is_validated_once_per_store(store, ids, monkeypatch):
    walks = count_walks(monkeypatch)
    plan = qa.Retrieve(lookup(ids, "obj", "flows_through", "India", "river"))
    for _ in range(3):
        qa.execute(store, plan)
        qa.plan_tuples(store, plan)
    assert walks == [(plan, store)]
    # an equal plan is another object, and is walked on its own
    twin = qa.Retrieve(lookup(ids, "obj", "flows_through", "India", "river"))
    qa.execute(store, twin)
    assert len(walks) == 2 and walks[1][0] is twin
    # the oracle checks in full on every call
    qa.brute_force_execute(store, plan)
    qa.brute_force_execute(store, plan)
    assert len(walks) == 4


def test_a_plan_valid_for_one_store_is_checked_again_against_another(store):
    # a Verify plan reads no index, so only validation can reject its ids
    fact = max(store.tuples, key=lambda t: max(t.subject, t.object))
    last = max(fact.subject, fact.object)
    plan = qa.Verify((fact,))
    assert qa.execute(store, plan) == qa.Booleans((True,))
    smaller = KgStore(
        [t for t in store.tuples if max(t.subject, t.object) < last],
        store.entity_labels[:last],
        store.relation_labels,
        store.type_labels,
        {e: ts for e, ts in store.entity_types.items() if e < last},
    )
    for _ in range(2):
        with pytest.raises(kg_store.UnknownIdError):
            qa.execute(smaller, plan)
        with pytest.raises(kg_store.UnknownIdError):
            qa.plan_tuples(smaller, plan)
    assert qa.execute(store, plan) == qa.Booleans((True,))


def test_a_failed_or_partial_check_records_nothing(store, ids):
    bad = qa.Verify((Tuple(ids["flows_through"], ids["India"], store.n_entities),))
    for _ in range(3):
        with pytest.raises(kg_store.UnknownIdError):
            qa.execute(store, bad)
        with pytest.raises(kg_store.UnknownIdError):
            qa.plan_tuples(store, bad)
    unbound = qa.Verify((Tuple(ids["flows_through"], ids["India"], None),))
    qa._validate_plan(store, unbound, partial=True)
    with pytest.raises(kg_store.UnknownIdError):
        qa.execute(store, unbound)


def test_zero_count_groups_participate_when_enabled(store, ids):
    group = qa.GroupSpec(ids["country"], (qa.Counted(ids["capital"], "obj", ids["city"]),))
    with_zero = qa.execute(store, qa.ThresholdFilter(group, "atmost", 0))
    assert names(store, with_zero) == {"Egypt"}
    without = qa.execute(store, qa.ThresholdFilter(group, "atmost", 0), include_zero_groups=False)
    assert without == qa.Entities(frozenset())


# -- approx window ------------------------------------------------------------------


def test_approx_window_examples():
    assert qa.approx_window(3) == (2, 4)
    assert qa.approx_window(0) == (0, 1)
    assert qa.approx_window(22) == (20, 24)


# -- combining two relations ------------------------------------------------------------


def test_multi_relation_combine_difference(store, ids):
    a = lookup(ids, "obj", "flows_through", "India", "river")
    b = lookup(ids, "obj", "capital", "India", "river")
    assert names(store, qa.execute(store, qa.Retrieve(qa.Difference(a, b)))) == {
        "Ganga",
        "Yamuna",
        "Brahmaputra",
    }
    assert qa.execute(store, qa.Retrieve(qa.Difference(a, a))) == qa.Entities(frozenset())
    with pytest.raises(qa.PlanError):
        qa.execute(store, qa.Retrieve(qa.Union(a, lookup(ids, "obj", "capital", "India", "city"))))


def test_multi_relation_union_matches_brute_force(store, ids):
    plan = qa.Retrieve(
        qa.Union(
            lookup(ids, "obj", "flows_through", "China", "river"),
            lookup(ids, "obj", "capital", "China", "river"),
        )
    )
    assert qa.execute(store, plan) == qa.brute_force_execute(store, plan)


# -- brute force guard ------------------------------------------------------------------


def test_brute_force_guard():
    big = make_random_store(0, n_tuples=200)
    plan = qa.Retrieve(qa.Lookup("obj", 0, 0, 0))
    assert qa.brute_force_execute(big, plan) == qa.execute(big, plan)
    huge = make_random_store(1, n_tuples=100_001, n_relations=5, n_entities=40_000)
    if len(huge.tuples) > qa.BRUTE_FORCE_GUARD:
        with pytest.raises(qa.PlanError, match="guard"):
            qa.brute_force_execute(huge, plan)


def test_brute_force_guard_refuses_before_building_the_raw_set(monkeypatch):
    store = kg_store.load_dir(KG_T_DIR)
    plan = qa.Retrieve(qa.Lookup("obj", 0, 0, 0))
    monkeypatch.setattr(qa, "BRUTE_FORCE_GUARD", len(store.rows) - 1)
    with pytest.raises(qa.PlanError, match=f"guard: {len(store.rows)} tuples"):
        qa.brute_force_execute(store, plan)
    assert "tuples" not in vars(store)


def test_brute_force_guard_counts_a_repeated_tuple_once(monkeypatch):
    base = make_random_store(2, n_tuples=40)
    labels = base.entity_labels, base.relation_labels, base.type_labels, base.entity_types
    rows = sorted(base.tuples)
    repeated = KgStore(rows + rows[:5], *labels)
    plan = qa.Retrieve(qa.Lookup("obj", 0, 0, 0))
    monkeypatch.setattr(qa, "BRUTE_FORCE_GUARD", len(rows))
    assert qa.brute_force_execute(repeated, plan) == qa.execute(repeated, plan)
    monkeypatch.setattr(qa, "BRUTE_FORCE_GUARD", len(rows) - 1)
    with pytest.raises(qa.PlanError, match=f"guard: {len(rows)} tuples"):
        qa.brute_force_execute(repeated, plan)


def test_empty_store_retrieve_is_empty():
    from kgdialog.kg_store import KgStore

    empty = KgStore([], ["A"], ["r"], ["t"], {0: frozenset({0})})
    plan = qa.Retrieve(qa.Lookup("obj", 0, 0, 0))
    assert qa.brute_force_execute(empty, plan) == qa.Entities(frozenset())
    assert qa.execute(empty, plan) == qa.Entities(frozenset())


# -- randomized oracle equivalence -------------------------------------------------------


def random_plan(rng: random.Random, store) -> qa.QueryPlan:
    n_rel, n_ent, n_ty = store.n_relations, store.n_entities, store.n_types

    def rand_lookup(result_type=None, anchor=None):
        return qa.Lookup(
            rng.choice(["obj", "subj"]),
            rng.randrange(n_rel),
            anchor if anchor is not None else rng.randrange(n_ent),
            result_type if result_type is not None else rng.randrange(n_ty),
        )

    def rand_expr():
        kind = rng.choice(["lookup", "union", "intersection", "difference", "typeunion"])
        if kind == "lookup":
            return rand_lookup()
        if kind == "typeunion":
            anchor = rng.randrange(n_ent)
            types = rng.sample(range(n_ty), k=min(2, n_ty))
            return qa.TypeUnion(tuple(rand_lookup(ty, anchor) for ty in types))
        ty = rng.randrange(n_ty)
        cls = {"union": qa.Union, "intersection": qa.Intersection, "difference": qa.Difference}[kind]
        return cls(rand_lookup(ty), rand_lookup(ty))

    def rand_group():
        legs = tuple(
            qa.Counted(rng.randrange(n_rel), rng.choice(["obj", "subj"]), rng.randrange(n_ty))
            for _ in range(rng.randint(1, 2))
        )
        return qa.GroupSpec(rng.randrange(n_ty), legs)

    kind = rng.choice(
        ["retrieve", "count", "verify", "argopt", "threshold", "count_threshold", "comparative", "count_comparative"]
    )
    if kind == "retrieve":
        return qa.Retrieve(rand_expr())
    if kind == "count":
        return qa.Count(rand_expr())
    if kind == "verify":
        facts = []
        pool = sorted(store.tuples)
        for _ in range(rng.randint(1, 3)):
            if pool and rng.random() < 0.5:
                facts.append(rng.choice(pool))
            else:
                facts.append(
                    Tuple(rng.randrange(n_rel), rng.randrange(n_ent), rng.randrange(n_ent))
                )
        return qa.Verify(tuple(facts))
    if kind == "argopt":
        return qa.ArgOpt(rand_group(), rng.choice(["min", "max"]))
    if kind == "threshold":
        return qa.ThresholdFilter(rand_group(), rng.choice(qa.COMPARATORS), rng.randint(0, 4))
    if kind == "count_threshold":
        return qa.CountOverThreshold(rand_group(), rng.choice(qa.COMPARATORS), rng.randint(0, 4))
    if kind == "comparative":
        return qa.Comparative(rand_group(), rng.randrange(n_ent), rng.choice(["more", "less"]))
    return qa.CountOverComparative(rand_group(), rng.randrange(n_ent), rng.choice(["more", "less"]))


@pytest.mark.parametrize("seed", range(8))
def test_random_plans_match_oracle_on_random_stores(seed):
    rng = random.Random(1000 + seed)
    s = make_random_store(seed, n_tuples=rng.randint(100, 800), n_relations=rng.randint(1, 5), n_types=rng.randint(1, 4))
    for _ in range(40):
        plan = random_plan(rng, s)
        include_zero = rng.random() < 0.5
        assert qa.execute(s, plan, include_zero) == qa.brute_force_execute(s, plan, include_zero), plan


def test_set_laws_on_retrieve_results(store):
    rng = random.Random(7)
    for _ in range(80):
        ty = rng.randrange(store.n_types)
        a = qa.Lookup(rng.choice(["obj", "subj"]), rng.randrange(2), rng.randrange(10), ty)
        b = qa.Lookup(rng.choice(["obj", "subj"]), rng.randrange(2), rng.randrange(10), ty)
        ea = qa.execute(store, qa.Retrieve(a)).members
        eb = qa.execute(store, qa.Retrieve(b)).members
        assert qa.execute(store, qa.Retrieve(qa.Union(a, b))).members == ea | eb
        assert qa.execute(store, qa.Retrieve(qa.Union(b, a))).members == ea | eb
        assert qa.execute(store, qa.Retrieve(qa.Intersection(a, b))).members == (
            qa.execute(store, qa.Retrieve(qa.Intersection(b, a))).members
        )
        # difference equals intersection with the typed-universe complement
        universe = store.entities_of_type(ty)
        assert qa.execute(store, qa.Retrieve(qa.Difference(a, b))).members == ea & (universe - eb)
        # De Morgan over the typed universe
        assert universe - (ea | eb) == (universe - ea) & (universe - eb)


def test_count_equals_retrieve_cardinality(store):
    rng = random.Random(11)
    for _ in range(60):
        ty = rng.randrange(store.n_types)
        expr = qa.Union(
            qa.Lookup(rng.choice(["obj", "subj"]), rng.randrange(2), rng.randrange(10), ty),
            qa.Lookup(rng.choice(["obj", "subj"]), rng.randrange(2), rng.randrange(10), ty),
        )
        count = qa.execute(store, qa.Count(expr))
        members = qa.execute(store, qa.Retrieve(expr)).members
        assert count == qa.Counts(((None, len(members)),))


def test_count_over_type_union_counts_each_partition(store, ids):
    expr = qa.TypeUnion(
        (
            qa.Lookup("obj", ids["flows_through"], ids["India"], ids["river"]),
            qa.Lookup("obj", ids["capital"], ids["India"], ids["city"]),
        )
    )
    counts = qa.execute(store, qa.Count(expr))
    assert counts == qa.Counts(((ids["river"], 3), (ids["city"], 1)))
    assert dict(counts.counts) == {
        b.result_type: len(qa.execute(store, qa.Retrieve(b)).members) for b in expr.branches
    }


def test_argopt_ties_return_all_and_threshold_nesting(store):
    rng = random.Random(13)
    for _ in range(40):
        group = qa.GroupSpec(
            rng.randrange(store.n_types),
            (qa.Counted(rng.randrange(2), rng.choice(["obj", "subj"]), rng.randrange(3)),),
        )
        counts = qa.group_counts(store, group)
        if counts:
            best = max(counts.values())
            maxima = qa.execute(store, qa.ArgOpt(group, "max")).members
            assert maxima == frozenset(g for g, c in counts.items() if c == best)
        n = rng.randint(0, 4)
        equal = qa.execute(store, qa.ThresholdFilter(group, "equal", n)).members
        atleast = qa.execute(store, qa.ThresholdFilter(group, "atleast", n)).members
        assert equal <= atleast
        over = qa.execute(store, qa.CountOverThreshold(group, "atleast", n))
        assert over == qa.Counts(((None, len(atleast)),))


# -- per-store memos of grouped plans ---------------------------------------------------


def _bf_plan_tuples(store, plan):
    """Index-free provenance of a grouped plan, recomputed on every call."""
    group = plan.group
    members = {e for e, types in store.entity_types.items() if group.group_type in types}
    if isinstance(plan, (qa.Comparative, qa.CountOverComparative)):
        members.add(plan.reference)
    out = set()
    for t in store.tuples:
        for c in group.counted:
            g, other = (t.subject, t.object) if c.direction == qa.OBJ else (t.object, t.subject)
            if t.relation == c.relation and g in members and c.counted_type in store.entity_types.get(other, ()):
                out.add(t)
    return frozenset(out)


def _groups():
    return [
        qa.GroupSpec(0, (qa.Counted(0, qa.OBJ, 1),)),
        qa.GroupSpec(1, (qa.Counted(1, qa.SUBJ, 0),)),
        qa.GroupSpec(2, (qa.Counted(0, qa.OBJ, 1), qa.Counted(2, qa.SUBJ, 0))),
    ]


def _grouped_plans(store, group):
    """One plan of every grouped kind; comparatives with a reference of the
    group type and with one outside it that has counted tuples of its own."""
    inside = min(store.entities_of_type(group.group_type))
    outside = next(
        e
        for e in range(store.n_entities)
        if not store.has_type(e, group.group_type) and qa.entity_group_count(store, group, e)
    )
    return [
        qa.ArgOpt(group, "max"),
        qa.ArgOpt(group, "min"),
        qa.ThresholdFilter(group, "atleast", 2),
        qa.CountOverThreshold(group, "approx", 3),
        qa.Comparative(group, inside, "more"),
        qa.CountOverComparative(group, inside, "less"),
        qa.Comparative(group, outside, "less"),
        qa.CountOverComparative(group, outside, "more"),
    ]


@pytest.mark.parametrize("seed", range(4))
def test_grouped_plans_match_uncached_results_cold_and_warm(seed):
    s = make_random_store(seed, n_tuples=400, n_relations=3, n_types=3)
    for group in _groups():
        plans = _grouped_plans(s, group)
        for run in ("cold", "warm"):
            for plan in plans:
                for include_zero in (True, False):
                    assert qa.execute(s, plan, include_zero) == qa.brute_force_execute(
                        s, plan, include_zero
                    ), (run, plan, include_zero)
                assert qa.plan_tuples(s, plan) == _bf_plan_tuples(s, plan), (run, plan)


def _defined_counts(store, group, include_zero):
    """Each group member's count, straight from the definition: the distinct
    entities of a leg's counted type that a raw tuple links it to."""
    counts = {}
    for g in range(store.n_entities):
        if group.group_type not in store.entity_types.get(g, ()):
            continue
        n = _defined_count(store, group, g)
        if n or include_zero:
            counts[g] = n
    return counts


def _defined_count(store, group, g):
    reached = set()
    for c in group.counted:
        for t in store.tuples:
            at, other = (t.subject, t.object) if c.direction == qa.OBJ else (t.object, t.subject)
            if t.relation == c.relation and at == g and c.counted_type in store.entity_types.get(other, ()):
                reached.add(other)
    return len(reached)


_KEEPS = {
    "atleast": lambda c, n: c >= n,
    "atmost": lambda c, n: c <= n,
    "equal": lambda c, n: c == n,
    "approx": lambda c, n: abs(c - n) <= max(1, round(0.1 * n)),
}


@pytest.mark.parametrize(
    "seed, n_tuples, n_entities",
    # sparse stores, and dense ones whose counts pass 15, where the approx
    # window is wider than n +- 1
    [(seed, 300, None) for seed in range(4)] + [(seed, 1200, 16) for seed in range(2)],
)
def test_grouped_kinds_keep_the_members_their_definitions_name(seed, n_tuples, n_entities):
    s = make_random_store(seed, n_tuples=n_tuples, n_relations=3, n_types=3, n_entities=n_entities)
    for group in _groups():
        inside = [e for e in range(s.n_entities) if s.has_type(e, group.group_type)]
        outside = [e for e in range(s.n_entities) if not s.has_type(e, group.group_type)]
        assert inside and outside
        for include_zero in (True, False):
            counts = _defined_counts(s, group, include_zero)
            expected = []
            for direction, best in (("max", max), ("min", min)):
                top = best(counts.values(), default=None)
                expected.append((qa.ArgOpt(group, direction), {g for g, c in counts.items() if c == top}))
            for comparator, keeps in _KEEPS.items():
                for n in range(max(counts.values(), default=0) + 3):
                    kept = {g for g, c in counts.items() if keeps(c, n)}
                    expected.append((qa.ThresholdFilter(group, comparator, n), kept))
                    expected.append((qa.CountOverThreshold(group, comparator, n), len(kept)))
            for ref in inside[:3] + outside[:3]:
                ref_count = _defined_count(s, group, ref)
                for direction, beats in (("more", int.__gt__), ("less", int.__lt__)):
                    kept = {g for g, c in counts.items() if beats(c, ref_count) and g != ref}
                    expected.append((qa.Comparative(group, ref, direction), kept))
                    expected.append((qa.CountOverComparative(group, ref, direction), len(kept)))
            for plan, want in expected:
                want = qa.Counts(((None, want),)) if isinstance(want, int) else qa.Entities(frozenset(want))
                for evaluate in (qa.execute, qa.brute_force_execute):
                    assert evaluate(s, plan, include_zero) == want, (evaluate.__name__, plan, include_zero)


def test_comparative_provenance_adds_an_outside_reference():
    s = make_random_store(1, n_tuples=400, n_relations=3, n_types=3)
    group = _groups()[0]
    whole_group = qa.plan_tuples(s, qa.ArgOpt(group, "max"))
    outside = _grouped_plans(s, group)[-1]
    with_reference = qa.plan_tuples(s, outside)
    assert whole_group < with_reference
    assert qa.plan_tuples(s, qa.ArgOpt(group, "max")) == whole_group  # the memo is not widened


def test_mutating_returned_counts_leaves_the_memo_intact():
    s = make_random_store(2, n_tuples=400, n_relations=3, n_types=3)
    group = _groups()[2]
    for include_zero in (True, False):
        counts = qa.group_counts(s, group, include_zero)
        expected = dict(counts)
        counts.clear()
        counts[-1] = 99
        assert qa.group_counts(s, group, include_zero) == expected
    plan = qa.ArgOpt(group, "max")
    assert qa.execute(s, plan) == qa.brute_force_execute(s, plan)


# -- count tables -------------------------------------------------------------------
#
# Group type 0 holds entities 0-5, counted over relation 0 into type 1
# (entities 6-11): counts 0, 0, 1, 3, 3, 1, so ties sit at both ends of the
# table with and without the zeros.  Entity 6 is outside the group type and
# reaches two counted entities; relation 1 reaches none from the group.

_TIE_COUNTS = {0: 0, 1: 0, 2: 1, 3: 3, 4: 3, 5: 1}
_TIE_GROUP = qa.GroupSpec(0, (qa.Counted(0, qa.OBJ, 1),))


def _tie_store():
    tuples = {Tuple(0, g, 6 + k) for g, n in _TIE_COUNTS.items() for k in range(n)}
    tuples |= {Tuple(0, 6, 7), Tuple(0, 6, 8), Tuple(1, 7, 8)}
    types = {e: frozenset({0 if e < 6 else 1}) for e in range(12)}
    return KgStore(tuples, [f"E{e}" for e in range(12)], ["r0", "r1"], ["group", "counted"], types)


def _assert_answers(s, plan, include_zero, members):
    """Both evaluators give ``members``, and ``answer_size`` their number."""
    want = qa.Entities(frozenset(members))
    if type(plan) in qa.COUNTING.values():
        want = qa.Counts(((None, len(members)),))
    for evaluate in (qa.execute, qa.brute_force_execute):
        assert evaluate(s, plan, include_zero) == want, (evaluate.__name__, plan, include_zero)
    assert qa.answer_size(s, plan, include_zero) == len(members), (plan, include_zero)


def test_count_table_sorts_by_count_then_id_and_keeps_ties_at_both_ends():
    s = _tie_store()
    assert qa._count_table(s, _TIE_GROUP, True) == ((0, 1, 2, 5, 3, 4), (0, 0, 1, 1, 3, 3))
    assert qa._count_table(s, _TIE_GROUP, False) == ((2, 5, 3, 4), (1, 1, 3, 3))
    for include_zero, lowest in ((True, {0, 1}), (False, {2, 5})):
        _assert_answers(s, qa.ArgOpt(_TIE_GROUP, "min"), include_zero, lowest)
        _assert_answers(s, qa.ArgOpt(_TIE_GROUP, "max"), include_zero, {3, 4})
        counts = {g: c for g, c in _TIE_COUNTS.items() if c or include_zero}
        for comparator, n in itertools.product(qa.COMPARATORS, range(5)):
            kept = {g for g, c in counts.items() if _KEEPS[comparator](c, n)}
            _assert_answers(s, qa.ThresholdFilter(_TIE_GROUP, comparator, n), include_zero, kept)
            _assert_answers(s, qa.CountOverThreshold(_TIE_GROUP, comparator, n), include_zero, kept)


def test_argopt_over_a_group_left_empty_without_zeros_answers_empty():
    s = _tie_store()
    group = qa.GroupSpec(0, (qa.Counted(1, qa.OBJ, 1),))  # every member counts 0
    assert qa._count_table(s, group, False) == ((), ())
    for direction in qa.OPT_DIRECTIONS:
        _assert_answers(s, qa.ArgOpt(group, direction), False, set())
        _assert_answers(s, qa.ArgOpt(group, direction), True, set(range(6)))


def test_comparative_reference_outside_the_group_type_uses_its_own_count():
    s = _tie_store()
    # entity 6 reaches 7 and 8; entity 7 reaches no counted entity over relation 0
    for ref, more, less in ((6, {3, 4}, {0, 1, 2, 5}), (7, {2, 3, 4, 5}, set())):
        assert not s.has_type(ref, _TIE_GROUP.group_type)
        for include_zero in (True, False):
            drop = set() if include_zero else {0, 1}
            for cls in (qa.Comparative, qa.CountOverComparative):
                _assert_answers(s, cls(_TIE_GROUP, ref, "more"), include_zero, more - drop)
                _assert_answers(s, cls(_TIE_GROUP, ref, "less"), include_zero, less - drop)


def test_mutating_group_counts_leaves_the_count_table_intact():
    s = _tie_store()
    table = qa._count_table(s, _TIE_GROUP, True)
    counts = qa.group_counts(s, _TIE_GROUP)
    assert counts == _TIE_COUNTS and list(counts) == sorted(counts)
    counts.clear()
    counts[0] = 99
    assert qa._count_table(s, _TIE_GROUP, True) is table == ((0, 1, 2, 5, 3, 4), (0, 0, 1, 1, 3, 3))
    assert qa.group_counts(s, _TIE_GROUP) == _TIE_COUNTS
    _assert_answers(s, qa.ArgOpt(_TIE_GROUP, "max"), True, {3, 4})


@pytest.mark.parametrize("seed", range(3))
def test_answer_size_is_the_number_of_members_on_random_stores(seed):
    s = make_random_store(seed, n_tuples=400, n_relations=3, n_types=3)
    for group, include_zero in itertools.product(_groups(), (True, False)):
        for plan in _grouped_plans(s, group):
            answer = qa.brute_force_execute(s, plan, include_zero)
            size = answer.counts[0][1] if isinstance(answer, qa.Counts) else len(answer.members)
            assert qa.answer_size(s, plan, include_zero) == size, (plan, include_zero)


def test_answer_size_refuses_a_plan_that_is_not_grouped(store, ids):
    with pytest.raises(qa.PlanError, match="not a grouped plan"):
        qa.answer_size(store, qa.Retrieve(lookup(ids, "obj", "flows_through", "India", "river")))


def test_filtered_store_does_not_see_parent_memos():
    parent = make_random_store(3, n_tuples=400, n_relations=3, n_types=3)
    group = _groups()[2]
    plan = qa.ThresholdFilter(group, "atleast", 1)
    parent_counts = qa.group_counts(parent, group)
    parent_tuples = qa.plan_tuples(parent, plan)

    child = kg_store.filter_relations(parent, {0, 1})  # drops the second leg's relation
    fresh = KgStore(
        child.tuples, child.entity_labels, child.relation_labels, child.type_labels, child.entity_types
    )
    assert qa.group_counts(child, group) == qa.group_counts(fresh, group) != parent_counts
    assert qa.plan_tuples(child, plan) == _bf_plan_tuples(child, plan) != parent_tuples
    assert qa.execute(child, plan) == qa.brute_force_execute(child, plan)
    # and the child's values do not leak back into the parent
    assert qa.group_counts(parent, group) == parent_counts
    assert qa.plan_tuples(parent, plan) == parent_tuples


# -- grouped answers worked out by hand ---------------------------------------------
#
# Fixture counts: rivers per country India 3, China 2, Egypt 1; countries per
# river Brahmaputra 2, Ganga/Yamuna/Mekong/Nile 1; capitals per country
# India 1, China 1, Egypt 0.  Each expected answer below is read off these
# counts, and both evaluators must give it.


def both(store, plan, include_zero_groups=True):
    got = qa.execute(store, plan, include_zero_groups)
    assert qa.brute_force_execute(store, plan, include_zero_groups) == got
    return got


def rivers_per_country(ids):
    return qa.GroupSpec(ids["country"], (qa.Counted(ids["flows_through"], "obj", ids["river"]),))


def test_threshold_equal_by_hand(store, ids):
    group = rivers_per_country(ids)
    assert names(store, both(store, qa.ThresholdFilter(group, "equal", 2))) == {"China"}
    assert names(store, both(store, qa.ThresholdFilter(group, "equal", 4))) == set()
    rivers = qa.GroupSpec(ids["river"], (qa.Counted(ids["flows_through"], "subj", ids["country"]),))
    one_country = both(store, qa.ThresholdFilter(rivers, "equal", 1))
    assert names(store, one_country) == {"Ganga", "Yamuna", "Mekong", "Nile"}
    assert both(store, qa.CountOverThreshold(rivers, "equal", 1)) == qa.Counts(((None, 4),))


def test_threshold_approx_by_hand(store, ids):
    group = rivers_per_country(ids)
    # approx 1 is the window [0, 2], approx 4 the window [3, 5]
    assert names(store, both(store, qa.ThresholdFilter(group, "approx", 1))) == {"China", "Egypt"}
    assert names(store, both(store, qa.ThresholdFilter(group, "approx", 4))) == {"India"}
    assert both(store, qa.CountOverThreshold(group, "approx", 1)) == qa.Counts(((None, 2),))


def test_comparative_less_by_hand(store, ids):
    group = rivers_per_country(ids)
    assert names(store, both(store, qa.Comparative(group, ids["China"], "less"))) == {"Egypt"}
    assert names(store, both(store, qa.Comparative(group, ids["India"], "less"))) == {"China", "Egypt"}
    assert names(store, both(store, qa.Comparative(group, ids["Egypt"], "less"))) == set()
    # a tie with the reference is not "less": Ganga's peers are in one country too
    rivers = qa.GroupSpec(ids["river"], (qa.Counted(ids["flows_through"], "subj", ids["country"]),))
    assert names(store, both(store, qa.Comparative(rivers, ids["Ganga"], "less"))) == set()
    # rivers and capitals together: India 4, China 3, Egypt 1
    legs = (
        qa.Counted(ids["flows_through"], "obj", ids["river"]),
        qa.Counted(ids["capital"], "obj", ids["city"]),
    )
    both_legs = qa.GroupSpec(ids["country"], legs)
    assert names(store, both(store, qa.Comparative(both_legs, ids["China"], "less"))) == {"Egypt"}


def test_count_over_comparative_less_by_hand(store, ids):
    group = rivers_per_country(ids)
    assert both(store, qa.CountOverComparative(group, ids["India"], "less")) == qa.Counts(((None, 2),))
    assert both(store, qa.CountOverComparative(group, ids["China"], "less")) == qa.Counts(((None, 1),))
    assert both(store, qa.CountOverComparative(group, ids["Egypt"], "less")) == qa.Counts(((None, 0),))
    rivers = qa.GroupSpec(ids["river"], (qa.Counted(ids["flows_through"], "subj", ids["country"]),))
    assert both(store, qa.CountOverComparative(rivers, ids["Brahmaputra"], "less")) == qa.Counts(((None, 4),))
    assert both(store, qa.CountOverComparative(rivers, ids["Mekong"], "less")) == qa.Counts(((None, 0),))


def test_argopt_min_tie_by_hand(store, ids):
    rivers = qa.GroupSpec(ids["river"], (qa.Counted(ids["flows_through"], "subj", ids["country"]),))
    assert names(store, both(store, qa.ArgOpt(rivers, "min"))) == {"Ganga", "Yamuna", "Mekong", "Nile"}
    capitals = qa.GroupSpec(ids["country"], (qa.Counted(ids["capital"], "obj", ids["city"]),))
    assert names(store, both(store, qa.ArgOpt(capitals, "min"))) == {"Egypt"}
    assert names(store, both(store, qa.ArgOpt(capitals, "min"), False)) == {"India", "China"}


# -- the oracle reaches tuples without indices or caches ---------------------------


def _every_plan_kind(ids):
    india_rivers = lookup(ids, "obj", "flows_through", "India", "river")
    china_rivers = lookup(ids, "obj", "flows_through", "China", "river")
    typed = qa.TypeUnion((india_rivers, lookup(ids, "obj", "capital", "India", "city")))
    group = rivers_per_country(ids)
    fact = Tuple(ids["flows_through"], ids["India"], ids["Ganga"])
    return [
        qa.Retrieve(india_rivers),
        qa.Retrieve(lookup(ids, "subj", "flows_through", "Brahmaputra", "country")),
        qa.Retrieve(qa.Union(india_rivers, china_rivers)),
        qa.Retrieve(qa.Intersection(india_rivers, china_rivers)),
        qa.Retrieve(qa.Difference(india_rivers, china_rivers)),
        qa.Retrieve(typed),
        qa.Count(india_rivers),
        qa.Count(typed),
        qa.Verify((fact, Tuple(ids["flows_through"], ids["Egypt"], ids["Ganga"]))),
        qa.ArgOpt(group, "max"),
        qa.ThresholdFilter(group, "atleast", 2),
        qa.CountOverThreshold(group, "approx", 1),
        qa.Comparative(group, ids["China"], "more"),
        qa.CountOverComparative(group, ids["Ganga"], "less"),
    ]


def test_oracle_touches_no_index_or_cache(ids):
    indexed = kg_store.load_dir(KG_T_DIR)
    blind = kg_store.load_dir(KG_T_DIR)

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle used an index or a cached value")

    for name in ("objects_of", "subjects_of", "has_type", "sorted_members", "entities_of_type", "derived"):
        setattr(blind, name, refuse)
    for name in (
        "_objects",
        "_subjects",
        "rows",
        "_type_members",
        "_entity_id_by_label",
        "_entity_ids_by_repeated_label",
    ):
        setattr(blind, name, None)
    for plan in _every_plan_kind(ids):
        for include_zero in (True, False):
            assert qa.brute_force_execute(blind, plan, include_zero) == qa.execute(
                indexed, plan, include_zero
            ), plan


def test_execute_and_provenance_read_no_raw_tuple(ids):
    """The mirror of the check above: ``execute`` and ``plan_tuples`` reach
    tuples through the store's indexes, never through the raw tuple set
    that the oracle scans."""
    indexed = kg_store.load_dir(KG_T_DIR)
    blind = kg_store.load_dir(KG_T_DIR)
    blind.tuples = None
    for plan in _every_plan_kind(ids):
        for include_zero in (True, False):
            assert qa.execute(blind, plan, include_zero) == qa.execute(
                indexed, plan, include_zero
            ), plan
        assert qa.plan_tuples(blind, plan) == qa.plan_tuples(indexed, plan), plan


# -- plan walker ---------------------------------------------------------------------


def test_plan_entities_include_reference_and_fact_ends(ids):
    group = rivers_per_country(ids)
    for kind in (qa.Comparative, qa.CountOverComparative):
        assert qa.plan_entities(kind(group, ids["Ganga"], "more")) == {ids["Ganga"]}
    facts = (
        Tuple(ids["flows_through"], ids["India"], ids["Ganga"]),
        Tuple(ids["capital"], ids["China"], ids["Beijing"]),
    )
    assert qa.plan_entities(qa.Verify(facts)) == {ids[e] for e in ("India", "Ganga", "China", "Beijing")}
    nested = qa.Retrieve(
        qa.Difference(
            lookup(ids, "obj", "flows_through", "India", "river"),
            qa.Union(
                lookup(ids, "obj", "flows_through", "China", "river"),
                lookup(ids, "obj", "flows_through", "Egypt", "river"),
            ),
        )
    )
    assert qa.plan_entities(nested) == {ids["India"], ids["China"], ids["Egypt"]}
    assert qa.plan_entities(qa.ArgOpt(group, "max")) == frozenset()


def test_plan_relations_cover_every_leg(ids):
    legs = (
        qa.Counted(ids["flows_through"], "obj", ids["river"]),
        qa.Counted(ids["capital"], "obj", ids["city"]),
    )
    group = qa.GroupSpec(ids["country"], legs)
    expected = {ids["flows_through"], ids["capital"]}
    for plan in (
        qa.ArgOpt(group, "min"),
        qa.ThresholdFilter(group, "atleast", 1),
        qa.CountOverThreshold(group, "atmost", 1),
        qa.Comparative(group, ids["India"], "less"),
        qa.CountOverComparative(group, ids["India"], "more"),
    ):
        assert qa.plan_relations(plan) == expected
        assert [n for n in qa.plan_nodes(plan) if type(n) is qa.Counted] == list(legs)
        assert qa.plan_lookups(plan) == []
    typed = qa.TypeUnion(
        (
            lookup(ids, "obj", "flows_through", "India", "river"),
            lookup(ids, "obj", "capital", "India", "city"),
        )
    )
    assert qa.plan_relations(qa.Count(typed)) == expected
    assert qa.plan_lookups(qa.Count(typed)) == list(typed.branches)
    assert not any(type(n) is qa.Counted for n in qa.plan_nodes(qa.Count(typed)))


def test_plan_peer_types_find_nested_type_unions(ids):
    def typed(country):
        return qa.TypeUnion(
            (
                lookup(ids, "obj", "flows_through", country, "river"),
                lookup(ids, "obj", "capital", country, "city"),
            )
        )

    pair = (ids["river"], ids["city"])
    plan = qa.Retrieve(qa.Intersection(qa.Union(typed("India"), typed("China")), typed("Egypt")))
    assert qa.plan_peer_types(plan) == [pair, pair, pair]
    assert qa.plan_peer_types(qa.Retrieve(lookup(ids, "obj", "capital", "India", "city"))) == []
