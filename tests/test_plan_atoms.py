"""The table-driven plan walkers against the hand-written ones they replaced.

Each reference below is the walker as it read before the node table, when
it listed the fields it visits by hand.  Over random plans on three random
stores and the plans of a seed-7 synthetic corpus, the table-driven
versions must give the same results."""

import random
from dataclasses import fields, is_dataclass

import pytest

from conftest import REPO, make_random_store
from kgdialog import dataset_pipeline as dp, plan_text, query_algebra as qa, templates as tpl
from kgdialog.kg_store import Tuple
from kgdialog.plan_text import Slot
from test_query_algebra import random_plan


# -- references ------------------------------------------------------------------


def ref_walk(expr, lookups, peers):
    if isinstance(expr, qa.Lookup):
        lookups.append(expr)
    elif isinstance(expr, qa.TypeUnion):
        lookups.extend(expr.branches)
        peers.append(tuple(b.result_type for b in expr.branches))
    else:
        ref_walk(expr.a, lookups, peers)
        ref_walk(expr.b, lookups, peers)


def ref_plan_lookups(plan):
    lookups = []
    if isinstance(plan, (qa.Retrieve, qa.Count)):
        ref_walk(plan.expr, lookups, [])
    return lookups


def ref_plan_legs(plan):
    if isinstance(plan, (qa.Retrieve, qa.Count, qa.Verify)):
        return ()
    return plan.group.counted


def ref_plan_peer_types(plan):
    peers = []
    if isinstance(plan, (qa.Retrieve, qa.Count)):
        ref_walk(plan.expr, [], peers)
    elif not isinstance(plan, qa.Verify):
        peers.append(tuple(c.counted_type for c in plan.group.counted))
    return peers


def ref_plan_relations(plan):
    if isinstance(plan, qa.Verify):
        return frozenset(f.relation for f in plan.facts)
    return frozenset(
        [lk.relation for lk in ref_plan_lookups(plan)] + [c.relation for c in ref_plan_legs(plan)]
    )


def ref_plan_entities(plan):
    if isinstance(plan, qa.Verify):
        return frozenset(e for f in plan.facts for e in (f.subject, f.object))
    out = {lk.anchor for lk in ref_plan_lookups(plan)}
    if isinstance(plan, (qa.Comparative, qa.CountOverComparative)):
        out.add(plan.reference)
    return frozenset(out)


def ref_plan_type_labels(store, plan):
    types = {lk.result_type for lk in ref_plan_lookups(plan)}
    legs = ref_plan_legs(plan)
    if legs:
        types.add(plan.group.group_type)
        types.update(c.counted_type for c in legs)
    return {store.type_label(ty) for ty in types}


def ref_slots_of(plan):
    out = set()

    def walk(n):
        if isinstance(n, Slot):
            out.add(n.name)
        elif isinstance(n, tuple):
            for a in n:
                walk(a)
        elif is_dataclass(n):
            for f in fields(n):
                walk(getattr(n, f.name))

    walk(plan)
    return frozenset(out)


def ref_nodes(node):
    """The node and every node below it, a node before its subtrees."""
    out = [node]
    for f in qa.NODES[type(node)].fields:
        if f.kind == "node":
            for child in getattr(node, f.name) if f.many else (getattr(node, f.name),):
                out += ref_nodes(child)
    return out


def ref_atoms(node):
    """(kind, value) of every atom under the node, in print order."""
    out = []
    for f in qa.NODES[type(node)].fields:
        value = getattr(node, f.name)
        for item in value if f.many else (value,):
            if f.kind == "node":
                out += ref_atoms(item)
            elif f.kind == "fact":
                out += zip(qa.FACT_KINDS, item)
            else:
                out.append((f.kind, item))
    return out


def ref_rewrite_atoms(plan, fn):
    def walk(n):
        if isinstance(n, tuple):
            return tuple(walk(a) for a in n)
        if is_dataclass(n) and not isinstance(n, Slot):
            return type(n)(*(walk(getattr(n, f.name)) for f in fields(n)))
        return fn(n)

    return walk(plan)


# -- the plans ---------------------------------------------------------------------


def random_store_plans():
    for seed in range(3):
        store = make_random_store(seed, n_tuples=150, n_relations=4, n_types=3)
        rng = random.Random(seed)
        yield store, [random_plan(rng, store) for _ in range(80)]


@pytest.fixture(scope="module")
def corpus_plans(templates):
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(REPO / "bench"))
        import graphgen
    store = graphgen.make_graph(7, 1800, "heavy")
    corpus = dp.generate_corpus(store, templates, 20, seed=7)
    plans = [t.plan for d in corpus.dialogs for t in d.turns if t.plan is not None]
    assert {type(p) for p in plans} >= {qa.Retrieve, qa.Verify, qa.ThresholdFilter}
    return store, plans


def slotted(plan, store, rng):
    """The plan's symbolic form with about half its atoms turned into slot
    markers."""
    symbolic = plan_text.parse_symbolic(plan_text.print_plan(plan, store))
    return ref_rewrite_atoms(symbolic, lambda a: Slot(f"s{rng.randrange(5)}") if rng.random() < 0.5 else a)


def assert_walkers_agree(store, plans):
    rng = random.Random(len(plans))
    for plan in plans:
        assert qa.plan_relations(plan) == ref_plan_relations(plan), plan
        assert qa.plan_entities(plan) == ref_plan_entities(plan), plan
        assert tpl.plan_type_labels(store, plan) == ref_plan_type_labels(store, plan), plan
        assert qa.plan_lookups(plan) == ref_plan_lookups(plan), plan
        assert tuple(n for n in qa.plan_nodes(plan) if type(n) is qa.Counted) == tuple(ref_plan_legs(plan))
        assert qa.plan_peer_types(plan) == ref_plan_peer_types(plan), plan
        symbolic = slotted(plan, store, rng)
        assert plan_text.slots_of(symbolic) == ref_slots_of(symbolic), symbolic
        renamed = plan_text.rewrite_atoms(symbolic, rename)
        assert renamed == ref_rewrite_atoms(symbolic, rename)
        for tree in (plan, symbolic, renamed):
            assert_every_node_keeps_its_walk(tree)


def assert_every_node_keeps_its_walk(plan):
    """Every node of the tree, not just its root, gives the reference walk."""
    for node in ref_nodes(plan):
        assert list(qa.plan_atoms(node)) == ref_atoms(node), node
        assert list(map(id, qa.plan_nodes(node))) == list(map(id, ref_nodes(node))), node


def rename(atom):
    return Slot(atom.name + "_b") if isinstance(atom, Slot) else atom


def test_walkers_equal_the_references_on_random_plans():
    for store, plans in random_store_plans():
        assert_walkers_agree(store, plans)


def test_walkers_equal_the_references_on_a_generated_corpus(corpus_plans):
    assert_walkers_agree(*corpus_plans)


def test_plan_atoms_come_in_tree_order(ids):
    group = qa.GroupSpec(ids["country"], (qa.Counted(ids["capital"], "obj", ids["city"]),))
    plan = qa.Comparative(group, ids["India"], "more")
    # the order plan text prints them in
    assert list(qa.plan_atoms(plan)) == [
        ("type", ids["country"]),
        ("relation", ids["capital"]),
        ("direction", "obj"),
        ("type", ids["city"]),
        ("entity", ids["India"]),
        ("comparison", "more"),
    ]
    fact = (ids["capital"], ids["India"], ids["China"])
    assert list(qa.plan_atoms(qa.Verify((fact,)))) == list(zip(qa.FACT_KINDS, fact))


def test_a_node_that_breaks_the_table_fails_when_built(ids):
    fact = (ids["capital"], ids["India"], ids["China"])
    with pytest.raises(qa.PlanError, match="Retrieve cannot hold Verify in 'expr'"):
        qa.Retrieve(qa.Verify((fact,)))
    with pytest.raises(qa.PlanError, match="TypeUnion needs at least one entry in 'branches'"):
        qa.TypeUnion(())
    with pytest.raises(qa.PlanError, match=r"Verify needs \(relation, subject, object\) facts in 'facts'"):
        qa.Verify((fact, fact[:2]))


def test_the_walkers_name_a_non_node(ids):
    for walker in (qa.plan_atoms, qa.plan_nodes, lambda x: qa.map_atoms(x, lambda kind, v: v)):
        with pytest.raises(qa.PlanError, match="unknown plan node Tuple"):
            walker(Tuple(ids["capital"], ids["India"], ids["China"]))


def test_map_atoms_copies_the_tree(ids):
    plan = qa.Count(
        qa.Union(
            qa.Lookup("obj", ids["flows_through"], ids["India"], ids["river"]),
            qa.Lookup("obj", ids["flows_through"], ids["China"], ids["river"]),
        )
    )
    assert qa.map_atoms(plan, lambda kind, v: v) == plan
    shifted = qa.map_atoms(plan, lambda kind, v: v + 100 if kind == "entity" else v)
    assert qa.plan_entities(shifted) == {ids["India"] + 100, ids["China"] + 100}
