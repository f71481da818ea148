"""Store loading, filtering, lookups and statistics."""

import gc
import logging
import random
import tracemalloc

import numpy as np
import pytest

from conftest import REPO, brute_fanout, make_random_store
from kgdialog import kg_store
from kgdialog.kg_store import KgError, KgStore, LoadError, Tuple, TupleRows, UnknownIdError


def test_load_counts_match_fixture(store):
    assert len(store.tuples) == 8
    assert store.n_entities == 10
    assert store.n_relations == 2
    assert store.n_types == 3


def test_empty_tuple_file_gives_empty_store(tmp_path):
    (tmp_path / "tuples.tsv").write_text("")
    (tmp_path / "labels.tsv").write_text("a\tE\tA\nr\tR\trel\nt\tT\tty\n")
    (tmp_path / "types.tsv").write_text("a\tt\n")
    empty = kg_store.load_dir(tmp_path)
    assert len(empty.tuples) == 0
    assert empty.objects_of(0, 0) == frozenset()
    assert empty.subjects_of(0, 0) == frozenset()
    assert empty.tuples_containing(0) == frozenset()


def test_unknown_entity_in_tuples_names_the_id(tmp_path):
    (tmp_path / "labels.tsv").write_text("a\tE\tA\nr\tR\trel\nt\tT\tty\n")
    (tmp_path / "types.tsv").write_text("a\tt\n")
    (tmp_path / "tuples.tsv").write_text("r\ta\tghost\n")
    with pytest.raises(LoadError, match="ghost"):
        kg_store.load_dir(tmp_path)


def test_malformed_line_reports_line_number(tmp_path):
    (tmp_path / "labels.tsv").write_text("a\tE\tA\nbad line without tabs\n")
    (tmp_path / "types.tsv").write_text("")
    (tmp_path / "tuples.tsv").write_text("")
    with pytest.raises(LoadError, match=":2"):
        kg_store.load_dir(tmp_path)


def test_untyped_tuple_entity_is_rejected(tmp_path):
    (tmp_path / "labels.tsv").write_text("a\tE\tA\nb\tE\tB\nr\tR\trel\nt\tT\tty\n")
    (tmp_path / "types.tsv").write_text("a\tt\n")
    (tmp_path / "tuples.tsv").write_text("r\ta\tb\n")
    with pytest.raises(LoadError, match="'b'"):
        kg_store.load_dir(tmp_path)


def test_duplicate_tuples_are_dropped(tmp_path, caplog):
    (tmp_path / "labels.tsv").write_text("a\tE\tA\nb\tE\tB\nr\tR\trel\nt\tT\tty\n")
    (tmp_path / "types.tsv").write_text("a\tt\nb\tt\n")
    (tmp_path / "tuples.tsv").write_text("r\ta\tb\nr\ta\tb\nr\tb\ta\nr\ta\tb\n")
    with caplog.at_level(logging.INFO, logger="kgdialog.kg_store"):
        dup = kg_store.load_dir(tmp_path)
    assert dup.tuples == {Tuple(0, 0, 1), Tuple(0, 1, 0)}
    assert caplog.messages == [f"dropped 2 duplicate tuples from {tmp_path / 'tuples.tsv'}"]


@pytest.mark.parametrize("seed", [1, 2])
def test_repeated_tuple_lines_load_as_one_row_each(seed, tmp_path, caplog):
    """Lines in random order, a third of them repeats: the rows are the
    distinct tuples in sorted order, the repeats are logged, and the raw set
    is the distinct tuples too."""
    rng = random.Random(seed)
    n_entities, n_relations = 30, 3
    distinct = {
        Tuple(rng.randrange(n_relations), rng.randrange(n_entities), rng.randrange(n_entities))
        for _ in range(150)
    }
    lines = list(distinct) + rng.choices(sorted(distinct), k=len(distinct) // 2)
    rng.shuffle(lines)
    label_lines = [f"r{r}\tR\trel{r}" for r in range(n_relations)] + [f"e{e}\tE\tE{e}" for e in range(n_entities)]
    (tmp_path / "labels.tsv").write_text("\n".join(label_lines + ["t\tT\tty"]) + "\n")
    (tmp_path / "types.tsv").write_text("".join(f"e{e}\tt\n" for e in range(n_entities)))
    (tmp_path / "tuples.tsv").write_text("".join(f"r{r}\te{s}\te{o}\n" for r, s, o in lines))
    with caplog.at_level(logging.INFO, logger="kgdialog.kg_store"):
        loaded = kg_store.load_dir(tmp_path)
    assert loaded.rows.tolist() == sorted(map(list, distinct))
    assert caplog.messages == [
        f"dropped {len(lines) - len(distinct)} duplicate tuples from {tmp_path / 'tuples.tsv'}"
    ]
    assert loaded.tuples == distinct
    labels = loaded.entity_labels, loaded.relation_labels, loaded.type_labels
    built = KgStore(lines, *labels, loaded.entity_types)
    assert np.array_equal(built.rows, loaded.rows) and built.tuples == distinct


@pytest.mark.parametrize("fanout", ["uniform", "heavy"])
def test_load_dir_round_trips_synthetic_graphs(fanout, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    import graphgen

    s = graphgen.make_graph(7, 1800, fanout)
    kg_store.save_dir(s, tmp_path)
    again = kg_store.load_dir(tmp_path)
    assert len(s.rows) > 1500
    assert np.array_equal(again.rows, s.rows)
    assert again.entity_labels == s.entity_labels
    assert again.relation_labels == s.relation_labels
    assert again.type_labels == s.type_labels
    assert again.entity_types == s.entity_types
    assert again.tuples == s.tuples


def _labelled_store(tmp_path, extra_label_line):
    (tmp_path / "labels.tsv").write_text(
        "a\tE\tA\nb\tE\tB\nr\tR\tborders\nt\tT\tcountry\n" + extra_label_line
    )
    (tmp_path / "types.tsv").write_text("a\tt\nb\tt\n")
    (tmp_path / "tuples.tsv").write_text("r\ta\tb\n")
    return kg_store.load_dir(tmp_path)


@pytest.mark.parametrize(
    ("line", "message"),
    [
        ("r2\tR\tborders\n", "duplicate R label 'borders' (first at line 3)"),
        ("t2\tT\tcountry\n", "duplicate T label 'country' (first at line 4)"),
    ],
)
def test_repeated_relation_or_type_label_fails_at_load(line, message, tmp_path):
    # a plan prints labels, so a repeated one would parse back to another id
    with pytest.raises(LoadError) as err:
        _labelled_store(tmp_path, line)
    assert str(err.value) == f"{tmp_path / 'labels.tsv'}:5: {message}"


def test_repeated_entity_label_loads_and_is_ambiguous_at_lookup(tmp_path):
    s = _labelled_store(tmp_path, "c\tE\tA\n")
    assert s.n_entities == 3
    assert s.entity_label(2) == "A"
    assert s.entity_id("B") == 1
    with pytest.raises(KgError, match=r"ambiguous entity label 'A': ids \[0, 2\]"):
        s.entity_id("A")


@pytest.mark.parametrize(
    ("relations", "types", "message"),
    [
        (["borders", "borders"], ["country"], "duplicate relation label 'borders'"),
        (["borders"], ["country", "river", "country"], "duplicate type label 'country'"),
    ],
)
def test_constructor_rejects_a_repeated_relation_or_type_label(relations, types, message):
    """Stores built without `load` (the filters, synthetic graphs) are
    checked too; entity labels may still repeat."""
    entity_types = {0: frozenset({0}), 1: frozenset({0})}
    with pytest.raises(KgError) as err:
        KgStore([Tuple(0, 0, 1)], ["A", "A"], relations, types, entity_types)
    assert str(err.value) == message


def test_repeated_entity_labels_keep_their_ids_in_order():
    entity_types = {e: frozenset({0}) for e in range(5)}
    s = KgStore([Tuple(0, 0, 1)], ["A", "B", "A", "C", "A"], ["rel"], ["ty"], entity_types)
    with pytest.raises(KgError, match=r"ambiguous entity label 'A': ids \[0, 2, 4\]"):
        s.entity_id("A")
    assert (s.entity_id("B"), s.entity_id("C")) == (1, 3)
    assert [s.label_repeats(e) for e in range(5)] == [True, False, True, False, True]


@pytest.mark.parametrize("char", ["\t", "\r", "\n"])
@pytest.mark.parametrize(("kind", "position"), [("entity", 1), ("relation", 0), ("type", 0)])
def test_constructor_rejects_a_label_the_store_files_cannot_hold(char, kind, position):
    """save_dir would write such a label, and load_dir would then fail on its line."""
    labels = {"entity": ["A", "B"], "relation": ["rel"], "type": ["ty"]}
    labels[kind][position] += f"{char}x"
    entity_types = {0: frozenset({0}), 1: frozenset({0})}
    with pytest.raises(KgError) as err:
        KgStore([Tuple(0, 0, 1)], labels["entity"], labels["relation"], labels["type"], entity_types)
    assert str(err.value) == (
        f"{kind} label {position} holds a tab, '\\r' or '\\n': {labels[kind][position]!r}"
    )


def test_save_dir_round_trips_labels_with_awkward_characters(tmp_path):
    """Every label a store accepts survives save_dir and load_dir: quotes,
    backslashes, edge spaces, the empty label, repeats and line separators
    other than \\r and \\n."""
    entity_labels = ["", ' "quoted" ', "back\\slash", "Σίσυφος", "a\u2028b", "form\x0cfeed", "Σίσυφος"]
    relation_labels = ["rel ", "x\x0by"]
    type_labels = ["ty\x1c", "\u00a0"]
    entity_types = {e: frozenset({e % 2}) for e in range(len(entity_labels))}
    tuples = [Tuple(0, 0, 1), Tuple(1, 2, 3), Tuple(0, 4, 5), Tuple(1, 6, 6)]
    store = KgStore(tuples, entity_labels, relation_labels, type_labels, entity_types)
    kg_store.save_dir(store, tmp_path)
    again = kg_store.load_dir(tmp_path)
    assert again.entity_labels == entity_labels
    assert again.relation_labels == relation_labels
    assert again.type_labels == type_labels
    assert again.tuples == store.tuples
    assert again.entity_types == store.entity_types


@pytest.mark.parametrize(
    ("bad", "message"),
    [
        ([Tuple(0, 0, 5)], "tuple (0, 0, 5): unknown entity id 5"),
        ([Tuple(0, -1, 1)], "tuple (0, -1, 1): unknown entity id -1"),
        ([Tuple(3, 0, 1)], "tuple (3, 0, 1): unknown relation id 3"),
        # the first bad tuple in sorted order, and its relation before its ends
        ([Tuple(0, 1, 7), Tuple(3, 5, 1), Tuple(0, 0, 9)], "tuple (0, 0, 9): unknown entity id 9"),
        ([Tuple(3, 5, 1)], "tuple (3, 5, 1): unknown relation id 3"),
    ],
)
def test_constructor_rejects_a_tuple_id_outside_the_label_lists(bad, message):
    """Stores built without `load` (the filters, synthetic graphs, tests)
    are checked before any index is built."""
    entity_types = {0: frozenset({0}), 1: frozenset({0})}
    with pytest.raises(KgError) as err:
        KgStore([Tuple(0, 0, 1), *bad], ["A", "B"], ["rel"], ["ty"], entity_types)
    assert str(err.value) == message


def test_lookups_match_fixture(store, ids):
    assert store.objects_of(ids["flows_through"], ids["India"]) == frozenset(
        {ids["Ganga"], ids["Yamuna"], ids["Brahmaputra"]}
    )
    assert store.subjects_of(ids["flows_through"], ids["Brahmaputra"]) == frozenset(
        {ids["India"], ids["China"]}
    )
    assert store.objects_of(ids["capital"], ids["Egypt"]) == frozenset()
    assert store.entities_of_type(ids["country"]) == frozenset(
        {ids["India"], ids["China"], ids["Egypt"]}
    )
    assert store.tuples_containing(ids["India"]) == brute_fanout(store, ids["India"])
    assert len(store.tuples_containing(ids["India"])) == 4


def test_unknown_ids_raise(store):
    with pytest.raises(UnknownIdError):
        store.objects_of(99, 0)
    with pytest.raises(UnknownIdError):
        store.subjects_of(0, 99)
    with pytest.raises(UnknownIdError):
        store.entities_of_type(99)
    with pytest.raises(UnknownIdError):
        store.entity_id("Atlantis")


def _pool(s, e):
    """The tuples containing ``e``, read through the store's rows."""
    return tuple(TupleRows(s.rows[s.tuple_ids_containing(e)]))


@pytest.mark.parametrize("seed", [0, 1])
def test_tuple_ids_containing_is_the_sorted_fanout_cached_per_store(seed):
    s = make_random_store(seed, n_tuples=300, n_entities=40)  # self-loops included
    assert any(t.subject == t.object for t in s.tuples)
    assert s.rows.dtype == np.int64 and s.rows.shape == (len(s.tuples), 3)
    assert not s.rows.flags.writeable
    assert TupleRows(s.rows) == sorted(s.tuples)
    index = s.tuple_ids_containing(0).base
    for e in range(s.n_entities):
        pool = s.tuple_ids_containing(e)
        assert _pool(s, e) == tuple(sorted(brute_fanout(s, e)))  # a self-loop once
        # every pool is a view into the one cached index
        assert pool.base is index and s.tuple_ids_containing(e).base is index
        assert not pool.flags.writeable


def test_tuple_ids_containing_an_unknown_id_caches_nothing():
    s = make_random_store(0, n_tuples=50)
    assert s._derived == {}  # the index is built on first use, not with the store
    for bad in (s.n_entities, -1):
        with pytest.raises(UnknownIdError):
            s.tuple_ids_containing(bad)
    assert s._derived == {}
    s.tuple_ids_containing(0)
    cached = dict(s._derived)
    for bad in (s.n_entities, -1):
        with pytest.raises(UnknownIdError):
            s.tuple_ids_containing(bad)
    assert s._derived == cached


def test_filtered_store_sorts_its_own_fanouts():
    s = make_random_store(1, n_tuples=300)
    hub = max(range(s.n_entities), key=lambda e: len(brute_fanout(s, e)))
    full = _pool(s, hub)
    index = s.tuple_ids_containing(hub).base
    filtered = kg_store.filter_relations(s, {0})
    own = _pool(filtered, hub)
    assert own == tuple(t for t in full if t.relation == 0)
    assert own != full
    assert TupleRows(filtered.rows) == sorted(filtered.tuples)
    assert filtered.tuple_ids_containing(hub).base is not index
    assert s.tuple_ids_containing(hub).base is index and _pool(s, hub) == full


def test_tuple_rows_is_a_read_only_sequence_of_tuples():
    tuples = [Tuple(0, 1, 2), Tuple(1, 2, 2), Tuple(0, 0, 1)]
    rows = TupleRows.of(tuples)
    assert TupleRows.of(rows) is rows
    assert len(rows) == 3 and rows and not TupleRows.of(())
    assert rows[1] == Tuple(1, 2, 2) and type(rows[-1]) is Tuple
    assert all(type(v) is int for v in rows[0])
    assert list(rows) == tuples and rows[1:] == tuples[1:]
    assert rows == tuples and rows == tuple(tuples) and tuple(tuples) == rows
    assert rows != tuples[:2] and rows != tuples[::-1] and rows != {*tuples}
    assert rows + rows[:1] == tuples + tuples[:1]
    assert Tuple(0, 0, 1) in rows and rows.index(Tuple(0, 0, 1)) == 2
    with pytest.raises(ValueError):
        rows.ids[0, 0] = 7
    with pytest.raises(TypeError):
        hash(rows)


def test_tuple_rows_length_and_truth_make_no_tuples(monkeypatch):
    rows = TupleRows.of([Tuple(0, 1, 2), Tuple(1, 2, 2)])
    monkeypatch.setattr(kg_store, "Tuple", None)  # making a Tuple now raises
    assert len(rows) == 2 and rows and not rows[2:]
    with pytest.raises(TypeError):
        rows[0]


@pytest.mark.parametrize("bad", [Tuple(0, 2**63, 3), Tuple(-(2**63) - 1, 1, 3)])
def test_tuple_rows_of_an_id_outside_int64_names_the_tuple(bad):
    with pytest.raises(UnknownIdError, match=rf"^tuple \({bad.relation}, {bad.subject}, 3\) holds an id outside int64$"):
        TupleRows.of([Tuple(0, 1, 2), bad, Tuple(0, 2**64, 1)])


def test_filter_relations_keeps_exactly_allowlisted(store, ids):
    filtered = kg_store.filter_relations(store, {ids["flows_through"]})
    assert len(filtered.tuples) == 6
    assert all(t.relation == ids["flows_through"] for t in filtered.tuples)

    identity = kg_store.filter_relations(store, {ids["flows_through"], ids["capital"]})
    assert identity.tuples == store.tuples

    empty = kg_store.filter_relations(store, set())
    assert len(empty.tuples) == 0

    with pytest.raises(UnknownIdError):
        kg_store.filter_relations(store, {99})


def test_filter_relations_composes_as_intersection(store, ids):
    a = {ids["flows_through"], ids["capital"]}
    b = {ids["flows_through"]}
    once = kg_store.filter_relations(store, a & b)
    twice = kg_store.filter_relations(kg_store.filter_relations(store, a), b)
    assert once.tuples == twice.tuples


@pytest.mark.parametrize("seed", range(8))
def test_filter_relations_equals_a_scan_on_random_stores(seed):
    rng = random.Random(f"filter_relations:{seed}")
    s = make_random_store(seed, n_tuples=rng.randint(0, 400), n_relations=rng.randint(1, 6))
    for _ in range(4):
        allowlist = set(rng.sample(range(s.n_relations), rng.randint(0, s.n_relations)))
        filtered = kg_store.filter_relations(s, allowlist)
        kept = sorted(t for t in s.tuples if t.relation in allowlist)
        assert filtered.tuples == frozenset(kept) and TupleRows(filtered.rows) == kept
        assert filtered.entity_types == s.entity_types
        assert filtered.entity_labels == s.entity_labels
        assert filtered.relation_labels == s.relation_labels


def test_filter_types_full_coverage_keeps_everything(store):
    filtered, retained = kg_store.filter_types(store, 1.0)
    assert retained == frozenset(range(store.n_types))
    assert filtered.tuples == store.tuples


def test_filter_types_zero_coverage_empties_the_store(store):
    filtered, retained = kg_store.filter_types(store, 0.0)
    assert retained == frozenset()
    assert len(filtered.tuples) == 0


def test_filter_types_075_drops_city(store, ids):
    # participation: country 8, river 6, city 2; {country, river} covers 6/8
    filtered, retained = kg_store.filter_types(store, 0.75)
    assert retained == frozenset({ids["country"], ids["river"]})
    assert len(filtered.tuples) == 6
    assert all(t.relation == ids["flows_through"] for t in filtered.tuples)
    assert filtered.types_of(store.entity_id("New Delhi")) == frozenset()


def test_filter_types_breaks_participation_ties_by_id():
    # two types with identical participation: the smaller id wins a spot
    # in the ranking prefix, so results are reproducible
    tuples = [Tuple(0, 0, 1), Tuple(0, 2, 3)]
    types = {0: frozenset({0}), 1: frozenset({1}), 2: frozenset({2}), 3: frozenset({1})}
    s = KgStore(tuples, ["A", "B", "C", "D"], ["r"], ["t0", "t1", "t2"], types)
    # participation: t0 -> 1, t1 -> 2, t2 -> 1; ranking t1, t0, t2
    filtered, retained = kg_store.filter_types(s, 0.5)
    assert retained == frozenset({0, 1})
    assert filtered.tuples == frozenset({Tuple(0, 0, 1)})


def _filter_types_reference(store: KgStore, fraction: float):
    """The ranked-prefix type filter as first written: after each added type,
    rescan every tuple for both ends keeping a type.  Returns the retained
    types, the kept tuples and the new entity types."""

    def survives(t, retained):
        return bool(store.types_of(t.subject) & retained) and bool(
            store.types_of(t.object) & retained
        )

    total = len(store.tuples)
    participation = {ty: 0 for ty in range(store.n_types)}
    for t in store.tuples:
        for ty in store.types_of(t.subject) | store.types_of(t.object):
            participation[ty] += 1
    ranked = sorted(participation, key=lambda ty: (-participation[ty], ty))
    retained: set[int] = set()
    if total:
        covered = 0
        for ty in ranked:
            if covered / total >= fraction:
                break
            retained.add(ty)
            covered = sum(1 for t in store.tuples if survives(t, retained))
    new_types = {
        e: frozenset(ts & retained) for e, ts in store.entity_types.items() if ts & retained
    }
    kept = frozenset(t for t in store.tuples if survives(t, retained))
    return frozenset(retained), kept, new_types


FILTER_FRACTIONS = (0.0, 0.1, 0.33, 0.5, 0.75, 0.9, 0.99, 1.0)


def _assert_filter_types_matches_reference(s: KgStore):
    for fraction in FILTER_FRACTIONS:
        filtered, retained = kg_store.filter_types(s, fraction)
        ref_retained, ref_kept, ref_types = _filter_types_reference(s, fraction)
        assert retained == ref_retained, fraction
        assert filtered.tuples == ref_kept, fraction
        assert filtered.entity_types == ref_types, fraction


@pytest.mark.parametrize("seed", range(60))
def test_filter_types_equals_the_rescanning_reference_on_random_stores(seed):
    rng = random.Random(f"filter_types:{seed}")
    s = make_random_store(seed, n_tuples=rng.randint(0, 600), n_types=rng.randint(1, 6))
    _assert_filter_types_matches_reference(s)
    # the same graph with every fifth entity untyped: its tuples never survive
    untyped = KgStore(
        s.tuples,
        s.entity_labels,
        s.relation_labels,
        s.type_labels,
        {e: ts for e, ts in s.entity_types.items() if e % 5},
    )
    _assert_filter_types_matches_reference(untyped)


def test_filter_types_equals_the_rescanning_reference_on_fixture(store):
    _assert_filter_types_matches_reference(store)


def test_stats_on_fixture(store, ids):
    st = kg_store.stats(store)
    assert st.n_tuples == 8
    assert st.n_entities == 10
    assert st.n_relations == 2
    # India appears in 4 tuples and China in 3, so both clear the >=3 bar
    assert st.n_fanout_ge3 == 2
    assert st.fanout_histogram == {1: 7, 2: 1, 3: 1, 4: 1}
    # (flows_through, India) 3 objects, (flows_through, China) 2: one-many;
    # Egypt and the two capitals are one-one
    assert st.n_one_many == 5
    assert st.n_one_one == 3


def test_stats_empty_store():
    empty = KgStore([], [], [], [], {})
    st = kg_store.stats(empty)
    assert st.n_tuples == 0
    assert st.n_entities == 0
    assert st.n_fanout_ge3 == 0
    assert st.n_one_one == 0 and st.n_one_many == 0


def _brute_stats(s: KgStore):
    tuples = list(s.tuples)
    fanout = {e: 0 for e in range(s.n_entities)}
    for t in tuples:
        for e in {t.subject, t.object}:
            fanout[e] += 1
    groups = {}
    for t in tuples:
        groups.setdefault((t.relation, t.subject), []).append(t)
    return {
        "n_tuples": len(tuples),
        "ge3": sum(1 for c in fanout.values() if c >= 3),
        "hist": {
            f: sum(1 for c in fanout.values() if c == f) for f in set(fanout.values())
        },
        "one_one": sum(len(g) for g in groups.values() if len(g) == 1),
        "one_many": sum(len(g) for g in groups.values() if len(g) > 1),
        "in_tuples": len({e for t in tuples for e in (t.subject, t.object)}),
    }


def _assert_stats_equal_brute_force(s: KgStore):
    st = kg_store.stats(s)
    brute = _brute_stats(s)
    assert st.n_tuples == brute["n_tuples"]
    assert st.n_entities == s.n_entities
    assert st.n_relations == s.n_relations
    assert st.n_fanout_ge3 == brute["ge3"]
    assert dict(st.fanout_histogram) == brute["hist"]
    assert st.n_one_one == brute["one_one"]
    assert st.n_one_many == brute["one_many"]
    assert st.n_entities_in_tuples == brute["in_tuples"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stats_equal_brute_force_on_random_stores(seed):
    s = make_random_store(seed, n_tuples=400, n_relations=5, n_types=4)
    _assert_stats_equal_brute_force(s)


def test_stats_equal_brute_force_at_scale():
    s = make_random_store(99, n_tuples=100_000, n_relations=20, n_types=8, n_entities=20_000)
    _assert_stats_equal_brute_force(s)


@pytest.mark.parametrize(
    ("n_tuples", "fanout", "expected"), [(1565, "uniform", 1594), (6800, "heavy", 6139)]
)
def test_stats_equal_brute_force_on_synthetic_graphs(n_tuples, fanout, expected, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    import graphgen

    s = graphgen.make_graph(1, n_tuples, fanout)
    assert len(s.tuples) == expected
    _assert_stats_equal_brute_force(s)


# retained bytes per tuple of a store built from a 28,493-tuple uniform graph,
# with 5% margin: 137.4 when measured, 187.0 while the store kept a frozenset
# of the caller's Tuples, 412.7 while the relation indexes kept a tuple per
# key, the label index a list per entity and the types a frozenset each, 512
# while the relation indexes were dicts of frozensets, 722 while the store
# also kept a per-entity dict of tuple sets (Python 3.11, numpy 2.4)
STORE_BYTES_PER_TUPLE = 145
# the same at 110,884 tuples: 143.6 when measured, 157.5 with the frozenset of
# Tuples, 391.0 with a tuple per key and a list per entity, 488 with the
# frozenset dicts
STORE_BYTES_PER_TUPLE_AT_110K = 151
# GC-tracked objects that a store and its gazetteer keep: 10 when measured at
# 28,493 tuples, 28,502 while the store kept the caller's Tuples, 40,015 more
# with a tuple per relation key, a list per entity label and a frozenset per
# gazetteer key
STORE_AND_GAZETTEER_TRACKED_OBJECTS = 25


def _retained_bytes_per_tuple(n_tuples: int, expected: int) -> float:
    import graphgen

    s = graphgen.make_graph(1, n_tuples, "uniform")
    args = (list(s.tuples), s.entity_labels, s.relation_labels, s.type_labels, s.entity_types)
    del s
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = KgStore(*args)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(built.tuples) == expected
    return retained / len(built.tuples)


def test_store_bytes_per_tuple_are_bounded(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    assert _retained_bytes_per_tuple(28000, 28493) <= STORE_BYTES_PER_TUPLE


def test_store_bytes_per_tuple_are_bounded_at_110k_tuples(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    assert _retained_bytes_per_tuple(110000, 110884) <= STORE_BYTES_PER_TUPLE_AT_110K


def test_store_and_gazetteer_keep_few_tracked_objects(monkeypatch):
    """So that a store build does not set off full collections over the
    caller's heap, nor slow the ones that run later."""
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    import graphgen
    from kgdialog.entity_linker import build_gazetteer

    s = graphgen.make_graph(1, 28000, "uniform")
    rows = TupleRows(s.rows.copy())
    args = (s.entity_labels, s.relation_labels, s.type_labels, s.entity_types)
    del s
    gc.collect()
    before = len(gc.get_objects())
    # the caller's Tuples are made after the first count and dropped before
    # the second, so the count holds only what the store keeps alive
    built = KgStore(list(rows), *args)
    gazetteer = build_gazetteer(built)
    gc.collect()
    kept = len(gc.get_objects()) - before
    assert len(built.tuples) == 28493 and len(gazetteer.entries) == built.n_entities
    assert kept <= STORE_AND_GAZETTEER_TRACKED_OBJECTS


@pytest.mark.parametrize("seed", [3, 4])
def test_index_round_trip_on_random_stores(seed):
    s = make_random_store(seed, n_tuples=300)
    pairs = [(r, e) for r in range(s.n_relations) for e in range(s.n_entities)]
    from_rel_subj = {Tuple(r, subj, o) for r, subj in pairs for o in s.objects_of(r, subj)}
    from_rel_obj = {Tuple(r, subj, o) for r, o in pairs for subj in s.subjects_of(r, o)}
    from_entity = set()
    for e in range(s.n_entities):
        assert s.tuples_containing(e) == brute_fanout(s, e)
        from_entity |= s.tuples_containing(e)
    assert from_rel_subj == s.tuples
    assert from_rel_obj == s.tuples
    assert from_entity == s.tuples


def _assert_lookups_equal_a_scan(s: KgStore) -> None:
    """objects_of and subjects_of of every (relation, entity) pair, read
    twice (the first read freezes a run, the second reads it back), equal a
    scan of the tuples; unknown ids raise."""
    objects: dict[tuple[int, int], set[int]] = {}
    subjects: dict[tuple[int, int], set[int]] = {}
    for t in s.tuples:
        objects.setdefault((t.relation, t.subject), set()).add(t.object)
        subjects.setdefault((t.relation, t.object), set()).add(t.subject)
    for _ in range(2):
        for r in range(s.n_relations):
            for e in range(s.n_entities):
                for lookup, scan in ((s.objects_of, objects), (s.subjects_of, subjects)):
                    got = lookup(r, e)
                    assert type(got) is frozenset and got == scan.get((r, e), set()), (lookup, r, e)
                    assert all(type(v) is int for v in got)
    for lookup in (s.objects_of, s.subjects_of):
        for r, e in ((s.n_relations, 0), (-1, 0), (0, s.n_entities), (0, -1)):
            with pytest.raises(UnknownIdError):
                lookup(r, e)


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_lookups_equal_a_scan_on_random_stores_with_gaps(seed):
    """Self-loops, entities without tuples and a relation without tuples."""
    base = make_random_store(seed, n_tuples=250, n_relations=3, n_entities=60)
    rng = random.Random(seed)
    loops = {Tuple(rng.randrange(3), e, e) for e in rng.sample(range(base.n_entities), 6)}
    n = base.n_entities + 5
    s = KgStore(
        base.tuples | loops,
        base.entity_labels + [f"lonely{i}" for i in range(5)],
        base.relation_labels + ["unused"],
        base.type_labels,
        {**base.entity_types, **{e: frozenset({0}) for e in range(base.n_entities, n)}},
    )
    assert any(t.subject == t.object for t in s.tuples)
    assert not any(t.relation == 3 for t in s.tuples)
    assert kg_store.stats(s).n_entities_in_tuples < s.n_entities
    _assert_lookups_equal_a_scan(s)


@pytest.mark.parametrize(("n_tuples", "fanout"), [(1600, "heavy"), (6000, "uniform")])
def test_lookups_equal_a_scan_on_synthetic_graphs(n_tuples, fanout, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    import graphgen

    _assert_lookups_equal_a_scan(graphgen.make_graph(1, n_tuples, fanout))


@pytest.mark.parametrize("seed", [5, 6])
def test_objects_and_subjects_agree(seed):
    s = make_random_store(seed, n_tuples=200)
    rng = random.Random(seed)
    for _ in range(200):
        r = rng.randrange(s.n_relations)
        a = rng.randrange(s.n_entities)
        for o in s.objects_of(r, a):
            assert a in s.subjects_of(r, o)
        for subj in s.subjects_of(r, a):
            assert a in s.objects_of(r, subj)


def test_save_dir_round_trips(store, tmp_path):
    kg_store.save_dir(store, tmp_path)
    again = kg_store.load_dir(tmp_path)
    # ids are reassigned but the labeled graph is identical
    relabel = {
        (store.relation_label(t.relation), store.entity_label(t.subject), store.entity_label(t.object))
        for t in store.tuples
    }
    relabel2 = {
        (again.relation_label(t.relation), again.entity_label(t.subject), again.entity_label(t.object))
        for t in again.tuples
    }
    assert relabel == relabel2


@pytest.mark.parametrize("seed", range(8))
def test_save_dir_round_trips_random_stores(seed, tmp_path):
    """Dense ids become file ids and come back in file order, so the loaded
    store has the same tuples, rows, labels and types."""
    rng = random.Random(f"save_dir:{seed}")
    s = make_random_store(seed, n_tuples=rng.randint(0, 400), n_types=rng.randint(1, 5))
    kg_store.save_dir(s, tmp_path)
    again = kg_store.load_dir(tmp_path)
    assert again.tuples == s.tuples
    assert np.array_equal(again.rows, s.rows)
    assert again.entity_labels == s.entity_labels
    assert again.relation_labels == s.relation_labels
    assert again.type_labels == s.type_labels
    assert again.entity_types == s.entity_types
