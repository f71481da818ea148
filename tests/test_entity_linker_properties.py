"""Property checks: candidate_tuples' merge over dense tuple ids equals the
round-robin loop over sorted tuples, on drawn stores, matched entities and
caps; and the gazetteer built in one pass over all texts equals one built
label by label with ``text.normalize``, and linking reads the same matches
from it."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from conftest import REPO, make_random_store  # noqa: E402
from kgdialog import dataset_pipeline as pipe, entity_linker as el  # noqa: E402
from kgdialog.config import RunConfig  # noqa: E402
from kgdialog.kg_store import KgStore  # noqa: E402
from kgdialog.text import normalize  # noqa: E402
from test_entity_linker import sort_per_call_candidates  # noqa: E402


@st.composite
def stores_and_matches(draw):
    store = make_random_store(
        draw(st.integers(0, 2**32)),
        n_tuples=draw(st.integers(0, 150)),
        n_entities=draw(st.integers(8, 30)),  # few entities: self-loops are common
    )
    tuples = sorted(store.tuples)
    matched = draw(st.lists(st.integers(0, store.n_entities - 1), max_size=5))
    if tuples:
        # both ends of a tuple: it sits in two pools
        for t in draw(st.lists(st.sampled_from(tuples), max_size=4)):
            matched += [t.subject, t.object]
        loops = [t.subject for t in tuples if t.subject == t.object]
        if loops:
            matched.append(draw(st.sampled_from(loops)))
    matched = draw(st.permutations(matched))
    if matched:
        matched += draw(st.lists(st.sampled_from(matched), max_size=3))  # repeated ids
    n = len(sort_per_call_candidates(store, matched, 10**9)[0])
    return store, matched, draw(st.integers(1, n + 1))


@settings(max_examples=300, deadline=None)
@given(stores_and_matches())
def test_id_merge_equals_the_round_robin_loop(case):
    store, matched, cap = case
    got = el.candidate_tuples(store, matched, cap)
    assert (got.tuples, got.truncated) == sort_per_call_candidates(store, matched, cap)
    assert got.tuples.ids.shape == (len(got.tuples), 3)


def reference_gazetteer(labels, aliases) -> tuple[dict[str, tuple[int, ...]], int]:
    """Entries and longest entry of the gazetteer, one text at a time."""
    entries: dict[str, set[int]] = {}
    max_len = 1
    for e, text in [*enumerate(labels), *aliases]:
        tokens = normalize(text)
        if tokens:
            entries.setdefault(" ".join(tokens), set()).add(e)
            max_len = max(max_len, len(tokens))
    return {key: tuple(sorted(ids)) for key, ids in entries.items()}, max_len


def reference_link(entries, max_len: int, utterance: str) -> list[el.Match]:
    """Greedy left-to-right longest match, over the reference entries."""
    tokens = normalize(utterance)
    matches = []
    i = 0
    while i < len(tokens):
        for size in range(min(max_len, len(tokens) - i), 0, -1):
            key = " ".join(tokens[i : i + size])
            if key in entries:
                matches.append(el.Match(i, i + size, key, entries[key]))
                i += size
                break
        else:
            i += 1
    return matches


# letters whose lower case is special (final sigma, dotted I, Kelvin sign),
# separators and punctuation, next to any character at all
_CHARS = st.one_of(st.sampled_from("aZ09 -.,'\"  ΣİK\t\r\n"), st.characters())
_TEXTS = st.one_of(st.text(_CHARS, max_size=14), st.sampled_from(["", "Ganga", "GANGA!", " ganga ", "New Delhi"]))
# the store refuses labels that its files cannot hold; aliases are free text
_LABELS = _TEXTS.filter(lambda text: not any(c in text for c in "\t\r\n"))


@given(
    labels=st.lists(_LABELS, max_size=12),
    aliases=st.lists(st.tuples(st.integers(0, 11), _TEXTS), max_size=6),
    utterances=st.lists(_TEXTS, max_size=4),
)
@example(labels=["New Delhi", "A"], aliases=[(1, "new\ndelhi"), (0, "\n")], utterances=["new delhi"])
def test_one_pass_gazetteer_equals_one_built_label_by_label(labels, aliases, utterances):
    store = KgStore([], labels, [], [], {})
    gazetteer = el.build_gazetteer(store, aliases)
    entries, max_len = reference_gazetteer(labels, aliases)
    assert gazetteer.entries == entries
    assert gazetteer.max_len == max_len
    for utterance in [*utterances, " ".join(labels)]:
        assert el.link(gazetteer, utterance) == reference_link(entries, max_len, utterance)


def _assert_links_equal_the_reference(store, templates, n_dialogs: int) -> None:
    gazetteer = el.build_gazetteer(store)
    entries, max_len = reference_gazetteer(store.entity_labels, [])
    assert (gazetteer.entries, gazetteer.max_len) == (entries, max_len)
    corpus = pipe.generate_corpus(store, templates, n_dialogs, RunConfig(), seed=3)
    utterances = [t.utterance for d in corpus.dialogs for t in d.turns]
    assert utterances
    for utterance in utterances:
        assert el.link(gazetteer, utterance) == reference_link(entries, max_len, utterance)


def test_links_equal_the_reference_on_the_fixture(store, templates):
    _assert_links_equal_the_reference(store, templates, 20)


def test_links_equal_the_reference_on_a_synthetic_graph(templates, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    import graphgen

    _assert_links_equal_the_reference(graphgen.make_graph(2, 1600, "heavy"), templates, 15)
