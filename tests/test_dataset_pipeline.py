"""Corpus generation, serialization, tuple-separated splits and stats."""

import hashlib
import json

import pytest

from conftest import REPO
from kgdialog import dataset_pipeline as pipe, dialog_machine as dm, query_algebra as qa
from kgdialog.config import RunConfig
from kgdialog.kg_store import Tuple

CFG = RunConfig(min_questions=4, max_questions=6)


@pytest.fixture(scope="module")
def corpus(store, templates):
    return pipe.generate_corpus(store, templates, 25, CFG, seed=7)


def test_generate_corpus_size_and_determinism(store, templates, corpus):
    assert len(corpus.dialogs) == 25
    assert corpus.shortfall == 0
    again = pipe.generate_corpus(store, templates, 25, CFG, seed=7)
    assert [d.turns for d in again.dialogs] == [d.turns for d in corpus.dialogs]


def test_generate_zero_dialogs(store, templates):
    corpus = pipe.generate_corpus(store, templates, 0, CFG, seed=1)
    assert corpus.dialogs == []
    assert pipe.corpus_stats(corpus).n_dialogs == 0


def test_provenance_tuples_come_from_the_store(store, corpus):
    for d in corpus.dialogs:
        prov = corpus.provenance[d.dialog_id]
        assert prov <= store.tuples
        assert prov == pipe.dialog_provenance(store, d.turns)


def test_serialization_round_trip_and_byte_identity(store, templates, corpus, tmp_path):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    pipe.write_corpus(corpus, store, p1)
    loaded = pipe.read_corpus(p1, store)
    assert [d.turns for d in loaded.dialogs] == [d.turns for d in corpus.dialogs]
    assert loaded.provenance == corpus.provenance
    pipe.write_corpus(loaded, store, p2)
    assert p1.read_bytes() == p2.read_bytes()

    regenerated = pipe.generate_corpus(store, templates, 25, CFG, seed=7)
    p3 = tmp_path / "c.jsonl"
    pipe.write_corpus(regenerated, store, p3)
    assert p1.read_bytes() == p3.read_bytes()


def test_dialog_to_obj_prints_each_plan_object_once(store, corpus, monkeypatch):
    from kgdialog import plan_text

    def per_turn(dialog):
        return [plan_text.print_plan(t.plan, store) if t.plan is not None else None for t in dialog.turns]

    expected = [per_turn(d) for d in corpus.dialogs]
    printed = []
    real = plan_text.print_plan
    monkeypatch.setattr(plan_text, "print_plan", lambda plan, s: printed.append(plan) or real(plan, s))
    for d, texts in zip(corpus.dialogs, expected):
        printed.clear()
        assert [t["plan"] for t in pipe.dialog_to_obj(d, store)["turns"]] == texts
        plans = [t.plan for t in d.turns if t.plan is not None]
        top = [p for p in printed if any(p is q for q in plans)]  # print_plan recurses
        assert len(top) == len({id(p) for p in plans}) < len(plans)


def _grouped_graph(name, store, monkeypatch):
    """The fixture, or the heavy-tailed 1.8k graph; default weights ask grouped questions on both."""
    if name == "fixture":
        return store
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    import graphgen

    return graphgen.make_graph(7, 1800, "heavy")


def _round_trip(s, templates, tmp_path):
    corpus = pipe.generate_corpus(s, templates, 40, RunConfig(seed=7), seed=7)
    pipe.write_corpus(corpus, s, tmp_path / "c.jsonl")
    return corpus, pipe.read_corpus(tmp_path / "c.jsonl", s)


@pytest.mark.parametrize("graph", ["fixture", "heavy"])
def test_provenance_is_the_union_and_shares_a_group_set(graph, store, templates, monkeypatch, tmp_path):
    s = _grouped_graph(graph, store, monkeypatch)
    shared = []
    for corpus in _round_trip(s, templates, tmp_path):
        for d in corpus.dialogs:
            plans = {id(t.plan): t.plan for t in d.turns if t.plan is not None}.values()
            sets = [qa.plan_tuples(s, p) for p in plans]
            prov = corpus.provenance_of(d)
            assert prov == frozenset().union(*sets)
            # a set plan_tuples hands back itself on every call is a group's cached set
            cached = [t for p, t in zip(plans, sets) if qa.plan_tuples(s, p) is t]
            if any(prov == t for t in cached):
                assert any(prov is t for t in cached)
                shared.append(prov)
    # dialogs over one group hold one set object between them
    assert len({id(prov) for prov in shared}) < len(shared)


@pytest.mark.parametrize("graph", ["fixture", "heavy"])
def test_generate_write_read_validates_each_plan_once_per_store(graph, store, templates, monkeypatch, tmp_path):
    s = _grouped_graph(graph, store, monkeypatch)
    walks: dict[tuple[int, int], list] = {}  # keeps each plan alive, so no id is reused
    validate = qa._validate_plan

    def counting(st, plan, partial=False):
        if not partial:
            walks.setdefault((id(plan), id(st)), [plan, 0])[1] += 1
        return validate(st, plan, partial)

    monkeypatch.setattr(qa, "_validate_plan", counting)
    corpus, read = _round_trip(s, templates, tmp_path)
    assert read.provenance == corpus.provenance
    read_plans = {id(t.plan) for d in read.dialogs for t in d.turns if t.plan is not None}
    assert read_plans and read_plans <= {plan_id for plan_id, _ in walks}
    assert max(n for _, n in walks.values()) == 1


def _rewrite_lines(src, dst, edit):
    with open(src, encoding="utf-8") as fh, open(dst, "w", encoding="utf-8") as out:
        for line in fh:
            obj = json.loads(line)
            edit(obj)
            out.write(json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":")) + "\n")


def _bucket_ids(result):
    return {
        name: [d.dialog_id for d in getattr(result, name)]
        for name in ("train", "valid", "test", "discarded")
    }


def test_written_line_holds_only_id_seed_and_turns(store, corpus, tmp_path):
    path = tmp_path / "c.jsonl"
    pipe.write_corpus(corpus, store, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(corpus.dialogs)
    for line in lines:
        assert sorted(json.loads(line)) == ["dialog_id", "seed", "turns"]


def test_old_format_with_stored_provenance_reads_the_same(store, corpus, tmp_path):
    new, old = tmp_path / "new.jsonl", tmp_path / "old.jsonl"
    pipe.write_corpus(corpus, store, new)

    def add_provenance(obj):
        prov = corpus.provenance[obj["dialog_id"]]
        obj["provenance"] = sorted([t.relation, t.subject, t.object] for t in prov)

    _rewrite_lines(new, old, add_provenance)
    from_new, from_old = pipe.read_corpus(new, store), pipe.read_corpus(old, store)
    assert from_old.dialogs == from_new.dialogs == corpus.dialogs
    assert from_old.provenance == from_new.provenance == corpus.provenance
    spec = pipe.SplitSpec((0.6, 0.2, 0.2), seed=11)
    assert _bucket_ids(pipe.split_corpus(from_old, spec)) == _bucket_ids(
        pipe.split_corpus(from_new, spec)
    )


@pytest.mark.parametrize("stored", ["empty", "one tuple"])
def test_stored_provenance_that_disagrees_with_the_plans_is_ignored(stored, store, corpus, tmp_path):
    new, tampered = tmp_path / "new.jsonl", tmp_path / "tampered.jsonl"
    pipe.write_corpus(corpus, store, new)
    # either stored provenance would put every dialog in one split, none discarded
    t = min(store.tuples)
    wrong = [] if stored == "empty" else [[t.relation, t.subject, t.object]]
    _rewrite_lines(new, tampered, lambda obj: obj.update(provenance=wrong))
    spec = pipe.SplitSpec((0.6, 0.2, 0.2), seed=11)
    expected = _bucket_ids(pipe.split_corpus(corpus, spec))
    assert expected["discarded"]
    assert _bucket_ids(pipe.split_corpus(pipe.read_corpus(tampered, store), spec)) == expected


def test_read_back_plans_replay_to_recorded_answers(store, corpus, tmp_path):
    """Serialization preserves plan/answer fidelity for every answer kind:
    replaying a loaded corpus reproduces each recorded answer."""
    path = tmp_path / "c.jsonl"
    pipe.write_corpus(corpus, store, path)
    loaded = pipe.read_corpus(path, store)
    replayed = 0
    from kgdialog import query_algebra as qa

    for dialog in loaded.dialogs:
        for turn in dialog.turns:
            if turn.plan is not None and turn.answer is not None:
                assert qa.execute(store, turn.plan) == turn.answer
                replayed += 1
    assert replayed > 0


def test_split_fraction_validation(corpus):
    with pytest.raises(pipe.PipelineError):
        pipe.split_corpus(corpus, pipe.SplitSpec((0.5, 0.2, 0.2), seed=1))
    with pytest.raises(pipe.PipelineError):
        pipe.split_corpus(corpus, pipe.SplitSpec((1.2, -0.1, -0.1), seed=1))


def test_split_disjoint_and_accounted(corpus):
    spec = pipe.SplitSpec((0.6, 0.2, 0.2), seed=11)
    result = pipe.split_corpus(corpus, spec)
    report = pipe.split_report(corpus, result)
    assert report["provenance_overlap_train_eval"] == 0
    assert (
        report["n_train"] + report["n_valid"] + report["n_test"] + report["n_discarded"]
        == len(corpus.dialogs)
    )
    # every dialog sits in exactly one bucket
    seen = [d.dialog_id for bucket in (result.train, result.valid, result.test, result.discarded) for d in bucket]
    assert sorted(seen) == sorted(d.dialog_id for d in corpus.dialogs)


def test_split_all_train(corpus):
    result = pipe.split_corpus(corpus, pipe.SplitSpec((1.0, 0.0, 0.0), seed=3))
    assert len(result.train) == len(corpus.dialogs)
    assert not result.valid and not result.test and not result.discarded


def test_straddling_dialog_is_discarded():
    t1, t2 = Tuple(0, 0, 1), Tuple(0, 2, 3)
    turn = dm.DialogTurn("user", dm.TurnState.SIMPLE_Q, "q")
    dialogs = [
        pipe.Dialog("both", 0, (turn,)),
        pipe.Dialog("only_a", 0, (turn,)),
        pipe.Dialog("only_b", 0, (turn,)),
    ]
    provenance = {
        "both": frozenset({t1, t2}),
        "only_a": frozenset({t1}),
        "only_b": frozenset({t2}),
    }
    corpus = pipe.Corpus(dialogs, provenance)
    # find a seed whose hash puts t1 and t2 into different partitions
    for seed in range(200):
        spec = pipe.SplitSpec((0.5, 0.25, 0.25), seed=seed)
        owners = {pipe._part_of(spec, t1), pipe._part_of(spec, t2)}
        if len(owners) == 2:
            result = pipe.split_corpus(corpus, spec)
            assert [d.dialog_id for d in result.discarded] == ["both"]
            assert len(result.train) + len(result.valid) + len(result.test) == 2
            return
    pytest.fail("no splitting seed found")


def test_empty_provenance_goes_to_train():
    turn = dm.DialogTurn("user", dm.TurnState.SIMPLE_Q, "q")
    corpus = pipe.Corpus([pipe.Dialog("d", 0, (turn,))], {"d": frozenset()})
    result = pipe.split_corpus(corpus, pipe.SplitSpec((0.5, 0.25, 0.25), seed=0))
    assert [d.dialog_id for d in result.train] == ["d"]


def test_dialog_without_provenance_is_refused(corpus):
    """Taken as empty, a missing provenance would send every dialog to
    train and report no overlap; the first dialog lacking one is named."""
    spec = pipe.SplitSpec((0.5, 0.25, 0.25), seed=0)
    bare = pipe.Corpus(corpus.dialogs)
    with pytest.raises(pipe.PipelineError, match="'d000000' has no provenance"):
        pipe.split_corpus(bare, spec)
    partial = pipe.Corpus(corpus.dialogs, dict(list(corpus.provenance.items())[:3]))
    with pytest.raises(pipe.PipelineError, match="'d000003' has no provenance"):
        pipe.split_corpus(partial, spec)
    with pytest.raises(pipe.PipelineError, match="has no provenance entry"):
        pipe.split_report(bare, pipe.split_corpus(corpus, spec))


def test_split_disjointness_over_many_random_corpora(store, templates):
    for seed in range(5):
        corpus = pipe.generate_corpus(store, templates, 15, CFG, seed=seed)
        result = pipe.split_corpus(corpus, pipe.SplitSpec((0.7, 0.15, 0.15), seed=seed))
        report = pipe.split_report(corpus, result)
        assert report["provenance_overlap_train_eval"] == 0


def _split_reference(corpus, spec):
    """Bucket ids by the split's first algorithm: partition the whole
    provenance union by seeded hash, then give each dialog the first part
    that holds all of its provenance."""

    def unit(t):
        key = f"{spec.seed}:{t.relation}:{t.subject}:{t.object}".encode()
        return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") / 2**64

    train_cut, valid_cut = spec.fractions[0], spec.fractions[0] + spec.fractions[1]
    parts = {"train": set(), "valid": set(), "test": set()}
    for t in sorted(set().union(*corpus.provenance.values())):
        u = unit(t)
        parts["train" if u < train_cut else "valid" if u < valid_cut else "test"].add(t)
    buckets = {"train": [], "valid": [], "test": [], "discarded": []}
    for d in corpus.dialogs:
        prov = corpus.provenance[d.dialog_id]
        owner = next((name for name, part in parts.items() if prov <= part), "discarded")
        buckets[owner].append(d.dialog_id)
    return buckets


NO_GROUPED = {"argopt": 0.0, "threshold": 0.0, "comparative": 0.0}


def _graphgen_corpus(monkeypatch, templates, n_tuples, fanout, n_dialogs, weights=None):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    import graphgen

    store = graphgen.make_graph(1, n_tuples, fanout)
    config = RunConfig(seed=42, transition_weights=weights or {})
    return pipe.generate_corpus(store, templates, n_dialogs, config, seed=42)


@pytest.mark.parametrize(
    ("n_tuples", "fanout", "weights"),
    [(300, "uniform", None), (1800, "heavy", None), (6000, "uniform", NO_GROUPED), (6000, "heavy", None)],
)
def test_split_equals_partitioning_the_whole_union(n_tuples, fanout, weights, templates, monkeypatch):
    corpus = _graphgen_corpus(monkeypatch, templates, n_tuples, fanout, 80, weights)
    assert len(corpus.dialogs) == 80
    for fractions in [(0.8, 0.1, 0.1), (0.5, 0.25, 0.25), (1, 0, 0), (0, 0, 1), (0.98, 0.01, 0.01)]:
        for seed in range(4):
            spec = pipe.SplitSpec(fractions, seed)
            assert _bucket_ids(pipe.split_corpus(corpus, spec)) == _split_reference(corpus, spec)


def _count_hashes(monkeypatch) -> list:
    hashed = []
    unit = pipe._tuple_unit
    monkeypatch.setattr(pipe, "_tuple_unit", lambda seed, t: hashed.append(t) or unit(seed, t))
    return hashed


def test_split_hashes_no_tuple_twice(corpus, monkeypatch):
    hashed = _count_hashes(monkeypatch)
    for seed in range(4):
        hashed.clear()
        pipe.split_corpus(corpus, pipe.SplitSpec((0.5, 0.25, 0.25), seed))
        assert hashed and len(hashed) == len(set(hashed))


def test_split_hashes_only_the_tuples_that_decide(templates, monkeypatch):
    """A grouped batch's provenance covers most of the graph, yet its
    dialogs straddle parts within their first few tuples."""
    corpus = _graphgen_corpus(monkeypatch, templates, 1800, "heavy", 10)
    union = set().union(*corpus.provenance.values())
    hashed = _count_hashes(monkeypatch)
    for seed in range(4):
        hashed.clear()
        pipe.split_corpus(corpus, pipe.SplitSpec((0.8, 0.1, 0.1), seed))
        assert len(hashed) == len(set(hashed)) < len(union) / 10


# -- statistics ------------------------------------------------------------------------


def test_stats_single_dialog_trivial():
    turns = tuple(
        dm.DialogTurn("user" if i % 2 == 0 else "system", dm.TurnState.SIMPLE_Q if i % 2 == 0 else dm.TurnState.RESPONSE, f"word {i}")
        for i in range(4)
    )
    corpus = pipe.Corpus([pipe.Dialog("d", 0, turns)], {"d": frozenset()})
    stats = pipe.corpus_stats(corpus)
    assert stats.n_dialogs == 1
    assert stats.avg_utterances_per_dialog == 4.0
    assert stats.avg_question_words == 2.0
    assert stats.avg_response_words == 2.0
    assert stats.avg_distinct_states_per_dialog == 2.0


def _recount(corpus, threshold):
    """Independent single-pass recount over the raw turn data."""
    dialogs = corpus.dialogs
    utterances = [t for d in dialogs for t in d.turns]
    questions = [
        t for t in utterances if t.speaker == "user" and t.state in dm.QUESTION_STATES
    ]
    responses = [
        t for t in utterances if t.speaker == "system" and t.state == dm.TurnState.RESPONSE
    ]
    freq: dict[str, int] = {}
    for t in utterances:
        for token in t.utterance.split():
            freq[token] = freq.get(token, 0) + 1
    return {
        "n_dialogs": len(dialogs),
        "n_turns": len(utterances),
        "n_questions": len(questions),
        "avg_utterances_per_dialog": len(utterances) / len(dialogs),
        "avg_question_words": sum(len(t.utterance.split()) for t in questions) / len(questions),
        "avg_response_words": sum(len(t.utterance.split()) for t in responses) / len(responses),
        "avg_distinct_states_per_dialog": sum(len({t.state for t in d.turns}) for d in dialogs)
        / len(dialogs),
        "vocab_size": sum(1 for c in freq.values() if c >= threshold),
        "vocab_threshold": threshold,
    }


def test_stats_match_independent_recount(corpus):
    stats = pipe.corpus_stats(corpus, vocab_threshold=3)
    assert stats.as_dict() == _recount(corpus, 3)


def test_stats_invariant_under_dialog_reordering(corpus):
    reordered = pipe.Corpus(list(reversed(corpus.dialogs)), corpus.provenance)
    assert pipe.corpus_stats(corpus) == pipe.corpus_stats(reordered)


def test_full_scale_reference_is_reported_not_asserted():
    ref = pipe.FULL_SCALE_REFERENCE
    assert ref["train"]["avg_utterances_per_dialog"] == 15.9
    assert ref["train"]["avg_question_words"] == 9.7
    assert ref["train"]["n_dialogs"] == 152391
    assert ref["valid"]["n_dialogs"] == 16413
    assert ref["test"]["n_dialogs"] == 27797
