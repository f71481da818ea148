"""Corpus-scale dialog generation, tuple-separated splits and statistics.

A dialog's provenance is the set of store tuples any of its plans depends
on.  It is derived from the plans (``qa.plan_tuples``) against the store,
never stored: a corpus line holds the dialog id, its seed and its turns,
and reading a corpus derives the provenance again.  A grouped plan's
tuples are its group's set, cached on the store; a dialog whose tuples all
lie in one such set has that set itself as its provenance, not a copy of
it, so dialogs over one group share one set.  Splitting first
partitions the tuple set by seeded hash and then assigns each dialog to
the split owning all of its tuples; dialogs straddling partitions are
discarded and the discard count is reported, since silently dropping them
would bias the corpus toward short dialogs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from math import inf
from pathlib import Path
from types import NoneType
from typing import Iterable, Sequence

from . import dialog_machine as dm, plan_text, query_algebra as qa
from .config import RunConfig, split_fractions_problem
from .kg_store import KgStore, Tuple, json_field, read_json_lines, write_json
from .templates import QuestionTemplate


class PipelineError(ValueError):
    pass


@dataclass(frozen=True)
class Dialog:
    dialog_id: str
    seed: int
    turns: tuple[dm.DialogTurn, ...]


@dataclass
class Corpus:
    dialogs: list[Dialog]
    # per dialog id, derived from the plans; writing a corpus does not read it
    provenance: dict[str, frozenset[Tuple]] = field(default_factory=dict)
    shortfall: int = 0  # dialogs requested but not generatable

    def provenance_of(self, dialog: Dialog) -> frozenset[Tuple]:
        """Missing is an error: taken as empty, it would send the dialog to train."""
        if dialog.dialog_id not in self.provenance:
            raise PipelineError(f"dialog {dialog.dialog_id!r} has no provenance entry")
        return self.provenance[dialog.dialog_id]


@dataclass(frozen=True)
class SplitSpec:
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)
    seed: int = 0

    def validate(self) -> None:
        problem = split_fractions_problem(self.fractions)
        if problem:
            raise PipelineError(problem)


@dataclass
class SplitResult:
    train: list[Dialog]
    valid: list[Dialog]
    test: list[Dialog]
    discarded: list[Dialog]


@dataclass(frozen=True)
class CorpusStats:
    n_dialogs: int
    n_turns: int
    n_questions: int
    avg_utterances_per_dialog: float
    avg_question_words: float
    avg_response_words: float
    avg_distinct_states_per_dialog: float
    vocab_size: int
    vocab_threshold: int

    def as_dict(self) -> dict:
        return dict(self.__dict__)


# published full-scale corpus statistics, shown as context next to toy runs;
# they are not reproduction targets (they required the original full KG dump
# and manual curation)
FULL_SCALE_REFERENCE = {
    "train": {
        "n_dialogs": 152391,
        "avg_utterances_per_dialog": 15.9,
        "avg_question_words": 9.7,
        "avg_response_words": 4.74,
        "avg_distinct_states_per_dialog": 3.89,
        "vocab_size_freq_ge_10": 100_000,
    },
    "valid": {
        "n_dialogs": 16413,
        "avg_utterances_per_dialog": 15.65,
        "avg_question_words": 9.68,
        "avg_response_words": 4.67,
        "avg_distinct_states_per_dialog": 3.84,
    },
    "test": {
        "n_dialogs": 27797,
        "avg_utterances_per_dialog": 19.44,
        "avg_question_words": 10.28,
        "avg_response_words": 4.37,
        "avg_distinct_states_per_dialog": 4.53,
    },
}


# -- generation ------------------------------------------------------------------


def dialog_provenance(store: KgStore, turns: Iterable[dm.DialogTurn]) -> frozenset[Tuple]:
    """The store tuples the dialog's plans depend on.

    A question's plan sits on its user turn and again on its answer turn,
    and grouped plans over one group share the group's cached tuple set, so
    each plan object is resolved once and each set object is unioned once.
    When the largest set holds all the others, it is returned itself.
    """
    plans = {id(turn.plan): turn.plan for turn in turns if turn.plan is not None}
    sets = {id(s): s for s in (qa.plan_tuples(store, plan) for plan in plans.values())}
    largest = max(sets.values(), key=len, default=frozenset())
    if all(s is largest or s <= largest for s in sets.values()):
        return largest
    return largest.union(*(s for s in sets.values() if s is not largest))


def generate_corpus(
    store: KgStore,
    templates: Sequence[QuestionTemplate],
    n_dialogs: int,
    config: RunConfig | None = None,
    seed: int = 0,
) -> Corpus:
    """Generate ``n_dialogs`` dialogs (or fewer if the store exhausts
    linkable content; the shortfall is reported on the corpus)."""
    if n_dialogs < 0:
        raise PipelineError("n_dialogs must be >= 0")
    config = config or RunConfig()
    seed_stream = random.Random(seed)
    dialogs: list[Dialog] = []
    provenance: dict[str, frozenset[Tuple]] = {}
    shortfall = 0
    for i in range(n_dialogs):
        dialog_seed = seed_stream.getrandbits(32)
        try:
            turns = dm.generate_dialog(store, templates, dialog_seed, config)
        except dm.DialogError:
            shortfall = n_dialogs - i
            break
        dialog_id = f"d{i:06d}"
        dialogs.append(Dialog(dialog_id, dialog_seed, tuple(turns)))
        provenance[dialog_id] = dialog_provenance(store, turns)
    return Corpus(dialogs, provenance, shortfall)


# -- serialization ----------------------------------------------------------------


def answer_to_obj(answer: qa.AnswerSet | None) -> dict | None:
    if answer is None:
        return None
    if isinstance(answer, qa.Entities):
        return {"kind": "entities", "members": sorted(answer.members)}
    if isinstance(answer, qa.Counts):
        return {"kind": "counts", "counts": [[ty, n] for ty, n in answer.counts]}
    if isinstance(answer, qa.Booleans):
        return {"kind": "booleans", "values": list(answer.values)}
    raise PipelineError(f"cannot serialize {type(answer).__name__}")


def answer_from_obj(obj: dict | None, store: KgStore | None = None) -> qa.AnswerSet | None:
    """The answer of its corpus encoding; ids must be known to ``store`` when
    one is given.  A mistyped value raises ``ValueError`` naming its field."""
    if obj is None:
        return None
    kind = obj["kind"]
    if kind == "entities":  # older files also wrote per-type members; they are ignored
        return qa.Entities(frozenset(_entity_ids(obj, "members", store)))
    if kind == "counts":
        counts = json_field(obj, "counts", list)
        n_types = store.n_types if store is not None else inf
        for e in counts:
            if not (type(e) is list and len(e) == 2 and (e[0] is None or _is_id(e[0], n_types)) and _is_id(e[1], inf)):
                raise ValueError(f"field 'counts' must hold [type id or null, count >= 0] pairs, got {e!r}")
        return qa.Counts(tuple(map(tuple, counts)))
    if kind == "booleans":
        values = json_field(obj, "values", list)
        for v in values:
            if type(v) is not bool:
                raise ValueError(f"field 'values' must hold booleans, got {v!r}")
        return qa.Booleans(tuple(values))
    raise PipelineError(f"unknown answer kind {kind!r}")


def _entity_ids(record: dict, name: str, store: KgStore | None) -> list[int]:
    ids = json_field(record, name, list)
    bound = store.n_entities if store is not None else inf
    for e in ids:  # _is_id inlined: an answer can hold hundreds of members
        if type(e) is not int or not 0 <= e < bound:
            raise ValueError(f"field {name!r} must hold entity ids, got {e!r}")
    return ids


def _is_id(value, bound: float) -> bool:
    """Whether ``value`` is an int (not a bool) in ``[0, bound)``."""
    return type(value) is int and 0 <= value < bound


def dialog_to_obj(dialog: Dialog, store: KgStore) -> dict:
    """The corpus line of a dialog.  A question's user and answer turns
    share one plan object, which is printed once."""
    texts: dict[int, str] = {}  # by id(plan); the dialog keeps its plans alive
    return {
        "dialog_id": dialog.dialog_id,
        "seed": dialog.seed,
        "turns": [
            {
                "speaker": t.speaker,
                "state": t.state.value,
                "utterance": t.utterance,
                "entities": list(t.entities),
                "plan": _plan_text(t.plan, store, texts),
                "answer": answer_to_obj(t.answer),
            }
            for t in dialog.turns
        ],
    }


def _plan_text(plan: qa.QueryPlan | None, store: KgStore, texts: dict[int, str]) -> str | None:
    if plan is None:
        return None
    text = texts.get(id(plan))
    if text is None:
        text = texts[id(plan)] = plan_text.print_plan(plan, store)
    return text


def dialog_from_obj(obj: dict, store: KgStore) -> Dialog:
    """The dialog of a corpus line; a ``provenance`` key, written by older
    versions, is ignored."""
    plans: dict[str, qa.QueryPlan] = {}  # a question's plan sits on two of its turns
    turns = tuple(_turn_from_obj(t, store, plans) for t in json_field(obj, "turns", list))
    return Dialog(json_field(obj, "dialog_id", str), json_field(obj, "seed", int), turns)


def _turn_from_obj(t: dict, store: KgStore, plans: dict[str, qa.QueryPlan]) -> dm.DialogTurn:
    if not isinstance(t, dict):
        raise PipelineError("field 'turns' must hold objects")
    text = json_field(t, "plan", str, NoneType)
    if text and text not in plans:
        try:
            plans[text] = plan_text.parse_plan(text, store)
        except ValueError as exc:
            raise PipelineError(f"field 'plan': {exc}") from None
    speaker = json_field(t, "speaker", str)
    if speaker not in ("user", "system"):
        raise PipelineError(f"field 'speaker' must be 'user' or 'system', got {speaker!r}")
    try:
        state = dm.TurnState(json_field(t, "state", str))
    except ValueError as exc:
        raise PipelineError(f"field 'state': {exc}") from None
    return dm.DialogTurn(
        speaker=speaker,
        state=state,
        utterance=json_field(t, "utterance", str),
        entities=tuple(_entity_ids(t, "entities", store)),
        plan=plans[text] if text else None,
        answer=answer_from_obj(json_field(t, "answer", dict, NoneType), store),
    )


def write_corpus(corpus: Corpus, store: KgStore, path: str | Path) -> None:
    """One dialog per line; key order and separators are fixed so identical
    corpora serialize byte-identically."""
    with open(path, "w", encoding="utf-8") as fh:
        for d in corpus.dialogs:
            obj = dialog_to_obj(d, store)
            fh.write(json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":")))
            fh.write("\n")


def read_corpus(path: str | Path, store: KgStore) -> Corpus:
    """The corpus in ``path``, with each dialog's provenance derived from
    its plans against ``store``.  Provenance is keyed by dialog id, so a
    ``dialog_id`` that repeats an earlier line's is an error."""
    first_lines: dict[str, int] = {}

    def read(obj: dict, lineno: int) -> tuple[Dialog, frozenset[Tuple]]:
        dialog = dialog_from_obj(obj, store)
        first = first_lines.setdefault(dialog.dialog_id, lineno)
        if first != lineno:
            raise PipelineError(f"field 'dialog_id': {dialog.dialog_id!r} repeats line {first}")
        return dialog, dialog_provenance(store, dialog.turns)

    pairs = read_json_lines(path, read, PipelineError)
    return Corpus([d for d, _ in pairs], {d.dialog_id: prov for d, prov in pairs})


# -- splitting -------------------------------------------------------------------


def _tuple_unit(seed: int, t: Tuple) -> float:
    digest = hashlib.sha256(f"{seed}:{t.relation}:{t.subject}:{t.object}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def _part_of(spec: SplitSpec, t: Tuple) -> str:
    u = _tuple_unit(spec.seed, t)
    train, valid, _ = spec.fractions
    return "train" if u < train else "valid" if u < train + valid else "test"


def split_corpus(corpus: Corpus, spec: SplitSpec) -> SplitResult:
    """Assign dialogs to the split owning all their provenance tuples.

    Guarantees empty tuple-provenance intersection between train and
    valid/test.  Dialogs whose provenance straddles partitions are
    discarded; dialogs with empty provenance default to train.  A dialog
    is decided at its first tuple outside its first tuple's part, so each
    tuple is hashed only if an undecided dialog reaches it, and at most
    once per call.
    """
    spec.validate()
    parts: dict[Tuple, str] = {}
    result = SplitResult([], [], [], [])
    for d in corpus.dialogs:
        prov = corpus.provenance_of(d)
        owners = (parts.get(t) or parts.setdefault(t, _part_of(spec, t)) for t in prov)
        owner = next(owners, "train")
        getattr(result, owner if all(o == owner for o in owners) else "discarded").append(d)
    return result


def split_report(corpus: Corpus, result: SplitResult) -> dict:
    def prov_union(dialogs: list[Dialog]) -> set[Tuple]:
        return set().union(*(corpus.provenance_of(d) for d in dialogs))

    train_prov = prov_union(result.train)
    eval_prov = prov_union(result.valid) | prov_union(result.test)
    return {
        "n_train": len(result.train),
        "n_valid": len(result.valid),
        "n_test": len(result.test),
        "n_discarded": len(result.discarded),
        "provenance_overlap_train_eval": len(train_prov & eval_prov),
    }


# -- statistics -------------------------------------------------------------------


def corpus_stats(corpus: Corpus, vocab_threshold: int = 10) -> CorpusStats:
    """Structural statistics; question turns are user turns in question
    states, response lengths count system Response turns."""
    n_dialogs = len(corpus.dialogs)
    n_turns = 0
    question_words: list[int] = []
    response_words: list[int] = []
    distinct_states: list[int] = []
    vocab: dict[str, int] = {}
    for d in corpus.dialogs:
        n_turns += len(d.turns)
        distinct_states.append(len({t.state for t in d.turns}))
        for t in d.turns:
            for token in t.utterance.split():
                vocab[token] = vocab.get(token, 0) + 1
            if t.speaker == "user" and t.state in dm.QUESTION_STATES:
                question_words.append(len(t.utterance.split()))
            elif t.speaker == "system" and t.state == dm.TurnState.RESPONSE:
                response_words.append(len(t.utterance.split()))

    def mean(xs: list[int]) -> float:
        return sum(xs) / len(xs) if xs else 0.0

    return CorpusStats(
        n_dialogs=n_dialogs,
        n_turns=n_turns,
        n_questions=len(question_words),
        avg_utterances_per_dialog=n_turns / n_dialogs if n_dialogs else 0.0,
        avg_question_words=mean(question_words),
        avg_response_words=mean(response_words),
        avg_distinct_states_per_dialog=mean(distinct_states),
        vocab_size=sum(1 for c in vocab.values() if c >= vocab_threshold),
        vocab_threshold=vocab_threshold,
    )


def stats_payload(corpus: Corpus, config: RunConfig) -> dict:
    """The corpus statistics next to the published full-scale ones."""
    return {
        "stats": corpus_stats(corpus, config.vocab_threshold).as_dict(),
        "full_scale_reference": FULL_SCALE_REFERENCE,
        "config": config.as_dict(),
    }


# -- runs ---------------------------------------------------------------------------


def run_generate(
    store: KgStore, templates: Sequence[QuestionTemplate], n: int, config: RunConfig, out: Path
) -> Corpus:
    """``n`` dialogs seeded by ``config.seed``, written to ``out`` as
    ``dialogs.jsonl``, ``stats.json`` and ``run_config.json``."""
    corpus = generate_corpus(store, templates, n, config, config.seed)
    out.mkdir(parents=True, exist_ok=True)
    write_corpus(corpus, store, out / "dialogs.jsonl")
    write_json(out / "stats.json", {**stats_payload(corpus, config), "shortfall": corpus.shortfall})
    write_json(out / "run_config.json", config.as_dict())
    return corpus


def run_split(store: KgStore, corpus: Corpus, config: RunConfig, out: Path) -> dict:
    """Split by the ``split_fractions`` and ``seed`` the report echoes; write
    the four parts and ``split_report.json`` to ``out``; return the report."""
    result = split_corpus(corpus, SplitSpec(tuple(config.split_fractions), config.seed))
    out.mkdir(parents=True, exist_ok=True)
    for name in ("train", "valid", "test", "discarded"):
        write_corpus(Corpus(getattr(result, name)), store, out / f"{name}.jsonl")
    report = {**split_report(corpus, result), "config": config.as_dict()}
    write_json(out / "split_report.json", report)
    return report
