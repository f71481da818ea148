"""Longest n-gram entity mention detection and candidate tuple retrieval.

A gazetteer maps normalized label n-grams to entity ids.  Linking scans an
utterance left to right, always taking the longest gazetteer match at the
current token, so "new delhi" matches the two-token entity rather than any
single-token fragment.  Candidate retrieval unions the tuples touching the
matched entities, truncating under a cap by round-robin over the matched
entities with the rarest entity's tuples first (popular entities would
otherwise crowd out low-fanout ones).  The merge runs on the store's dense
tuple ids, and candidates keep the chosen rows of ``KgStore.rows`` as
``(N, 3)`` id rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .kg_store import KgStore, LoadError, TupleRows, read_tsv
from .text import normalize, normalize_lines


@dataclass(frozen=True)
class Gazetteer:
    entries: dict[str, tuple[int, ...]]  # normalized text -> its entity ids, ascending
    max_len: int  # longest entry, in tokens


@dataclass(frozen=True)
class Match:
    start: int  # token offsets into the normalized utterance
    end: int
    text: str
    entities: tuple[int, ...]


@dataclass(frozen=True)
class CandidateSet:
    matches: tuple[Match, ...]
    tuples: TupleRows  # any sequence of Tuples is taken as its rows
    truncated: bool

    def __post_init__(self):
        object.__setattr__(self, "tuples", TupleRows.of(self.tuples))


def build_gazetteer(store: KgStore, aliases: Iterable[tuple[int, str]] = ()) -> Gazetteer:
    """Index every entity label (and optional aliases) after normalization.

    All texts are normalized in one pass, joined by newlines.  A newline
    inside an alias normalizes like a space, so it becomes one first; the
    store's labels hold none.
    """
    aliases = list(aliases)
    keys = normalize_lines(
        "\n".join(chain(store.entity_labels, (alias.replace("\n", " ") for _, alias in aliases)))
    )
    entries: dict[str, tuple[int, ...]] = {}
    for key, e in zip(keys, chain(range(store.n_entities), (e for e, _ in aliases))):
        entries[key] = entries.get(key, ()) + (e,)
    entries.pop("", None)
    for key, ids in entries.items():
        if len(ids) > 1:
            entries[key] = tuple(sorted(set(ids)))
    max_len = 1 + max(map(str.count, entries, repeat(" ")), default=0)
    return Gazetteer(entries, max_len)


def load_aliases(path: str | Path, store: KgStore) -> list[tuple[int, str]]:
    """Read an aliases.tsv of ``entity_id<TAB>alias`` lines (label-file ids
    are not used here; the id column is the store's dense entity id).
    A line whose id is not an entity of ``store`` is an error naming it."""
    out: list[tuple[int, str]] = []
    for lineno, (entity, alias) in read_tsv(path, 2):
        if not entity.isdecimal() or int(entity) >= store.n_entities:
            raise LoadError(f"{path}:{lineno}: unknown entity id {entity!r}")
        out.append((int(entity), alias))
    return out


def link(gazetteer: Gazetteer, utterance: str) -> list[Match]:
    """Greedy left-to-right longest-match over the normalized tokens."""
    tokens = normalize(utterance)
    matches: list[Match] = []
    i = 0
    while i < len(tokens):
        found = None
        for size in range(min(gazetteer.max_len, len(tokens) - i), 0, -1):
            key = " ".join(tokens[i : i + size])
            ids = gazetteer.entries.get(key)
            if ids:
                found = Match(i, i + size, key, ids)
                break
        if found is None:
            i += 1
        else:
            matches.append(found)
            i = found.end
    return matches


def candidate_tuples(
    store: KgStore, matched: Sequence[int], cap: int = 10000, matches: tuple[Match, ...] = ()
) -> CandidateSet:
    """Tuples touching any matched entity, truncated fairly under ``cap``;
    the result keeps ``matches``, the mentions the entities came from.

    Ordering is deterministic: matched entities sorted rarest first, then
    round by round each entity with a tuple not yet chosen gives its next
    one in sorted ``Tuple`` order.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    entities = list(dict.fromkeys(matched))
    pools = [store.tuple_ids_containing(e) for e in entities]
    order = sorted(range(len(entities)), key=lambda k: (len(pools[k]), entities[k]))
    merged = _round_robin([pools[k] for k in order])
    return CandidateSet(matches, TupleRows(store.rows[merged[:cap]]), len(merged) > cap)


def _round_robin(pools: list[np.ndarray]) -> np.ndarray:
    """The union of ``pools`` (ascending dense ids of the tuples containing
    each of some distinct entities) in round-robin order: each round, every
    pool in turn gives its next id that no pool has given yet.

    An id sits in two pools only when both distinct ends of its tuple are
    matched, and the pool that reaches it second skips it.  Only when the
    pools repeat an id are the repeated ones resolved, one by one in pick
    order.  Without its skipped entries, a pool gives its ``j``-th entry in
    round ``j``.
    """
    if len(pools) < 2:
        return pools[0] if pools else np.empty(0, np.int64)
    sizes = np.array([len(p) for p in pools])
    flat = np.concatenate(pools)
    order = np.argsort(flat, kind="stable")
    ordered = flat[order]
    twice = ordered[1:] == ordered[:-1]
    if twice.any():
        starts = np.cumsum(sizes) - sizes
        # an id sits in at most two pools: each repeat pairs two entries
        shared = np.sort(np.concatenate([order[:-1][twice], order[1:][twice]]))
        pool = np.searchsorted(starts, shared, side="right") - 1
        skip = np.array(_skipped(flat[shared].tolist(), pool.tolist(), (shared - starts[pool]).tolist()))
        keep = np.ones(len(flat), bool)
        keep[shared[skip]] = False
        flat = flat[keep]
        sizes -= np.bincount(pool[skip], minlength=len(pools))
    # each id's place within its pool is the round that gives it
    place = np.arange(len(flat)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return flat[np.argsort(place, kind="stable")]


def _skipped(tuples: list[int], pools: list[int], places: list[int]) -> list[bool]:
    """Which entries of the shared ``tuples`` their pool skips because the
    other pool gave the tuple first.  Entries come pool by pool in place
    order; each pool's next one waits in a heap keyed by (round, pool), the
    order in which entries are picked."""
    skips = dict.fromkeys(pools, 0)
    heap = [(places[i], k, i) for i, k in enumerate(pools) if i == 0 or pools[i - 1] != k]
    heapify(heap)
    given: set[int] = set()
    skipped = [False] * len(tuples)
    while heap:
        _, k, i = heappop(heap)
        if tuples[i] in given:
            skipped[i] = True
            skips[k] += 1
        else:
            given.add(tuples[i])
        if i + 1 < len(pools) and pools[i + 1] == k:
            heappush(heap, (places[i + 1] - skips[k], k, i + 1))
    return skipped


def link_and_retrieve(
    store: KgStore,
    gazetteer: Gazetteer,
    utterance: str,
    cap: int = 10000,
    extra_entities: Sequence[int] = (),
) -> CandidateSet:
    """Link an utterance and fetch candidates; ``extra_entities`` lets the
    caller add context entities (e.g. the previous turn pair)."""
    matches = link(gazetteer, utterance)
    matched = [e for m in matches for e in m.entities]
    matched.extend(extra_entities)
    return candidate_tuples(store, matched, cap, tuple(matches))


@dataclass(frozen=True)
class RecallReport:
    n_questions: int
    n_questions_with_gold: int
    micro_recall: float
    macro_recall: float
    per_state: dict[str, float]

    def as_dict(self) -> dict:
        return {
            "n_questions": self.n_questions,
            "n_questions_with_gold": self.n_questions_with_gold,
            "micro_recall": self.micro_recall,
            "macro_recall": self.macro_recall,
            "per_state": dict(self.per_state),
        }


def recall_report(
    store: KgStore,
    gazetteer: Gazetteer,
    dialogs,
    cap: int = 10000,
    use_context: bool = True,
) -> RecallReport:
    """Fraction of gold plan tuples present in the linker's candidates.

    Measures, per user question over a generated corpus, how much of the
    provenance the n-gram linker actually retrieves; with ``use_context``
    the previous turn pair's entities join the current utterance's matches.
    """
    from . import query_algebra as qa
    from .dialog_machine import QUESTION_STATES

    n_questions = 0
    n_with_gold = 0
    hit_total = 0
    gold_total = 0
    ratios: list[float] = []
    per_state_hits: dict[str, list[float]] = {}
    for dialog in dialogs:
        pair_entities: tuple[int, ...] = ()  # previous turn pair, question + answer
        turns = dialog.turns
        for idx, turn in enumerate(turns):
            if turn.speaker != "user" or turn.state not in QUESTION_STATES:
                continue
            n_questions += 1
            context = pair_entities if use_context else ()
            plan, pair_entities = _turn_pair(turns, idx)
            if plan is None:
                continue
            gold = qa.plan_tuples(store, plan)
            if not gold:
                continue
            candidates = link_and_retrieve(store, gazetteer, turn.utterance, cap, context)
            # plain tuples of the id rows hash and compare as Tuples do,
            # without making a Tuple per candidate
            got = gold.intersection(map(tuple, candidates.tuples.ids.tolist()))
            n_with_gold += 1
            hit_total += len(got)
            gold_total += len(gold)
            ratio = len(got) / len(gold)
            ratios.append(ratio)
            per_state_hits.setdefault(turn.state.value, []).append(ratio)
    per_state = {k: sum(v) / len(v) for k, v in sorted(per_state_hits.items())}
    return RecallReport(
        n_questions=n_questions,
        n_questions_with_gold=n_with_gold,
        micro_recall=hit_total / gold_total if gold_total else 1.0,
        macro_recall=sum(ratios) / len(ratios) if ratios else 1.0,
        per_state=per_state,
    )


def _turn_pair(turns, question_idx: int):
    """The plan and the entities of the turn pair opened at ``question_idx``:
    the question plus the turns up to the next user question.  The plan is
    the pair's first; an ambiguous question has none of its own, and its
    resolved plan sits on the clarification answer."""
    from .dialog_machine import QUESTION_STATES

    pair = [turns[question_idx]]
    for turn in turns[question_idx + 1 :]:
        if turn.speaker == "user" and turn.state in QUESTION_STATES:
            break
        pair.append(turn)
    plan = next((t.plan for t in pair if t.plan is not None), None)
    return plan, tuple(dict.fromkeys(e for t in pair for e in t.entities))
