"""The four workloads: set-up, the timed loop and the output checks.

Every workload is a closed loop with one caller: each operation starts when
the previous one has returned.  ``measure`` runs operations until the
requested seconds of wall time have passed.  Every operation gets an input
of its own, drawn from the seed and the operation's index, so no input is
seen twice in a run and a cache that persists across calls is only credited
with the reuse a real corpus run would give it.  Input preparation and
output checks between operations are not timed.  ``check`` runs after the
timed passes, appends to ``problems`` and returns how many further
operations failed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kgdialog import (
    dataset_pipeline as dp,
    dialog_machine as dm,
    entity_linker as linker,
    eval_harness,
    kg_embed,
    memnet_kernel as kernel,
    plan_text,
    query_algebra as qa,
    templates as tpl,
)
from kgdialog.config import RunConfig
from kgdialog.kg_store import KgStore

import graphgen
from layers import percentile
from spans import END, NAME, START, Tracer
from speed import Speed

ROOT = Path(__file__).resolve().parent.parent
TEMPLATES = ROOT / "fixtures" / "kg_t" / "templates.jsonl"
# transition weights without the grouped plan kinds (ArgOpt, Threshold, Comparative)
NO_GROUPED = {"argopt": 0.0, "threshold": 0.0, "comparative": 0.0}


class SetupError(RuntimeError):
    pass


@dataclass
class Pass:
    """What one timed pass measured: one latency per operation, and the
    time spent inside operations."""

    latencies_ms: list[float] = field(default_factory=list)
    elapsed_s: float = 0.0
    attempted: int = 0
    failed: int = 0


def load_templates() -> list[tpl.QuestionTemplate]:
    return tpl.load_templates(TEMPLATES)


def _checked_graph(seed: int, n_tuples: int, fanout: str, templates) -> KgStore:
    store = graphgen.make_graph(seed, n_tuples, fanout)
    missing = graphgen.check_templates(store, templates)
    if missing:
        raise SetupError(f"templates without an instantiable anchor: {missing}")
    return store


def _input_seed(*key) -> int:
    return random.Random(":".join(map(str, key))).getrandbits(32)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@contextmanager
def _nothing():
    yield


# -- dialog workloads --------------------------------------------------------------

GENERATE = "dialog_machine.generate_dialog"
PROVENANCE = "dataset_pipeline.dialog_provenance"


def _dialog_probe() -> Tracer:
    """Spans only the two calls a dialog's latency is read from."""
    probe = Tracer()
    probe.span(dm, "generate_dialog", GENERATE)
    probe.span(dp, "dialog_provenance", PROVENANCE)
    return probe


class DialogWorkload:
    """``generate_corpus`` in batches, each followed by ``write_corpus``,
    ``read_corpus``, ``split_corpus`` and ``corpus_stats``.  One operation is
    one dialog.  Its latency runs from ``generate_dialog`` to the end of its
    ``dialog_provenance``, plus an equal share of its batch's
    write/read/split/stats time."""

    unit = "dialog"
    batch = 10  # dialogs per generate_corpus call
    samples_per_kind = 3  # plans per plan kind re-run through the oracle

    def __init__(self, seed: int, scale: float, out_dir: Path, n_tuples: int, fanout: str, weights):
        self.seed = seed
        self.n_tuples = max(60, round(n_tuples * scale))
        self.fanout = fanout
        self.weights = weights
        self.corpus_path = out_dir / f"corpus-{self.name}-{seed}.jsonl"
        self.problems: list[str] = []
        self.digest: str | None = None
        self.kept = 0
        self.generated = 0
        self.dialog_ms: list[float] = []  # generation and provenance only
        self.failed_ids: set[tuple[int, str]] = set()
        self._batches = 0  # batch index, continued across passes
        self._oracle_sample: dict[str, list] = {}
        self._rng = random.Random(f"checks:{seed}")

    def setup(self) -> None:
        self.templates = load_templates()
        self.store = _checked_graph(self.seed, self.n_tuples, self.fanout, self.templates)
        self.config = RunConfig(seed=self.seed, transition_weights=dict(self.weights))
        self.split = dp.SplitSpec(seed=self.seed)

    def measure(self, seconds: float, tracer: Tracer | None = None, speed: Speed | None = None) -> Pass:
        """Batches with fresh seeds until ``seconds`` have passed."""
        result = Pass()
        probe = tracer or _dialog_probe()
        clock = time.perf_counter
        deadline = clock() + seconds
        while clock() < deadline or not result.attempted:
            if speed:
                speed.pay()
            b = self._batches
            self._batches += 1
            mark = len(probe.spans)
            start = clock()
            tail = None
            try:
                with probe.active(), probe.operation(b, "bench.batch"):
                    corpus = dp.generate_corpus(
                        self.store, self.templates, self.batch, self.config, seed=_input_seed("batch", self.seed, b)
                    )
                    tail = clock()
                    read, split = self._tail(corpus)
                end = clock()
            except Exception as exc:  # a crashing batch loses all its dialogs
                end = clock()
                self.problems.append(f"batch {b}: {type(exc).__name__}: {exc}")
                failed = self.batch
            else:
                failed = self._check_batch(b, corpus, read, split)
            result.elapsed_s += end - start
            if speed:
                speed.owe(end - start)
            dialogs = _dialog_times(probe.spans[mark:])
            share = (end - tail) * 1e3 / len(dialogs) if dialogs and tail else 0.0
            self.dialog_ms.extend(dialogs)
            result.latencies_ms.extend(ms + share for ms in dialogs)
            result.attempted += self.batch
            result.failed += failed
        return result

    def _tail(self, corpus):
        dp.write_corpus(corpus, self.store, self.corpus_path)
        read = dp.read_corpus(self.corpus_path, self.store)
        split = dp.split_corpus(read, self.split)
        dp.corpus_stats(read, self.config.vocab_threshold)
        return read, split

    # -- checks outside the timed region --------------------------------------------

    def _check_batch(self, b: int, corpus, read, split) -> int:
        """Checks one batch; returns the number of failed dialogs."""
        if self.digest is None:
            self.digest = _sha256(self.corpus_path.read_bytes())
        failed_ids: set[str] = set()
        if corpus.shortfall:
            self.problems.append(f"batch {b}: {corpus.shortfall} dialogs not generated")
        report = dp.split_report(read, split)
        if report["provenance_overlap_train_eval"]:
            self.problems.append(f"batch {b}: split provenance overlap {report['provenance_overlap_train_eval']}")
            failed_ids.update(d.dialog_id for d in read.dialogs)
        self.generated += len(corpus.dialogs)
        self.kept += len(split.train) + len(split.valid) + len(split.test)
        for original, parsed in zip(corpus.dialogs, read.dialogs):
            problem = self._check_dialog(original, parsed)
            if problem:
                self.problems.append(f"batch {b} {original.dialog_id}: {problem}")
                failed_ids.add(original.dialog_id)
            self._sample_plans((b, original.dialog_id), original)
        self.failed_ids.update((b, d) for d in failed_ids)
        return len(failed_ids) + corpus.shortfall

    def _check_dialog(self, original, parsed) -> str | None:
        if len(original.turns) != len(parsed.turns):
            return "turn count changed in the corpus file"
        for turn, back in zip(original.turns, parsed.turns):
            if turn.plan is None:
                continue
            text = plan_text.print_plan(turn.plan, self.store)
            if back.plan != turn.plan or plan_text.print_plan(back.plan, self.store) != text:
                return f"parse(print(plan)) is not the identity for {text}"
            if back.answer != turn.answer:
                return f"answer changed in the corpus file for {text}"
        return _dialog_structure(self.store, original.turns)

    def _sample_plans(self, key: tuple[int, str], dialog) -> None:
        """Keep a seeded reservoir of plans per plan kind for the oracle."""
        for turn in dialog.turns:
            if turn.plan is None or turn.answer is None:
                continue
            _reservoir(self._oracle_sample, type(turn.plan).__name__, (key, turn.plan, turn.answer),
                       self.samples_per_kind, self._rng)

    def check(self) -> int:
        """Sampled plans: ``execute`` == ``brute_force_execute`` == recorded
        answer.  Returns the number of further failed dialogs."""
        failed = set()
        for kind in sorted(self._oracle_sample):
            for key, plan, answer in self._oracle_sample[kind][1]:
                got = qa.execute(self.store, plan, self.config.include_zero_groups)
                want = qa.brute_force_execute(self.store, plan, self.config.include_zero_groups)
                if not (got == want == answer):
                    self.problems.append(f"batch {key[0]} {key[1]}: execute disagrees with the oracle on a {kind} plan")
                    if key not in self.failed_ids:
                        failed.add(key)
        return len(failed)

    def report(self, passes: list[Pass]) -> dict:
        main = passes[0]
        n = len(main.latencies_ms)
        return {
            "dialogs_per_s": (n / main.elapsed_s, "1/s"),
            "dialog_ms_p50": (percentile(self.dialog_ms[:n], 0.5), "ms"),
            "dialog_ms_p90": (percentile(self.dialog_ms[:n], 0.9), "ms"),
            "split_yield": (self.kept / self.generated if self.generated else 0.0, "ratio"),
        }

    def digests(self) -> dict:
        return {f"{self.name}.corpus_sha256": self.digest}


def _dialog_times(spans) -> list[float]:
    """Per dialog, ms from the start of ``generate_dialog`` to the end of its
    ``dialog_provenance``; a dialog that raised has no provenance span."""
    starts = [s[START] for s in spans if s[NAME] == GENERATE]
    ends = [s[END] for s in spans if s[NAME] == PROVENANCE]
    return [(end - start) * 1e3 for start, end in zip(starts, ends)]


def _reservoir(pools: dict, kind: str, entry, size: int, rng: random.Random) -> None:
    seen = pools.setdefault(kind, [0, []])
    seen[0] += 1
    if len(seen[1]) < size:
        seen[1].append(entry)
    else:
        j = rng.randrange(seen[0])
        if j < size:
            seen[1][j] = entry


class DialogsGrouped(DialogWorkload):
    name = "dialogs-grouped"

    def __init__(self, seed, scale, out_dir):
        super().__init__(seed, scale, out_dir, 1800, "heavy", {})


class DialogsSimple(DialogWorkload):
    name = "dialogs-simple"

    def __init__(self, seed, scale, out_dir):
        super().__init__(seed, scale, out_dir, 28000, "uniform", NO_GROUPED)


def _question_pairs(turns):
    """Turns grouped per user question: the question and what follows it."""
    pairs, current = [], None
    for t in turns:
        if t.speaker == "user" and t.state in dm.QUESTION_STATES:
            if current is not None:
                pairs.append(current)
            current = [t]
        elif current is not None:
            current.append(t)
    if current is not None:
        pairs.append(current)
    return pairs


def _dialog_structure(store: KgStore, turns) -> str | None:
    """Consecutive questions share an entity or a relation, and every
    "that <type>" mention has an antecedent of that type in the previous
    turn pair."""
    pairs = _question_pairs(turns)
    type_labels = sorted(store.type_labels, key=len, reverse=True)
    for prev, nxt in zip(pairs, pairs[1:]):
        prev_entities = {e for t in prev for e in t.entities}
        prev_relations = set().union(*(qa.plan_relations(t.plan) for t in prev if t.plan is not None))
        nxt_entities = {e for t in nxt for e in t.entities}
        nxt_relations = set().union(*(qa.plan_relations(t.plan) for t in nxt if t.plan is not None))
        if not (prev_entities & nxt_entities or prev_relations & nxt_relations):
            return f"question not linked to the previous one: {nxt[0].utterance!r}"
        for label in type_labels:
            if f"that {label}" in nxt[0].utterance:
                ty = store.type_id(label)
                if not any(store.has_type(e, ty) for e in prev_entities):
                    return f"no antecedent for 'that {label}' in {nxt[0].utterance!r}"
                break
    return None


# -- question answering --------------------------------------------------------------


@dataclass(frozen=True)
class Question:
    index: int
    state: str
    utterance: str
    plan_text: str
    plan: object
    gold: object
    context: tuple[int, ...]
    q1: np.ndarray
    tokens: tuple[str, ...]


class QaAnswer:
    """The question read path, one question per operation: parse, execute and
    render; link with the previous turn pair's entities; build the memory, hop
    and score the copy distribution; fill the answer placeholders.  Every
    ``sweep`` questions end with ``eval_harness.aggregate``, whose time is
    shared out over those questions.

    The questions are the user questions of dialogs that ``generate_dialog``
    makes on the graph, without grouped plans, fresh dialogs ``chunk`` at a
    time; each question is answered once.  Generating the dialogs is not
    timed.  It runs with every object that exists frozen, so that its own
    full garbage collections do not rescan the graph, and a full collection
    follows it, so that the collections its allocations would set off do not
    fall inside the questions.  The questions run under the usual collector.
    """

    name = "qa-answer"
    unit = "question"
    sweep = 400  # questions per eval_harness.aggregate call
    chunk = 20  # dialogs generated between two garbage collections
    dim = 32  # embedding width D; keys are 2D wide
    query_dim = 16
    oracle_per_kind = 4

    def __init__(self, seed: int, scale: float, out_dir: Path):
        self.seed = seed
        self.n_tuples = max(60, round(27500 * scale))
        self.problems: list[str] = []
        self.gold_tuples = 0
        self.gold_hits = 0
        self.no_memory = 0
        self.reports: list = []
        self._dialogs = 0  # dialog index, continued across passes
        self._questions = 0
        self._records: list = []
        self._oracle_sample: dict[str, list] = {}
        self._rng = random.Random(f"checks:{seed}")

    def setup(self) -> None:
        self.templates = load_templates()
        self.store = store = _checked_graph(self.seed, self.n_tuples, "heavy", self.templates)
        self.config = RunConfig(seed=self.seed, transition_weights=dict(NO_GROUPED))
        self.gazetteer = linker.build_gazetteer(store)
        rng = np.random.default_rng(self.seed)
        self.table = kg_embed.init_table(
            store.n_entities, store.n_relations, kg_embed.TrainConfig(dim=self.dim, seed=self.seed)
        )
        d, width = self.query_dim, self.dim
        self.params = kernel.HopParams(
            A=rng.standard_normal((d, 2 * width)) / np.sqrt(2 * width),
            R=tuple(rng.standard_normal((d, d)) / np.sqrt(d) for _ in range(kernel.DEFAULT_HOPS)),
            B=rng.standard_normal((d, width)) / np.sqrt(width),
        )

    def _answer(self, q: Question):
        store = self.store
        plan = plan_text.parse_plan(q.plan_text, store)
        answer = qa.execute(store, plan, self.config.include_zero_groups)
        dm.render_response(store, answer, self.config.display_limit, self.config.sample_size, random.Random(q.index))
        candidates = linker.link_and_retrieve(store, self.gazetteer, q.utterance, self.config.memory_cap, q.context)
        if not candidates.tuples:  # nothing to read: the memory kernel rejects an empty memory
            return answer, candidates, None, None
        slab = kernel.build_memory(candidates, self.table)
        hops = kernel.multi_hop(q.q1, slab, self.params)
        dist = kernel.entity_distribution(hops.q_final, slab, self.params.B)
        words = kernel.substitute_kg_words(q.tokens, dist, slab)
        return answer, candidates, dist, words

    def measure(self, seconds: float, tracer: Tracer | None = None, speed: Speed | None = None) -> Pass:
        """Chunks of fresh dialogs until ``seconds`` have passed; their
        questions are the timed operations."""
        result = Pass()
        booked = 0.0  # time inside operations booked with speed
        clock = time.perf_counter
        deadline = clock() + seconds
        while clock() < deadline or not result.attempted:
            if speed:
                speed.owe(result.elapsed_s - booked)
                booked = result.elapsed_s
                speed.pay()
            questions = []
            gc.freeze()  # generation need not rescan the graph; it is not timed
            for _ in range(self.chunk):
                questions += self._dialog_questions(self._dialogs)
                self._dialogs += 1
            gc.unfreeze()
            gc.collect()
            with tracer.active() if tracer else _nothing():
                for q in questions:
                    start = clock()
                    try:
                        with tracer.operation(q.index) if tracer else _nothing():
                            answer, candidates, dist, words = self._answer(q)
                    except Exception as exc:
                        took = clock() - start
                        problem = f"question {q.index}: {type(exc).__name__}: {exc}"
                    else:
                        took = clock() - start
                        problem = self._check_answer(q, answer, dist, candidates)
                    result.elapsed_s += took
                    result.latencies_ms.append(took * 1e3)
                    result.attempted += 1
                    if problem:
                        result.failed += 1
                        self.problems.append(problem)
                    else:
                        self._records.append(eval_harness.EvalRecord(
                            f"{q.state}/{type(q.gold).__name__}", q.gold, _prediction(q, answer, words)))
                    if len(self._records) == self.sweep:
                        self._aggregate(result)
        if self._records:
            with tracer.active() if tracer else _nothing():
                self._aggregate(result)
        return result

    def _aggregate(self, result: Pass) -> None:
        """Scores the records so far; its time is added to their questions."""
        n = len(self._records)
        start = time.perf_counter()
        self.reports.append(eval_harness.aggregate(self._records))
        took = time.perf_counter() - start
        result.elapsed_s += took
        lat = result.latencies_ms
        lat[-n:] = [ms + took * 1e3 / n for ms in lat[-n:]]
        self._records = []

    def _dialog_questions(self, i: int) -> list[Question]:
        """The user questions of dialog ``i``, each with the previous turn
        pair's entities as its linker context, as ``recall_report`` pairs
        them.  An ambiguous question is answered with the plan its
        clarification resolves to."""
        store = self.store
        turns = dm.generate_dialog(store, self.templates, _input_seed("dialog", self.seed, i), self.config)
        out: list[Question] = []
        context: tuple[int, ...] = ()
        for pair in _question_pairs(turns):
            question = pair[0]
            answered = next((t for t in pair if t.plan is not None and t.answer is not None), None)
            if answered is not None:
                plan = answered.plan
                relation = min(qa.plan_relations(plan), default=None)
                anchor = next(iter((*question.entities, *context)), None)
                key = np.concatenate([
                    self.table.relation(relation) if relation is not None else np.zeros(self.dim),
                    self.table.entity(anchor) if anchor is not None else np.zeros(self.dim),
                ])
                gold = answered.answer
                n_fill = min(3, len(gold.members)) if isinstance(gold, qa.Entities) else 1
                out.append(Question(
                    index=self._questions,
                    state=question.state.value,
                    utterance=question.utterance,
                    plan_text=plan_text.print_plan(plan, store),
                    plan=plan,
                    gold=gold,
                    context=context,
                    q1=self.params.A @ key,
                    tokens=(kernel.KG_WORD,) * n_fill,
                ))
                self._questions += 1
            context = tuple(dict.fromkeys(e for t in pair for e in t.entities))
        return out

    def _check_answer(self, q: Question, answer, dist, candidates) -> str | None:
        if answer != q.gold:
            return f"question {q.index}: answer differs from the one the dialog recorded"
        if dist is None:
            self.no_memory += 1
        elif not np.all(np.isfinite(dist)) or abs(float(np.sum(dist)) - 1.0) > 1e-9:
            return f"question {q.index}: copy distribution is not finite or does not sum to 1"
        gold = qa.plan_tuples(self.store, q.plan)
        self.gold_tuples += len(gold)
        self.gold_hits += len(gold & set(candidates.tuples))
        _reservoir(self._oracle_sample, q.state, q, self.oracle_per_kind, self._rng)
        return None

    def check(self) -> int:
        """A seeded sample of plans per question kind through the brute-force
        oracle; returns the number of failed questions."""
        failed = 0
        for kind in sorted(self._oracle_sample):
            for q in self._oracle_sample[kind][1]:
                if qa.brute_force_execute(self.store, q.plan, self.config.include_zero_groups) != q.gold:
                    self.problems.append(f"question {q.index}: recorded answer disagrees with the oracle")
                    failed += 1
        return failed

    def report(self, passes: list[Pass]) -> dict:
        main = passes[0]
        return {
            "questions_per_s": (len(main.latencies_ms) / main.elapsed_s, "1/s"),
            "question_ms_p50": (percentile(main.latencies_ms, 0.5), "ms"),
            "question_ms_p99": (percentile(main.latencies_ms, 0.99), "ms"),
            "gold_recall": (self.gold_hits / self.gold_tuples if self.gold_tuples else 1.0, "ratio"),
            "no_memory_share": (self.no_memory / self._questions if self._questions else 0.0, "ratio"),
        }

    def digests(self) -> dict:
        first = self.reports[0].as_dict() if self.reports else None
        return {f"{self.name}.eval_report_sha256": _sha256(json.dumps(first, sort_keys=True).encode())}


def _prediction(q: Question, answer, words):
    if isinstance(q.gold, qa.Entities):
        return qa.Entities(frozenset(int(w) for w in words or () if w != kernel.KG_WORD))
    return answer


# -- embeddings -----------------------------------------------------------------------


class Embed:
    """``kg_embed.train`` for a fixed number of epochs on the graph minus a
    held-out tenth, then filtered ``link_prediction_eval`` on that tenth.
    One operation is one train + evaluate cycle; each cycle trains with a
    seed of its own."""

    name = "embed"
    unit = "cycle"
    epochs = 2

    def __init__(self, seed: int, scale: float, out_dir: Path):
        self.seed = seed
        self.n_tuples = max(60, round(3000 * scale))
        self.problems: list[str] = []
        self.train_s: list[float] = []
        self.eval_s: list[float] = []
        self.reports: list = []
        self._cycles = 0  # cycle index, continued across passes

    def setup(self) -> None:
        store = graphgen.make_graph(self.seed, self.n_tuples, "uniform")
        tuples = sorted(store.tuples)
        random.Random(f"held:{self.seed}").shuffle(tuples)
        n_held = max(1, len(tuples) // 10)
        self.held = tuples[:n_held]
        self.store = store
        self.train_store = KgStore(
            tuples[n_held:], store.entity_labels, store.relation_labels, store.type_labels, store.entity_types
        )

    def measure(self, seconds: float, tracer: Tracer | None = None, speed: Speed | None = None) -> Pass:
        result = Pass()
        clock = time.perf_counter
        deadline = clock() + seconds
        while clock() < deadline or not result.attempted:
            if speed:
                speed.pay()
            op = self._cycles
            self._cycles += 1
            config = kg_embed.TrainConfig(dim=32, epochs=self.epochs, seed=_input_seed("train", self.seed, op))
            start = clock()
            try:
                with tracer.active() if tracer else _nothing(), tracer.operation(op) if tracer else _nothing():
                    table = kg_embed.train(self.train_store, config)
                    trained = clock()
                    report = kg_embed.link_prediction_eval(table, self.held, k=10, all_tuples=self.store.tuples)
            except Exception as exc:
                took = clock() - start
                self.problems.append(f"cycle {op}: {type(exc).__name__}: {exc}")
                result.failed += 1
            else:
                took = clock() - start
                self.train_s.append(trained - start)
                self.eval_s.append(took - (trained - start))
                self.reports.append(report)
                problems = _check_ranks(table, report, self.held, self.store)
                if problems:
                    self.problems.extend(f"cycle {op}: {p}" for p in problems)
                    result.failed += 1
            result.elapsed_s += took
            if speed:
                speed.owe(took)
            result.latencies_ms.append(took * 1e3)
            result.attempted += 1
        return result

    def check(self) -> int:
        return 0  # every cycle is checked as it ends

    def report(self, passes: list[Pass]) -> dict:
        first = self.reports[0] if self.reports else None
        mean_rank = (
            (first.object_side.filtered_mean_rank + first.subject_side.filtered_mean_rank) / 2 if first else 0.0
        )
        return {
            "train_s": (float(np.median(self.train_s)) if self.train_s else 0.0, "s"),
            "linkeval_s": (float(np.median(self.eval_s)) if self.eval_s else 0.0, "s"),
            "embed_filtered_mean_rank": (mean_rank, "rank"),
        }

    def digests(self) -> dict:
        first = self.reports[0].as_dict() if self.reports else None
        return {f"{self.name}.link_report_sha256": _sha256(json.dumps(first, sort_keys=True).encode())}


def _check_ranks(table, report, held, store: KgStore) -> list[str]:
    """Ranks recomputed with numpy: every rank lies in [1, n_entities],
    filtered ranks are at most raw ranks, and the means match the report."""
    n = store.n_entities
    problems = []
    for side, got in (("object", report.object_side), ("subject", report.subject_side)):
        raw, filtered = _ranks(table, held, store, side)
        if raw.min() < 1 or raw.max() > n or filtered.min() < 1:
            problems.append(f"{side} ranks outside [1, {n}]")
        if np.any(filtered > raw):
            problems.append(f"{side} filtered rank above raw rank")
        if abs(raw.mean() - got.mean_rank) > 1e-9 or abs(filtered.mean() - got.filtered_mean_rank) > 1e-9:
            problems.append(f"{side} mean ranks differ from the recomputed ones")
    return problems


def _ranks(table, held, store: KgStore, side: str):
    ents = table.entity_vecs
    raw, filtered = [], []
    for t in held:
        if side == "object":
            scores = np.linalg.norm(ents - (ents[t.subject] + table.relation_vecs[t.relation]), axis=1)
            true_id, known = t.object, store.objects_of(t.relation, t.subject)
        else:
            scores = np.linalg.norm(ents - (ents[t.object] - table.relation_vecs[t.relation]), axis=1)
            true_id, known = t.subject, store.subjects_of(t.relation, t.object)
        better = scores < scores[true_id]
        r = 1 + int(better.sum())
        others = [e for e in known if e != true_id]
        raw.append(r)
        filtered.append(r - int(better[others].sum()) if others else r)
    return np.array(raw), np.array(filtered)


WORKLOADS = {w.name: w for w in (DialogsGrouped, DialogsSimple, QaAnswer, Embed)}
