"""Evaluation metrics and per-question-type report aggregation.

Entity answers are scored with set precision/recall, boolean and count
sequences with exact-match accuracy plus an element-positional micro-F1,
and clarification utterances with BLEU-4.  Reports group records by their
question-type label and print published full-scale numbers alongside as
context only, never as expectations.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, Union as TUnion

from . import query_algebra as qa
from .kg_store import json_field, read_json_lines

Gold = TUnion[qa.AnswerSet, str]

# published full-scale results, shown in reports as reference context;
# they depend on the fully trained model and full corpus and are not
# reproduction targets
PUBLISHED_REFERENCE = {
    "precision_recall": {
        "Overall": {"recall": 15.83, "precision": 6.7},
        "Simple Question (Direct)": {"recall": 27.9, "precision": 7.77},
        "Simple Question (Coreferenced)": {"recall": 12.31, "precision": 3.84},
        "Simple Question (Ellipsis)": {"recall": 19.45, "precision": 3.96},
        "Logical Reasoning (All)": {"recall": 27.22, "precision": 10.52},
        "Quantitative Reasoning (All)": {"recall": 0.29, "precision": 0.44},
        "Comparative Reasoning (All)": {"recall": 1.26, "precision": 5.45},
        "Clarification": {"recall": 30.64, "precision": 10.8},
    },
    "f1": {
        "Verification (Boolean) (All)": 17.68,
        "Quantitative Reasoning (Count) (All)": 40.2,
        "Comparative Reasoning (Count) (All)": 11.86,
    },
    "bleu4": {"Clarification (Natural Language Generation)": 15.58},
}


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class EvalRecord:
    question_type: str
    gold: Gold
    predicted: Gold

    def __post_init__(self) -> None:
        if _kind(self.gold) != _kind(self.predicted):
            raise EvalError(
                f"gold is {_kind(self.gold)} but prediction is {_kind(self.predicted)}"
            )


def _kind(value: Gold) -> str:
    if isinstance(value, qa.Entities):
        return "entities"
    if isinstance(value, qa.Counts):
        return "counts"
    if isinstance(value, qa.Booleans):
        return "booleans"
    if isinstance(value, str):
        return "utterance"
    raise EvalError(f"unsupported answer kind {type(value).__name__}")


# -- set metrics -------------------------------------------------------------------


def precision_recall(gold: frozenset | set, predicted: frozenset | set) -> tuple[float, float]:
    """Set precision/recall, empty sets scored as :func:`_precision_recall_counts` says."""
    gold = frozenset(gold)
    predicted = frozenset(predicted)
    return _precision_recall_counts(len(gold & predicted), len(gold), len(predicted))


def _precision_recall_counts(hit: int, n_gold: int, n_predicted: int) -> tuple[float, float]:
    """Precision/recall from the overlap and the set sizes.

    Empty prediction scores precision 1 when the gold set is empty too,
    else 0; an empty gold set makes recall vacuously 1.
    """
    precision = hit / n_predicted if n_predicted else (0.0 if n_gold else 1.0)
    recall = hit / n_gold if n_gold else 1.0
    return precision, recall


def f1_from(precision: float, recall: float) -> float:
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


# -- sequence metrics ---------------------------------------------------------------


def _sequence(value: Gold) -> tuple:
    if isinstance(value, qa.Booleans):
        return tuple(value.values)
    if isinstance(value, qa.Counts):
        return tuple(value.counts)
    raise EvalError("sequence metrics need boolean or count answers")


def exact_match_accuracy(pairs: Sequence[tuple[Gold, Gold]]) -> float | None:
    """Fraction of records whose whole sequence matched; None when empty."""
    if not pairs:
        return None
    hits = sum(1 for g, p in pairs if _sequence(g) == _sequence(p))
    return hits / len(pairs)


def exact_match_f1(pairs: Sequence[tuple[Gold, Gold]]) -> float | None:
    """Element-positional micro-F1 over boolean/count sequences.

    Positionally aligned elements count as hits; surplus predicted
    elements lower precision, missing ones lower recall.  Returns None for
    an empty record set (reports omit the row rather than scoring 0).
    """
    if not pairs:
        return None
    hit = pred_total = gold_total = 0
    for g, p in pairs:
        gs, ps = _sequence(g), _sequence(p)
        hit += sum(1 for a, b in zip(gs, ps) if a == b)
        gold_total += len(gs)
        pred_total += len(ps)
    precision = hit / pred_total if pred_total else 0.0
    recall = hit / gold_total if gold_total else 0.0
    return f1_from(precision, recall)


# -- BLEU ---------------------------------------------------------------------------


BLEU_MAX_N = 4  # highest n-gram order


def bleu4(reference: str, candidate: str, smoothing: bool = False) -> float:
    """Sentence BLEU with clipped n-gram precision and brevity penalty.

    Tokenization is whitespace splitting.  With ``smoothing`` a zero
    clipped count is replaced by 1e-9 (for aggregate reporting); the raw
    form returns 0 whenever any order has no match.
    """
    ref = reference.split()
    cand = candidate.split()
    if not cand:
        return 0.0
    log_sum = 0.0
    for n in range(1, BLEU_MAX_N + 1):
        total = max(len(cand) - n + 1, 0)
        if total == 0:
            matched = 0.0
        else:
            cand_counts = Counter(_ngrams(cand, n))
            ref_counts = Counter(_ngrams(ref, n))
            matched = sum(min(c, ref_counts[g]) for g, c in cand_counts.items())
        if matched == 0:
            if not smoothing:
                return 0.0
            matched = 1e-9
        if total == 0:
            # candidate shorter than n tokens: nothing to score at this order
            total = 1
        log_sum += math.log(matched / total) / BLEU_MAX_N
    if len(cand) > len(ref):
        bp = 1.0
    else:
        bp = math.exp(1 - len(ref) / len(cand))
    return bp * math.exp(log_sum)


def _ngrams(tokens: Sequence[str], n: int) -> Iterable[tuple[str, ...]]:
    return (tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


# -- aggregation ----------------------------------------------------------------------


@dataclass(frozen=True)
class ReportRow:
    question_type: str
    kind: str
    count: int
    macro_precision: float | None = None
    macro_recall: float | None = None
    micro_precision: float | None = None
    micro_recall: float | None = None
    f1: float | None = None
    accuracy: float | None = None
    bleu_4: float | None = None

    def as_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}


@dataclass(frozen=True)
class Report:
    rows: tuple[ReportRow, ...]
    notes: str
    published_reference: dict

    def as_dict(self) -> dict:
        return {
            "rows": [r.as_dict() for r in self.rows],
            "notes": self.notes,
            "published_reference": self.published_reference,
        }


_NOTES = (
    "entity rows report macro (per-question average) precision/recall as the "
    "headline and pooled micro values alongside; boolean/count rows report "
    "exact-sequence accuracy and element-positional micro-F1; utterance rows "
    "report average smoothed sentence BLEU-4. published_reference values are "
    "full-scale context, not expectations."
)


def aggregate(records: Iterable[EvalRecord]) -> Report:
    """Group records by question type; invariant under record order."""
    by_type: dict[str, list[EvalRecord]] = {}
    for r in records:
        by_type.setdefault(r.question_type, []).append(r)

    rows: list[ReportRow] = []
    for qtype in sorted(by_type):
        group = by_type[qtype]
        kinds = {_kind(r.gold) for r in group}
        if len(kinds) > 1:
            raise EvalError(f"question type {qtype!r} mixes answer kinds {sorted(kinds)}")
        kind = kinds.pop()
        if kind == "entities":
            pairs = [(r.gold.members, r.predicted.members) for r in group]
            prs = [precision_recall(g, p) for g, p in pairs]
            macro_p = sum(p for p, _ in prs) / len(prs)
            macro_r = sum(r for _, r in prs) / len(prs)
            hit = sum(len(frozenset(g) & frozenset(p)) for g, p in pairs)
            pred_total = sum(len(p) for _, p in pairs)
            gold_total = sum(len(g) for g, _ in pairs)
            micro_p, micro_r = _precision_recall_counts(hit, gold_total, pred_total)
            rows.append(
                ReportRow(
                    qtype,
                    kind,
                    len(group),
                    macro_precision=macro_p,
                    macro_recall=macro_r,
                    micro_precision=micro_p,
                    micro_recall=micro_r,
                    f1=f1_from(macro_p, macro_r),
                )
            )
        elif kind in ("counts", "booleans"):
            pairs = [(r.gold, r.predicted) for r in group]
            rows.append(
                ReportRow(
                    qtype,
                    kind,
                    len(group),
                    accuracy=exact_match_accuracy(pairs),
                    f1=exact_match_f1(pairs),
                )
            )
        else:
            scores = [bleu4(r.gold, r.predicted, smoothing=True) for r in group]
            rows.append(
                ReportRow(qtype, kind, len(group), bleu_4=sum(scores) / len(scores))
            )
    return Report(tuple(rows), _NOTES, PUBLISHED_REFERENCE)


def format_report(report: Report) -> str:
    """Human-readable aligned table."""
    lines = []
    header = f"{'question type':<42} {'n':>5}  {'metrics'}"
    lines.append(header)
    lines.append("-" * len(header))
    for row in report.rows:
        if row.kind == "entities":
            metrics = (
                f"P {row.macro_precision:.4f} R {row.macro_recall:.4f} "
                f"F1 {row.f1:.4f} (micro P {row.micro_precision:.4f} R {row.micro_recall:.4f})"
            )
        elif row.kind in ("counts", "booleans"):
            metrics = f"accuracy {row.accuracy:.4f} F1 {row.f1:.4f}"
        else:
            metrics = f"BLEU-4 {row.bleu_4:.4f}"
        lines.append(f"{row.question_type:<42} {row.count:>5}  {metrics}")
    lines.append("")
    lines.append("reference (full-scale, context only):")
    for qtype, vals in PUBLISHED_REFERENCE["precision_recall"].items():
        lines.append(f"  {qtype:<40} R {vals['recall']:.2f}%  P {vals['precision']:.2f}%")
    for qtype, f1 in PUBLISHED_REFERENCE["f1"].items():
        lines.append(f"  {qtype:<40} F1 {f1:.2f}%")
    for qtype, b in PUBLISHED_REFERENCE["bleu4"].items():
        lines.append(f"  {qtype:<40} BLEU-4 {b:.2f}")
    return "\n".join(lines)


# -- record file io --------------------------------------------------------------------


def read_records(path: str | Path) -> list[EvalRecord]:
    """json-lines records: {"question_type", "gold": answer-or-utterance,
    "predicted": same kind} using the corpus answer encoding."""
    from .dataset_pipeline import answer_from_obj

    def decode(obj: dict, name: str) -> Gold:
        value = json_field(obj, name, str, dict)
        return value if isinstance(value, str) else answer_from_obj(value)

    def record(obj: dict, _lineno: int) -> EvalRecord:
        question_type = json_field(obj, "question_type", str)
        return EvalRecord(question_type, decode(obj, "gold"), decode(obj, "predicted"))

    return read_json_lines(path, record, EvalError)
