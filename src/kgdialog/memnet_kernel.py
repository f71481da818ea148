"""Pure numeric reference of the key-value memory read path.

Memory rows pair a key (relation and subject embeddings concatenated) with
a value (the object embedding).  A query vector attends over projected
keys, folds the attended projected values back in, and is remapped once
per hop; after the final hop a separate map scores the candidate objects
into a copy distribution.  No training happens here: all parameter
matrices are inputs.

Values live in D dimensions but the single projection A expects the key
width 2D, so values are projected through A's last D columns, the ones
that read the subject half of a key: the same as zero-padding a value on
the relation half, without building the padded copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .entity_linker import CandidateSet
from .kg_embed import EmbeddingTable, gradient_check
from .kg_store import Tuple, TupleRows, UnknownIdError, read_json_lines

DEFAULT_HOPS = 2
DEFAULT_MEMORY_CAP = 10000

KG_WORD = "KG_WORD"


class KernelError(ValueError):
    pass


@dataclass(frozen=True)
class MemorySlab:
    keys: np.ndarray    # (N, 2D)
    values: np.ndarray  # (N, D)
    provenance: TupleRows  # any sequence of Tuples is taken as its rows

    def __post_init__(self):
        object.__setattr__(self, "provenance", TupleRows.of(self.provenance))

    @property
    def size(self) -> int:
        return self.keys.shape[0]


@dataclass(frozen=True)
class HopParams:
    """Hop maps: A projects key space to query space, one square map per
    hop remixes the query, B scores values for the copy distribution."""

    A: np.ndarray               # (d, D_kv)
    R: tuple[np.ndarray, ...]   # H maps, each (d, d)
    B: np.ndarray               # (d, D)

    @property
    def hops(self) -> int:
        return len(self.R)

    def validate(self, slab: MemorySlab) -> None:
        _check_slab(slab)
        d, d_kv = self.A.shape
        if d_kv != slab.keys.shape[1]:
            raise KernelError(
                f"A maps key width {d_kv}, memory keys have width {slab.keys.shape[1]}"
            )
        if self.hops < 1:
            raise KernelError("need at least one hop map")
        for j, r in enumerate(self.R, start=1):
            if r.shape != (d, d):
                raise KernelError(f"hop map {j} must be {d}x{d}, got {r.shape}")
        if self.B.shape != (d, slab.values.shape[1]):
            raise KernelError(
                f"B must be {d}x{slab.values.shape[1]}, got {self.B.shape}"
            )


def _check_slab(slab: MemorySlab) -> None:
    """Keys and values pair row for row, and values fit the key width,
    whose last columns project them."""
    keys, values = slab.keys.shape, slab.values.shape
    if keys[0] != values[0]:
        raise KernelError(f"memory keys {keys} and values {values} differ in row count")
    if values[1] > keys[1]:
        raise KernelError(f"memory values {values} are wider than keys {keys}")


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-shifted softmax; stable for logit magnitudes up to ~1e4."""
    shifted = logits - np.max(logits)
    exp = np.exp(shifted)
    return exp / np.sum(exp)


def build_memory(candidates: CandidateSet | Sequence[Tuple], table: EmbeddingTable) -> MemorySlab:
    """Slab rows follow candidate order: key i = (relation_i ‖ subject_i),
    value i = object_i, as float64 whatever the table's dtype.  An id the
    table lacks raises :class:`UnknownIdError` before any row is read.  A
    ``CandidateSet``'s id rows are read as they are, and the slab keeps them."""
    rows = candidates.tuples if isinstance(candidates, CandidateSet) else TupleRows.of(candidates)
    ids = rows.ids
    table.check_tuple_ids(ids)
    keys = np.concatenate(
        [table.relation_vecs[ids[:, 0]], table.entity_vecs[ids[:, 1]]], axis=1, dtype=np.float64
    )
    values = table.entity_vecs[ids[:, 2]].astype(np.float64, copy=False)
    return MemorySlab(keys, values, rows)


def hop(
    q: np.ndarray,
    slab: MemorySlab,
    A: np.ndarray,
    R_j: np.ndarray,
    anchor_q: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One memory pass: returns (next query, attention weights)."""
    _check_hop(q, slab, A, anchor_q)
    _check_slab(slab)
    return _step(q, *_project(slab, A), R_j, anchor_q)


def _check_hop(q: np.ndarray, slab: MemorySlab, A: np.ndarray, anchor_q: np.ndarray) -> None:
    if slab.size == 0:
        raise KernelError("cannot hop over an empty memory")
    d, d_kv = A.shape
    if d_kv != slab.keys.shape[1] or q.shape != (d,) or anchor_q.shape != (d,):
        raise KernelError(
            f"dimension mismatch: A {A.shape}, keys {slab.keys.shape}, q {q.shape}"
        )


def _project(slab: MemorySlab, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keys and values in query space, (N, d) each; no hop changes them."""
    return slab.keys @ A.T, slab.values @ A[:, A.shape[1] - slab.values.shape[1] :].T


def _step(
    q: np.ndarray, keys: np.ndarray, values: np.ndarray, R_j: np.ndarray, anchor_q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One hop over projected keys and values: (next query, attention weights)."""
    weights = softmax(keys @ q)   # (N,)
    read = values.T @ weights     # (d,)
    q_next = R_j @ (anchor_q + read)
    if not np.all(np.isfinite(q_next)):
        raise KernelError("hop produced non-finite values")
    return q_next, weights


@dataclass(frozen=True)
class MultiHopResult:
    q_final: np.ndarray
    attentions: tuple[np.ndarray, ...]


def multi_hop(q1: np.ndarray, slab: MemorySlab, params: HopParams) -> MultiHopResult:
    """Run all hops; the anchor re-added inside each hop is the current
    query.  Keys and values are projected once, for every hop."""
    params.validate(slab)
    q = np.asarray(q1, dtype=float)
    _check_hop(q, slab, params.A, q)
    keys, values = _project(slab, params.A)
    attentions: list[np.ndarray] = []
    for R_j in params.R:
        q, weights = _step(q, keys, values, R_j, q)
        attentions.append(weights)
    return MultiHopResult(q, tuple(attentions))


def entity_distribution(q_final: np.ndarray, slab: MemorySlab, B: np.ndarray) -> np.ndarray:
    """Copy distribution over memory rows: softmax of q·(B value_i)."""
    if slab.size == 0:
        raise KernelError("cannot score an empty memory")
    if B.shape != (q_final.shape[0], slab.values.shape[1]):
        raise KernelError(f"B must map value width {slab.values.shape[1]} to query width")
    return softmax((slab.values @ B.T) @ q_final)


def substitute_kg_words(
    tokens: Sequence[str],
    distribution: np.ndarray,
    slab: MemorySlab,
    labels: Sequence[str] | None = None,
    placeholder: str = KG_WORD,
) -> list[str]:
    """Replace placeholder tokens with the top distinct candidate objects.

    Row probabilities are summed per object entity (so duplicated rows do
    not double-rank an entity); entities fill the placeholders in
    descending probability, ties broken by entity id.
    """
    if len(distribution) != slab.size:
        raise KernelError("distribution length must match memory size")
    objects = slab.provenance.ids[:, 2]
    entities, rows = np.unique(objects, return_inverse=True)
    # bincount adds each entity's rows in row order, starting from 0.0
    mass = np.bincount(rows, weights=distribution, minlength=len(entities))
    ranked = entities[np.lexsort((entities, -mass))].tolist()
    out: list[str] = []
    cursor = 0
    for token in tokens:
        if token == placeholder and cursor < len(ranked):
            entity = ranked[cursor]
            cursor += 1
            out.append(labels[entity] if labels is not None else str(entity))
        else:
            out.append(token)
    return out


# -- golden vector file -----------------------------------------------------------------
#
# json-lines records: {"name", "q1", "keys", "values", "A", "R", "B",
# "expected_attention", "expected_q_final", "expected_distribution"?}


@dataclass(frozen=True)
class VectorOutcome:
    name: str
    passed: bool
    detail: str = ""


def run_vector_file(path: str | Path, tolerance: float = 1e-9) -> list[VectorOutcome]:
    """Execute every golden record and compare within tolerance."""
    return read_json_lines(
        path,
        lambda record, lineno: _run_vector(record, record.get("name", f"line{lineno}"), tolerance),
        KernelError,
    )


def builtin_checks() -> list[VectorOutcome]:
    """Properties of the read path on seeded random inputs, plus the
    embedding gradient check; independent of any vector file."""
    checks: list[VectorOutcome] = []
    rng = np.random.default_rng(0)

    def slab(n: int, d_emb: int) -> MemorySlab:
        return MemorySlab(
            rng.standard_normal((n, 2 * d_emb)),
            rng.standard_normal((n, d_emb)),
            tuple(Tuple(0, 0, i) for i in range(n)),
        )

    def params(d: int, d_emb: int, hops: int = DEFAULT_HOPS) -> HopParams:
        return HopParams(
            A=rng.standard_normal((d, 2 * d_emb)),
            R=tuple(rng.standard_normal((d, d)) for _ in range(hops)),
            B=rng.standard_normal((d, d_emb)),
        )

    try:
        s1 = slab(1, 3)
        out = multi_hop(rng.standard_normal(4), s1, params(4, 3))
        ok = all(abs(w[0] - 1.0) < 1e-12 for w in out.attentions)
        checks.append(VectorOutcome("singleton memory attends with weight 1.0", ok))
    except KernelError as exc:
        checks.append(VectorOutcome("singleton memory attends with weight 1.0", False, str(exc)))

    s = slab(5, 3)
    zero = HopParams(A=np.zeros((4, 6)), R=(np.eye(4),), B=np.zeros((4, 3)))
    out = multi_hop(rng.standard_normal(4), s, zero)
    ok = bool(np.allclose(out.attentions[0], 0.2, atol=1e-12))
    checks.append(VectorOutcome("zero projection gives uniform attention", ok))

    p = params(4, 3)
    q1 = rng.standard_normal(4)
    base = multi_hop(q1, s, p)
    doubled = MemorySlab(
        np.concatenate([s.keys, s.keys]),
        np.concatenate([s.values, s.values]),
        s.provenance + s.provenance,
    )
    ok = bool(np.allclose(base.q_final, multi_hop(q1, doubled, p).q_final, atol=1e-7))
    checks.append(VectorOutcome("duplicating memory rows leaves the final query unchanged", ok))

    out = multi_hop(q1, MemorySlab(s.keys * 1e4, s.values, s.provenance), p)
    ok = bool(np.all(np.isfinite(out.q_final)))
    checks.append(VectorOutcome("large logits stay finite", ok))

    dist = entity_distribution(base.q_final, s, p.B)
    ok = abs(float(np.sum(dist)) - 1.0) < 1e-9 and bool(np.all(dist >= 0))
    checks.append(VectorOutcome("copy distribution is a probability vector", ok))

    problem = gradient_check(rng)
    checks.append(
        VectorOutcome(
            "margin-loss gradients match central differences", problem is None, problem or ""
        )
    )

    table = EmbeddingTable(rng.standard_normal((6, 3)), rng.standard_normal((2, 3)))
    tuples = [Tuple(*map(int, row)) for row in rng.integers(0, (2, 6, 6), size=(12, 3))]
    name = "memory rows are the table rows of their tuples"
    try:
        built = build_memory(tuples, table)
    except UnknownIdError as exc:
        checks.append(VectorOutcome(name, False, str(exc)))
    else:
        ok = built.provenance == tuple(tuples) and all(
            np.array_equal(built.keys[i], np.concatenate([table.relation(r), table.entity(s)]))
            and np.array_equal(built.values[i], table.entity(o))
            for i, (r, s, o) in enumerate(tuples)
        )
        checks.append(VectorOutcome(name, ok))
    return checks


def _run_vector(record: dict, name: str, tolerance: float) -> VectorOutcome:
    keys = np.array(record["keys"], dtype=float)
    values = np.array(record["values"], dtype=float)
    n = keys.shape[0]
    slab = MemorySlab(keys, values, tuple(Tuple(0, 0, i) for i in range(n)))
    params = HopParams(
        A=np.array(record["A"], dtype=float),
        R=tuple(np.array(r, dtype=float) for r in record["R"]),
        B=np.array(record["B"], dtype=float),
    )
    try:
        result = multi_hop(np.array(record["q1"], dtype=float), slab, params)
    except KernelError as exc:
        return VectorOutcome(name, False, str(exc))
    expected_attention = np.array(record["expected_attention"], dtype=float)
    got_attention = np.stack(result.attentions)
    if got_attention.shape != expected_attention.shape or not np.allclose(
        got_attention, expected_attention, atol=tolerance, rtol=0.0
    ):
        return VectorOutcome(name, False, f"attention mismatch: {got_attention.tolist()}")
    expected_q = np.array(record["expected_q_final"], dtype=float)
    if not np.allclose(result.q_final, expected_q, atol=tolerance, rtol=0.0):
        return VectorOutcome(name, False, f"q_final mismatch: {result.q_final.tolist()}")
    if "expected_distribution" in record:
        dist = entity_distribution(result.q_final, slab, params.B)
        if not np.allclose(
            dist, np.array(record["expected_distribution"], dtype=float), atol=tolerance, rtol=0.0
        ):
            return VectorOutcome(name, False, f"distribution mismatch: {dist.tolist()}")
    return VectorOutcome(name, True)
