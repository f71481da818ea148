"""Toy-scale translational embeddings over the tuple store.

Entities and relations get D-dimensional vectors; a tuple's implausibility
is the L2 norm of subject + relation - object.  Training minimizes a
margin-ranking objective against corrupted tuples with plain SGD; entity
vectors are renormalized to unit L2 after every update, relation vectors
only at initialization.  Everything is driven by a seeded generator, so a
seed pins the whole table.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .kg_store import KgStore, Tuple, UnknownIdError

_MAGIC = b"KGE1"


class EmbedError(ValueError):
    pass


@dataclass
class TrainConfig:
    dim: int = 32
    margin: float = 1.0
    learning_rate: float = 0.05
    epochs: int = 500
    negatives: int = 1  # corrupted samples per positive
    seed: int = 0

    def validate(self) -> None:
        if self.dim < 1:
            raise EmbedError("dim must be >= 1")
        if self.margin <= 0:
            raise EmbedError("margin must be > 0")


@dataclass
class EmbeddingTable:
    entity_vecs: np.ndarray  # (n_entities, D)
    relation_vecs: np.ndarray  # (n_relations, D)
    epoch_losses: tuple[float, ...] = field(default_factory=tuple)

    @property
    def dim(self) -> int:
        return self.entity_vecs.shape[1]

    def entity(self, e: int) -> np.ndarray:
        if not 0 <= e < len(self.entity_vecs):
            raise UnknownIdError(f"entity id {e} not embedded")
        return self.entity_vecs[e]

    def relation(self, r: int) -> np.ndarray:
        if not 0 <= r < len(self.relation_vecs):
            raise UnknownIdError(f"relation id {r} not embedded")
        return self.relation_vecs[r]


def score(table: EmbeddingTable, t: Tuple) -> float:
    """Dissimilarity of a tuple: lower means more plausible, 0 is exact."""
    residual = table.entity(t.subject) + table.relation(t.relation) - table.entity(t.object)
    return float(np.linalg.norm(residual))


def init_table(n_entities: int, n_relations: int, config: TrainConfig) -> EmbeddingTable:
    """Seeded uniform init; entities normalized to the unit sphere."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    bound = 6.0 / np.sqrt(config.dim)
    ents = rng.uniform(-bound, bound, size=(n_entities, config.dim))
    rels = rng.uniform(-bound, bound, size=(n_relations, config.dim))
    rel_norms = np.linalg.norm(rels, axis=1, keepdims=True)
    rels = np.divide(rels, rel_norms, out=rels, where=rel_norms > 0)
    ent_norms = np.linalg.norm(ents, axis=1, keepdims=True)
    ents = np.divide(ents, ent_norms, out=ents, where=ent_norms > 0)
    return EmbeddingTable(ents, rels)


def margin_loss(
    table: EmbeddingTable, positive: Tuple, negative: Tuple, margin: float
) -> float:
    return max(0.0, margin + score(table, positive) - score(table, negative))


def margin_loss_grads(
    table: EmbeddingTable, positive: Tuple, negative: Tuple, margin: float
) -> tuple[float, dict[tuple[str, int], np.ndarray]]:
    """Loss and analytic gradients for one (positive, corrupted) pair.

    Gradients are keyed by ("entity"|"relation", id) and accumulate when
    the pair shares vectors.  At zero loss all gradients are zero; the
    norm's own nondifferentiable point (residual exactly 0) is treated as
    gradient 0.
    """
    loss = margin_loss(table, positive, negative, margin)
    grads: dict[tuple[str, int], np.ndarray] = {}
    if loss <= 0.0:
        return loss, grads

    def accumulate(key: tuple[str, int], value: np.ndarray) -> None:
        if key in grads:
            grads[key] = grads[key] + value
        else:
            grads[key] = value.copy()

    for t, sign in ((positive, 1.0), (negative, -1.0)):
        residual = table.entity(t.subject) + table.relation(t.relation) - table.entity(t.object)
        norm = np.linalg.norm(residual)
        if norm == 0.0:
            continue
        unit = residual / norm
        accumulate(("entity", t.subject), sign * unit)
        accumulate(("relation", t.relation), sign * unit)
        accumulate(("entity", t.object), -sign * unit)
    return loss, grads


def gradient_check(rng: np.random.Generator, tolerance: float = 1e-4) -> str | None:
    """Compare :func:`margin_loss_grads` with central differences of
    :func:`margin_loss` on three random tables with an active hinge.

    Returns None when every gradient matches within ``tolerance``
    (relative L2 error), otherwise what went wrong.
    """
    for trial in range(3):
        table = EmbeddingTable(rng.standard_normal((6, 5)), rng.standard_normal((2, 5)))
        pos = Tuple(0, 0, 1)
        neg = Tuple(0, 2, 1) if trial % 2 == 0 else Tuple(0, 0, 3)
        loss, grads = margin_loss_grads(table, pos, neg, 10.0)
        if loss <= 0.0 or not grads:
            return "hinge unexpectedly inactive"
        h = 1e-6
        for (kind, idx), grad in grads.items():
            array = table.entity_vecs if kind == "entity" else table.relation_vecs
            numeric = np.zeros_like(grad)
            for d in range(array.shape[1]):
                orig = array[idx, d]
                array[idx, d] = orig + h
                up = margin_loss(table, pos, neg, 10.0)
                array[idx, d] = orig - h
                down = margin_loss(table, pos, neg, 10.0)
                array[idx, d] = orig
                numeric[d] = (up - down) / (2 * h)
            rel_err = np.linalg.norm(grad - numeric) / max(np.linalg.norm(numeric), 1e-12)
            if rel_err >= tolerance:
                return f"relative error {rel_err:.2e} at {kind} {idx}"
    return None


def train(store: KgStore, config: TrainConfig | None = None) -> EmbeddingTable:
    """SGD over margin-ranking loss with uniform subject/object corruption.

    Deterministic per seed; the per-epoch mean loss history is attached to
    the returned table.
    """
    config = config or TrainConfig()
    config.validate()
    if not store.tuples:
        raise EmbedError("cannot train on an empty store")
    table = init_table(store.n_entities, store.n_relations, config)
    rng = np.random.default_rng(config.seed + 1)
    positives = sorted(store.tuples)
    known = store.tuples
    n_entities = store.n_entities
    losses: list[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(len(positives))
        epoch_loss = 0.0
        steps = 0
        for idx in order:
            pos = positives[idx]
            for _ in range(config.negatives):
                neg = _corrupt(pos, n_entities, known, rng)
                loss, grads = margin_loss_grads(table, pos, neg, config.margin)
                epoch_loss += loss
                steps += 1
                if not grads:
                    continue
                touched_entities = set()
                for (kind, i), g in grads.items():
                    if kind == "entity":
                        table.entity_vecs[i] -= config.learning_rate * g
                        touched_entities.add(i)
                    else:
                        table.relation_vecs[i] -= config.learning_rate * g
                for i in touched_entities:
                    norm = np.linalg.norm(table.entity_vecs[i])
                    if norm > 0:
                        table.entity_vecs[i] /= norm
        losses.append(epoch_loss / steps if steps else 0.0)
    table.epoch_losses = tuple(losses)
    return table


def _corrupt(
    pos: Tuple, n_entities: int, known: frozenset[Tuple], rng: np.random.Generator
) -> Tuple:
    """Replace subject or object uniformly; re-draws corrupted tuples that
    are themselves true facts, so the objective never pushes facts apart."""
    for _ in range(64):
        corrupt_subject = bool(rng.integers(0, 2))
        replacement = int(rng.integers(0, n_entities))
        if corrupt_subject:
            neg = Tuple(pos.relation, replacement, pos.object)
        else:
            neg = Tuple(pos.relation, pos.subject, replacement)
        if neg != pos and neg not in known:
            return neg
    return neg


# -- link prediction ------------------------------------------------------------------


@dataclass(frozen=True)
class DirectionReport:
    mean_rank: float
    hits_at_k: float
    filtered_mean_rank: float | None = None
    filtered_hits_at_k: float | None = None


@dataclass(frozen=True)
class LinkPredictionReport:
    k: int
    object_side: DirectionReport
    subject_side: DirectionReport

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "object": dict(self.object_side.__dict__),
            "subject": dict(self.subject_side.__dict__),
        }


def random_baseline_mean_rank(n_entities: int) -> float:
    """Analytic expectation of a uniformly random rank over n entities."""
    return (n_entities + 1) / 2


def random_baseline_hits_at_k(n_entities: int, k: int = 10) -> float:
    return min(1.0, k / n_entities)


def link_prediction_eval(
    table: EmbeddingTable,
    held_out: Iterable[Tuple],
    k: int = 10,
    all_tuples: Iterable[Tuple] | None = None,
) -> LinkPredictionReport:
    """Rank the true object (resp. subject) among all entities by score.

    Raw ranks count every competing entity with strictly smaller score;
    filtered ranks (reported when ``all_tuples`` is given) additionally
    ignore competitors that form other true tuples.  A held-out tuple with
    an id the table does not embed raises :class:`UnknownIdError` naming
    the tuple, before any ranking.
    """
    held = sorted(held_out)
    if not held:
        raise EmbedError("link prediction needs at least one held-out tuple")
    for t in held:
        try:
            table.entity(t.subject), table.relation(t.relation), table.entity(t.object)
        except UnknownIdError as exc:
            raise UnknownIdError(f"held-out tuple {tuple(t)}: {exc}") from None
    # per side: the true tuples' other entities, keyed by (relation, anchor)
    rivals: dict[str, dict[tuple[int, int], set[int]]] | None = None
    if all_tuples is not None:
        rivals = {"object": {}, "subject": {}}
        for t in all_tuples:
            rivals["object"].setdefault((t.relation, t.subject), set()).add(t.object)
            rivals["subject"].setdefault((t.relation, t.object), set()).add(t.subject)

    def ranks(side: str) -> tuple[list[int], list[int] | None]:
        raw: list[int] = []
        filtered: list[int] | None = [] if rivals is not None else None
        for t in held:
            if side == "object":
                target = table.entity(t.subject) + table.relation(t.relation)
                true_id, anchor = t.object, t.subject
            else:
                target = table.entity(t.object) - table.relation(t.relation)
                true_id, anchor = t.subject, t.object
            scores = np.linalg.norm(table.entity_vecs - target, axis=1)
            true_score = scores[true_id]
            rank = 1 + int(np.count_nonzero(scores < true_score))
            raw.append(rank)
            if filtered is not None:
                rival_scores = scores[list(rivals[side].get((t.relation, anchor), ()))]
                filtered.append(rank - int(np.count_nonzero(rival_scores < true_score)))
        return raw, filtered

    def report(raw: list[int], filtered: list[int] | None) -> DirectionReport:
        return DirectionReport(
            mean_rank=sum(raw) / len(raw),
            hits_at_k=sum(1 for r in raw if r <= k) / len(raw),
            filtered_mean_rank=sum(filtered) / len(filtered) if filtered else None,
            filtered_hits_at_k=(
                sum(1 for r in filtered if r <= k) / len(filtered) if filtered else None
            ),
        )

    obj_raw, obj_f = ranks("object")
    subj_raw, subj_f = ranks("subject")
    return LinkPredictionReport(k, report(obj_raw, obj_f), report(subj_raw, subj_f))


# -- file format -----------------------------------------------------------------------
#
# binary header {magic "KGE1", D, n_entities, n_relations} as little-endian
# uint32s, then entity rows and relation rows as little-endian float32;
# a json sidecar records the id order.


def save_embeddings(table: EmbeddingTable, path: str | Path) -> None:
    path = Path(path)
    n_e, d = table.entity_vecs.shape
    n_r = table.relation_vecs.shape[0]
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", d, n_e, n_r))
        fh.write(table.entity_vecs.astype("<f4").tobytes(order="C"))
        fh.write(table.relation_vecs.astype("<f4").tobytes(order="C"))
    manifest = {
        "dim": d,
        "entities": list(range(n_e)),
        "relations": list(range(n_r)),
    }
    with open(path.with_suffix(path.suffix + ".manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True)
        fh.write("\n")


def load_embeddings(path: str | Path) -> EmbeddingTable:
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise EmbedError(f"{path}: bad magic {magic!r}")
        d, n_e, n_r = struct.unpack("<III", fh.read(12))
        ents = np.frombuffer(fh.read(4 * n_e * d), dtype="<f4").reshape(n_e, d)
        rels = np.frombuffer(fh.read(4 * n_r * d), dtype="<f4").reshape(n_r, d)
    return EmbeddingTable(ents.astype(np.float64), rels.astype(np.float64))
