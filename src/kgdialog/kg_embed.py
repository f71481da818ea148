"""Toy-scale translational embeddings over the tuple store.

Entities and relations get D-dimensional vectors; a tuple's implausibility
is the L2 norm of subject + relation - object.  Training minimizes a
margin-ranking objective against corrupted tuples with minibatch SGD,
blocks of 128 pairs; entity vectors are renormalized to unit L2 after
every block, relation vectors only at initialization.  Everything is
driven by a seeded generator, so a seed pins the whole table.  Link
prediction ranks all entities for blocks of held-out tuples at once: a
screen of pre-scaled queries (one matrix product and one addition per
block) against per-row thresholds, then, when one whole-block count says
near ties exist, exact norms for them, so ranks equal those of comparing
every exact score.

A step builds its residuals, norms and updates in place, with the same
operations in the same order as the plain expressions, and scatters its
gradients with ``np.add.at`` on each table's flat view (numpy's fast 1-D
path), where every element receives its additions in the order the
row-wise scatter gave them, so a seed pins the same bits.  Positives are
the store's id ``rows``; rivals for filtered ranks are joined from the id
rows of ``all_tuples``.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .kg_store import KgStore, Tuple, TupleRows, UnknownIdError

_MAGIC = b"KGE1"
BLOCK = 128  # (positive, corrupted) pairs per SGD step
SCREEN_ENTRIES = 32768  # scores per link-prediction block: 256 KB of float64


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
        for name in ("dim", "margin", "learning_rate", "epochs", "negatives", "seed"):
            problem = setting_problem(name, getattr(self, name))
            if problem:
                raise EmbedError(f"{name} {problem}")


def setting_problem(name: str, value) -> str | None:
    """Why ``value`` cannot be the :class:`TrainConfig` setting ``name``, or
    None: ``margin`` and ``learning_rate`` are finite numbers > 0, ``dim``
    and ``negatives`` integers >= 1, ``epochs`` and ``seed`` integers >= 0."""
    if name in ("margin", "learning_rate"):
        real = isinstance(value, (int, float)) and not isinstance(value, bool)
        if real and math.isfinite(value) and value > 0:
            return None
        return f"must be a finite number > 0, got {value!r}"
    least = 0 if name in ("epochs", "seed") else 1
    if isinstance(value, int) and not isinstance(value, bool) and value >= least:
        return None
    return f"must be an integer >= {least}, got {value!r}"


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

    def check_tuple_ids(self, ids: np.ndarray) -> None:
        """Check an (N, 3) int array of (relation, subject, object) rows in
        one pass.  The first id outside the table, in row order, raises the
        :class:`UnknownIdError` that :meth:`relation` or :meth:`entity`
        would; a negative id is outside too, never counted from the end."""
        n_entities = len(self.entity_vecs)
        limits = np.array([len(self.relation_vecs), n_entities, n_entities], np.uint64)
        outside = ids.astype(np.uint64) >= limits  # a negative id wraps past every limit
        if np.count_nonzero(outside):
            i = int(outside.argmax())  # the first, in row order
            kind = "relation" if i % 3 == 0 else "entity"
            raise UnknownIdError(f"{kind} id {ids.flat[i]} not embedded")


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
    """Loss and analytic gradients for one (positive, corrupted) pair: the
    one-pair view of :func:`_batch_grads`, the kernel :func:`train` applies.

    Gradients are keyed by ("entity"|"relation", id) and accumulate when
    the pair shares vectors; at zero loss there are none.
    """
    for t in (positive, negative):
        score(table, t)  # raises UnknownIdError on an id the table lacks
    E, R = table.entity_vecs, table.relation_vecs
    loss, g = _batch_grads(E, R, np.array([positive]), np.array([negative]), margin)
    grads: dict[tuple[str, int], np.ndarray] = {}
    if loss[0] <= 0.0:
        return 0.0, grads
    for t, unit in zip((positive, negative), g[:, 0]):
        for key, value in ((("entity", t.subject), unit), (("relation", t.relation), unit),
                           (("entity", t.object), -unit)):
            grads[key] = grads[key] + value if key in grads else value.copy()
    return float(loss[0]), grads


def _batch_grads(E: np.ndarray, R: np.ndarray, pos: np.ndarray, neg: np.ndarray, margin: float):
    """Hinge losses (B,) and gradients (2, B, D) of B pairs of (relation,
    subject, object) rows: ``g[0, b]`` is the gradient of pair b's loss with
    respect to its positive's subject and relation, ``g[1, b]`` its
    negative's, and each object's is the negation.  The norm's
    nondifferentiable point (a residual exactly 0) gets gradient 0.  The
    residual is built and divided in place, by ``sqrt(add.reduce(x * x))``,
    the formula ``np.linalg.norm`` uses for real input."""
    rel, subj, obj = np.concatenate([pos.T, neg.T], axis=1).reshape(3, 2, -1)  # each (2, B)
    residual = E[subj]
    residual += R[rel]
    residual -= E[obj]
    norms = np.sqrt(np.add.reduce(residual * residual, axis=2, keepdims=True))
    loss = np.maximum(0.0, margin + norms[0, :, 0] - norms[1, :, 0])
    live = norms > 0
    residual /= np.where(live, norms, 1.0)
    residual[~live[..., 0]] = 0.0  # also where the square underflowed
    residual *= (loss > 0)[:, None] * np.array([1.0, -1.0])[:, None, None]
    return loss, residual


GRADIENT_TOLERANCE = 1e-4  # relative L2 error


def gradient_check(rng: np.random.Generator) -> str | None:
    """Compare :func:`margin_loss_grads` with central differences of
    :func:`margin_loss` on three random tables with an active hinge.

    Returns None when every gradient matches within
    :data:`GRADIENT_TOLERANCE`, otherwise what went wrong.
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
            if rel_err >= GRADIENT_TOLERANCE:
                return f"relative error {rel_err:.2e} at {kind} {idx}"
    return None


def train(store: KgStore, config: TrainConfig | None = None) -> EmbeddingTable:
    """Minibatch SGD over margin-ranking loss with uniform subject/object
    corruption, in blocks of :data:`BLOCK` shuffled pairs.  Deterministic
    per seed; the per-epoch mean loss history is attached to the table."""
    config = config or TrainConfig()
    config.validate()
    if not len(store.rows):
        raise EmbedError("cannot train on an empty store")
    table = init_table(store.n_entities, store.n_relations, config)
    E, R, lr = table.entity_vecs, table.relation_vecs, config.learning_rate
    rng = np.random.default_rng(config.seed + 1)
    positives = store.rows  # sorted Tuple order
    known = _keys(positives, store.n_entities)  # so sorted too
    losses: list[float] = []
    for _ in range(config.epochs):
        pos = np.repeat(positives[rng.permutation(len(positives))], config.negatives, axis=0)
        neg = _corrupt(pos, store.n_entities, known, rng)
        epoch_loss = 0.0
        for i in range(0, len(pos), BLOCK):
            epoch_loss += _step(E, R, pos[i : i + BLOCK], neg[i : i + BLOCK], config.margin, lr)
        losses.append(epoch_loss / len(pos))
    table.epoch_losses = tuple(losses)
    return table


def _step(E: np.ndarray, R: np.ndarray, pos: np.ndarray, neg: np.ndarray, margin: float, lr: float):
    """One SGD step in place on C-contiguous ``E`` and ``R``: the summed
    :func:`_batch_grads` of a block (``-lr * g`` taken once, and negated
    exactly for the objects), then the entities it touched divided in place
    back to unit L2.  Returns the summed loss."""
    loss, g = _batch_grads(E, R, pos, neg, margin)
    cols = np.concatenate([pos.T, neg.T], axis=1)  # relation, subject, object rows
    ends = cols[1:]  # subjects, then objects: the row-wise scatter's order
    deltas = np.empty((2,) + g.shape)
    np.negative(np.multiply(g, -lr, out=deltas[0]), out=deltas[1])
    _add_rows(E, ends, deltas)
    _add_rows(R, cols[0], deltas[0])
    touched = _distinct(ends)
    rows = E[touched]
    norms = np.sqrt(np.add.reduce(rows * rows, axis=1, keepdims=True))
    rows /= np.where(norms > 0, norms, 1.0)  # a zero row stays as it is
    E[touched] = rows
    return float(loss.sum())


def _add_rows(table: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``np.add.at(table, rows, values)`` through the flat view of a
    C-contiguous ``table`` (numpy's fast 1-D path): each element gets the
    same additions in the same order, so the same bits."""
    d = table.shape[1]
    np.add.at(table.reshape(-1), (rows.reshape(-1, 1) * d + np.arange(d)).ravel(), values.ravel())


def _distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` by one sort and a neighbour comparison, which
    is several times faster on short int arrays."""
    values = np.sort(values, axis=None)
    first = np.ones(len(values), bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def _keys(tuples: np.ndarray, n_entities: int) -> np.ndarray:
    """One int64 per (relation, subject, object) row, increasing in that order."""
    return (tuples[:, 0] * n_entities + tuples[:, 1]) * n_entities + tuples[:, 2]


def _corrupt(pos: np.ndarray, n_entities: int, known: np.ndarray, rng: np.random.Generator):
    """Replace each row's subject or object uniformly; re-draws rows whose
    key is among the sorted ``known`` keys, up to 64 rounds, so the objective
    never pushes facts apart when a non-fact can be found."""
    neg, redraw = pos.copy(), np.arange(len(pos))
    for _ in range(64):
        side = 1 + rng.integers(0, 2, size=len(redraw))
        neg[redraw] = pos[redraw]
        neg[redraw, side] = rng.integers(0, n_entities, size=len(redraw))
        keys = _keys(neg[redraw], n_entities)
        redraw = redraw[known[np.minimum(np.searchsorted(known, keys), len(known) - 1)] == keys]
        if not len(redraw):
            break
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
    ignore competitors that form other true tuples.  ``k`` must be an
    integer >= 1.  A held-out tuple, or a tuple of ``all_tuples`` that
    names a competitor, with an id the table does not embed raises
    :class:`UnknownIdError` naming the tuple, before any ranking.

    Every comparison gives the same answer as comparing the exact
    per-entity norms ``np.linalg.norm(E - target, axis=1)``, ties included
    (see :func:`_ranks`), so the ranks do not depend on how the
    held-out tuples are blocked.
    """
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise EmbedError(f"k must be an integer >= 1, got {k!r}")
    E, R = table.entity_vecs, table.relation_vecs
    n = len(E)
    held = TupleRows.of(held_out).ids
    held = held[np.lexsort(held.T[::-1])]  # sorted Tuple order
    if not len(held):
        raise EmbedError("link prediction needs at least one held-out tuple")
    _check_rows(table, held, np.arange(len(held)), "held-out tuple {}")
    rival_keys = [np.zeros(0, np.int64)] * 2  # object side, subject side
    if all_tuples is not None:
        ids = TupleRows.of(all_tuples).ids
        rivals = [_rivals(held, ids, anchor, len(R), n) for anchor in (1, 2)]
        _check_rows(table, ids, np.concatenate([source for _, source in rivals]), "tuple {} of all_tuples")
        rival_keys = [keys for keys, _ in rivals]
    rel, subj, obj = held.T

    def report(target: np.ndarray, true_id: np.ndarray, keys: np.ndarray) -> DirectionReport:
        raw, filtered = _ranks(E, target, true_id, *np.divmod(keys, n))
        if all_tuples is None:
            return DirectionReport(*_summary(raw, k))
        return DirectionReport(*_summary(raw, k), *_summary(filtered, k))

    return LinkPredictionReport(
        k, report(E[subj] + R[rel], obj, rival_keys[0]), report(E[obj] - R[rel], subj, rival_keys[1])
    )


def _check_rows(table: EmbeddingTable, ids: np.ndarray, rows: np.ndarray, label: str) -> None:
    """Of ``rows`` (indices into the (N, 3) ``ids``), the lowest holding an
    id the table lacks raises the :class:`UnknownIdError` that
    :func:`score` would, its message led by ``label`` naming the tuple."""
    limits = (len(table.relation_vecs), len(table.entity_vecs), len(table.entity_vecs))
    bad = rows[((ids[rows] < 0) | (ids[rows] >= limits)).any(axis=1)]
    if bad.size:
        t = Tuple(*ids[bad.min()].tolist())
        try:
            score(table, t)
        except UnknownIdError as exc:
            raise UnknownIdError(f"{label.format(tuple(t))}: {exc}") from None


def _rivals(held: np.ndarray, ids: np.ndarray, anchor: int, n_relations: int, n: int):
    """Rivals of the held-out rows: the other ends of the ``ids`` rows that
    share a held row's relation and ``anchor`` column (1 subject, 2 object).
    Returns a key ``held row * n + rival`` per distinct pair, ascending,
    and the indices of the ``ids`` rows they came from.  A row of ``ids``
    with a relation or anchor outside the table matches no held row, whose
    ids are checked, so it is dropped before keying ``relation * n +
    anchor``; the keys of the rest are then unique."""
    ends = ids[:, [0, anchor]]
    kept = np.flatnonzero(((ends >= 0) & (ends < (n_relations, n))).all(axis=1))
    keys = ends[kept, 0] * n + ends[kept, 1]
    order = np.argsort(keys)
    keys, kept = keys[order], kept[order]
    held_keys = held[:, 0] * n + held[:, anchor]
    lo = np.searchsorted(keys, held_keys, "left")
    counts = np.searchsorted(keys, held_keys, "right") - lo
    rows = np.repeat(np.arange(len(held)), counts)  # pair j of row i reads keys[lo[i] + j]
    source = kept[lo[rows] + np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]]
    return _distinct(rows * n + ids[source, 3 - anchor]), source


def _summary(ranks: np.ndarray, k: int) -> tuple[float, float]:
    """Mean rank and hits@k as Python floats."""
    return int(ranks.sum()) / len(ranks), int(np.count_nonzero(ranks <= k)) / len(ranks)


def _ranks(
    E: np.ndarray, target: np.ndarray, true_id: np.ndarray, rival_rows: np.ndarray, rival_ents: np.ndarray
):
    """Raw and filtered ranks (int64 arrays) of ``true_id[i]`` among the
    entities ``E`` by score ``np.linalg.norm(E[e] - target[i])``.  A rank
    is 1 + the number of entities scoring strictly below the true one; the
    filtered rank also leaves out the rivals ``rival_ents[j]`` of row
    ``rival_rows[j]`` (sorted by row).

    Screen: the queries ``-2 t`` are scaled once (by a power of two, so
    exactly); per block of rows, one matrix product with ``E`` and one
    ``+= |e|^2`` give each entity's squared score less ``|t|^2``.  Below
    the row's threshold ``s^2 - |t|^2 - tol`` (``s`` the true score) an
    entity is better, above ``s^2 - |t|^2 + tol`` it is not; ``tol = 1e-9
    (max |e|^2 + |t|^2 + 1)`` is orders of magnitude above the rounding
    error of a D-term product, one addition and the thresholds.  Refine:
    when one whole-block count shows entities within ``tol`` besides the
    true ones (read at their own positions), those get their exact norm
    and a strict ``<``.  So every decision equals comparing exact norms;
    each row's better entities are then counted once.  A block holds at
    most :data:`SCREEN_ENTRIES` scores, so memory is bounded at any size.
    """
    true_score = np.linalg.norm(E[true_id] - target, axis=1)
    e2 = np.einsum("ij,ij->i", E, E)
    t2 = np.einsum("ij,ij->i", target, target)
    tol = 1e-9 * (e2.max() + t2 + 1.0)
    edge = true_score**2 - t2
    lower, upper = edge - tol, edge + tol
    queries = target * -2.0
    raw = np.ones(len(target), dtype=np.int64)
    filtered = np.empty_like(raw)
    step = max(1, SCREEN_ENTRIES // len(E))
    for lo in range(0, len(target), step):
        block = slice(lo, lo + step)
        T = target[block]
        own = np.arange(len(T)), true_id[block]
        scores = queries[block] @ E.T
        scores += e2
        better = scores < lower[block, None]
        below = scores <= upper[block, None]
        mine = scores[own]
        inside = np.count_nonzero((mine >= lower[block]) & (mine <= upper[block]))
        if np.count_nonzero(below) > np.count_nonzero(better) + inside:
            near = below ^ better  # better lies inside below
            near[own] = False
            rows, ents = np.nonzero(near)
            better[rows, ents] = np.linalg.norm(E[ents] - T[rows], axis=1) < true_score[block][rows]
        raw[block] += better.sum(axis=1, dtype=np.int32)  # rows are < 2**31 long; 2x count_nonzero
        first, last = np.searchsorted(rival_rows, [lo, lo + step])
        rows, ents = rival_rows[first:last] - lo, rival_ents[first:last]
        filtered[block] = raw[block] - np.bincount(rows[better[rows, ents]], minlength=len(T))
    return raw, filtered


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
    """Read a table :func:`save_embeddings` wrote.  A file whose header,
    entity rows or relation rows are short, or with bytes after them,
    raises :class:`EmbedError` naming the path and the part."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise EmbedError(f"{path}: bad magic {magic!r}")
        d, n_e, n_r = struct.unpack("<III", _read(fh, 12, path, "header"))
        ents = np.frombuffer(_read(fh, 4 * n_e * d, path, "entity rows"), dtype="<f4").reshape(n_e, d)
        rels = np.frombuffer(_read(fh, 4 * n_r * d, path, "relation rows"), dtype="<f4").reshape(n_r, d)
        extra = len(fh.read())
    if extra:
        raise EmbedError(f"{path}: {extra} trailing bytes after the relation rows")
    return EmbeddingTable(ents.astype(np.float64), rels.astype(np.float64))


def _read(fh, size: int, path: Path, part: str) -> bytes:
    data = fh.read(size)
    if len(data) < size:
        raise EmbedError(f"{path}: {part} short, {len(data)} of {size} bytes")
    return data
