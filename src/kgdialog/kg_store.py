"""Immutable, indexed tuple store over (relation, subject, object) facts.

The store is built once from three tab-separated files (tuples, labels,
types) and never mutated afterwards, so concurrent readers need no locking.
Values derived from it (relation lookups, sorted type members, the
per-entity index, grouped counts, grouped provenance) are cached on the
store instance; readers racing on a cold key compute the same value twice,
which is harmless.  Entities, relations and types live in separate dense
integer id spaces assigned in label-file order.

The constructor turns the tuples into one ``(T, 3)`` int64 id array, sorted
in :class:`Tuple` order, and the two relation indexes are runs of it: the
objects of each (relation, subject) pair are one contiguous run of the
sorted rows, and one more stable sort gives the subject runs of each
(relation, object) pair.  A lookup freezes its run on the key's first read
and keeps the frozenset.  A tuple's dense id is its row in that array, and
the per-entity CSR over it (:class:`TupleIndex`) is built on first use.
Readers that gather many tuples, such as the entity linker and the memory
kernel, pass ``(N, 3)`` id rows around and show them as :class:`TupleRows`,
a sequence of :class:`Tuple` made only when an element is read.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from pathlib import Path
from types import NoneType
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, TypeVar

import numpy as np

log = logging.getLogger(__name__)

ENTITY = "E"
RELATION = "R"
TYPE = "T"
_KINDS = (ENTITY, RELATION, TYPE)


T = TypeVar("T")


class KgError(ValueError):
    """Base error for store construction and lookups."""


class LoadError(KgError):
    """Raised when an input file is malformed or references unknown ids."""


class UnknownIdError(KgError):
    """Raised when an operation receives an id the store has never seen."""


class Tuple(NamedTuple):
    relation: int
    subject: int
    object: int


class TupleRows(Sequence):
    """Read-only sequence of :class:`Tuple` over an ``(N, 3)`` int64 array
    of (relation, subject, object) rows, kept in ``ids``.

    Length and truth read the array only; a ``Tuple`` is made when an
    element is read.  It equals any sequence holding the same tuples in the
    same order, and ``rows + other`` appends one.
    """

    __slots__ = ("ids",)

    def __init__(self, ids: np.ndarray):
        self.ids = ids.view()
        self.ids.flags.writeable = False

    @classmethod
    def of(cls, tuples: Iterable[Tuple]) -> TupleRows:
        """The rows of ``tuples``; a ``TupleRows`` is returned as it is.  An
        id outside int64 raises :class:`UnknownIdError` naming its tuple."""
        if isinstance(tuples, TupleRows):
            return tuples
        tuples = tuple(tuples)
        try:
            ids = np.fromiter(chain.from_iterable(tuples), np.int64, 3 * len(tuples))
        except OverflowError:
            bad = next(t for t in tuples if not all(-(2**63) <= i < 2**63 for i in t))
            raise UnknownIdError(f"tuple {tuple(bad)} holds an id outside int64") from None
        return cls(ids.reshape(-1, 3))

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return TupleRows(self.ids[i])
        return Tuple(*self.ids[i].tolist())

    def __iter__(self):
        return map(Tuple, *self.ids.T.tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, TupleRows):
            return np.array_equal(self.ids, other.ids)
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and tuple(self) == tuple(other)

    __hash__ = None

    def __add__(self, other: Iterable[Tuple]) -> TupleRows:
        return TupleRows(np.concatenate([self.ids, TupleRows.of(other).ids]))

    def __repr__(self) -> str:
        return f"TupleRows({list(self)!r})"


@dataclass(frozen=True)
class TupleIndex:
    """Every tuple of a store once, by dense id.

    Row ``i`` of ``ids`` is the tuple with dense id ``i``: the ``i``-th in
    sorted :class:`Tuple` order.  The ids of the tuples containing entity
    ``e`` are ``positions[starts[e]:starts[e + 1]]``, ascending (a CSR
    index); a self-loop is listed once.  All three arrays are int64 and
    read-only.
    """

    ids: np.ndarray        # (T, 3)
    starts: np.ndarray     # (n_entities + 1,)
    positions: np.ndarray  # one entry per (tuple, distinct end)

    @classmethod
    def build(cls, ids: np.ndarray, n_entities: int) -> TupleIndex:
        """The index over ``ids``, read-only id rows already in sorted
        ``Tuple`` order (as :class:`KgStore` keeps them)."""
        rows = np.arange(len(ids))
        other = ids[:, 1] != ids[:, 2]
        ends = np.concatenate([ids[:, 1], ids[other, 2]])
        owners = np.concatenate([rows, rows[other]])
        positions = owners[np.lexsort((owners, ends))]
        starts = np.zeros(n_entities + 1, np.int64)
        np.cumsum(np.bincount(ends, minlength=n_entities), out=starts[1:])
        for array in (starts, positions):
            array.flags.writeable = False
        return cls(ids, starts, positions)


@dataclass(frozen=True)
class StoreStats:
    """Counts over a store; every field is re-derivable by brute force."""

    n_tuples: int
    n_entities: int
    n_relations: int
    n_entities_in_tuples: int
    fanout_histogram: Mapping[int, int]
    n_fanout_ge3: int
    n_one_one: int
    n_one_many: int


class KgStore:
    """Tuple set plus lookup indices, entity types, and labels.

    Instances are created by :func:`load` (or internally by the filter
    operations) and treated as immutable afterwards.  The one per-entity
    index is the CSR of :meth:`tuple_index`, built on first use.  Tuple ids
    must lie within the label lists, and relation and type labels are unique
    (the constructor checks both); entity labels may repeat.  Each instance
    owns a cache of values derived from it (see :meth:`derived`); a
    filtered store is a new instance and starts with an empty cache.
    """

    def __init__(
        self,
        tuples: Iterable[Tuple],
        entity_labels: list[str],
        relation_labels: list[str],
        type_labels: list[str],
        entity_types: dict[int, frozenset[int]],
    ):
        self.tuples: frozenset[Tuple] = frozenset(tuples)
        self.entity_labels = list(entity_labels)
        self.relation_labels = list(relation_labels)
        self.type_labels = list(type_labels)
        self.entity_types: dict[int, frozenset[int]] = dict(entity_types)

        n = len(self.entity_labels)
        self._rows = _sorted_rows(self.tuples, len(self.relation_labels), n)
        relation, subject, obj = self._rows.T
        self._objects = _RelationIndex(relation * n + subject, obj)
        key = relation * n + obj
        # stable, so each run's subjects stay ascending and the frozensets
        # made from them do not depend on the sort algorithm
        order = np.argsort(key, kind="stable")
        self._subjects = _RelationIndex(key[order], subject[order])

        members: dict[int, set[int]] = {}
        for e, types in self.entity_types.items():
            for ty in types:
                members.setdefault(ty, set()).add(e)
        self.type_members: dict[int, frozenset[int]] = {k: frozenset(v) for k, v in members.items()}

        self._entity_ids_by_label: dict[str, list[int]] = {}
        for i, lab in enumerate(self.entity_labels):
            self._entity_ids_by_label.setdefault(lab, []).append(i)
        self._relation_id_by_label = {lab: i for i, lab in enumerate(self.relation_labels)}
        self._type_id_by_label = {lab: i for i, lab in enumerate(self.type_labels)}
        for kind, labels, ids in (
            ("relation", self.relation_labels, self._relation_id_by_label),
            ("type", self.type_labels, self._type_id_by_label),
        ):
            if len(ids) < len(labels):
                repeated = next(lab for i, lab in enumerate(labels) if ids[lab] != i)
                raise KgError(f"duplicate {kind} label {repeated!r}")
        self._derived: dict[Hashable, object] = {}

    def derived(self, key: Hashable, compute: Callable[[], T]) -> T:
        """The value cached under ``key``, computed by ``compute()`` on first use.

        Valid because the store never changes after construction.  Callers
        share the cached object, so they must not mutate it: a function that
        hands a mutable value to its own callers returns a copy.  A failing
        ``compute`` caches nothing.
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = compute()
            return value

    # -- id/label resolution ------------------------------------------------

    @property
    def n_entities(self) -> int:
        return len(self.entity_labels)

    @property
    def n_relations(self) -> int:
        return len(self.relation_labels)

    @property
    def n_types(self) -> int:
        return len(self.type_labels)

    def entity_label(self, e: int) -> str:
        self._check_entity(e)
        return self.entity_labels[e]

    def relation_label(self, r: int) -> str:
        self._check_relation(r)
        return self.relation_labels[r]

    def type_label(self, ty: int) -> str:
        self._check_type(ty)
        return self.type_labels[ty]

    def entity_id(self, label: str) -> int:
        ids = self._entity_ids_by_label.get(label, [])
        if not ids:
            raise UnknownIdError(f"unknown entity label {label!r}")
        if len(ids) > 1:
            raise KgError(f"ambiguous entity label {label!r}: ids {ids}")
        return ids[0]

    def relation_id(self, label: str) -> int:
        try:
            return self._relation_id_by_label[label]
        except KeyError:
            raise UnknownIdError(f"unknown relation label {label!r}") from None

    def type_id(self, label: str) -> int:
        try:
            return self._type_id_by_label[label]
        except KeyError:
            raise UnknownIdError(f"unknown type label {label!r}") from None

    # -- lookups ------------------------------------------------------------

    def objects_of(self, relation: int, subject: int) -> frozenset[int]:
        """Objects o with (relation, subject, o) in the store."""
        self._check_relation(relation)
        self._check_entity(subject)
        return self._objects[relation * len(self.entity_labels) + subject]

    def subjects_of(self, relation: int, obj: int) -> frozenset[int]:
        """Subjects s with (relation, s, obj) in the store."""
        self._check_relation(relation)
        self._check_entity(obj)
        return self._subjects[relation * len(self.entity_labels) + obj]

    def entities_of_type(self, ty: int) -> frozenset[int]:
        self._check_type(ty)
        return self.type_members.get(ty, frozenset())

    def sorted_members(self, ty: int) -> tuple[int, ...]:
        """Members of ``ty`` in ascending id order, sorted once per store."""
        return self.derived(
            ("sorted_members", ty), lambda: tuple(sorted(self.entities_of_type(ty)))
        )

    def tuples_containing(self, entity: int) -> frozenset[Tuple]:
        """The tuples containing ``entity``, read from :meth:`tuple_index`."""
        positions = self.tuple_ids_containing(entity)
        return frozenset(TupleRows(self.tuple_index().ids[positions]))

    def tuple_index(self) -> TupleIndex:
        """Every tuple by dense id, built on first use and cached."""
        return self.derived("tuple_index", lambda: TupleIndex.build(self._rows, self.n_entities))

    def tuple_ids_containing(self, entity: int) -> np.ndarray:
        """Dense ids of the tuples containing ``entity``, ascending (so in
        sorted ``Tuple`` order): a read-only view into :meth:`tuple_index`."""
        self._check_entity(entity)
        index = self.tuple_index()
        return index.positions[index.starts[entity] : index.starts[entity + 1]]

    def types_of(self, entity: int) -> frozenset[int]:
        self._check_entity(entity)
        return self.entity_types.get(entity, frozenset())

    def has_type(self, entity: int, ty: int) -> bool:
        return ty in self.entity_types.get(entity, frozenset())

    def _check_entity(self, e: int) -> None:
        if not isinstance(e, int) or not 0 <= e < len(self.entity_labels):
            raise UnknownIdError(f"unknown entity id {e!r}")

    def _check_relation(self, r: int) -> None:
        if not isinstance(r, int) or not 0 <= r < len(self.relation_labels):
            raise UnknownIdError(f"unknown relation id {r!r}")

    def _check_type(self, ty: int) -> None:
        if not isinstance(ty, int) or not 0 <= ty < len(self.type_labels):
            raise UnknownIdError(f"unknown type id {ty!r}")


def _sorted_rows(tuples: Iterable[Tuple], n_relations: int, n_entities: int) -> np.ndarray:
    """The read-only ``(T, 3)`` id rows of ``tuples`` in sorted ``Tuple`` order.

    An id outside the label lists raises :class:`UnknownIdError` naming the
    first such tuple in sorted order, before anything is built.
    """
    ids = TupleRows.of(tuples).ids
    limits = (n_relations, n_entities, n_entities)
    bad = ((ids < 0) | (ids >= limits)).any(axis=1)
    if bad.any():
        first = min(map(tuple, ids[bad].tolist()))
        column = next(c for c in range(3) if not 0 <= first[c] < limits[c])
        kind = "relation" if column == 0 else "entity"
        raise UnknownIdError(f"tuple {first}: unknown {kind} id {first[column]}")
    # ranking the (relation, subject) keys keeps the sort key below T * n_entities
    _, group = np.unique(ids[:, 0] * n_entities + ids[:, 1], return_inverse=True)
    ids = ids[np.argsort(group * n_entities + ids[:, 2])]
    ids.flags.writeable = False
    return ids


class _RelationIndex(dict):
    """Objects by (relation, subject) key, or subjects by (relation, object)
    key: each key's values as a frozenset, made on the key's first read and
    kept.

    ``keys`` (non-decreasing) and ``values`` are two columns of the same id
    rows, so each distinct key spans one run of rows; ``runs`` holds the
    values of each run as a tuple.  A key with no rows reads as the empty
    set and is not kept.
    """

    __slots__ = ("runs",)

    def __init__(self, keys: np.ndarray, values: np.ndarray):
        super().__init__()
        heads = np.ones(len(keys), bool)
        heads[1:] = keys[1:] != keys[:-1]
        starts = np.flatnonzero(heads)
        lengths = np.diff(starts, append=len(keys)).tolist()
        column = iter(values.tolist())  # each run takes its length off the front
        self.runs = dict(zip(keys[starts].tolist(), map(tuple, map(islice, repeat(column), lengths))))

    def __missing__(self, key: int) -> frozenset[int]:
        run = self.runs.get(key)
        if run is None:
            return frozenset()
        value = self[key] = frozenset(run)
        return value


# -- loading ----------------------------------------------------------------


def load(tuple_file: str | Path, label_file: str | Path, type_file: str | Path) -> KgStore:
    """Build a store from the three tab-separated input files.

    labels.tsv lines are ``file_id<TAB>kind<TAB>label`` with kind one of
    E/R/T; dense ids are assigned per kind in file order.  Relation and type
    labels must be unique; entity labels may repeat.  tuples.tsv lines are
    ``rel<TAB>subj<TAB>obj`` and types.tsv lines ``entity<TAB>type``, both
    referring to label-file ids.  Malformed lines and repeated relation or
    type labels raise :class:`LoadError` with the line number; dangling
    references raise :class:`LoadError` naming the id.  Duplicate tuples
    are dropped (a count is logged).
    """
    file_ids: dict[str, dict[str, int]] = {ENTITY: {}, RELATION: {}, TYPE: {}}
    labels: dict[str, list[str]] = {ENTITY: [], RELATION: [], TYPE: []}
    label_lines: dict[tuple[str, str], int] = {}  # relation and type labels

    for lineno, parts in read_tsv(label_file, 3):
        fid, kind, label = parts
        if kind not in _KINDS:
            raise LoadError(f"{label_file}:{lineno}: bad kind {kind!r} (expected E, R or T)")
        if fid in file_ids[kind]:
            raise LoadError(f"{label_file}:{lineno}: duplicate {kind} id {fid!r}")
        if kind != ENTITY:
            first = label_lines.setdefault((kind, label), lineno)
            if first != lineno:
                raise LoadError(
                    f"{label_file}:{lineno}: duplicate {kind} label {label!r}"
                    f" (first at line {first})"
                )
        file_ids[kind][fid] = len(labels[kind])
        labels[kind].append(label)

    entity_types: dict[int, set[int]] = {}
    for lineno, parts in read_tsv(type_file, 2):
        efid, tfid = parts
        e = _resolve(file_ids[ENTITY], efid, "entity", type_file, lineno)
        ty = _resolve(file_ids[TYPE], tfid, "type", type_file, lineno)
        entity_types.setdefault(e, set()).add(ty)

    tuples: list[Tuple] = []
    for lineno, parts in read_tsv(tuple_file, 3):
        rfid, sfid, ofid = parts
        r = _resolve(file_ids[RELATION], rfid, "relation", tuple_file, lineno)
        s = _resolve(file_ids[ENTITY], sfid, "entity", tuple_file, lineno)
        o = _resolve(file_ids[ENTITY], ofid, "entity", tuple_file, lineno)
        for fid, e in ((sfid, s), (ofid, o)):
            if e not in entity_types:
                raise LoadError(
                    f"{tuple_file}:{lineno}: entity {fid!r} has no type assignment"
                )
        tuples.append(Tuple(r, s, o))

    store = KgStore(
        tuples,
        labels[ENTITY],
        labels[RELATION],
        labels[TYPE],
        {e: frozenset(ts) for e, ts in entity_types.items()},
    )
    duplicates = len(tuples) - len(store.tuples)
    if duplicates:
        log.info("dropped %d duplicate tuples from %s", duplicates, tuple_file)
    return store


def load_dir(directory: str | Path) -> KgStore:
    """Load a store from a directory holding tuples.tsv/labels.tsv/types.tsv."""
    d = Path(directory)
    return load(d / "tuples.tsv", d / "labels.tsv", d / "types.tsv")


def save_dir(store: KgStore, directory: str | Path) -> None:
    """Write a store back to the three-file format (dense ids become the
    file ids, prefixed per kind)."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    with open(d / "labels.tsv", "w", encoding="utf-8") as fh:
        for i, label in enumerate(store.relation_labels):
            fh.write(f"r{i}\t{RELATION}\t{label}\n")
        for i, label in enumerate(store.entity_labels):
            fh.write(f"e{i}\t{ENTITY}\t{label}\n")
        for i, label in enumerate(store.type_labels):
            fh.write(f"t{i}\t{TYPE}\t{label}\n")
    with open(d / "types.tsv", "w", encoding="utf-8") as fh:
        for e in sorted(store.entity_types):
            for ty in sorted(store.entity_types[e]):
                fh.write(f"e{e}\tt{ty}\n")
    with open(d / "tuples.tsv", "w", encoding="utf-8") as fh:
        for t in sorted(store.tuples):
            fh.write(f"r{t.relation}\te{t.subject}\te{t.object}\n")


def read_tsv(path: str | Path, width: int):
    """``(line number, fields)`` of each non-blank line of a tab-separated
    file; a line without exactly ``width`` fields is a :class:`LoadError`."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != width:
                raise LoadError(
                    f"{path}:{lineno}: expected {width} tab-separated fields, got {len(parts)}"
                )
            yield lineno, parts


def read_json_lines(
    path: str | Path, build: Callable[[dict, int], T], error: type[ValueError]
) -> list[T]:
    """``build(record, line number)`` of each non-blank line of a json-lines
    file, in file order.  A line that is not a json object, whose record
    lacks a field ``build`` reads, or that ``build`` rejects with a
    ``TypeError`` or ``ValueError`` raises ``error`` naming ``path:line``."""
    out: list[T] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise error(f"{where}: bad json ({exc})") from None
            if not isinstance(record, dict):
                raise error(f"{where}: expected a json object")
            try:
                out.append(build(record, lineno))
            except KeyError as exc:
                raise error(f"{where}: missing field {exc}") from None
            except (TypeError, ValueError) as exc:
                raise error(f"{where}: {exc}") from None
    return out


def write_json(path: str | Path, payload: dict) -> None:
    """Indented json with sorted keys (equal payloads, equal bytes); makes the directory."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, ensure_ascii=False)
        fh.write("\n")


def json_field(record: dict, name: str, *kinds: type):
    """``record[name]``, which must be an instance of one of ``kinds``
    (``NoneType`` allows null); otherwise a ``TypeError`` naming the field."""
    value = record[name]
    if not isinstance(value, kinds):
        expected = " or ".join("null" if k is NoneType else k.__name__ for k in kinds)
        raise TypeError(f"field {name!r} must be {expected}, got {type(value).__name__}")
    return value


def _resolve(index: dict[str, int], fid: str, kind: str, path, lineno: int) -> int:
    try:
        return index[fid]
    except KeyError:
        raise LoadError(f"{path}:{lineno}: unknown {kind} id {fid!r}") from None


# -- filtering --------------------------------------------------------------


def filter_relations(store: KgStore, allowlist: set[int]) -> KgStore:
    """Keep exactly the tuples whose relation is in ``allowlist``.

    Id spaces and labels are preserved so plans remain valid across the
    filter.  An allowlist entry outside the known relations is an error.
    """
    for r in allowlist:
        store._check_relation(r)
    kept = [t for t in store.tuples if t.relation in allowlist]
    return KgStore(
        kept,
        store.entity_labels,
        store.relation_labels,
        store.type_labels,
        store.entity_types,
    )


def filter_types(store: KgStore, coverage_fraction: float) -> tuple[KgStore, frozenset[int]]:
    """Retain the most-participating types covering the requested tuple share.

    Types are ranked by the number of tuples any member participates in;
    the smallest prefix of that ranking whose surviving tuples (those whose
    subject and object both keep at least one type) reach
    ``coverage_fraction`` of the tuple count is retained.  Entities keep
    only retained types; tuples whose subject or object loses all types
    are dropped.
    """
    if not 0.0 <= coverage_fraction <= 1.0:
        raise KgError(f"coverage_fraction must be in [0, 1], got {coverage_fraction}")

    # one pass: tuples counted by the type sets of their two ends
    ends = Counter((store.types_of(t.subject), store.types_of(t.object)) for t in store.tuples)
    participation = dict.fromkeys(range(store.n_types), 0)
    for (subject_types, object_types), n in ends.items():
        for ty in subject_types | object_types:
            participation[ty] += n

    ranked = sorted(participation, key=lambda ty: (-participation[ty], ty))
    position = {ty: i for i, ty in enumerate(ranked, start=1)}
    # survive[k]: tuples that survive once the first k ranked types are kept,
    # but not the first k - 1
    survive = [0] * (len(ranked) + 1)
    for (subject_types, object_types), n in ends.items():
        if subject_types and object_types:
            first = min(map(position.get, subject_types)), min(map(position.get, object_types))
            survive[max(first)] += n
    total = len(store.tuples)
    k = covered = 0
    while total and k < len(ranked) and covered / total < coverage_fraction:
        k += 1
        covered += survive[k]
    retained = frozenset(ranked[:k])

    new_types = {e: kept for e, ts in store.entity_types.items() if (kept := ts & retained)}
    tuples = [t for t in store.tuples if t.subject in new_types and t.object in new_types]
    filtered = KgStore(
        tuples, store.entity_labels, store.relation_labels, store.type_labels, new_types
    )
    return filtered, retained


# -- statistics ---------------------------------------------------------------


def stats(store: KgStore) -> StoreStats:
    """Counts over the store, read from its indices; fanout is the number of
    tuples containing an entity."""
    fanouts = np.diff(store.tuple_index().starts).tolist()
    group_sizes = list(map(len, store._objects.runs.values()))
    return StoreStats(
        n_tuples=len(store.tuples),
        n_entities=store.n_entities,
        n_relations=store.n_relations,
        n_entities_in_tuples=len(fanouts) - fanouts.count(0),
        fanout_histogram=dict(Counter(fanouts)),
        n_fanout_ge3=sum(1 for f in fanouts if f >= 3),
        n_one_one=group_sizes.count(1),
        n_one_many=sum(n for n in group_sizes if n > 1),
    )
