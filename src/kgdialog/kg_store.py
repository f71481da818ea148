"""Immutable, indexed tuple store over (relation, subject, object) facts.

The store is built once from three tab-separated files (tuples, labels,
types) and never mutated afterwards, so concurrent readers need no locking.
Values derived from it (relation lookups, sorted type members, the
per-entity index, grouped counts, grouped provenance) are cached on the
store instance; readers racing on a cold key compute the same value twice,
which is harmless.  Entities, relations and types live in separate dense
integer id spaces assigned in label-file order.

The constructor turns the tuples into one ``(T, 3)`` int64 id array, sorted
in :class:`Tuple` order with repeats dropped, and the two relation indexes
are runs of it: the objects of each (relation, subject) pair are one
contiguous run of the sorted rows, and one more stable sort gives the
subject runs of each (relation, object) pair.  Each index keeps three
arrays (the distinct keys, where their runs start, the values); a lookup
finds its key's run by bisection on the key's first read, freezes it and
keeps the frozenset.  A tuple's dense id is its row in that array
(``KgStore.rows``), and a per-entity CSR over it is built on first use.
The rest of the store holds no Python container per entity or per key
either: labels resolve through one label -> id dict (plus a map of the few
labels that repeat), each distinct set of entity types is one shared
frozenset, and each type's members are one ascending tuple.  Nor does it
keep a Python object per tuple: the caller's ids are kept as given, in one
more array, and the set of :class:`Tuple` that the brute-force oracle
scans is built from them on its first read (``KgStore.tuples``).
Readers that gather many tuples, such as the entity linker and the memory
kernel, pass ``(N, 3)`` id rows around and show them as :class:`TupleRows`,
a sequence of :class:`Tuple` made only when an element is read.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path
from types import NoneType
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, TypeVar

import numpy as np

log = logging.getLogger(__name__)

ENTITY = "E"
RELATION = "R"
TYPE = "T"
_KINDS = (ENTITY, RELATION, TYPE)
_UNWRITABLE = "\t\r\n"  # each would break a labels.tsv line
_EMPTY: frozenset[int] = frozenset()


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
        # tuple.__new__ skips the Tuple constructor's argument handling
        return map(tuple.__new__, repeat(Tuple), zip(*self.ids.T.tolist()))

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
    """Tuple id rows plus lookup indices, entity types, and labels.

    Instances are created by :func:`load` (or internally by the filter
    operations) and treated as immutable afterwards.  ``tuples`` may be any
    iterable of tuples; a :class:`TupleRows` is taken as it is, without
    making a ``Tuple``.  ``rows`` holds each tuple once, read-only int64 in
    sorted :class:`Tuple` order (row ``i`` is dense id ``i``); every reader
    uses it but the brute-force oracle, which scans ``tuples``: the set of
    the caller's tuples, built on first read from their ids as given
    (unsorted, repeats included).  Tuple ids must lie within the label
    lists, relation and type labels are unique, and no label holds a tab,
    ``\\r`` or ``\\n`` (which :func:`save_dir` could not write); the
    constructor checks all three.  Entity labels may repeat.  Each instance
    owns a cache of values derived from it (see :meth:`derived`); a filtered
    store is a new instance and starts with an empty cache.
    """

    def __init__(
        self,
        tuples: Iterable[Tuple],
        entity_labels: list[str],
        relation_labels: list[str],
        type_labels: list[str],
        entity_types: dict[int, frozenset[int]],
    ):
        self._given_rows = TupleRows.of(tuples).ids
        self.entity_labels = list(entity_labels)
        self.relation_labels = list(relation_labels)
        self.type_labels = list(type_labels)
        for kind, labels in (
            ("entity", self.entity_labels),
            ("relation", self.relation_labels),
            ("type", self.type_labels),
        ):
            if _unwritable("".join(labels)):
                i = next(i for i, label in enumerate(labels) if _unwritable(label))
                raise KgError(f"{kind} label {i} holds a tab, '\\r' or '\\n': {labels[i]!r}")

        n = len(self.entity_labels)
        self.rows = _sorted_rows(self._given_rows, len(self.relation_labels), n)
        relation, subject, obj = self.rows.T
        self._objects = _RelationIndex(relation * n + subject, obj)
        key = relation * n + obj
        # stable, so each run's subjects stay ascending and the frozensets
        # made from them do not depend on the sort algorithm
        order = np.argsort(key, kind="stable")
        self._subjects = _RelationIndex(key[order], subject[order])

        self.entity_types, self._type_members = _type_index(entity_types)

        self._entity_id_by_label, self._entity_ids_by_repeated_label = _label_index(
            self.entity_labels
        )
        self._relation_id_by_label, repeated_relations = _label_index(self.relation_labels)
        self._type_id_by_label, repeated_types = _label_index(self.type_labels)
        for kind, repeated in (("relation", repeated_relations), ("type", repeated_types)):
            if repeated:
                raise KgError(f"duplicate {kind} label {next(iter(repeated))!r}")
        self._derived: dict[Hashable, object] = {}

    @cached_property
    def tuples(self) -> frozenset[Tuple]:
        """The caller's tuples as a set, the brute-force oracle's input; built
        on first read in one pass over the ids as given."""
        return frozenset(TupleRows(self._given_rows))

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
        ids = self._entity_ids_by_repeated_label.get(label)
        if ids:
            raise KgError(f"ambiguous entity label {label!r}: ids {ids}")
        try:
            return self._entity_id_by_label[label]
        except KeyError:
            raise UnknownIdError(f"unknown entity label {label!r}") from None

    def label_repeats(self, e: int) -> bool:
        """Whether another entity has the label of ``e``."""
        return self.entity_label(e) in self._entity_ids_by_repeated_label

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
        """Members of ``ty``, frozen on the type's first read and cached."""
        members = self.sorted_members(ty)
        return self.derived(("entities_of_type", ty), lambda: frozenset(members))

    def sorted_members(self, ty: int) -> tuple[int, ...]:
        """Members of ``ty`` in ascending id order."""
        self._check_type(ty)
        return self._type_members.get(ty, ())

    def tuples_containing(self, entity: int) -> frozenset[Tuple]:
        """The tuples containing ``entity``, read through :meth:`tuple_ids_containing`."""
        return frozenset(TupleRows(self.rows[self.tuple_ids_containing(entity)]))

    def tuple_ids_containing(self, entity: int) -> np.ndarray:
        """Dense ids of the tuples containing ``entity``, ascending (so in
        sorted ``Tuple`` order); a self-loop is listed once.  A read-only
        view into the per-entity index, built on the first call and cached."""
        self._check_entity(entity)
        starts, positions = self._entity_index()
        return positions[starts[entity] : starts[entity + 1]]

    def _entity_index(self) -> tuple[np.ndarray, np.ndarray]:
        return self.derived("entity_index", lambda: _build_entity_index(self.rows, self.n_entities))

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


def _unwritable(text: str) -> bool:
    return any(c in text for c in _UNWRITABLE)


def _label_index(labels: list[str]) -> tuple[dict[str, int], dict[str, list[int]]]:
    """Each label's id, and the ascending ids of each label that repeats (the
    first map keeps a repeated label's last id)."""
    ids = dict(zip(labels, range(len(labels))))
    repeated: dict[str, list[int]] = {}
    if len(ids) < len(labels):
        for i, label in enumerate(labels):
            if ids[label] != i or label in repeated:
                repeated.setdefault(label, []).append(i)
    return ids, repeated


def _type_index(
    entity_types: Mapping[int, frozenset[int]],
) -> tuple[dict[int, frozenset[int]], dict[int, tuple[int, ...]]]:
    """``entity_types`` in ascending entity order with one frozenset per
    distinct type set, and each type's members in ascending order."""
    interned: dict[frozenset[int], frozenset[int]] = {}
    types: dict[int, frozenset[int]] = {}
    members: dict[int, list[int]] = {}
    for e in sorted(entity_types):
        type_set = entity_types[e]
        types[e] = type_set = interned.setdefault(type_set, type_set)
        for ty in type_set:
            members.setdefault(ty, []).append(e)
    return types, {ty: tuple(ids) for ty, ids in members.items()}


def _sorted_rows(ids: np.ndarray, n_relations: int, n_entities: int) -> np.ndarray:
    """The distinct rows of the ``(N, 3)`` id array ``ids``, read-only, in
    sorted ``Tuple`` order.

    An id outside the label lists raises :class:`UnknownIdError` naming the
    first such tuple in sorted order, before anything is built.
    """
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
    first = np.ones(len(ids), bool)
    first[1:] = (ids[1:] != ids[:-1]).any(axis=1)
    if not first.all():
        ids = ids[first]
    ids.flags.writeable = False
    return ids


def _build_entity_index(rows: np.ndarray, n_entities: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only int64 CSR over ``rows``: entity ``e``'s tuple ids are
    ``positions[starts[e]:starts[e + 1]]``, ascending, a self-loop once."""
    ids = np.arange(len(rows))
    other = rows[:, 1] != rows[:, 2]
    ends = np.concatenate([rows[:, 1], rows[other, 2]])
    owners = np.concatenate([ids, ids[other]])
    positions = owners[np.lexsort((owners, ends))]
    starts = np.zeros(n_entities + 1, np.int64)
    np.cumsum(np.bincount(ends, minlength=n_entities), out=starts[1:])
    for array in (starts, positions):
        array.flags.writeable = False
    return starts, positions


class _RelationIndex(dict):
    """Objects by (relation, subject) key, or subjects by (relation, object)
    key: each key's values as a frozenset, made on the key's first read and
    kept.

    ``keys`` (non-decreasing) and ``values`` are two columns of the same id
    rows, so each distinct key spans one run of rows.  The index keeps three
    arrays: the distinct keys ascending (``heads``), where each run starts
    (``starts``, with the row count appended) and ``values``.  A first read
    finds its key's run by bisection.  A key with no rows reads as the empty
    set, which is kept as well: it is one shared frozenset, and a later read
    of the key is then a dict hit instead of another bisection.
    """

    __slots__ = ("heads", "starts", "values")

    def __init__(self, keys: np.ndarray, values: np.ndarray):
        super().__init__()
        first = np.ones(len(keys), bool)
        first[1:] = keys[1:] != keys[:-1]
        self.heads = keys[first]
        self.starts = np.append(np.flatnonzero(first), len(keys))
        self.values = values

    def __missing__(self, key: int) -> frozenset[int]:
        i = self.heads.searchsorted(key)
        if i < len(self.heads) and self.heads[i] == key:
            value = frozenset(self.values[self.starts[i] : self.starts[i + 1]].tolist())
        else:
            value = _EMPTY
        self[key] = value
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

    ids: list[int] = []  # (relation, subject, object) of each line, flat
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
        ids += r, s, o

    rows = TupleRows(np.array(ids, np.int64).reshape(-1, 3))
    del ids
    store = KgStore(
        rows,
        labels[ENTITY],
        labels[RELATION],
        labels[TYPE],
        {e: frozenset(ts) for e, ts in entity_types.items()},
    )
    duplicates = len(rows) - len(store.rows)
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
        for r, s, o in store.rows.tolist():
            fh.write(f"r{r}\te{s}\te{o}\n")


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
    allowed = np.zeros(store.n_relations, bool)
    allowed[np.fromiter(allowlist, np.int64, len(allowlist))] = True
    return _kept_rows(store, allowed[store.rows[:, 0]], store.entity_types)


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
    ends = Counter((store.types_of(s), store.types_of(o)) for _, s, o in store.rows.tolist())
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
    total = len(store.rows)
    k = covered = 0
    while total and k < len(ranked) and covered / total < coverage_fraction:
        k += 1
        covered += survive[k]
    retained = frozenset(ranked[:k])

    new_types = {e: kept for e, ts in store.entity_types.items() if (kept := ts & retained)}
    typed = np.array([e in new_types for e in range(store.n_entities)], bool)
    keep = typed[store.rows[:, 1]] & typed[store.rows[:, 2]]
    return _kept_rows(store, keep, new_types), retained


def _kept_rows(store: KgStore, keep: np.ndarray, entity_types: Mapping[int, frozenset[int]]) -> KgStore:
    """A store over the rows of ``store`` that the mask ``keep`` marks, with
    its id spaces and labels."""
    labels = store.entity_labels, store.relation_labels, store.type_labels
    return KgStore(TupleRows(store.rows[keep]), *labels, entity_types)


# -- statistics ---------------------------------------------------------------


def stats(store: KgStore) -> StoreStats:
    """Counts over the store, read from its indices; fanout is the number of
    tuples containing an entity."""
    fanouts = np.diff(store._entity_index()[0]).tolist()
    group_sizes = np.diff(store._objects.starts)
    return StoreStats(
        n_tuples=len(store.rows),
        n_entities=store.n_entities,
        n_relations=store.n_relations,
        n_entities_in_tuples=len(fanouts) - fanouts.count(0),
        fanout_histogram=dict(Counter(fanouts)),
        n_fanout_ge3=sum(1 for f in fanouts if f >= 3),
        n_one_one=int((group_sizes == 1).sum()),
        n_one_many=int(group_sizes[group_sizes > 1].sum()),
    )
