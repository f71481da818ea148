"""Executable query plans over a tuple store.

A plan is a small immutable tree: set expressions (typed lookups combined
with union/intersection/difference) wrapped in one of the plan kinds
(retrieve, verify, count, arg-min/max, threshold filters, comparatives and
their counting variants).  A plan answers with an entity set, a count, or
one boolean per fact (``Verify``); ``Count`` over a root ``TypeUnion``
gives one count per branch type.  There is one evaluator with two ways of
reaching tuples: ``execute`` reaches them through the store indices and its
per-store caches, never through the raw tuple set, while
``brute_force_execute`` scans the raw tuple set and raw type assignments,
touching no index, and serves as the oracle in equivalence tests.  Both
share validation, the set-expression recursion and the grouped
post-processing.

A grouped plan keeps the members of its group whose count lies in one
inclusive interval.  ``execute`` reads them off the group's count table: the
members sorted by (count, id) with their counts as a parallel tuple, built
once per store, group and ``include_zero`` and kept in ``KgStore.derived``.
An interval's members are the slice between two bisections, so a grouped
answer's size (``answer_size``) is known without building it.  The oracle
scans its own {member: count} dict instead.

The node table ``NODES`` gives each plan class's node name and field kinds;
plan text, validation and every node's walk (``plan_atoms``, kept as the
node is built) read it and name no field by hand.  ``COUNTING`` pairs each
entity-answer class with its counting twin.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from math import inf
from operator import and_, attrgetter, or_, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Union as TUnion, get_args

import numpy as np

from .kg_store import KgStore, Tuple

OBJ = "obj"
SUBJ = "subj"
DIRECTIONS = (OBJ, SUBJ)

COMPARATORS = ("atleast", "atmost", "equal", "approx")
OPT_DIRECTIONS = ("min", "max")
CMP_DIRECTIONS = ("more", "less")

BRUTE_FORCE_GUARD = 100_000


class PlanError(ValueError):
    """Malformed or type-incompatible plan."""


class PlanNode:
    """Base of the plan classes.  Its slots keep the node's walk, recorded
    when it is built from its own atoms and its children's walks, and, on a
    plan's root, the store the whole plan last passed ``_validate_plan``
    against; a dict entry would slow every attribute read."""

    __slots__ = ("_walked", "_valid_for")

    def __post_init__(self):
        row = NODES[type(self)]
        if row.atoms is not None:
            _set_walked(self, (row.kinds, row.atoms(self), ()))
            return
        kinds, values, nodes = (), (), ()
        for name, kind, accepts, many in row.fields:
            value = getattr(self, name)
            if many and not value:
                raise PlanError(f"{row.name} needs at least one entry in {name!r}")
            if kind == "node":
                for child in value if many else (value,):
                    if type(child) not in accepts:
                        raise PlanError(f"{row.name} cannot hold {type(child).__name__} in {name!r}")
                    child_kinds, child_values, below = child._walked
                    kinds += child_kinds
                    values += child_values
                    nodes += (child, *below)
            elif kind == "fact":
                for fact in value:
                    if len(fact) != 3:
                        raise PlanError(f"{row.name} needs (relation, subject, object) facts in {name!r}")
                    kinds += FACT_KINDS
                    values += fact
            else:
                items = value if many else (value,)
                kinds += (kind,) * len(items)
                values += items
        _set_walked(self, (kinds, values, nodes))


_set_walked = PlanNode._walked.__set__  # the slot's own setter, past a frozen class's __setattr__


# -- set expressions ----------------------------------------------------------


@dataclass(frozen=True)
class Lookup(PlanNode):
    """Entities in ``result_type`` reachable from ``anchor`` over ``relation``.

    ``direction`` names the side of the tuple the result comes from: "obj"
    anchors the subject and returns objects, "subj" the reverse.
    """

    direction: str
    relation: int
    anchor: int
    result_type: int


@dataclass(frozen=True)
class Union(PlanNode):
    a: "SetExpr"
    b: "SetExpr"


@dataclass(frozen=True)
class Intersection(PlanNode):
    a: "SetExpr"
    b: "SetExpr"


@dataclass(frozen=True)
class Difference(PlanNode):
    a: "SetExpr"
    b: "SetExpr"


@dataclass(frozen=True)
class TypeUnion(PlanNode):
    """Lookups sharing one anchor but differing in result type."""

    branches: tuple[Lookup, ...]


SetExpr = TUnion[Lookup, Union, Intersection, Difference, TypeUnion]


# -- grouped counting ----------------------------------------------------------


@dataclass(frozen=True)
class Counted(PlanNode):
    """One counted leg of a group: entities of ``counted_type`` reached
    from the group member over ``relation`` in ``direction``."""

    relation: int
    direction: str
    counted_type: int


@dataclass(frozen=True)
class GroupSpec(PlanNode):
    group_type: int
    counted: tuple[Counted, ...]


# -- plans ---------------------------------------------------------------------


@dataclass(frozen=True)
class Retrieve(PlanNode):
    expr: SetExpr


@dataclass(frozen=True)
class Verify(PlanNode):
    facts: tuple[Tuple, ...]


@dataclass(frozen=True)
class Count(PlanNode):
    expr: SetExpr


@dataclass(frozen=True)
class ArgOpt(PlanNode):
    group: GroupSpec
    direction: str  # min | max


@dataclass(frozen=True)
class ThresholdFilter(PlanNode):
    group: GroupSpec
    comparator: str  # atleast | atmost | equal | approx
    n: int


@dataclass(frozen=True)
class CountOverThreshold(PlanNode):
    group: GroupSpec
    comparator: str
    n: int


@dataclass(frozen=True)
class Comparative(PlanNode):
    group: GroupSpec
    reference: int
    direction: str  # more | less


@dataclass(frozen=True)
class CountOverComparative(PlanNode):
    group: GroupSpec
    reference: int
    direction: str


QueryPlan = TUnion[
    Retrieve,
    Verify,
    Count,
    ArgOpt,
    ThresholdFilter,
    CountOverThreshold,
    Comparative,
    CountOverComparative,
]
PLAN_CLASSES: tuple[type, ...] = get_args(QueryPlan)
SET_EXPRS: tuple[type, ...] = get_args(SetExpr)


# -- the plan-node table ---------------------------------------------------------
#
# One row per plan class: its node name in plan text, then the kind of each
# dataclass field, in field order: an atom kind (a keyword kind of KEYWORDS,
# "number", "relation", "entity" or "type"), "fact" (a relation, subject,
# object triple) or the classes a subtree may be; a kind in a one-element
# list is a non-empty tuple of that kind.  Nothing else declares a plan's
# shape.

KEYWORDS: dict[str, tuple[str, ...]] = {
    "direction": DIRECTIONS,
    "comparator": COMPARATORS,
    "optimum": OPT_DIRECTIONS,
    "comparison": CMP_DIRECTIONS,
}
FACT_KINDS = ("relation", "entity", "entity")


class Field(NamedTuple):
    name: str  # the dataclass field
    kind: str  # an atom kind, "fact" or "node"
    accepts: tuple[type, ...] = ()  # the classes a "node" field may hold
    many: bool = False  # a non-empty tuple of such values


class Row(NamedTuple):
    name: str  # the node name in plan text
    fields: tuple[Field, ...]  # in dataclass field order
    kinds: tuple[str, ...]  # the fields' kinds
    atoms: Callable | None  # node -> its field values, when all are single atoms


def _node_table(*rows) -> dict[type, Row]:
    table = {}
    for cls, name, *kinds in rows:
        fs = []
        for f, kind in zip(fields(cls), kinds, strict=True):
            many = isinstance(kind, list)
            kind = kind[0] if many else kind
            node = not isinstance(kind, str)
            fs.append(Field(f.name, "node" if node else kind, kind if node else (), many))
        leaf = len(fs) > 1 and all(f.kind not in ("node", "fact") and not f.many for f in fs)
        getter = attrgetter(*(f.name for f in fs)) if leaf else None
        table[cls] = Row(name, tuple(fs), tuple(f.kind for f in fs), getter)
    return table


NODES: dict[type, Row] = _node_table(
    (Lookup, "Lookup", "direction", "relation", "entity", "type"),
    (Union, "Union", SET_EXPRS, SET_EXPRS),
    (Intersection, "Intersection", SET_EXPRS, SET_EXPRS),
    (Difference, "Difference", SET_EXPRS, SET_EXPRS),
    (TypeUnion, "TypeUnion", [(Lookup,)]),
    (Counted, "By", "relation", "direction", "type"),
    (GroupSpec, "Group", "type", [(Counted,)]),
    (Retrieve, "Retrieve", SET_EXPRS),
    (Verify, "Verify", ["fact"]),
    (Count, "Count", SET_EXPRS),
    (ArgOpt, "ArgOpt", (GroupSpec,), "optimum"),
    (ThresholdFilter, "ThresholdFilter", (GroupSpec,), "comparator", "number"),
    (CountOverThreshold, "CountOverThreshold", (GroupSpec,), "comparator", "number"),
    (Comparative, "Comparative", (GroupSpec,), "entity", "comparison"),
    (CountOverComparative, "CountOverComparative", (GroupSpec,), "entity", "comparison"),
)

# Each entity-answer plan class and its counting twin: the twin has the same
# fields and answers with the number of members the class would return.
COUNTING: dict[type, type] = {
    Retrieve: Count,
    ThresholdFilter: CountOverThreshold,
    Comparative: CountOverComparative,
}


def check_word(kind: str, value) -> None:
    """A keyword must be a word of its kind's vocabulary, a number an int >= 0."""
    if kind in KEYWORDS:
        if value not in KEYWORDS[kind]:
            raise PlanError(f"unknown {kind} {value!r}, expected one of {', '.join(KEYWORDS[kind])}")
    elif kind == "number" and (isinstance(value, bool) or not isinstance(value, int) or value < 0):
        raise PlanError(f"expected a number >= 0, got {value!r}")


# -- answers -------------------------------------------------------------------


@dataclass(frozen=True)
class Entities:
    members: frozenset[int]


@dataclass(frozen=True)
class Counts:
    # (type id or None, count) per counted piece
    counts: tuple[tuple[int | None, int], ...]


@dataclass(frozen=True)
class Booleans:
    values: tuple[bool, ...]


AnswerSet = TUnion[Entities, Counts, Booleans]


def approx_window(n: int) -> tuple[int, int]:
    """Inclusive count interval for "approximately n": n +- max(1, round(0.1 n)),
    clamped at zero."""
    if n < 0:
        raise PlanError(f"approx window needs n >= 0, got {n}")
    delta = max(1, round(0.1 * n))
    return max(0, n - delta), n + delta


def _count_window(comparator: str, n: int) -> tuple[int, float]:
    """The inclusive interval of counts that a validated ``comparator`` keeps
    against ``n``."""
    if comparator == "approx":
        return approx_window(n)
    return {"atleast": (n, inf), "atmost": (0, n), "equal": (n, n)}[comparator]


# -- validation shared by both entry points ---------------------------------------

_ID_CHECKS = {kind: getattr(KgStore, f"_check_{kind}") for kind in ("relation", "entity", "type")}


def _validate_plan(store: KgStore, plan: QueryPlan, partial: bool = False) -> None:
    """Check a plan against the node table, the store's ids and the type
    rules; with ``partial``, a None atom (a slot bound later) passes.  A
    whole plan that passes keeps the store on its root, for
    ``_validate_once``."""
    if type(plan) not in PLAN_CLASSES:
        raise PlanError(f"unknown plan kind {type(plan).__name__}")
    for kind, value in plan_atoms(plan):
        if value is None and partial:
            continue
        check = _ID_CHECKS.get(kind)
        if check is not None:
            check(store, value)
        else:
            check_word(kind, value)
    if isinstance(plan, (Retrieve, Count)):
        _result_types(plan.expr, store)
    if not partial:
        object.__setattr__(plan, "_valid_for", store)


def _validate_once(store: KgStore, plan: QueryPlan) -> None:
    """``_validate_plan``, unless the plan already passed it against this
    very store (the plan classes are frozen, and so is a store)."""
    if getattr(plan, "_valid_for", None) is not store:
        _validate_plan(store, plan)


def _result_types(expr: SetExpr, store: KgStore) -> frozenset:
    """The result types of a set expression, once its type rules hold (a rule
    that reads a None, an id not bound yet, passes); an error names the
    store's type labels."""
    if type(expr) is Lookup:
        return frozenset((expr.result_type,))
    if type(expr) is TypeUnion:
        if len({b.anchor for b in expr.branches} - {None}) > 1:
            raise PlanError("TypeUnion branches must share one anchor")
        types = [b.result_type for b in expr.branches if b.result_type is not None]
        if len(set(types)) < len(types):
            raise PlanError("TypeUnion branches must differ in result type")
        return frozenset(b.result_type for b in expr.branches)
    ta, tb = _result_types(expr.a, store), _result_types(expr.b, store)
    if ta != tb and None not in ta | tb:
        a, b = ([store.type_label(ty) for ty in sorted(types)] for types in (ta, tb))
        raise PlanError(f"type-incompatible branches: {a} vs {b}")
    return ta


# -- evaluation ------------------------------------------------------------------
#
# One evaluator serves both entry points.  It reaches tuples only through
# three functions, each taking the store first:
#   reach(store, relation, direction, anchor, type) -> entities of ``type``
#       reached from ``anchor`` over ``relation`` in ``direction``;
#   holds(store, fact) -> whether the fact is a store tuple;
#   counts_of(store, group, include_zero) -> the group's counts, as a table
#       with ``extreme(direction)`` and ``window(lo, hi)``.
# ``execute`` passes index-backed ones and the cached count table;
# ``brute_force_execute`` passes scans of the raw tuple set and the raw
# entity->types mapping, which touch no index and no cached value.


def execute(store: KgStore, plan: QueryPlan, include_zero_groups: bool = True) -> AnswerSet:
    """Evaluate a plan against the store indices.

    Deterministic; entity answers are sets with no order contract.  When
    ``include_zero_groups`` is true (the default), entities of the group
    type with no counted tuples participate in grouped plans with count 0.
    """
    _validate_once(store, plan)
    return _evaluate(store, plan, _indexed_reach, _indexed_holds, _count_table, include_zero_groups)


def brute_force_execute(
    store: KgStore, plan: QueryPlan, include_zero_groups: bool = True
) -> AnswerSet:
    """Index-free reference evaluation; guards against oversized stores."""
    # counted on the ids the raw set is built from, so a refused store never
    # builds it; distinct rows are counted only when a repeat could matter
    given = store._given_rows
    n = len(given) if len(given) <= BRUTE_FORCE_GUARD else len(np.unique(given, axis=0))
    if n > BRUTE_FORCE_GUARD:
        raise PlanError(f"brute force guard: {n} tuples > {BRUTE_FORCE_GUARD}")
    _validate_plan(store, plan)
    return _evaluate(store, plan, _scan_reach, _scan_holds, _scan_group_counts, include_zero_groups)


def answer_size(store: KgStore, plan: QueryPlan, include_zero_groups: bool = True) -> int:
    """How many members a grouped plan answers with (the count its counting
    twin gives), from two bisections of the group's count table, without
    building the members."""
    _validate_once(store, plan)
    if type(plan) in (Retrieve, Count, Verify):
        raise PlanError(f"{type(plan).__name__} is not a grouped plan")
    table = _count_table(store, plan.group, include_zero_groups)
    return table.size(*_interval(store, plan, table, _indexed_reach))


def _evaluate(store, plan, reach, holds, counts_of, include_zero_groups) -> AnswerSet:
    """Each plan kind computes its members; a counting kind answers with
    their number, every other kind with the members."""
    kind = type(plan)
    if kind is Verify:
        return Booleans(tuple(holds(store, f) for f in plan.facts))
    if kind is Count and type(plan.expr) is TypeUnion:  # one count per branch type
        branches = plan.expr.branches
        return Counts(tuple((b.result_type, len(_eval_expr(store, b, reach))) for b in branches))
    if kind in (Retrieve, Count):
        members = _eval_expr(store, plan.expr, reach)
    else:
        table = counts_of(store, plan.group, include_zero_groups)
        members = table.window(*_interval(store, plan, table, reach))
    if kind in COUNTING.values():
        return Counts(((None, len(members)),))
    return Entities(frozenset(members))


def _interval(store: KgStore, plan: QueryPlan, table, reach) -> tuple:
    """The inclusive interval of counts whose group members a grouped plan
    keeps."""
    kind = type(plan)
    if kind is ArgOpt:
        # an empty group has no extreme; (None, None) keeps nothing of it
        best = table.extreme(plan.direction)
        return best, best
    if kind in (ThresholdFilter, CountOverThreshold):
        return _count_window(plan.comparator, plan.n)
    # the reference's count, over the group's legs even when it is not of
    # the group type; the strict bounds leave the reference out
    ref = entity_group_count(store, plan.group, plan.reference, reach)
    return (ref + 1, inf) if plan.direction == "more" else (0, ref - 1)


_SET_OPS = {Union: or_, Intersection: and_, Difference: sub}


def _eval_expr(store: KgStore, expr: SetExpr, reach) -> set[int]:
    """Members of a set expression."""
    if type(expr) is Lookup:
        return reach(store, expr.relation, expr.direction, expr.anchor, expr.result_type)
    if type(expr) is TypeUnion:
        return set().union(*(_eval_expr(store, b, reach) for b in expr.branches))
    return _SET_OPS[type(expr)](_eval_expr(store, expr.a, reach), _eval_expr(store, expr.b, reach))


def _indexed_reach(store: KgStore, relation: int, direction: str, anchor: int, ty: int) -> set[int]:
    base = (
        store.objects_of(relation, anchor)
        if direction == OBJ
        else store.subjects_of(relation, anchor)
    )
    return {e for e in base if store.has_type(e, ty)}


def _indexed_holds(store: KgStore, fact: Tuple) -> bool:
    relation, subject, obj = fact
    return obj in store.objects_of(relation, subject)


def _scan_reach(store: KgStore, relation: int, direction: str, anchor: int, ty: int) -> set[int]:
    etypes = store.entity_types
    at, to = (1, 2) if direction == OBJ else (2, 1)
    return {
        t[to]
        for t in store.tuples
        if t.relation == relation and t[at] == anchor and ty in etypes.get(t[to], ())
    }


def _scan_holds(store: KgStore, fact: Tuple) -> bool:
    return any(t == fact for t in store.tuples)


class _ScannedCounts(dict):
    """The oracle's group counts, {member: count}; it answers each question
    with a scan."""

    def extreme(self, direction: str) -> int | None:
        return (max if direction == "max" else min)(self.values(), default=None)

    def window(self, lo, hi) -> set[int]:
        return {g for g, c in self.items() if lo <= c <= hi}


def _scan_group_counts(store: KgStore, group: GroupSpec, include_zero: bool) -> _ScannedCounts:
    counts = _ScannedCounts()
    for g in sorted(e for e, ts in store.entity_types.items() if group.group_type in ts):
        n = entity_group_count(store, group, g, _scan_reach)
        if n or include_zero:
            counts[g] = n
    return counts


def entity_group_count(store: KgStore, group: GroupSpec, g: int, reach=_indexed_reach) -> int:
    """Distinct counted entities reached from one entity over the group's legs."""
    reached: set[int] = set()
    for c in group.counted:
        reached |= reach(store, c.relation, c.direction, g, c.counted_type)
    return len(reached)


class CountTable(NamedTuple):
    """A group's members sorted by (count, id), and their counts in a
    parallel, ascending tuple.  The members whose count lies in an interval
    are the slice between two bisections of ``counts``."""

    members: tuple[int, ...]
    counts: tuple[int, ...]

    def extreme(self, direction: str) -> int | None:
        """The largest count for "max", the smallest for "min"; None when
        the table is empty."""
        if not self.counts:
            return None
        return self.counts[-1] if direction == "max" else self.counts[0]

    def window(self, lo, hi) -> tuple[int, ...]:
        """The members whose count lies in ``[lo, hi]``."""
        return self.members[bisect_left(self.counts, lo) : bisect_right(self.counts, hi)]

    def size(self, lo, hi) -> int:
        """How many members have a count in ``[lo, hi]``."""
        return max(0, bisect_right(self.counts, hi) - bisect_left(self.counts, lo))


def _count_table(store: KgStore, group: GroupSpec, include_zero: bool) -> CountTable:
    """The group's count table, built once per store, group and
    ``include_zero``; without the zeros it is a suffix of the full table."""

    def build() -> CountTable:
        if not include_zero:
            full = _count_table(store, group, True)
            start = bisect_right(full.counts, 0)
            return CountTable(full.members[start:], full.counts[start:])
        pairs = sorted((entity_group_count(store, group, g), g) for g in store.sorted_members(group.group_type))
        return CountTable(tuple(g for _, g in pairs), tuple(n for n, _ in pairs))

    return store.derived(("count_table", group, bool(include_zero)), build)


def group_counts(store: KgStore, group: GroupSpec, include_zero: bool = True) -> dict[int, int]:
    """Distinct counted entities reached from each member of the group type,
    in member id order.

    Legs are unioned before counting, so an entity reachable over two legs
    counts once.  Read from the group's count table, built once per store,
    group and ``include_zero``; each call returns a fresh dict.
    """
    table = _count_table(store, group, include_zero)
    return dict(sorted(zip(table.members, table.counts)))


# -- provenance --------------------------------------------------------------------


def plan_tuples(store: KgStore, plan: QueryPlan) -> frozenset[Tuple]:
    """Store tuples the plan's answer depends on.

    Grouped plans depend on every counted tuple of every group member (the
    answer changes if any of them changes), so their provenance spans the
    whole group, plus a comparative reference's own counted tuples.  The
    group's part is computed once per store and group.
    """
    _validate_once(store, plan)
    if isinstance(plan, (Retrieve, Count)):
        out: set[Tuple] = set()
        for lk in plan_lookups(plan):
            out |= _reach_tuples(store, lk.relation, lk.direction, lk.anchor, lk.result_type)
        return frozenset(out)
    if isinstance(plan, Verify):
        return frozenset(f for f in plan.facts if _indexed_holds(store, f))

    group = plan.group
    tuples = store.derived(
        ("group_tuples", group),
        lambda: _group_tuples(store, group, store.entities_of_type(group.group_type)),
    )
    if isinstance(plan, (Comparative, CountOverComparative)) and not store.has_type(
        plan.reference, group.group_type
    ):
        return tuples | _group_tuples(store, group, (plan.reference,))
    return tuples


def _group_tuples(store: KgStore, group: GroupSpec, members: Iterable[int]) -> frozenset[Tuple]:
    """Counted tuples of the given group members."""
    out: set[Tuple] = set()
    for g in members:
        for c in group.counted:
            out |= _reach_tuples(store, c.relation, c.direction, g, c.counted_type)
    return frozenset(out)


def _reach_tuples(store: KgStore, relation: int, direction: str, anchor: int, ty: int) -> set[Tuple]:
    """The tuples behind ``_indexed_reach`` with the same arguments."""
    reached = _indexed_reach(store, relation, direction, anchor, ty)
    if direction == OBJ:
        return {Tuple(relation, anchor, e) for e in reached}
    return {Tuple(relation, e, anchor) for e in reached}


# -- plan walkers -----------------------------------------------------------------


def _walk_of(node) -> tuple[tuple, tuple, tuple]:
    try:
        return node._walked
    except AttributeError:
        raise PlanError(f"unknown plan node {type(node).__name__}") from None


def plan_atoms(plan) -> Iterator[tuple[str, object]]:
    """Every atom of a plan (or of any node in one) as (kind, value), in
    tree order."""
    kinds, values, _ = _walk_of(plan)
    return zip(kinds, values)


def plan_nodes(plan) -> tuple:
    """Every node of a plan (or of any node in one), in tree order."""
    return (plan, *_walk_of(plan)[2])


def map_atoms(plan, fn: Callable[[str, object], object]):
    """A copy of a plan tree (or of any node in one) with every atom replaced
    by ``fn(kind, atom)``, called in tree order; facts become store tuples.
    Each copied node records its walk as it is built."""
    row = NODES.get(type(plan))
    if row is None:
        raise PlanError(f"unknown plan node {type(plan).__name__}")
    if row.atoms is not None:
        return type(plan)(*map(fn, row.kinds, row.atoms(plan)))
    args = []
    for name, kind, _, many in row.fields:
        value = getattr(plan, name)
        if kind == "fact":
            args.append(tuple([Tuple(*map(fn, FACT_KINDS, fact)) for fact in value]))
        elif kind == "node":
            args.append(tuple([map_atoms(child, fn) for child in value]) if many else map_atoms(value, fn))
        else:
            args.append(tuple([fn(kind, v) for v in value]) if many else fn(kind, value))
    return type(plan)(*args)


def plan_lookups(plan: QueryPlan) -> list[Lookup]:
    """Every lookup of a plan (TypeUnion branches included), in tree order."""
    return [node for node in plan_nodes(plan) if type(node) is Lookup]


def plan_peer_types(plan: QueryPlan) -> list[tuple[int, ...]]:
    """Type ids combined as peers: the branch result types of every
    TypeUnion, and the counted types of a group's legs."""
    return [
        tuple(b.result_type for b in node.branches)
        if type(node) is TypeUnion
        else tuple(c.counted_type for c in node.counted)
        for node in plan_nodes(plan)
        if type(node) in (TypeUnion, GroupSpec)
    ]


def plan_relations(plan: QueryPlan) -> frozenset[int]:
    """All relation ids a plan mentions."""
    return frozenset([v for kind, v in plan_atoms(plan) if kind == "relation"])


def plan_entities(plan: QueryPlan) -> frozenset[int]:
    """All anchor/reference/fact entity ids a plan mentions."""
    return frozenset([v for kind, v in plan_atoms(plan) if kind == "entity"])
