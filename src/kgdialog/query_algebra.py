"""Executable query plans over a tuple store.

A plan is a small immutable tree: set expressions (typed lookups combined
with union/intersection/difference) wrapped in one of the plan kinds
(retrieve, verify, count, arg-min/max, threshold filters, comparatives and
their counting variants).  There is one evaluator with two ways of
reaching tuples: ``execute`` reaches them through the store indices and its
per-store caches, while ``brute_force_execute`` scans the raw tuple set and
raw type assignments, touching no index, and serves as the oracle in
equivalence tests.  Both share validation, the set-expression recursion and
the grouped post-processing.  One walker (``plan_lookups``, ``plan_legs``,
``plan_peer_types``) exposes a plan's parts to everything else that reads
plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union as TUnion

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


# -- set expressions ----------------------------------------------------------


@dataclass(frozen=True)
class Lookup:
    """Entities in ``result_type`` reachable from ``anchor`` over ``relation``.

    ``direction`` names the side of the tuple the result comes from: "obj"
    anchors the subject and returns objects, "subj" the reverse.
    """

    direction: str
    relation: int
    anchor: int
    result_type: int


@dataclass(frozen=True)
class Union:
    a: "SetExpr"
    b: "SetExpr"


@dataclass(frozen=True)
class Intersection:
    a: "SetExpr"
    b: "SetExpr"


@dataclass(frozen=True)
class Difference:
    a: "SetExpr"
    b: "SetExpr"


@dataclass(frozen=True)
class TypeUnion:
    """Lookups sharing one anchor but differing in result type."""

    branches: tuple[Lookup, ...]


SetExpr = TUnion[Lookup, Union, Intersection, Difference, TypeUnion]


# -- grouped counting ----------------------------------------------------------


@dataclass(frozen=True)
class Counted:
    """One counted leg of a group: entities of ``counted_type`` reached
    from the group member over ``relation`` in ``direction``."""

    relation: int
    direction: str
    counted_type: int


@dataclass(frozen=True)
class GroupSpec:
    group_type: int
    counted: tuple[Counted, ...]


# -- plans ---------------------------------------------------------------------


@dataclass(frozen=True)
class Retrieve:
    expr: SetExpr


@dataclass(frozen=True)
class Verify:
    facts: tuple[Tuple, ...]


@dataclass(frozen=True)
class Count:
    expr: SetExpr


@dataclass(frozen=True)
class ArgOpt:
    group: GroupSpec
    direction: str  # min | max


@dataclass(frozen=True)
class ThresholdFilter:
    group: GroupSpec
    comparator: str  # atleast | atmost | equal | approx
    n: int


@dataclass(frozen=True)
class CountOverThreshold:
    group: GroupSpec
    comparator: str
    n: int


@dataclass(frozen=True)
class Comparative:
    group: GroupSpec
    reference: int
    direction: str  # more | less


@dataclass(frozen=True)
class CountOverComparative:
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


# -- answers -------------------------------------------------------------------


@dataclass(frozen=True)
class Entities:
    members: frozenset[int]
    # per-type partition, present only for TypeUnion results
    partition: tuple[tuple[int, frozenset[int]], ...] | None = None


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


def _comparator_ok(comparator: str, count: int, n: int) -> bool:
    if comparator == "atleast":
        return count >= n
    if comparator == "atmost":
        return count <= n
    if comparator == "equal":
        return count == n
    if comparator == "approx":
        lo, hi = approx_window(n)
        return lo <= count <= hi
    raise PlanError(f"unknown comparator {comparator!r}")


# -- validation shared by both entry points ---------------------------------------


def _validate_lookup(store: KgStore, lk: Lookup) -> None:
    if lk.direction not in DIRECTIONS:
        raise PlanError(f"unknown lookup direction {lk.direction!r}")
    store._check_relation(lk.relation)
    store._check_entity(lk.anchor)
    store._check_type(lk.result_type)


def _validate_group(store: KgStore, group: GroupSpec) -> None:
    store._check_type(group.group_type)
    if not group.counted:
        raise PlanError("group spec needs at least one counted leg")
    for c in group.counted:
        if c.direction not in DIRECTIONS:
            raise PlanError(f"unknown counted direction {c.direction!r}")
        store._check_relation(c.relation)
        store._check_type(c.counted_type)


def _validate_plan(store: KgStore, plan: QueryPlan) -> None:
    if isinstance(plan, (Retrieve, Count)):
        _validate_expr(store, plan.expr)
    elif isinstance(plan, Verify):
        if not plan.facts:
            raise PlanError("verify plan needs at least one fact")
        for f in plan.facts:
            store._check_relation(f.relation)
            store._check_entity(f.subject)
            store._check_entity(f.object)
    elif isinstance(plan, ArgOpt):
        _validate_group(store, plan.group)
        if plan.direction not in OPT_DIRECTIONS:
            raise PlanError(f"unknown opt direction {plan.direction!r}")
    elif isinstance(plan, (ThresholdFilter, CountOverThreshold)):
        _validate_group(store, plan.group)
        if plan.comparator not in COMPARATORS:
            raise PlanError(f"unknown comparator {plan.comparator!r}")
        if plan.n < 0:
            raise PlanError(f"threshold n must be >= 0, got {plan.n}")
    elif isinstance(plan, (Comparative, CountOverComparative)):
        _validate_group(store, plan.group)
        store._check_entity(plan.reference)
        if plan.direction not in CMP_DIRECTIONS:
            raise PlanError(f"unknown comparative direction {plan.direction!r}")
    else:
        raise PlanError(f"unknown plan kind {type(plan).__name__}")


def _validate_expr(store: KgStore, expr: SetExpr) -> frozenset[int]:
    """Check ids and type compatibility; returns the expression's result types."""
    if isinstance(expr, Lookup):
        _validate_lookup(store, expr)
        return frozenset({expr.result_type})
    if isinstance(expr, (Union, Intersection, Difference)):
        ta = _validate_expr(store, expr.a)
        tb = _validate_expr(store, expr.b)
        if ta != tb:
            raise PlanError(
                f"type-incompatible branches: {sorted(ta)} vs {sorted(tb)}"
            )
        return ta
    if isinstance(expr, TypeUnion):
        if not expr.branches:
            raise PlanError("TypeUnion needs at least one branch")
        anchors = {b.anchor for b in expr.branches}
        if len(anchors) != 1:
            raise PlanError("TypeUnion branches must share one anchor")
        seen: set[int] = set()
        for b in expr.branches:
            _validate_lookup(store, b)
            if b.result_type in seen:
                raise PlanError("TypeUnion branches must differ in result type")
            seen.add(b.result_type)
        return frozenset(seen)
    raise PlanError(f"unknown set expression {type(expr).__name__}")


# -- evaluation ------------------------------------------------------------------
#
# One evaluator serves both entry points.  It reaches tuples only through
# three functions, each taking the store first:
#   reach(store, relation, direction, anchor, type) -> entities of ``type``
#       reached from ``anchor`` over ``relation`` in ``direction``;
#   holds(store, fact) -> whether the fact is a store tuple;
#   counts_of(store, group, include_zero) -> {group member: count}.
# ``execute`` passes index-backed ones; ``brute_force_execute`` passes
# scans of the raw tuple set and the raw entity->types mapping, which
# touch no index and no cached value.


def execute(store: KgStore, plan: QueryPlan, include_zero_groups: bool = True) -> AnswerSet:
    """Evaluate a plan against the store indices.

    Deterministic; entity answers are sets with no order contract.  When
    ``include_zero_groups`` is true (the default), entities of the group
    type with no counted tuples participate in grouped plans with count 0.
    """
    _validate_plan(store, plan)
    return _evaluate(store, plan, _indexed_reach, _indexed_holds, group_counts, include_zero_groups)


def brute_force_execute(
    store: KgStore, plan: QueryPlan, include_zero_groups: bool = True
) -> AnswerSet:
    """Index-free reference evaluation; guards against oversized stores."""
    if len(store.tuples) > BRUTE_FORCE_GUARD:
        raise PlanError(
            f"brute force guard: {len(store.tuples)} tuples > {BRUTE_FORCE_GUARD}"
        )
    _validate_plan(store, plan)
    return _evaluate(store, plan, _scan_reach, _scan_holds, _scan_group_counts, include_zero_groups)


def _evaluate(store, plan, reach, holds, counts_of, include_zero_groups) -> AnswerSet:
    if isinstance(plan, (Retrieve, Count)):
        members, partition = _eval_expr(store, plan.expr, reach)
        if isinstance(plan, Retrieve):
            return Entities(frozenset(members), partition)
        if partition is not None:
            return Counts(tuple((ty, len(part)) for ty, part in partition))
        return Counts(((None, len(members)),))
    if isinstance(plan, Verify):
        return Booleans(tuple(holds(store, f) for f in plan.facts))

    counts = counts_of(store, plan.group, include_zero_groups)
    if isinstance(plan, ArgOpt):
        if not counts:
            return Entities(frozenset())
        best = max(counts.values()) if plan.direction == "max" else min(counts.values())
        return Entities(frozenset(g for g, c in counts.items() if c == best))
    if isinstance(plan, ThresholdFilter):
        keep = {g for g, c in counts.items() if _comparator_ok(plan.comparator, c, plan.n)}
        return Entities(frozenset(keep))
    if isinstance(plan, CountOverThreshold):
        n = sum(1 for c in counts.values() if _comparator_ok(plan.comparator, c, plan.n))
        return Counts(((None, n),))
    # comparatives: the reference count is computed over the same counted
    # legs even when the reference is not itself of the group type
    ref_count = entity_group_count(store, plan.group, plan.reference, reach)
    if plan.direction == "more":
        keep = {g for g, c in counts.items() if c > ref_count and g != plan.reference}
    else:
        keep = {g for g, c in counts.items() if c < ref_count and g != plan.reference}
    if isinstance(plan, Comparative):
        return Entities(frozenset(keep))
    return Counts(((None, len(keep)),))


def _eval_expr(store: KgStore, expr: SetExpr, reach):
    """Members of a set expression, plus the per-type partition of a TypeUnion."""
    if isinstance(expr, Lookup):
        return reach(store, expr.relation, expr.direction, expr.anchor, expr.result_type), None
    if isinstance(expr, Union):
        return _eval_expr(store, expr.a, reach)[0] | _eval_expr(store, expr.b, reach)[0], None
    if isinstance(expr, Intersection):
        return _eval_expr(store, expr.a, reach)[0] & _eval_expr(store, expr.b, reach)[0], None
    if isinstance(expr, Difference):
        return _eval_expr(store, expr.a, reach)[0] - _eval_expr(store, expr.b, reach)[0], None
    if isinstance(expr, TypeUnion):
        partition = []
        members: set[int] = set()
        for b in expr.branches:
            part = reach(store, b.relation, b.direction, b.anchor, b.result_type)
            partition.append((b.result_type, frozenset(part)))
            members |= part
        return members, tuple(partition)
    raise PlanError(f"unknown set expression {type(expr).__name__}")


def _indexed_reach(store: KgStore, relation: int, direction: str, anchor: int, ty: int) -> set[int]:
    base = (
        store.objects_of(relation, anchor)
        if direction == OBJ
        else store.subjects_of(relation, anchor)
    )
    return {e for e in base if store.has_type(e, ty)}


def _indexed_holds(store: KgStore, fact: Tuple) -> bool:
    return fact in store.tuples


def _scan_reach(store: KgStore, relation: int, direction: str, anchor: int, ty: int) -> set[int]:
    etypes = store.entity_types
    out: set[int] = set()
    for t in store.tuples:
        if t.relation != relation:
            continue
        if direction == OBJ:
            if t.subject == anchor and ty in etypes.get(t.object, ()):
                out.add(t.object)
        else:
            if t.object == anchor and ty in etypes.get(t.subject, ()):
                out.add(t.subject)
    return out


def _scan_holds(store: KgStore, fact: Tuple) -> bool:
    return any(t == fact for t in store.tuples)


def _scan_group_counts(store: KgStore, group: GroupSpec, include_zero: bool) -> dict[int, int]:
    members = sorted(e for e, ts in store.entity_types.items() if group.group_type in ts)
    return _member_counts(store, group, members, _scan_reach, include_zero)


def entity_group_count(store: KgStore, group: GroupSpec, g: int, reach=_indexed_reach) -> int:
    """Distinct counted entities reached from one entity over the group's legs."""
    reached: set[int] = set()
    for c in group.counted:
        reached |= reach(store, c.relation, c.direction, g, c.counted_type)
    return len(reached)


def _member_counts(store: KgStore, group: GroupSpec, members, reach, include_zero: bool) -> dict[int, int]:
    counts: dict[int, int] = {}
    for g in members:
        n = entity_group_count(store, group, g, reach)
        if n or include_zero:
            counts[g] = n
    return counts


def group_counts(store: KgStore, group: GroupSpec, include_zero: bool = True) -> dict[int, int]:
    """Distinct counted entities reached from each member of the group type.

    Legs are unioned before counting, so an entity reachable over two legs
    counts once.  Computed once per store, group and ``include_zero``; each
    call returns a fresh dict.
    """
    return dict(
        store.derived(
            ("group_counts", group, bool(include_zero)),
            lambda: _member_counts(
                store, group, store.sorted_members(group.group_type), _indexed_reach, include_zero
            ),
        )
    )


# -- combination helper --------------------------------------------------------------


_OP_NODES = {"union": Union, "intersection": Intersection, "difference": Difference}


def multi_relation_combine(
    store: KgStore,
    plan_a: TUnion[QueryPlan, SetExpr],
    plan_b: TUnion[QueryPlan, SetExpr],
    op: str,
) -> SetExpr:
    """Combine the set expressions of two retrieve plans under one operator.

    The branches may use different relations; their result types must be
    comparable (identical type sets).
    """
    if op not in _OP_NODES:
        raise PlanError(f"unknown combine op {op!r}")
    a = plan_a.expr if isinstance(plan_a, Retrieve) else plan_a
    b = plan_b.expr if isinstance(plan_b, Retrieve) else plan_b
    ta = _validate_expr(store, a)
    tb = _validate_expr(store, b)
    if ta != tb:
        raise PlanError(f"type-incompatible branches: {sorted(ta)} vs {sorted(tb)}")
    return _OP_NODES[op](a, b)


# -- provenance --------------------------------------------------------------------


def plan_tuples(store: KgStore, plan: QueryPlan) -> frozenset[Tuple]:
    """Store tuples the plan's answer depends on.

    Grouped plans depend on every counted tuple of every group member (the
    answer changes if any of them changes), so their provenance spans the
    whole group, plus a comparative reference's own counted tuples.  The
    group's part is computed once per store and group.
    """
    _validate_plan(store, plan)
    if isinstance(plan, (Retrieve, Count)):
        out: set[Tuple] = set()
        for lk in plan_lookups(plan):
            out |= _reach_tuples(store, lk.relation, lk.direction, lk.anchor, lk.result_type)
        return frozenset(out)
    if isinstance(plan, Verify):
        return frozenset(f for f in plan.facts if f in store.tuples)

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


# -- plan walker -------------------------------------------------------------------


def _walk(expr: SetExpr, lookups: list[Lookup], peers: list[tuple[int, ...]]) -> None:
    """Append every lookup of ``expr`` (TypeUnion branches included) to
    ``lookups`` and every TypeUnion's branch result types to ``peers``."""
    if isinstance(expr, Lookup):
        lookups.append(expr)
    elif isinstance(expr, TypeUnion):
        lookups.extend(expr.branches)
        peers.append(tuple(b.result_type for b in expr.branches))
    elif isinstance(expr, (Union, Intersection, Difference)):
        _walk(expr.a, lookups, peers)
        _walk(expr.b, lookups, peers)
    else:
        raise PlanError(f"unknown set expression {type(expr).__name__}")


def plan_lookups(plan: QueryPlan) -> list[Lookup]:
    """Every lookup of a retrieve or count plan, in tree order; none for
    verify and grouped plans."""
    lookups: list[Lookup] = []
    if isinstance(plan, (Retrieve, Count)):
        _walk(plan.expr, lookups, [])
    return lookups


def plan_legs(plan: QueryPlan) -> tuple[Counted, ...]:
    """The counted legs of a grouped plan; none for the other kinds."""
    if isinstance(plan, (Retrieve, Count, Verify)):
        return ()
    return plan.group.counted


def plan_peer_types(plan: QueryPlan) -> list[tuple[int, ...]]:
    """Type ids combined as peers: the branch result types of every
    TypeUnion, and the counted types of a group's legs."""
    peers: list[tuple[int, ...]] = []
    if isinstance(plan, (Retrieve, Count)):
        _walk(plan.expr, [], peers)
    elif not isinstance(plan, Verify):
        peers.append(tuple(c.counted_type for c in plan.group.counted))
    return peers


def plan_relations(plan: QueryPlan) -> frozenset[int]:
    """All relation ids a plan mentions."""
    if isinstance(plan, Verify):
        return frozenset(f.relation for f in plan.facts)
    return frozenset([lk.relation for lk in plan_lookups(plan)] + [c.relation for c in plan_legs(plan)])


def plan_entities(plan: QueryPlan) -> frozenset[int]:
    """All anchor/reference/fact entity ids a plan mentions."""
    if isinstance(plan, Verify):
        return frozenset(e for f in plan.facts for e in (f.subject, f.object))
    out = {lk.anchor for lk in plan_lookups(plan)}
    if isinstance(plan, (Comparative, CountOverComparative)):
        out.add(plan.reference)
    return frozenset(out)
