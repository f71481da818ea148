"""Canonical one-line text form of query plans.

The text form is a function-call tree using store labels, e.g.::

    Count(Lookup(obj, flows_through, India, river))
    ThresholdFilter(Group(river, By(flows_through, subj, country)), atleast, 2)
    Verify((flows_through, India, Ganga), (flows_through, India, Mekong))

Labels that are not plain identifiers are double-quoted.  Parsing happens
in two steps: the text becomes a symbolic plan, made of the plan classes
with its labels, keywords, numbers and slot markers (``⟨entity:1⟩``) still
unresolved, which is then bound against a store.  Symbolic plans are what
question templates store and rewrite.
``parse_plan(print_plan(p, store), store) == p`` holds for every plan.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from typing import Mapping, Union as TUnion, get_args

from . import query_algebra as qa
from .kg_store import KgStore, Tuple

SLOT_OPEN = "⟨"   # ⟨
SLOT_CLOSE = "⟩"  # ⟩

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# one alternative per token kind: punctuation, a quoted label (a backslash
# escapes the next character), a slot marker, an atom; a lone `"` or slot
# opener that no closing character follows is matched by `\S`
_TOKEN = re.compile(
    rf'[(),]|"(?:\\.|[^"\\])*"|{SLOT_OPEN}[^{SLOT_CLOSE}]*{SLOT_CLOSE}'
    rf'|[^\s(),"{SLOT_OPEN}][^\s(),"]*|\S',
    re.DOTALL,
)
_ESCAPED = re.compile(r"\\(.)", re.DOTALL)


class PlanTextError(ValueError):
    """Unparseable plan text or unresolved slot."""


@dataclass(frozen=True)
class Slot:
    """An unbound slot marker inside a symbolic plan."""

    name: str

    def __str__(self) -> str:
        return f"{SLOT_OPEN}{self.name}{SLOT_CLOSE}"


Atom = TUnion[str, int, Slot]


# Node table.  Each node name maps to its plan class and to the kinds of
# its arguments, which follow the order of the class's dataclass fields.
# An atom kind ("keyword", "number", "relation", "entity", "type") is
# resolved in its namespace; a subtree kind ("expr", "lookup", "leg",
# "group") names what the subtree must parse to (see _SUBTREE_KINDS); "fact"
# is a (relation, subject, object) triple.  A last kind "*x" takes the
# remaining arguments, at least one, into one tuple-valued field.
_SIGNATURES: dict[str, tuple[str, ...]] = {
    "Lookup": ("keyword", "relation", "entity", "type"),
    "Union": ("expr", "expr"),
    "Intersection": ("expr", "expr"),
    "Difference": ("expr", "expr"),
    "TypeUnion": ("*lookup",),
    "By": ("relation", "keyword", "type"),
    "Group": ("type", "*leg"),
    "Retrieve": ("expr",),
    "Count": ("expr",),
    "Verify": ("*fact",),
    "ArgOpt": ("group", "keyword"),
    "ThresholdFilter": ("group", "keyword", "number"),
    "CountOverThreshold": ("group", "keyword", "number"),
    "Comparative": ("group", "entity", "keyword"),
    "CountOverComparative": ("group", "entity", "keyword"),
}
_CLASSES: dict[str, type] = {
    name: getattr(qa, name) for name in _SIGNATURES if name not in ("By", "Group")
}
_CLASSES.update(By=qa.Counted, Group=qa.GroupSpec)
# per class: its node name and its (field name, argument kind) pairs
_LAYOUT: dict[type, tuple[str, tuple[tuple[str, str], ...]]] = {
    cls: (name, tuple(zip((f.name for f in fields(cls)), _SIGNATURES[name])))
    for name, cls in _CLASSES.items()
}
# what a subtree or fact argument must parse to, and its name in errors
_SUBTREE_KINDS: dict[str, tuple[tuple[type, ...], str]] = {
    "expr": (get_args(qa.SetExpr), "set expression"),
    "lookup": ((qa.Lookup,), "Lookup(...)"),
    "leg": ((qa.Counted,), "By(...)"),
    "group": ((qa.GroupSpec,), "Group(...)"),
    "fact": ((tuple,), "(rel, subj, obj) fact"),
}
_ATOM = (get_args(Atom), "label, number or slot marker")
_PLAN_CLASSES = get_args(qa.QueryPlan)


# -- tokenizing / parsing -------------------------------------------------------


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    for tok in _TOKEN.findall(text):
        ch = tok[0]
        if ch in "(),":
            tokens.append((ch, ch))
        elif ch == '"':
            if len(tok) == 1:
                raise PlanTextError(f"unterminated quote in plan text: {text!r}")
            label = tok[1:-1]
            tokens.append(("quoted", _ESCAPED.sub(r"\1", label) if "\\" in label else label))
        elif ch == SLOT_OPEN:
            if len(tok) == 1:
                raise PlanTextError(f"unterminated slot marker in plan text: {text!r}")
            tokens.append(("slot", tok[1:-1]))
        else:
            tokens.append(("atom", tok))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]], text: str):
        self.tokens = tokens
        self.pos = 0
        self.text = text

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, kind: str | None = None) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise PlanTextError(f"unexpected end of plan text: {self.text!r}")
        if kind is not None and tok[0] != kind:
            raise PlanTextError(f"expected {kind!r}, got {tok[1]!r} in {self.text!r}")
        self.pos += 1
        return tok

    def parse_node(self):
        kind, name = self.take("atom")
        if name not in _SIGNATURES:
            raise PlanTextError(f"unknown plan node {name!r} in {self.text!r}")
        self.take("(")
        args: list = []
        if self.peek() and self.peek()[0] != ")":
            args.append(self.parse_arg())
            while self.peek() and self.peek()[0] == ",":
                self.take(",")
                args.append(self.parse_arg())
        self.take(")")
        return _build(name, args)

    def parse_arg(self):
        tok = self.peek()
        if tok is None:
            raise PlanTextError(f"unexpected end of plan text: {self.text!r}")
        if tok[0] == "(":  # a (rel, subj, obj) fact
            self.take("(")
            atoms = [self.parse_atom()]
            while self.peek() and self.peek()[0] == ",":
                self.take(",")
                atoms.append(self.parse_atom())
            self.take(")")
            if len(atoms) != 3:
                raise PlanTextError(f"facts need 3 elements, got {len(atoms)}")
            return tuple(atoms)
        if tok[0] == "atom" and tok[1] in _SIGNATURES:
            nxt = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
            if nxt and nxt[0] == "(":
                return self.parse_node()
        return self.parse_atom()

    def parse_atom(self) -> Atom:
        kind, value = self.take()
        if kind == "quoted":
            return value
        if kind == "slot":
            return Slot(value)
        if kind == "atom":
            if re.fullmatch(r"-?[0-9]+", value):
                return int(value)
            return value
        raise PlanTextError(f"unexpected token {value!r} in {self.text!r}")


def _build(name: str, args: list):
    """The plan-class node ``name`` of parsed arguments, once their count and
    classes are checked; a starred kind takes one or more arguments, which
    become one tuple."""
    sig = _SIGNATURES[name]
    star = sig[-1][0] == "*"
    n_fixed = len(sig) - star
    if not star and len(args) != n_fixed:
        raise PlanTextError(f"{name} takes {n_fixed} arguments, got {len(args)}")
    if len(args) < len(sig):
        plural = "s" * (len(sig) > 1)
        raise PlanTextError(f"{name} takes at least {len(sig)} argument{plural}")
    for i, arg in enumerate(args):
        classes, what = _SUBTREE_KINDS.get(sig[min(i, n_fixed)].lstrip("*"), _ATOM)
        if not isinstance(arg, classes):
            raise PlanTextError(f"{name} argument {i + 1} must be a {what}")
    if star:
        args[n_fixed:] = [tuple(args[n_fixed:])]
    return _CLASSES[name](*args)


def parse_symbolic(text: str) -> qa.QueryPlan:
    """Parse plan text into a symbolic plan, slot markers allowed."""
    parser = _Parser(_tokenize(text), text)
    plan = parser.parse_node()
    if parser.peek() is not None:
        raise PlanTextError(f"trailing tokens after plan in {text!r}")
    if not isinstance(plan, _PLAN_CLASSES):
        raise PlanTextError(f"{_LAYOUT[type(plan)][0]} is not a top-level plan")
    return plan


# -- binding a symbolic plan against a store -------------------------------------


def bind(
    plan: qa.QueryPlan,
    store: KgStore,
    bindings: Mapping[str, int | str] | None = None,
) -> qa.QueryPlan:
    """Turn a symbolic plan into an executable one.

    Slot markers are looked up in ``bindings``; a bound value may be an id
    (used as-is) or a label (resolved in the slot position's namespace).
    Unresolved slots raise :class:`PlanTextError` naming the slot.
    """
    return _bind_node(plan, store, bindings or {})


def parse_plan(text: str, store: KgStore, bindings: Mapping[str, int | str] | None = None) -> qa.QueryPlan:
    """Parse canonical plan text and bind it against the store."""
    return bind(parse_symbolic(text), store, bindings)


def _atom_value(atom, store: KgStore, kind: str, bindings: Mapping[str, int | str]):
    if isinstance(atom, Slot):
        if atom.name not in bindings:
            raise PlanTextError(f"unresolved slot {atom}")
        atom = bindings[atom.name]
    if kind == "number":
        if isinstance(atom, bool) or not isinstance(atom, int):
            raise PlanTextError(f"expected a number, got {atom!r}")
        return atom
    if kind == "keyword":
        if not isinstance(atom, str):
            raise PlanTextError(f"expected a keyword, got {atom!r}")
        return atom
    if isinstance(atom, int):
        return atom
    if not isinstance(atom, str):
        raise PlanTextError(f"expected a label or id, got {atom!r}")
    if kind == "relation":
        return store.relation_id(atom)
    if kind == "entity":
        return store.entity_id(atom)
    if kind == "type":
        return store.type_id(atom)
    raise PlanTextError(f"unknown atom kind {kind!r}")


def _bind_node(node, store: KgStore, bindings: Mapping[str, int | str]):
    values = []
    for field_name, kind in _LAYOUT[type(node)][1]:
        value = getattr(node, field_name)
        if kind[0] == "*":
            values.append(tuple(_bind_value(v, kind[1:], store, bindings) for v in value))
        else:
            values.append(_bind_value(value, kind, store, bindings))
    return type(node)(*values)


def _bind_value(value, kind: str, store: KgStore, bindings: Mapping[str, int | str]):
    if kind == "fact":
        kinds = ("relation", "entity", "entity")
        return Tuple(*(_atom_value(a, store, k, bindings) for a, k in zip(value, kinds)))
    if kind in _SUBTREE_KINDS:
        return _bind_node(value, store, bindings)
    return _atom_value(value, store, kind, bindings)


# -- printing ------------------------------------------------------------------


def _quote(label: str) -> str:
    if _IDENT.fullmatch(label):
        return label
    escaped = label.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def print_plan(plan: qa.QueryPlan, store: KgStore) -> str:
    """Canonical text of an executable plan (or of any node in one), using
    store labels."""
    try:
        name, layout = _LAYOUT[type(plan)]
    except KeyError:
        raise PlanTextError(f"cannot print {type(plan).__name__}") from None
    parts = []
    for field_name, kind in layout:
        value = getattr(plan, field_name)
        if kind[0] == "*":
            for v in value:
                parts.append(_print_arg(v, kind[1:], store))
        else:
            parts.append(_print_arg(value, kind, store))
    return f"{name}({', '.join(parts)})"


def _print_arg(value, kind: str, store: KgStore) -> str:
    if kind == "entity":
        return _print_entity(value, store)
    if kind == "relation":
        return _quote(store.relation_label(value))
    if kind == "type":
        return _quote(store.type_label(value))
    if kind == "fact":
        r, s, o = value
        return f"({_quote(store.relation_label(r))}, {_print_entity(s, store)}, {_print_entity(o, store)})"
    if kind in _SUBTREE_KINDS:
        return print_plan(value, store)
    return str(value)


def _print_entity(e: int, store: KgStore) -> str:
    """The entity's label, or its bare id when another entity shares the
    label: a bare integer parses back as an id."""
    return str(e) if store.label_repeats(e) else _quote(store.entity_label(e))


def slots_of(plan) -> frozenset[str]:
    """Names of all slot markers in a symbolic plan."""
    out: set[str] = set()

    def walk(n) -> None:
        if isinstance(n, Slot):
            out.add(n.name)
        elif isinstance(n, tuple):
            for a in n:
                walk(a)
        elif type(n) in _LAYOUT:
            for field_name, _ in _LAYOUT[type(n)][1]:
                walk(getattr(n, field_name))

    walk(plan)
    return frozenset(out)


def rewrite_atoms(plan, fn):
    """Structurally copy a symbolic plan, mapping every atom through ``fn``."""

    def walk(n):
        if isinstance(n, tuple):
            return tuple(walk(a) for a in n)
        if type(n) in _LAYOUT:
            return type(n)(*(walk(getattr(n, f)) for f, _ in _LAYOUT[type(n)][1]))
        return fn(n)

    return walk(plan)
