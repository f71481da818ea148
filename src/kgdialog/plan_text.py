"""Canonical one-line text form of query plans.

The text form is a function-call tree using store labels, e.g.::

    Count(Lookup(obj, flows_through, India, river))
    ThresholdFilter(Group(river, By(flows_through, subj, country)), atleast, 2)
    Verify((flows_through, India, Ganga), (flows_through, India, Mekong))

Labels that are not plain identifiers are double-quoted.  Parsing happens
in two steps: the text becomes a symbolic node tree (``SNode``), which is
then bound against a store.  Symbolic trees may contain slot markers such
as ``⟨entity:1⟩``; these are what question templates store and rewrite.
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


@dataclass(frozen=True)
class SNode:
    """Symbolic plan node: a call name plus atom/child arguments."""

    name: str
    args: tuple["SNode | Atom | tuple[Atom, ...]", ...]


# Node table.  Each node name maps to its plan class and to the kinds of
# its arguments, which follow the order of the class's dataclass fields.
# An atom kind ("keyword", "number", "relation", "entity", "type") is
# resolved in its namespace; a subtree kind ("expr", "lookup", "leg",
# "group") names what the subtree must bind to (see _SUBTREE_KINDS); "fact"
# is a (relation, subject, object) triple.  A last kind "*x" takes the
# remaining arguments into one tuple-valued field.
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
_SUBTREE_KINDS: dict[str, tuple[tuple[type, ...], str]] = {
    "expr": (get_args(qa.SetExpr), "set expression"),
    "lookup": ((qa.Lookup,), "Lookup(...)"),
    "leg": ((qa.Counted,), "By(...)"),
    "group": ((qa.GroupSpec,), "Group(...)"),
}
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

    def parse_node(self) -> SNode:
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
        return SNode(name, tuple(args))

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


def parse_symbolic(text: str) -> SNode:
    """Parse plan text into a symbolic tree, slot markers allowed."""
    parser = _Parser(_tokenize(text), text)
    node = parser.parse_node()
    if parser.peek() is not None:
        raise PlanTextError(f"trailing tokens after plan in {text!r}")
    return node


# -- binding a symbolic tree against a store -------------------------------------


def bind(
    node: SNode,
    store: KgStore,
    bindings: Mapping[str, int | str] | None = None,
) -> qa.QueryPlan:
    """Turn a symbolic tree into an executable plan.

    Slot markers are looked up in ``bindings``; a bound value may be an id
    (used as-is) or a label (resolved in the slot position's namespace).
    Unresolved slots raise :class:`PlanTextError` naming the slot.
    """
    plan = _bind_node(node, store, bindings or {})
    if not isinstance(plan, _PLAN_CLASSES):
        raise PlanTextError(f"{node.name} is not a top-level plan")
    return plan


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


def _bind_node(node: SNode, store: KgStore, bindings: Mapping[str, int | str]):
    sig = _SIGNATURES[node.name]
    star = sig[-1].startswith("*")
    n_fixed = len(sig) - star
    if not star and len(node.args) != n_fixed:
        raise PlanTextError(f"{node.name} takes {n_fixed} arguments, got {len(node.args)}")
    if star and len(node.args) < n_fixed:
        raise PlanTextError(f"{node.name} takes at least {n_fixed} arguments")
    values = [_bind_arg(node, i, sig[i], store, bindings) for i in range(n_fixed)]
    if star:
        kind = sig[-1][1:]
        values.append(
            tuple(_bind_arg(node, i, kind, store, bindings) for i in range(n_fixed, len(node.args)))
        )
    return _CLASSES[node.name](*values)


def _bind_arg(node: SNode, i: int, kind: str, store: KgStore, bindings: Mapping[str, int | str]):
    arg = node.args[i]
    if kind == "fact":
        if not isinstance(arg, tuple):
            raise PlanTextError(f"{node.name} argument {i + 1} must be a (rel, subj, obj) fact")
        r = _atom_value(arg[0], store, "relation", bindings)
        s = _atom_value(arg[1], store, "entity", bindings)
        o = _atom_value(arg[2], store, "entity", bindings)
        return Tuple(r, s, o)
    if kind not in _SUBTREE_KINDS:
        return _atom_value(arg, store, kind, bindings)
    if not isinstance(arg, SNode):
        raise PlanTextError(f"{node.name} argument {i + 1} must be a subtree")
    value = _bind_node(arg, store, bindings)
    classes, what = _SUBTREE_KINDS[kind]
    if not isinstance(value, classes):
        raise PlanTextError(f"{node.name} argument {i + 1} must be a {what}")
    return value


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
        return _quote(store.entity_label(value))
    if kind == "relation":
        return _quote(store.relation_label(value))
    if kind == "type":
        return _quote(store.type_label(value))
    if kind == "fact":
        r, s, o = value
        return f"({_quote(store.relation_label(r))}, {_quote(store.entity_label(s))}, {_quote(store.entity_label(o))})"
    if kind in _SUBTREE_KINDS:
        return print_plan(value, store)
    return str(value)


def slots_of(node: SNode) -> frozenset[str]:
    """Names of all slot markers in a symbolic tree."""
    out: set[str] = set()

    def walk(n) -> None:
        if isinstance(n, SNode):
            for a in n.args:
                walk(a)
        elif isinstance(n, tuple):
            for a in n:
                walk(a)
        elif isinstance(n, Slot):
            out.add(n.name)

    walk(node)
    return frozenset(out)


def rewrite_atoms(node: SNode, fn) -> SNode:
    """Structurally copy a symbolic tree, mapping every atom through ``fn``."""

    def walk(n):
        if isinstance(n, SNode):
            return SNode(n.name, tuple(walk(a) for a in n.args))
        if isinstance(n, tuple):
            return tuple(fn(a) for a in n)
        return fn(n)

    return walk(node)
