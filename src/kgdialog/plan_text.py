"""Canonical one-line text form of query plans.

The text form is a function-call tree using store labels, e.g.::

    Count(Lookup(obj, flows_through, India, river))
    ThresholdFilter(Group(river, By(flows_through, subj, country)), atleast, 2)
    Verify((flows_through, India, Ganga), (flows_through, India, Mekong))

Labels that are not plain identifiers are double-quoted.  One parser
reads the text into the plan classes, in one pass.  ``parse_symbolic``
keeps its labels, keywords, numbers and slot markers (``⟨entity:1⟩``) as
written; symbolic plans are what question templates store and rewrite, and
``bind`` resolves them against a store.  ``parse_plan`` resolves each atom
against the store as it reads it, so ``parse_plan(text, store)`` equals
``bind(parse_symbolic(text), store)`` without the copy.  Each plan node
records its own walk (``query_algebra.plan_atoms``) as it is built, so the
parser keeps none.
``parse_plan(print_plan(p, store), store) == p`` holds for every plan.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from typing import Mapping, Union as TUnion, get_args

from . import query_algebra as qa
from .kg_store import KgError, KgStore, Tuple

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


def _expects(f: qa.Field) -> tuple[tuple[type, ...], str]:
    """What an argument for a table field must parse to, and its name in errors."""
    if f.kind == "fact":
        return (tuple,), "(rel, subj, obj) fact"
    if f.kind != "node":
        return get_args(Atom), "label, number or slot marker"
    return f.accepts, "set expression" if f.accepts == qa.SET_EXPRS else f"{qa.NODES[f.accepts[0]].name}(...)"


# per node name: its class, its row and, per field, (kind, *_expects(field))
_NODES = {row.name: (cls, row, [(f.kind, *_expects(f)) for f in row.fields]) for cls, row in qa.NODES.items()}
_WORD_KINDS = frozenset(qa.KEYWORDS) | {"number"}
_RESOLVERS = {"relation": KgStore.relation_id, "entity": KgStore.entity_id, "type": KgStore.type_id}


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


_END = ("end", "")  # closes every token list, so a look ahead never runs off it
_INT = re.compile(r"-?[0-9]+")
_ATOM_KINDS = _WORD_KINDS | set(_RESOLVERS)
_RESOLVE_ERRORS = (PlanTextError, qa.PlanError, KgError)


class _Parser:
    """Reads one plan text.  With ``resolve``, each atom becomes
    ``resolve(kind, atom)`` as it is read; the first resolution error is kept
    and raised only once the text has parsed, so a syntax fault is reported
    first."""

    def __init__(self, text: str, resolve=None):
        self.tokens = [*_tokenize(text), _END]
        self.pos = 0
        self.text = text
        self.resolve = resolve
        self.error: Exception | None = None

    def take(self, kind: str | None = None) -> tuple[str, str]:
        tok = self.tokens[self.pos]
        if tok is _END:
            raise PlanTextError(f"unexpected end of plan text: {self.text!r}")
        if kind is not None and tok[0] != kind:
            raise PlanTextError(f"expected {kind!r}, got {tok[1]!r} in {self.text!r}")
        self.pos += 1
        return tok

    def parse_node(self):
        kind, name = self.take("atom")
        if name not in _NODES:
            raise PlanTextError(f"unknown plan node {name!r} in {self.text!r}")
        self.take("(")
        row = _NODES[name][1]
        return _build(name, self.parse_list(self.parse_arg, row.kinds, row.fields[-1].many))

    def parse_list(self, parse_item, kinds: tuple[str, ...], many: bool) -> list:
        """Comma-separated items up to a closing parenthesis, which it takes;
        item i is read as ``kinds[i]``, the last kind repeating if ``many``."""
        items = []
        if self.tokens[self.pos][0] != ")":
            while True:
                i = len(items)
                items.append(parse_item(kinds[i] if i < len(kinds) else kinds[-1] if many else None))
                if self.tokens[self.pos][0] != ",":
                    break
                self.pos += 1
        self.take(")")
        return items

    def parse_arg(self, kind: str | None):
        tok_kind, value = self.tokens[self.pos]
        if tok_kind == "(":  # a (rel, subj, obj) fact
            self.pos += 1
            atoms = self.parse_list(self.parse_atom, qa.FACT_KINDS, False)
            if len(atoms) != 3:
                raise PlanTextError(f"facts need 3 elements, got {len(atoms)}")
            return Tuple(*atoms)
        if tok_kind == "atom" and value in _NODES and self.tokens[self.pos + 1][0] == "(":
            return self.parse_node()
        return self.parse_atom(kind)

    def parse_atom(self, kind: str | None) -> Atom:
        tok_kind, value = self.take()
        if tok_kind == "quoted":
            atom = value
        elif tok_kind == "slot":
            atom = Slot(value)
        elif tok_kind == "atom":
            atom = int(value) if _INT.fullmatch(value) else value
        else:
            raise PlanTextError(f"unexpected token {value!r} in {self.text!r}")
        if kind in _ATOM_KINDS and self.resolve is not None:  # else the node check in _build fails
            try:
                atom = self.resolve(kind, atom)
            except _RESOLVE_ERRORS as exc:
                self.error = self.error or exc
        return atom


def _build(name: str, args: list):
    """The plan-class node ``name`` of parsed arguments, once their count,
    their classes and any literal keyword or number are checked against the
    node table; a starred field takes one or more arguments, which become
    one tuple."""
    cls, row, expects = _NODES[name]
    star = row.fields[-1].many
    n_fixed = len(row.fields) - star
    if not star and len(args) != n_fixed:
        raise PlanTextError(f"{name} takes {n_fixed} arguments, got {len(args)}")
    if len(args) < len(row.fields):
        plural = "s" * (len(row.fields) > 1)
        raise PlanTextError(f"{name} takes at least {len(row.fields)} argument{plural}")
    for i, arg in enumerate(args):
        kind, classes, what = expects[min(i, n_fixed)]
        if not isinstance(arg, classes):
            raise PlanTextError(f"{name} argument {i + 1} must be a {what}")
        if kind in _WORD_KINDS and not isinstance(arg, Slot):
            try:
                qa.check_word(kind, arg)
            except qa.PlanError as exc:
                raise PlanTextError(f"{name} argument {i + 1}: {exc}") from None
    if star:
        args[n_fixed:] = [tuple(args[n_fixed:])]
    return cls(*args)


def _parse(text: str, resolve=None) -> qa.QueryPlan:
    parser = _Parser(text, resolve)
    plan = parser.parse_node()
    if parser.tokens[parser.pos] is not _END:
        raise PlanTextError(f"trailing tokens after plan in {text!r}")
    if not isinstance(plan, qa.PLAN_CLASSES):
        raise PlanTextError(f"{qa.NODES[type(plan)].name} is not a top-level plan")
    if parser.error is not None:
        raise parser.error
    return plan


def parse_symbolic(text: str) -> qa.QueryPlan:
    """Parse plan text into a symbolic plan, slot markers allowed."""
    return _parse(text)


def parse_plan(text: str, store: KgStore, bindings: Mapping[str, int | str] | None = None) -> qa.QueryPlan:
    """Parse canonical plan text into an executable plan, resolving each
    atom against the store (and slot markers through ``bindings``) as it
    is read; equal to ``bind(parse_symbolic(text), store, bindings)``."""
    return _parse(text, partial(bind_atom, store, bindings or {}))


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
    return qa.map_atoms(plan, partial(bind_atom, store, bindings or {}))


def bind_atom(store: KgStore, bindings: Mapping[str, int | str], kind: str, atom):
    """The id, keyword or number an atom stands for; a slot-bound keyword or
    number is checked here (PlanError), a literal one at parse."""
    word = kind in _WORD_KINDS
    if isinstance(atom, Slot):
        if atom.name not in bindings:
            raise PlanTextError(f"unresolved slot {atom}")
        atom = bindings[atom.name]
        if word:
            qa.check_word(kind, atom)
    if word or isinstance(atom, int):
        return atom
    if not isinstance(atom, str):
        raise PlanTextError(f"expected a label or id, got {atom!r}")
    return _RESOLVERS[kind](store, atom)


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
        row = qa.NODES[type(plan)]
    except KeyError:
        raise PlanTextError(f"cannot print {type(plan).__name__}") from None
    parts = []
    for name, kind, _, many in row.fields:
        value = getattr(plan, name)
        if many:
            parts += [_print_arg(v, kind, store) for v in value]
        else:
            parts.append(_print_arg(value, kind, store))
    return f"{row.name}({', '.join(parts)})"


def _print_arg(value, kind: str, store: KgStore) -> str:
    if kind == "entity":
        return print_entity(value, store)
    if kind == "relation":
        return _quote(store.relation_label(value))
    if kind == "type":
        return _quote(store.type_label(value))
    if kind == "fact":
        r, s, o = value
        return f"({_quote(store.relation_label(r))}, {print_entity(s, store)}, {print_entity(o, store)})"
    if kind == "node":
        return print_plan(value, store)
    return str(value)


def print_entity(e: int, store: KgStore) -> str:
    """The entity's label, or its bare id when another entity shares the
    label: a bare integer parses back as an id."""
    return str(e) if store.label_repeats(e) else _quote(store.entity_label(e))


def slots_of(plan) -> frozenset[str]:
    """Names of all slot markers in a symbolic plan."""
    return frozenset(atom.name for _, atom in qa.plan_atoms(plan) if isinstance(atom, Slot))


def rewrite_atoms(plan, fn):
    """Structurally copy a symbolic plan, mapping every atom through ``fn``."""
    return qa.map_atoms(plan, lambda _, atom: fn(atom))
