"""Small text helpers shared by rendering, templates and the linker."""

from __future__ import annotations

import re

_NORM = re.compile(r"[^0-9a-z]+")
_NORM_LINES = re.compile(r"[^0-9a-z\n]+")

_ONES = (
    "zero one two three four five six seven eight nine ten eleven twelve "
    "thirteen fourteen fifteen sixteen seventeen eighteen nineteen"
).split()
_TENS = "  twenty thirty forty fifty sixty seventy eighty ninety".split(" ")


def normalize(text: str) -> list[str]:
    """Lowercase, strip punctuation and collapse whitespace; returns tokens."""
    return [t for t in _NORM.sub(" ", text.lower()).split() if t]


def normalize_lines(text: str) -> list[str]:
    """``" ".join(normalize(line))`` of each line of ``text``, split on
    newlines only; the whole text is normalized in one pass."""
    spaced = _NORM_LINES.sub(" ", text.lower())  # no two spaces in a row
    return spaced.replace(" \n", "\n").replace("\n ", "\n").strip(" ").split("\n")


def pluralize(noun: str) -> str:
    """Naive English plural for mechanically built phrases.

    Authored template surfaces carry explicit singular/plural variants;
    this is only for phrases the transforms assemble themselves
    ("maximum number of countries").
    """
    if re.search(r"[^aeiou]y$", noun):
        return noun[:-1] + "ies"
    if re.search(r"(s|x|z|ch|sh)$", noun):
        return noun + "es"
    return noun + "s"


def number_words(n: int) -> str:
    """English words for 0..999999; falls back to digits beyond that."""
    if n < 0 or n >= 1_000_000:
        return str(n)
    if n < 20:
        return _ONES[n]
    if n < 100:
        tens, ones = divmod(n, 10)
        return _TENS[tens] + ("-" + _ONES[ones] if ones else "")
    if n < 1000:
        hundreds, rest = divmod(n, 100)
        out = _ONES[hundreds] + " hundred"
        return out + (" " + number_words(rest) if rest else "")
    thousands, rest = divmod(n, 1000)
    out = number_words(thousands) + " thousand"
    return out + (" " + number_words(rest) if rest else "")
