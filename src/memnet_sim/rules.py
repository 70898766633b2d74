"""The checker of config values and envelope arguments, and the reader of
input text files: a leaf that ``config`` and ``optics`` import, importing
nothing from the package."""

from __future__ import annotations

import dataclasses
import math
import numbers
from typing import NamedTuple

import numpy as np


def is_finite(value) -> bool:
    """``math.isfinite``, false instead of an OverflowError for an integer
    beyond the float range."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def is_real(value) -> bool:
    """A real number that is no bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class Rule(NamedTuple):
    """What one config value must be: ``kind`` is what the JSON loader checks
    as it reads it (its type, a number that fits a float, a grid that fits in
    memory), ``checks`` its range and the derived quantities it feeds.  Each
    check is a test of ``(value, owner)`` and the message, formatted with the
    value's ``name`` and ``value``, when it fails; a test of a container
    raises for its first bad item itself.  ``optional`` lets None through."""

    kind: tuple = ()
    checks: tuple = ()
    optional: bool = False


def must(test, what: str):
    """A check of ``test(value)`` that fails as ``<name> must be <what>, not <value>``."""
    return (lambda value, _: test(value)), "{name} must be " + what + ", not {value!r}"


NUMBER = (
    must(is_real, "a number"),
    (lambda v, _: is_finite(v) or not isinstance(v, int), "{name} lies beyond the float range"),
)
INTEGER = (must(lambda v: is_real(v) and isinstance(v, numbers.Integral), "an integer"),)
STRING = (must(lambda v: isinstance(v, str), "a string"),)
OBJECT = (must(lambda v: isinstance(v, dict), "an object"),)
UNIT = must(lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
POSITIVE = must(lambda v: v > 0.0, "positive")
POSITIVE_FINITE = must(lambda v: is_finite(v) and v > 0.0, "positive and finite")


def check(name: str, value, rule: Rule, owner=None, kind_only: bool = False) -> None:
    """Raise a one-line ValueError about ``name`` at the first check of ``rule``
    (of its kind alone with ``kind_only``) that ``value`` fails.  A test works
    out what the value feeds to see whether it overflows, so numpy need not warn."""
    with np.errstate(all="ignore"):
        _check(name, value, rule, owner, kind_only)


def _check(name: str, value, rule: Rule, owner=None, kind_only: bool = False) -> None:
    # check, under the caller's np.errstate
    if value is None and rule.optional:
        return
    for test, message in rule.kind if kind_only else rule.kind + rule.checks:
        if not test(value, owner):
            raise ValueError(message.format(name=name, value=value))


def ruled(kind=(), *checks, optional: bool = False, **field):
    """A dataclass field whose metadata holds its ``Rule``."""
    return dataclasses.field(metadata={"rule": Rule(kind, checks, optional)}, **field)


def check_fields(obj) -> None:
    """Check a dataclass's fields by their rules, in order: a rule may read the
    ones before.  One ``np.errstate`` covers the whole loop.  A numpy scalar
    that passes is stored as the Python number it holds, so that the config
    and the report bodies that echo its fields hold JSON values only."""
    with np.errstate(all="ignore"):
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            _check(f.name, value, f.metadata["rule"], obj)
            if isinstance(value, np.generic):
                object.__setattr__(obj, f.name, value.item())


def read_text(path, where: str) -> str:
    """The text of the UTF-8 file ``path``, with universal newlines; a file
    that is not UTF-8 raises one line naming ``where`` and the first bad byte."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start : exc.end]
        message = f"{where} is not UTF-8 text: {exc.reason} {bad!r} at byte {exc.start}"
        raise ValueError(message) from None
