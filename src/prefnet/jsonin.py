"""Reading input files, with errors that name the file and the JSON field.

:func:`load` builds a value from a JSON file.  Each check returns its value
when it has the expected JSON type, else raises :class:`InputError` with the
value's JSON path, after the file: ``net.json: units[3].in[5]: expected a
list, got a number``.  Paths are tuples of keys and indices, formatted only
on failure.  Ranges, finiteness, uniqueness and known ids are left to the
constructors.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Collection
from pathlib import Path
from typing import TypeVar

from .errors import InputError

_KINDS = {dict: "an object", list: "a list", str: "a string", int: "a number",
          float: "a number", bool: "a boolean", type(None): "null"}


def read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not UTF-8 text ({e})") from None


def read_json(path: str | Path) -> object:
    text = read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise InputError(f"{path}: invalid JSON: {e}") from None


_T = TypeVar("_T")


def load(path: str | Path, build: Callable[[object], _T]) -> _T:
    """``build`` applied to the JSON at ``path``; each InputError starts with the path."""
    doc = read_json(path)
    try:
        return build(doc)
    except InputError as e:
        raise InputError(f"{path}: {e}") from None


def where(path: tuple) -> str:
    """``("units", 3, "in", 5)`` as ``units[3].in[5]``."""
    text = ""
    for step in path:
        if isinstance(step, int):
            text += f"[{step}]"
        elif step.isidentifier():
            text += f".{step}" if text else step
        else:
            text += f"[{json.dumps(step)}]"
    return text or "top level"


def _wrong_type(path: tuple, expected: str, value: object) -> InputError:
    got = _KINDS.get(type(value), type(value).__name__)
    return InputError(f"{where(path)}: expected {expected}, got {got}")


def obj(
    value: object,
    path: tuple,
    required: Collection[str] = (),
    optional: Collection[str] | None = None,
    of: Callable | None = None,
) -> dict:
    """An object with the ``required`` fields; with ``optional``, no other
    fields; with ``of``, a new object of its values checked by ``of``."""
    if type(value) is not dict:
        raise _wrong_type(path, "an object", value)
    if optional is not None:
        for key in value:
            if key not in required and key not in optional:
                allowed = ", ".join((*required, *optional))
                raise InputError(
                    f"{where((*path, key))}: unknown field; allowed: {allowed}"
                )
    for key in required:
        if key not in value:
            raise InputError(f"{where((*path, key))}: missing required field")
    if of is None:
        return value
    if set(map(type, value.values())) <= _UNCHANGED[of]:
        return dict(value)
    return {key: of(item, (*path, key)) for key, item in value.items()}


def array(value: object, path: tuple, of: Callable | tuple | None = None) -> list:
    """A list; with ``of``, a new list of its items checked by ``of``, or by
    a tuple of checks, one per cell, into tuples.  Either way, items that
    need no conversion are checked in one pass over their types."""
    if type(value) is not list:
        raise _wrong_type(path, "a list", value)
    if of is None:
        return value
    if not isinstance(of, tuple):
        if set(map(type, value)) <= _UNCHANGED[of]:
            return list(value)
        return [of(item, (*path, k)) for k, item in enumerate(value)]
    rows = _rows(value, *(t for check in of for t in _UNCHANGED[check]))
    if len(rows) == len(value):
        return rows
    rows = []
    for k, item in enumerate(value):
        if len(array(item, (*path, k))) != len(of):
            raise InputError(
                f"{where((*path, k))}: expected {len(of)} items, got {len(item)}"
            )
        cells = enumerate(zip(of, item))
        rows.append(tuple(check(x, (*path, k, c)) for c, (check, x) in cells))
    return rows


def string(value: object, path: tuple) -> str:
    if type(value) is not str:
        raise _wrong_type(path, "a string", value)
    return value


def number(value: object, path: tuple) -> float:
    """An int or a float, as a float; a boolean is not a number here."""
    if type(value) is float:
        return value
    if type(value) is not int:
        raise _wrong_type(path, "a number", value)
    try:
        return float(value)
    except OverflowError:
        raise InputError(f"{where(path)}: number out of range") from None


# The item types each item check returns as they are.
_UNCHANGED = {string: {str}, number: {float}}


def _rows(value: list, *kinds: type) -> list:
    """The items of ``value`` that are lists of cells of exactly the types
    ``kinds``, as tuples, in one pass: a list with any other item comes
    back shorter."""
    if len(kinds) == 2:
        a, b = kinds
        return [
            (x[0], x[1]) for x in value
            if type(x) is list and len(x) == 2 and type(x[0]) is a and type(x[1]) is b
        ]
    if len(kinds) == 3:
        a, b, c = kinds
        return [
            (x[0], x[1], x[2]) for x in value
            if type(x) is list and len(x) == 3
            and type(x[0]) is a and type(x[1]) is b and type(x[2]) is c
        ]
    return []
