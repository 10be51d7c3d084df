"""Bases for the package's value classes and records.

A :class:`Value` is immutable and hashable.  Its fields are its
``__slots__``; its ``__init__`` sets each one with ``_set`` and their
tuple with ``_set_key``, and ``==``, ``hash`` and ``repr`` read that
tuple, ``_key``.  A :class:`Record` is mutable and unhashable, and lists
the fields that ``==`` and ``repr`` read in ``_fields``.  Both compare
field-wise and only within one class, so ``And(a, b) != Or(a, b)``, and
both print like ``Name(name='A')``.

Each class writes its own ``__init__``: importing the package generates
no method code, which ``dataclasses`` does for every class it builds.
"""

from __future__ import annotations

__all__ = ["Record", "Value"]

# Sets a field of a Value, whose own __setattr__ refuses.
_set = object.__setattr__


class Record:
    """A mutable record: ``==`` over ``_fields`` within one class, no hash."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self._values())
        )
        return f"{type(self).__qualname__}({fields})"


class Value(Record):
    """An immutable value whose fields are its ``__slots__``.

    Its hash is the hash of ``_key``, so a value holding an unhashable
    field (a dict) raises ``TypeError`` when hashed.
    """

    __slots__ = ("_key",)

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = cls.__dict__.get("__slots__", ())

    def _values(self) -> tuple:
        return self._key

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through __init__, whose parameters are the fields.
        return self.__class__, self._key


# Sets a Value's _key; the slot's own setter costs half of what _set does.
_set_key = Value._key.__set__
