"""Slotted value classes: field-wise equality, hashing and repr, no generated code.

The AST, token, model and statistics classes of the package are plain classes
with ``__slots__`` and a hand-written ``__init__``.  Deriving them from
:class:`Record` (mutable) or :class:`FrozenRecord` (immutable, hashable) gives
them the equality, hashing and repr of a dataclass without executing any code
at import: ``__init_subclass__`` only collects field names.

A class's fields are its base class's fields followed by its own
``__slots__``, unless it sets ``_fields`` itself (to keep a private slot out
of them).  ``_uncompared`` names fields that ``==`` and ``hash`` ignore (source
positions, say), ``_unshown`` fields that ``repr`` leaves out.  To add a
field: add it to ``__slots__`` and to ``__init__``, and to ``_uncompared`` if
equality must not see it.

A frozen class stores its fields in ``__init__`` through the slot setters
that :func:`slot_setters` returns, since its ``__setattr__`` raises;
``__reduce__`` rebuilds it through its constructor, so it pickles and copies.
"""

from __future__ import annotations

from operator import attrgetter
from reprlib import recursive_repr
from typing import Callable, Tuple

__all__ = ["Record", "FrozenRecord", "slot_setters"]


def _tuple_getter(names: Tuple[str, ...]) -> Callable[[object], tuple]:
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda obj: (get(obj),)
    return lambda obj: ()


class Record:
    """A mutable slotted record: ``==`` over the compared fields, unhashable."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()
    _uncompared: Tuple[str, ...] = ()
    _unshown: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            own = cls.__dict__.get("__slots__", ())
            cls._fields = cls.__base__._fields + tuple(own)
        compared = tuple(n for n in cls._fields if n not in cls._uncompared)
        cls._key = staticmethod(_tuple_getter(compared))
        cls._shown = tuple(n for n in cls._fields if n not in cls._unshown)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    __hash__ = None  # type: ignore[assignment]

    @recursive_repr()
    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{self.__class__.__qualname__}({shown})"


class FrozenRecord(Record):
    """An immutable record: assignment raises, hashing follows ``==``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self._fields)


def slot_setters(cls: type) -> tuple:
    """The ``__set__`` of each of ``cls``'s own slots, in declaration order."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)
