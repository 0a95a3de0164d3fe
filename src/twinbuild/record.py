"""Immutable value classes without ``dataclasses``.

``Record`` gives a ``__slots__`` class the value semantics of a frozen
dataclass: its fields are its ``__slots__``, in order; instances compare
equal only to instances of the same class with equal fields, hash as
the tuple of their fields, print as ``Name(field=value, ...)``, refuse
assignment and deletion, and pickle and copy through their positional
constructor.  ``Record.__init__`` sets the fields once, positionally: a
subclass that checks its arguments calls it last, and a second call on a
live value raises AttributeError.  The trusted constructors ``_qi``,
``_lp`` and ``LMat._of`` of ``exactalg`` alone write the slots of a fresh
instance directly.  (Importing ``dataclasses`` would load ``inspect``,
``ast``, ``dis`` and ``tokenize`` at every CLI start.)

>>> class Pair(Record):
...     __slots__ = ("x", "y")
>>> p = Pair(1, 2)
>>> p, p == Pair(1, 2), hash(p) == hash((1, 2))
(Pair(x=1, y=2), True, True)
>>> p.__init__(3, 4)
Traceback (most recent call last):
AttributeError: Pair is immutable
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    __slots__ = ()

    def __init__(self, *fields):
        slots = self.__slots__
        if len(fields) != len(slots):
            raise TypeError(f"{type(self).__name__} takes {len(slots)} fields")
        if hasattr(self, slots[0]):
            raise AttributeError(f"{type(self).__name__} is immutable")
        for name, value in zip(slots, fields):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        inner = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields())
        )
        return f"{type(self).__qualname__}({inner})"

    def __reduce__(self):
        return type(self), self._fields()
