"""Immutable records with slotted fields.

A plain slotted class imports nothing, where a dataclass pulls in
`inspect` and its dependencies, a large share of a cold CLI start.
"""

from __future__ import annotations


class FrozenRecord:
    """Fields named by the subclass's `__slots__`, set once by `__init__`.

    Assigning or deleting any attribute raises `AttributeError`.  Records
    compare (by identity first) and hash by class and field values, and copy
    and pickle by calling the constructor again with their fields.
    """

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return other is self or self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
