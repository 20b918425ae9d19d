"""One small immutable base for the package's validated value classes.

A subclass lists its fields in ``__slots__``; a slot whose name starts with
``_`` is private and holds a memo (:meth:`Frozen._memo`), outside equality.
Its constructor checks the arguments and hands the field values, in slot
order, to ``Frozen.__init__``.  Instances compare, hash and print field by
field, and any later assignment raises ``AttributeError``; copies and
pickles are rebuilt through the constructor, so they start without memos.
"""

from __future__ import annotations


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__slots__", ())
        cls._fields = cls._fields + tuple(name for name in own if not name.startswith("_"))

    def __init__(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _memo(self, slot: str, compute):
        """``compute(self)``, found on first use and kept in the private ``slot``."""
        if not hasattr(self, slot):
            object.__setattr__(self, slot, compute(self))
        return getattr(self, slot)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
