"""Record classes written out by hand: value semantics without generated code.

A record names its attributes in ``__slots__`` and sets its fields in its own
``__init__``, which also holds the checks and the normalisation of the
values.  ``_fields`` is ``__slots__`` unless the class names fewer fields (the
other slots then hold derived data or a cache).  ``Record`` gives field-wise
equality between instances of one class, a ``Name(field=value, ...)`` repr
and ``_replace``; a ``Frozen`` record also hashes by its fields and refuses
assignment.

pincover's records are deliberately not dataclasses: every cold CLI process
would pay for importing ``dataclasses`` (which loads ``inspect``, ``ast`` and
``dis``) and for the ``exec`` of each class's generated methods, about a third
of ``import pincover.cli`` together.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from operator import attrgetter

_consume = deque(maxlen=0).extend
_set_slot = object.__setattr__


class Record:
    """Equality, repr and _replace over the fields of a slotted class."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__
        if cls._fields:
            # the field values: one value for one field, else a tuple
            cls._values = attrgetter(*cls._fields)

    def _set(self, *values):
        """Set the fields, in _fields order, from __init__."""
        # one C-level loop: as fast as the unrolled object.__setattr__ calls a
        # dataclass generates, where a Python for loop costs twice that
        _consume(map(_set_slot, repeat(self), self._fields, values))

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _replace(self, **changes):
        """A copy with some fields changed, built through __init__ so that its
        checks and normalisation run again."""
        values = {name: getattr(self, name) for name in self._fields}
        values.update(changes)
        return type(self)(**values)


class Frozen(Record):
    """A Record that hashes by its fields and refuses assignment."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is frozen")
