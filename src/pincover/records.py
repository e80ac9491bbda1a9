"""Record classes written out by hand: value semantics without generated code.

A record names its fields in ``__slots__`` and nothing else: ``Record``'s
``__init__`` binds them by position, then by keyword, then from the class's
``_defaults`` dict, and refuses extra, missing, unknown or repeated fields
with ``TypeError``.  A record keeps an explicit ``__init__`` only for checks,
normalisation or derived slots; ``_fields`` is ``__slots__`` unless the class
names fewer fields (the other slots then hold derived data or a cache).
``Record`` gives field-wise equality between instances of one class, a
``Name(field=value, ...)`` repr and ``_replace``; a ``Frozen`` record also
hashes by its fields and refuses assignment.

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
    _defaults: dict = {}  # field -> value when a call leaves the field out

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__
        if cls._fields:
            # the field values: one value for one field, else a tuple
            cls._values = attrgetter(*cls._fields)
        unknown = [name for name in cls._defaults if name not in cls._fields]
        if unknown:
            raise TypeError(f"{cls.__name__}._defaults names no field: {', '.join(unknown)}")

    def __init__(self, *values, **named):
        if named or len(values) != len(self._fields):
            values = self._bind(values, named)
        self._set(*values)

    @classmethod
    def _bind(cls, values, named):
        """The field values of a call, in _fields order: by position, then by
        keyword, then from _defaults."""
        fields = cls._fields
        if len(values) > len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} fields, got {len(values)}")
        rest = fields[len(values):]
        for name in named:
            if name not in rest:
                problem = "given twice" if name in fields else "unknown"
                raise TypeError(f"{cls.__name__}: field {name!r} {problem}")
        bound = list(values)
        for name in rest:
            if name in named:
                bound.append(named[name])
            elif name in cls._defaults:
                bound.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__}: missing field {name!r}")
        return bound

    def _set(self, *values):
        """Set the fields, in _fields order, from __init__; the caller checks
        that every field has a value."""
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
