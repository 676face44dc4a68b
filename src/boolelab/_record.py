"""``Record``: what every immutable record here is, term nodes and
``errors.Value`` records alike.  It imports nothing, so that ``terms``
and ``errors`` build on it without loading each other."""


class Record:
    """A record with named fields, ``_fields``: equal to a record of the
    same class with equal field tuples (``_values``), hashed as its field
    tuple, printed as ``Name(field=value, ...)``, refusing assignment and
    deletion.  A subclass writes its fields with ``object.__setattr__``;
    a leaf compared in hot loops reads its field tuple in a one-line
    ``_values``, several times faster than the generic one here."""

    __slots__ = ()
    _fields = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
