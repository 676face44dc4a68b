"""Errors, default caps and the helpers shared across the package.

Every command loads this module, so what several layers share lives
here: the default size caps, the names of the trace-checking modes,
``Value`` (the base of the records that the layers return: verdicts,
certificates, problems, trace rules, polynomials; a ``_record.Record``
like the term nodes), the ``Verdict`` mixin that gives a verdict its
truth, and ``read_lines``, the line reader of the file formats.  A Value
class writes its ``__init__`` on its first construction, not at import.
"""

from ._record import Record


class CapExceeded(Exception):
    """A request went past one of the configurable size caps.

    The caps exist because every search here is exhaustive; callers that
    really want a bigger run can raise the relevant limit explicitly.
    """


# The default caps: variables of a consequence check (the monomial
# pairs of one product step are capped at 2^MAX_VARS), universe size
# of a class algebra, carrier size of a model search.
MAX_VARS = 20
MAX_UNIVERSE = 5
MAX_MODEL_SIZE = 4

# The trace-checking modes: Hailperin's admits idempotence only on a
# bare class symbol, sigma1 on any term.  Problem files name one.
HAILPERIN = "hailperin"
SIGMA1 = "sigma1"
MODES = (HAILPERIN, SIGMA1)


def read_lines(text: str, read) -> None:
    """Call ``read(line)`` on each line of a line-oriented file that
    holds more than blanks and a '#' comment, with both stripped.  A
    ValueError or CapExceeded that ``read`` raises is raised again with
    ``line N: `` in front, N counting from 1."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                read(line)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
            except CapExceeded as exc:
                raise CapExceeded(f"line {lineno}: {exc}") from exc


def _write_init(self, *args, **kwargs):
    """The ``__init__`` of a Value class until its first construction,
    which writes the class's own, installs it and calls it."""
    cls = self.__class__
    me = "__value_self__" if "self" in cls._fields else "self"
    lines = [f"def __init__({', '.join((me, *cls._fields))}):"]
    # one field at a time: touching __dict__ would give up the compact
    # instance layout, and attribute reads would get several times slower
    lines += [f"    __value_setattr__({me}, {name!r}, {name})" for name in cls._fields]
    lines.append(f"    {me}.__post_init__()")
    namespace = {"__value_setattr__": object.__setattr__}
    exec("\n".join(lines), namespace)
    init = namespace["__init__"]
    init.__defaults__ = cls._defaults
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    if cls.__dict__.get("__init__") is _write_init:  # not one the class defines
        cls.__init__ = init
    init(self, *args, **kwargs)


class Value(Record):
    """Base of a record whose fields are its annotations.

    The fields are the annotated names of the class and of its bases,
    base fields first; a class attribute named like a field is that
    field's default.  Instances take their fields positionally or by
    keyword and then run ``__post_init__``.  Equality, hashing, printing
    and the refusal of assignment and deletion are ``Record``'s.

    This is what ``@dataclass(frozen=True)`` gives, without the code
    generation that ``dataclass`` runs for each class when its module
    is imported, which every CLI call would pay again: a class writes
    its ``__init__`` on its first construction instead, unless it
    defines one.  A subclass may define its own ``__eq__`` and
    ``__hash__``; ``cached_property`` works, as it writes the instance
    ``__dict__`` directly.
    """

    _defaults = ()
    __init__ = _write_init

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = []
        for klass in reversed(cls.__mro__):
            for name in klass.__dict__.get("__annotations__", ()):
                if name not in fields:
                    fields.append(name)
        cls._fields = tuple(fields)
        cls._defaults = tuple(getattr(cls, name) for name in fields if hasattr(cls, name))
        for name in fields[len(fields) - len(cls._defaults) :]:
            if not hasattr(cls, name):
                raise TypeError(f"non-default argument {name!r} follows default argument")
        # a parent's written __init__ takes the parent's fields only
        if "__init__" not in cls.__dict__:
            cls.__init__ = _write_init

    def __post_init__(self):
        """Check the fields; the base accepts any values."""


class Verdict:
    """Mixin of a verdict record: true exactly when its first field is,
    as in ``class TraceVerdict(Verdict, Value)``."""

    __slots__ = ()

    def __bool__(self):
        return getattr(self, self._fields[0])
