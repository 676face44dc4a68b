"""Errors, default caps and the helpers shared across the package.

Every command loads this module, so what several layers share lives
here: the default size caps, the names of the trace-checking modes,
``Value`` (the base of the immutable records that the layers return:
verdicts, certificates, problems, trace rules) and ``read_lines``, the
line reader of the file formats.
"""


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


_set = object.__setattr__


class Value:
    """Base of an immutable record with named fields.

    The fields are the annotated names of the class and of its bases,
    base fields first; a class attribute named like a field is that
    field's default.  Instances take their fields positionally or by
    keyword and then run ``__post_init__``.  Two instances are equal
    when they have the same class and equal field tuples, the hash is
    the hash of the field tuple, ``repr`` is ``Name(field=value, ...)``,
    and assigning or deleting an attribute raises AttributeError.

    This is what ``@dataclass(frozen=True)`` gives, without the code
    generation that ``dataclass`` runs for each class when its module
    is imported, which every CLI call would pay again.  A subclass may
    define its own ``__eq__`` and ``__hash__``; ``cached_property``
    works, as it writes the instance ``__dict__`` directly.
    """

    _fields = ()
    _defaults = {}
    _least = 0  # fields before the first default

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = []
        for klass in reversed(cls.__mro__):
            for name in klass.__dict__.get("__annotations__", ()):
                if name not in fields:
                    fields.append(name)
        cls._fields = tuple(fields)
        cls._defaults = {name: getattr(cls, name) for name in fields if hasattr(cls, name)}
        cls._least = len(fields) - len(cls._defaults)
        for name in fields[cls._least :]:
            if name not in cls._defaults:
                raise TypeError(f"non-default argument {name!r} follows default argument")

    def __init__(self, *args, **kwargs):
        fields = self._fields
        n = len(args)
        if kwargs or not self._least <= n <= len(fields):
            args = self._bind(args, kwargs)
        elif n < len(fields):
            args += tuple(self._defaults.values())[n - self._least :]
        # one attribute at a time: touching __dict__ would give up the
        # interpreter's compact instance layout, and attribute reads on
        # the instance would get several times slower
        for name, value in zip(fields, args):
            _set(self, name, value)
        self.__post_init__()

    def _bind(self, args, kwargs) -> list:
        """The field values of a call, filling in defaults, or the
        TypeError that a function with the fields as parameters would
        raise for these arguments."""
        cls = type(self)
        fields, defaults = cls._fields, cls._defaults
        where = f"{cls.__qualname__}.__init__()"
        bound = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
            if name in bound:
                raise TypeError(f"{where} got multiple values for argument {name!r}")
            bound[name] = value
        if len(args) > len(fields):
            most = len(fields) + 1  # the message counts self
            least = most - len(defaults)
            if least < most:
                takes = f"from {least} to {most} positional arguments"
            else:
                takes = f"{most} positional argument{'s' if most > 1 else ''}"
            raise TypeError(f"{where} takes {takes} but {len(args) + 1} were given")
        missing = [repr(n) for n in fields if n not in bound and n not in defaults]
        if missing:
            names, s = missing[-1], ""
            if len(missing) > 1:
                comma = "," if len(missing) > 2 else ""
                names, s = f"{', '.join(missing[:-1])}{comma} and {names}", "s"
            raise TypeError(f"{where} missing {len(missing)} required positional argument{s}: {names}")
        return [bound[n] if n in bound else defaults[n] for n in fields]

    def __post_init__(self):
        """Check the fields; the base accepts any values."""

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
