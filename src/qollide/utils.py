"""Small shared helpers: deterministic text output and the record base."""

from __future__ import annotations

from operator import attrgetter


def fmt_complex(z):
    """Format a complex number as ``a+bj``, which the bath CSV reader
    (numpy's complex parse) and ``complex()`` read back bit for bit."""
    z = complex(z)
    re = 0.0 if z.real == 0.0 else z.real
    im = 0.0 if z.imag == 0.0 else z.imag
    sign = "+" if not (im < 0.0) else "-"
    return f"{re:.17g}{sign}{abs(im):.17g}j"


def _refuse(self, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen record")


def _equal(self, other):
    if type(other) is not type(self):
        return NotImplemented
    return self._values(self) == self._values(other)


def _hash(self):
    return hash(self._values(self))


class Record:
    """Base of the package's records.  A subclass's annotated names are its
    fields, in declaration order, and a value assigned in its body is that
    field's default.  ``Record.__init__`` binds positional and keyword
    arguments to the fields as a function of that signature would, then
    calls ``__post_init__``.  ``class C(Record, frozen=True, eq=True)``
    refuses assignment and deletion with an ``AttributeError`` and compares
    and hashes by field values; by default a record is mutable and equal
    only to itself.  No code is generated: every record shares these
    methods, and :attr:`_fields` is its field tuple.
    """

    def __init_subclass__(cls, frozen=False, eq=False):
        super().__init_subclass__()
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        # the names a keyword may take after n positional arguments
        cls._keywords = [frozenset(cls._fields[n:]) for n in range(len(cls._fields) + 1)]
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse
        if eq:
            cls._values = attrgetter(*cls._fields)
            cls.__eq__ = _equal
            cls.__hash__ = _hash if frozen else None

    def __init__(self, *args, **kwargs):
        fields, values = self._fields, self.__dict__
        if len(args) > len(fields) or not kwargs.keys() <= self._keywords[len(args)]:
            raise TypeError(f"{type(self).__name__}() takes the fields {fields}; got "
                            f"{len(args)} positional and the keywords {sorted(kwargs)}")
        values.update(self._defaults)
        values.update(zip(fields, args))
        values.update(kwargs)
        if len(values) < len(fields):
            missing = [name for name in fields if name not in values]
            raise TypeError(f"{type(self).__name__}() missing the fields {missing}")
        self.__post_init__()

    def __post_init__(self):
        """Check or normalize the fields once they are set (none here)."""

    def as_dict(self):
        """The fields by name, in declaration order."""
        return {name: getattr(self, name) for name in self._fields}

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in self.as_dict().items())
        return f"{type(self).__qualname__}({shown})"
