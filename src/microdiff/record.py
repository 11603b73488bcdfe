"""Plain value records for the library's result and parameter types.

A subclass names its fields in ``_fields`` and their defaults in
``_defaults``; a callable default (``list``) is called for a fresh value
per record.  Records take their fields positionally or by keyword, compare
equal when the class and every field are equal, and print as
``Name(field=value, ...)``.  A ``FrozenRecord`` also refuses assignment and
hashes by value.
"""


class Record:
    _fields = ()
    _defaults = {}

    def __init__(self, *args, **kw):
        cls = type(self).__name__
        if len(args) > len(self._fields):
            raise TypeError(f"{cls} takes {len(self._fields)} fields, got {len(args)}")
        values = dict(zip(self._fields, args))
        for name, value in kw.items():
            if name not in self._fields or name in values:
                raise TypeError(f"{cls} got an unexpected or repeated field {name!r}")
            values[name] = value
        for name in self._fields:
            if name not in values:
                if name not in self._defaults:
                    raise TypeError(f"{cls} is missing the field {name!r}")
                default = self._defaults[name]
                values[name] = default() if callable(default) else default
        self.__dict__.update(values)

    def _values(self):
        return tuple(self.__dict__[name] for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # mutable: unhashable, as equal records may later differ

    def __repr__(self):
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")

    def __hash__(self):
        # a dict field (ConvergenceProfile.betas) hashes by its items
        return hash(tuple(
            frozenset(v.items()) if isinstance(v, dict) else v for v in self._values()
        ))
