"""`Record`: the value semantics shared by qtower's immutable classes.

A record's fields are the names in its class's `__match_args__`, each set
once with `set_field`; `Record(*values)` takes one value per field, in that
order. The expression nodes and `Session` (after its checks) use it; `Token`
and `Verdict` (keyword forms), `Polynomial` (it normalizes), `Tower` (it
proves its levels) and `TowerElement` (every kernel operation builds one)
set their own fields. Records are equal when of one class with equal fields,
hash by their fields, print as `Name(field=value, ...)`, and pickle and copy
through their constructor, so a copy passes the checks the original did.
`@dataclass(frozen=True)` does the same, but loads `inspect` and builds
each class by `exec`.
"""

from __future__ import annotations

set_field = object.__setattr__  # a field's one assignment, in its record's __init__


class Record:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init__(self, *values):
        names = self.__match_args__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} values, got {len(values)}")
        for name, value in zip(names, values):
            set_field(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
