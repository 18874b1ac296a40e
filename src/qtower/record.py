"""`Record`: the value semantics shared by qtower's immutable classes.

A record's fields are the names in its class's `__match_args__`. Its
`__init__` checks its arguments and then sets each field once with
`set_field`, since assignment is refused. Records are equal when they are
of the same class with equal fields, hash by their fields, print as
`Name(field=value, ...)`, and pickle and copy through their constructor,
so a copy passes the same checks as the original did. This is what
`@dataclass(frozen=True)` gave them, without importing `dataclasses`
(which loads `inspect`) and without building each class by `exec`.
"""

from __future__ import annotations

set_field = object.__setattr__  # a field's one assignment, in its record's __init__


class Record:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

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
