"""Frozen record classes: the part of `dataclasses` that torickit uses.

`@record` turns a class with annotated fields into an immutable value
type, like `@dataclass(frozen=True)`: an `__init__` taking the fields
positionally or by keyword and then calling `__post_init__` if the class
defines it, `__eq__` against instances of the same class only, `__hash__`
of the field tuple, the dataclass `__repr__`, `__match_args__`, and
assignment or deletion of any attribute raising AttributeError. A record
class annotates at least one field, gives no field a default and defines
none of the methods in `_GENERATED`, which replace whatever the class body
has; a test parses every record class in the package to keep it so.

Importing `dataclasses` loads `inspect`, `ast`, `dis` and `tokenize`, and
every class it builds costs about 1 ms; torickit runs as a fresh process
per command, so it builds its records here instead. Only `__init__` is
generated as literal code over the field names, as in `dataclasses`, since
its signature and field stores differ per class. `__eq__`, `__hash__` and
`__repr__` are shared by every record and read the fields through one
`operator.attrgetter` stored on the class, so a record class costs one
small compile.
"""

from __future__ import annotations

from operator import attrgetter


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


_GENERATED = (
    "__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__", "__match_args__"
)


def _eq(self, other):
    if other.__class__ is self.__class__:
        fields = self._record_fields
        return fields(self) == fields(other)
    return NotImplemented


def _hash(self):
    return hash(self._record_fields(self))


def _repr(self):
    shown = ", ".join(
        f"{name}={value!r}" for name, value in zip(self.__match_args__, self._record_fields(self))
    )
    return f"{self.__class__.__qualname__}({shown})"


def _field_getter(names):
    """The fields of an instance as a tuple, for one or more fields."""
    if len(names) > 1:
        return attrgetter(*names)
    get = attrgetter(*names)
    return lambda self: (get(self),)


def record(cls):
    """Make `cls` a frozen record over its annotated fields (see the module)."""
    names = tuple(cls.__dict__["__annotations__"])
    assign = "".join(f"    _set(self, {n!r}, {n})\n" for n in names)
    if hasattr(cls, "__post_init__"):
        assign += "    self.__post_init__()\n"
    namespace = {"__name__": cls.__module__, "_set": object.__setattr__}
    exec(f"def __init__(self, {', '.join(names)}):\n{assign}", namespace)
    namespace["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    namespace.update(
        __eq__=_eq,
        __hash__=_hash,
        __repr__=_repr,
        __setattr__=_frozen_setattr,
        __delattr__=_frozen_delattr,
        __match_args__=names,
    )
    cls._record_fields = staticmethod(_field_getter(names))
    for name in _GENERATED:
        setattr(cls, name, namespace[name])
    return cls
