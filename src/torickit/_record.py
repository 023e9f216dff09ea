"""Frozen record classes: the part of `dataclasses` that torickit uses.

`@record` turns a class with annotated fields into an immutable value
type, like `@dataclass(frozen=True)`: an `__init__` taking the fields
positionally or by keyword (a class attribute is the field's default) and
then calling `__post_init__` if the class defines it, `__eq__` against
instances of the same class only, `__hash__` of the field tuple, the
dataclass `__repr__`, `__match_args__`, and assignment or deletion of any
attribute raising AttributeError. Methods the class body defines itself
are kept.

Importing `dataclasses` loads `inspect`, `ast`, `dis` and `tokenize`, and
every class it builds costs about 1 ms; torickit runs as a fresh process
per command, so it builds its records here instead. As in `dataclasses`,
`__init__`, `__eq__`, `__hash__` and `__repr__` are generated as literal
code over the field names, which keeps them as fast as hand-written ones.
"""

from __future__ import annotations


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


_GENERATED = (
    "__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__", "__match_args__"
)


def record(cls):
    """Make `cls` a frozen record over its annotated fields (see the module)."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    params = "".join(f", {n}=_dflt_{n}" if n in cls.__dict__ else f", {n}" for n in names)
    assign = "".join(f"    _set(self, {n!r}, {n})\n" for n in names)
    if hasattr(cls, "__post_init__"):
        assign += "    self.__post_init__()\n"
    mine = "".join(f"self.{n}, " for n in names)
    theirs = "".join(f"other.{n}, " for n in names)
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    body = assign or "    pass\n"
    source = (
        f"def __init__(self{params}):\n{body}"
        "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return ({mine}) == ({theirs})\n"
        "    return NotImplemented\n"
        "def __hash__(self):\n"
        f"    return hash(({mine}))\n"
        "def __repr__(self):\n"
        f"    return self.__class__.__qualname__ + f'({shown})'\n"
    )
    namespace = {"__name__": cls.__module__, "_set": object.__setattr__}
    namespace.update((f"_dflt_{n}", cls.__dict__[n]) for n in names if n in cls.__dict__)
    exec(source, namespace)
    for name in ("__init__", "__eq__", "__hash__", "__repr__"):
        namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
    namespace.update(
        __setattr__=_frozen_setattr, __delattr__=_frozen_delattr, __match_args__=names
    )
    for name in _GENERATED:
        # What the class body defines wins; its `__hash__` is None when it
        # defines `__eq__` alone.
        if cls.__dict__.get(name) is None:
            setattr(cls, name, namespace[name])
    return cls
