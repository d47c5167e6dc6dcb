"""Immutable record classes without the ``dataclasses`` module.

Every CLI request starts a fresh interpreter, so import time is part of
its wall time, and on a host that runs with ``PYTHONDONTWRITEBYTECODE``
no bytecode is cached between requests.  There ``import dataclasses``
also loads ``inspect``, ``ast``, ``dis`` and ``tokenize``, and each
``@dataclass(frozen=True)`` ``exec``s generated source (about 1 ms a
class, against 5 us for ``frozen``).  With the fifteen records of this
package on ``dataclasses``, ``import ratcirc.cli`` took 78 ms under
``python3 -X importtime`` on a 2-core host; with ``frozen`` it takes
50 ms (medians of 25 runs).  ``frozen`` gives a class the same
behaviour from plain closures.
"""
from __future__ import annotations

from operator import attrgetter


def frozen(cls):
    """Make ``cls`` an immutable record, as ``dataclasses.dataclass(frozen=True)`` does.

    The fields are the names annotated in the class body, in order (two or
    more); a class attribute of the same name is the field's default.
    ``__init__`` binds positional or keyword arguments and then calls
    ``__post_init__`` if the class has one.  Equality compares the field
    tuples of two instances of the same class, the hash is the hash of the
    field tuple, the repr is ``QualName(f=..., ...)``, and assigning or
    deleting any attribute raises ``AttributeError``.
    """
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {f: cls.__dict__[f] for f in names if f in cls.__dict__}
    post_init = hasattr(cls, "__post_init__")
    key = attrgetter(*names)  # the field tuple

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{cls.__qualname__}() takes {len(names)} arguments, got {len(args)}")
        values = self.__dict__
        values.update(zip(names, args))
        missing = []
        for f in names[len(args):]:
            if f in kwargs:
                values[f] = kwargs.pop(f)
            elif f in defaults:
                values[f] = defaults[f]
            else:
                missing.append(f)
        if kwargs:
            f = next(iter(kwargs))
            problem = "multiple values for" if f in names else "an unexpected"
            raise TypeError(f"{cls.__qualname__}() got {problem} argument {f!r}")
        if missing:
            raise TypeError(f"{cls.__qualname__}() missing {', '.join(map(repr, missing))}")
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in names)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls
