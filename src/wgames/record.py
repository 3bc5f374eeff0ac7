"""Immutable value records: plain ``__slots__`` classes, no generated code."""

from __future__ import annotations

from operator import attrgetter
from typing import Callable


def _initializer(cls: type) -> Callable:
    """The ``__init__`` of a record class.

    A call with one positional argument per field sets each slot through
    its own setter, which bypasses the ``__setattr__`` that raises; any
    other call is matched to the fields first.  ``__post_init__`` is
    called only when the class defines one.  The setters are paired with
    their positions once, here: a loop over a ``zip`` of the setters and
    the arguments takes half as long again as a frozen dataclass's
    generated ``__init__`` on two fields, this loop about as long.
    """
    setters = tuple(enumerate(getattr(cls, f).__set__ for f in cls._fields))
    arity = len(setters)
    post = None if cls.__post_init__ is Record.__post_init__ else cls.__post_init__

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != arity:
            args = self._arguments(args, kwargs)
        for k, set_field in setters:
            set_field(self, args[k])
        if post is not None:
            post(self)

    return __init__


class Record:
    """Base of an immutable value type.

    A subclass names its attributes in ``__slots__``.  ``_fields``, by
    default every slot, are the constructor's parameters in order, and
    ``==``, ``hash``, ``repr`` and :meth:`replace` read them; other slots
    hold values that ``__post_init__`` derives.  Assignment raises:
    ``__post_init__`` checks or normalizes the fields and sets slots with
    ``object.__setattr__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = vars(cls).get("_fields", vars(cls)["__slots__"])
        cls._key = attrgetter(*cls._fields)
        if "__init__" not in vars(cls):
            cls.__init__ = _initializer(cls)

    @classmethod
    def _arguments(cls, args: tuple, kwargs: dict) -> tuple:
        """All fields' values in order, from positional and keyword arguments."""
        name, fields = cls.__name__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, got {len(args)}")
        values = list(args)
        for field in fields[len(args):]:
            if field not in kwargs:
                raise TypeError(f"{name}() missing argument {field!r}")
            values.append(kwargs.pop(field))
        if kwargs:
            raise TypeError(f"{name}() got unexpected or repeated arguments {sorted(kwargs)}")
        return tuple(values)

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        inner = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, field) for field in self._fields)

    def replace(self, **changes) -> Record:
        """A copy with the named fields changed, checked as a new record is."""
        kept = {f: getattr(self, f) for f in self._fields if f not in changes}
        return type(self)(**kept, **changes)
