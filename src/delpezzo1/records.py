"""Record: the base of the package's value classes.

A record names its fields in __slots__ and sets them in its own __init__,
which validates them.  Two records are equal when they are of the same
class with equal fields, a record hashes as the tuple of its fields and
reprs as Name(field=value, ...), and assigning to a field raises
AttributeError.  These methods are written once, here, not generated per
class by exec when its module is imported: every fresh CLI call imports
every record class, and would pay for the generated code and for the
inspect module that the generator loads.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable


class Record:
    """A frozen record whose fields are the names in the subclass's __slots__."""

    __slots__ = ()
    _values: Callable[[Any], tuple]  # a record's fields as a tuple, set per subclass

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        names = cls.__slots__
        if len(names) == 1:  # attrgetter of one name returns the bare value
            getter = attrgetter(names[0])
            cls._values = staticmethod(lambda record: (getter(record),))
        else:
            cls._values = attrgetter(*names)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        pairs = zip(self.__slots__, self._values(self))
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in pairs)})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        """Copy and pickle by calling the class on the fields, as __setattr__ refuses."""
        return type(self), self._values(self)
