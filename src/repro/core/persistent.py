"""Persistent type declaration -- the O++ ``persistent`` storage class.

O++ marks objects persistent at allocation (``pnew``), not in the type:
persistence, like versionability, is orthogonal to type (paper §2, [2]).
In Python the only thing a type needs in order to persist is a stable
name in the codec registry; the :func:`persistent` decorator provides it,
and :class:`PersistentObject` is an optional convenience base class with
keyword construction, structural equality, and a readable repr -- nothing
in the kernel requires it.

Example::

    @persistent
    class Person:
        def __init__(self, name, age):
            self.name = name
            self.age = age

    ref = db.pnew(Person("ann", 41))
"""

from __future__ import annotations

from typing import Any, TypeVar

from repro.storage.serialization import register_type

T = TypeVar("T", bound=type)


def persistent(cls: T | None = None, *, name: str | None = None) -> Any:
    """Class decorator registering a type for persistence.

    Usable bare (``@persistent``) or with an explicit stable name
    (``@persistent(name="dms.Chip")``).  The stable name defaults to the
    class's module-qualified name; pass one explicitly if the class might
    move between modules while databases referencing it live on.
    """
    if cls is None:
        def apply(klass: T) -> T:
            return register_type(klass, name)
        return apply
    return register_type(cls, name)


class PersistentObject:
    """Optional base class for persistent types.

    Provides keyword-argument construction into ``__dict__``, structural
    equality (same type, same state), and a compact repr.  Subclasses that
    define their own ``__init__`` still get the equality and repr.
    """

    def __init__(self, **fields: Any) -> None:
        self.__dict__.update(fields)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other.__dict__ == self.__dict__

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in sorted(self.__dict__.items()))
        return f"{type(self).__name__}({fields})"
