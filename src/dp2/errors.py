"""Exception types shared across the package, and the base of its immutable value types.

``Value`` holds the contract every value type keeps: its fields are the names
in the subclass's ``__slots__``, and it holds nothing else, so no instance
carries a cache; it compares equal only to an instance of the same class
with the same field tuple, hashes as that tuple, prints as
``Name(field=value, ...)``, pickles and copies through its constructor, and
refuses assignment and deletion.  Each subclass writes its one constructor,
``__init__``, which checks its fields and stores them with
``object.__setattr__``; what follows from the fields is computed from
them, never stored beside them.
"""

from operator import attrgetter


class NotACocycle(ValueError):
    """A class fed to a cohomological operation does not lie in ker(1 + sigma)."""


class TrivialClass(ValueError):
    """The trivial cohomology class was passed where a nonzero class is required."""


class InternalInconsistency(AssertionError):
    """Two independent computation routes disagreed; indicates a bug, never user error."""


class Infeasible(ValueError):
    """No valid rank assignment exists for the given exact-sequence dimensions."""


class UnknownClaim(KeyError):
    """A claim identifier is not present in the registry."""


def refuse_mutation(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of the value types, whose fields are fixed."""
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


class Value:
    """Base of the immutable value types: the contract derived from ``__slots__``."""

    __slots__ = ()
    __setattr__ = __delattr__ = refuse_mutation

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__slots__)
        get = attrgetter(*names)
        # attrgetter of one name returns the bare value, not a 1-tuple
        cls._field_names = names
        cls._field_values = staticmethod(get if len(names) > 1 else lambda v: (get(v),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._field_values(self) == self._field_values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._field_values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._field_names, self._field_values(self)))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._field_values(self)
