"""Exception types shared across the package, and the mutation guard of its value types."""


class NotACocycle(ValueError):
    """A class fed to a cohomological operation does not lie in ker(1 + sigma)."""


class TrivialClass(ValueError):
    """The trivial cohomology class was passed where a nonzero class is required."""


class InternalInconsistency(AssertionError):
    """Two independent computation routes disagreed; indicates a bug, never user error."""


class HalfIntegerLeak(ArithmeticError):
    """A Riemann-Roch integral failed to be an integer; an upstream invariant is broken."""


class Infeasible(ValueError):
    """No valid rank assignment exists for the given exact-sequence dimensions."""


class UnknownClaim(KeyError):
    """A claim identifier is not present in the registry."""


def refuse_mutation(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of the value types, whose fields are fixed."""
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")
