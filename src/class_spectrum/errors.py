"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument violates an operation's precondition."""


class EnumerationCapError(DomainError):
    """A full-spectrum enumeration was refused because it would be too large.

    Pass an explicit cap override to force the computation.
    """


class InvariantError(RuntimeError):
    """An internal invariant failed, so the implementation is wrong.

    Raised explicitly rather than through ``assert``, which ``python -O``
    strips.
    """
