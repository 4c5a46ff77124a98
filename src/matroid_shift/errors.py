"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed or dimensionally inconsistent input."""


class OverflowGuardError(InputError):
    """Profit/weight magnitudes exceed the exact-arithmetic guard."""


class DisallowedKindError(InputError):
    """Matroid kind outside the strongly-base-orderable families accepted here."""


class InfeasibleError(ValueError):
    """The requested object does not exist for this input."""


class GuardError(RuntimeError):
    """A brute-force enumeration would exceed its size guard."""


class InternalError(RuntimeError):
    """A solver invariant failed: the result would be wrong, so none is returned."""
