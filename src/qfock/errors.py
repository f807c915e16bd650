"""Exception hierarchy shared by all qfock modules, and their size check."""


class QFockError(Exception):
    """Base class for all library errors."""


class UsageError(QFockError):
    """Caller violated a precondition (bad arguments, out-of-range values, ...)."""


class DepthExceededError(QFockError):
    """A creation operator would push a tensor word past the Fock truncation.

    Raised instead of silently truncating: exact identity checks are only
    meaningful when the full result fits under the configured depth.
    """


class CutoffExceededError(QFockError):
    """A letter product or gauge action would exceed the polynomial degree cutoff."""


class DegeneracyError(QFockError):
    """A moment / Hankel system is singular (measure supported on too few points)."""


class ResourceBudgetError(QFockError):
    """A work budget was exceeded: a cap on a size (a symmetric group, a
    partition count, a polynomial length or degree, a norm-estimate depth) or
    the live arc-state budget of `wick.vacuum_moment`."""


def check_size(what: str, size: int, limit: int, least: int = 0) -> None:
    """Refuse a size below least (UsageError) or over limit
    (ResourceBudgetError), naming the size asked for and the bound."""
    if size < least:
        raise UsageError(f"{what} {size}, below the least of {least}")
    if size > limit:
        raise ResourceBudgetError(f"{what} {size}, over the limit of {limit}")
