"""Exception types shared across the package.

The CLI maps these onto exit codes: 1 for verification failures
(FormatError, ChecksumError, InconsistencyError), 2 for usage problems (a
plain ValueError; no subclass of it is defined here), 3 for resource
problems (CapacityError, BudgetExceededError, InsufficientTableError) and
for a truncation bound that misses its tolerance (ConvergenceError).
"""


class CapacityError(Exception):
    """A requested size is past what the code can fill exactly or feasibly:
    an int64 bound, the builder's cap or lift window, the tau table budget
    or prime set, or a mollifier sieve."""


class BudgetExceededError(Exception):
    """An enumeration hit its node budget before completing."""


class InsufficientTableError(Exception):
    """A computation needs more precomputed coefficients than are available."""


class FormatError(Exception):
    """A coefficient file is malformed (bad magic, version, or structure)."""


class ChecksumError(FormatError):
    """A coefficient file's checksum does not match its contents."""


class InconsistencyError(Exception):
    """Two quantities that must vanish together disagree beyond tolerance."""


class ConvergenceError(Exception):
    """A quadrature tail estimate exceeds the requested tolerance."""
