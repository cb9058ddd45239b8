"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration / precondition problems
exit 1, numeric non-convergence exits 2, violated runtime invariants exit 3.
"""


class InvalidRate(ValueError):
    """A class rate is out of range (lambda <= 0, mu <= 0, or nu < 0)."""


class NonUnitLoad(ValueError):
    """sum(lambda_i / mu_i) deviates from 1 beyond tolerance."""


class EmptySource(ValueError):
    """Departure requested from a class with nobody in the given source."""


class HypothesisViolated(ValueError):
    """A coupling was requested outside its hypothesis (e.g. nu_i > mu_i)."""


class OrderingViolation(RuntimeError):
    """A pathwise ordering failed during a coupled run.  Never expected;
    indicates an implementation bug, so it is fatal."""


class CycleTimeout(RuntimeError):
    """A regenerative cycle exceeded its event budget (empty state too rare)."""


class Unsupported(ValueError):
    """Operation not available for this policy kind (e.g. exact solve of FIFO)."""


class TruncationTooSmall(ValueError):
    """Requested truncation level K below the server count."""


class InsufficientMemory(ValueError):
    """A solve would allocate more than the machine's physical memory."""


class NotConverged(RuntimeError):
    """Iterative stationary solver exhausted its budget."""


class Reducible(RuntimeError):
    """Truncated chain is not irreducible; stationary vector undefined."""


class ThetaOutOfRange(ValueError):
    """MGF parameter outside its admissible range."""


class SchemaError(ValueError):
    """Experiment config failed schema validation."""
