"""Exception taxonomy shared across the package."""


class TempestError(Exception):
    """Base class for all package errors."""


class ReducibleChain(TempestError):
    """Markov chain state graph is not strongly connected."""


class NumericalFailure(TempestError):
    """A solver finished but its residual exceeds the accepted tolerance."""


class InvalidRates(TempestError):
    """Transition rates/probabilities violate a builder precondition."""


class DomainError(TempestError):
    """Argument outside the mathematical domain of a kernel function."""


class ConvergenceFailure(TempestError):
    """Iterative eigenvalue computation did not converge.

    Carries ``iterations`` and the last Collatz-Wielandt ``bracket``.
    """

    def __init__(self, msg, iterations=None, bracket=None):
        super().__init__(msg)
        self.iterations = iterations
        self.bracket = bracket


class EmptyInterval(TempestError):
    """Maximization interval (lo, hi] is empty."""


class DivergenceDetected(TempestError):
    """Objective exceeds the divergence cap near the open left endpoint.

    No certificate objective diverges in exact arithmetic, so this signals a
    rounding failure, never a verdict.
    """


class WrongKind(TempestError):
    """Graph kind (AMEI/AMAI) or time base does not match the certificate."""


class NonIrreducible(TempestError):
    """A certificate precondition on chain irreducibility/aperiodicity fails."""


class BracketError(TempestError):
    """Threshold-search endpoints do not straddle the stable/unstable verdict."""


class TooManyEdges(TempestError):
    """Exponential-size construction exceeds the configured resource cap."""


class TooManyConfigurations(TempestError):
    """Exhaustive expectation would enumerate more than the allowed configs."""


class ParamRange(TempestError):
    """A rate or probability outside its range."""


class InsufficientData(TempestError):
    """Not enough independent trajectories for a decay-rate estimate."""


class ConfigError(TempestError):
    """Experiment configuration failed schema validation or dispatch."""


#: Exceptions that map to CLI exit code 3 (resource cap exceeded).
RESOURCE_ERRORS = (TooManyEdges, TooManyConfigurations)

#: Exceptions that map to CLI exit code 2 (numerical failure).
NUMERICAL_ERRORS = (NumericalFailure, ConvergenceFailure)
