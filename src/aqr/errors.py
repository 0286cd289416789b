"""Typed exceptions shared across the package, and _count, the one rule
for an argument that counts something: an int or a numpy integer, not a
bool, of at least a minimum. Anything else is a DomainError where it
enters, so no count such as 2.7 is rounded down or up."""

import operator


class AqrError(Exception):
    """Base class for all package errors."""


class DomainError(AqrError):
    """An argument lies outside its mathematical domain."""


class SingularDensity(AqrError):
    """Density query on the Dirac (pure-quantile) weight family."""


class ScheduleDomain(AqrError):
    """An alpha schedule is undefined at the requested tau."""


class QuadratureFail(AqrError):
    """Adaptive quadrature did not converge; carries the error estimate."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class EmptyInput(AqrError):
    """An operation received an empty sample or dataset."""


class ShapeMismatch(AqrError):
    """Two inputs that must have matching shapes do not."""


class DegenerateWeights(AqrError):
    """All L-estimator weights vanished (tau below the plotting grid)."""


class KernelUnderflow(AqrError):
    """Every kernel weight underflowed; the evaluation point is unreachable."""


class EmptyGrid(AqrError):
    """Bandwidth selection received an empty candidate grid."""


class IllConditioned(AqrError):
    """A Hessian stayed singular after ridge repair, or a fit is degenerate."""


class LineSearchFail(AqrError):
    """Backtracking found no descent along a non-flat Newton direction."""


class IdentificationFail(AqrError):
    """Direction vector has first component exactly zero; sign is undefined."""


class ZeroVector(AqrError):
    """A direction vector is identically zero."""


class PlanMismatch(AqrError):
    """A shard plan is inconsistent with the dataset size."""


class ZeroTruth(AqrError):
    """Relative deviation against a zero truth value is undefined."""


class DegenerateSeries(AqrError):
    """A return series has zero variance; the Sharpe ratio is undefined."""


class ParseError(AqrError):
    """Malformed input file; carries the offending location."""

    def __init__(self, message, row=None, col=None):
        super().__init__(message)
        self.row = row
        self.col = col


def _count(value, minimum, what):
    """`value` as an int, when it is an int or a numpy integer (not a bool)
    of at least `minimum`; otherwise DomainError, its message `what` and
    then the value's repr."""
    if not isinstance(value, bool):
        try:
            count = operator.index(value)
        except TypeError:
            pass
        else:
            if count >= minimum:
                return count
    raise DomainError(f"{what} {value!r}")
