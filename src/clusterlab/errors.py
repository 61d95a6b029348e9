"""Exception hierarchy shared across the package."""


class ClusterLabError(Exception):
    """Base class for all package-specific errors."""


class ExactDivisionFailed(ClusterLabError):
    """An exchange quotient was not an exact Laurent polynomial.

    The Laurent property of cluster mutation guarantees exactness, so this
    always indicates a bug in the caller or in the arithmetic, never a
    mathematical possibility.  It must not be swallowed.
    """


class ExponentOverflow(ClusterLabError, OverflowError):
    """An exponent left the range a packed Laurent monomial field holds.

    Raised instead of letting a field wrap into its neighbour, which would
    silently produce a wrong monomial.
    """


class LimitExceeded(ClusterLabError):
    """A bounded computation hit its limit: a node limit, or a support box too large to hold."""


class InvalidArc(ClusterLabError, ValueError):
    """An endpoint pair does not describe a valid arc of the annulus."""


class InvalidAnnulus(ClusterLabError, ValueError):
    """An annulus needs at least one marked point on each boundary."""


class InvalidQuiver(ClusterLabError, ValueError):
    """A matrix or arrow list does not describe a quiver without loops or 2-cycles.

    Rejected rather than reinterpreted: a 2-cycle is not silently cancelled
    and a negative point index does not wrap around.
    """


class InvalidParameter(ClusterLabError, ValueError):
    """A report or construction parameter is outside its supported range."""


class InvalidTriangulation(ClusterLabError, ValueError):
    """An arc set is not a triangulation: it has the wrong number of arcs,
    repeats an arc or holds two crossing arcs."""


class MalformedTriangulation(ClusterLabError):
    """A face walk found a non-triangular interior face.

    Unreachable for arc sets satisfying the triangulation invariants;
    reported loudly rather than silently absorbed.
    """


class FlipSearchExceeded(ClusterLabError):
    """A flip search ran past its iteration cap.

    A descent flip may keep the crossing total against the target, but no
    measured one raised it, so an overrun points at a bug, not bad input.
    """


class QuiverInferenceError(ClusterLabError):
    """Base class for failures while reading a quiver off exchange partners."""


class NoPartnerFound(QuiverInferenceError):
    """No pool variable has the required unit denominator vector."""


class AmbiguousPartner(QuiverInferenceError):
    """Two pool variables share a unit denominator vector.

    This would contradict denominator uniqueness over an acyclic seed and
    is surfaced loudly.
    """


class NotTwoMonomials(QuiverInferenceError):
    """An exchange product did not split into two unit-coefficient monomials."""


class InconsistentExchangePattern(QuiverInferenceError):
    """Partner monomials admit no globally consistent arrow orientation."""


class VerificationError(ClusterLabError):
    """Base class for failures raised by the verification harness."""


class HypothesisNotSatisfied(VerificationError):
    """The hypothesis identity of a dichotomy check does not hold (caller bug)."""


class SideConditionViolated(VerificationError):
    """A dichotomy check was fed a degenerate sum it must reject."""


class IdentityFailed(VerificationError):
    """A formal identity chain left a nonzero difference polynomial."""


class ShapeMismatch(VerificationError):
    """An exchange relation deviates from the expected recurrence shape."""


class CrossingMismatch(VerificationError):
    """A crossing count deviates from the expected value."""


class ConstructionFailed(VerificationError):
    """A geometric search could not build the requested configuration."""


class SearchExhausted(VerificationError):
    """A bounded geometric search ended without finding an instance."""


class CounterexampleFound(VerificationError):
    """A check that would falsify a theorem succeeded.  Hard failure."""
