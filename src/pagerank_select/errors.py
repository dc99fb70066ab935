"""Exception types shared across the package."""


class PagerankSelectError(Exception):
    """Base class for all package-specific errors."""


class OverlapError(PagerankSelectError):
    """Fragile and fixed edges intersect, or forced-on and forced-off sets do."""


class NodeIndexError(PagerankSelectError):
    """A node index lies outside [0, n), or the node count is not positive or does not fit in intp."""


class DampingRangeError(PagerankSelectError):
    """Damping parameter outside the range an operation supports."""


class DuplicateEdgeError(PagerankSelectError):
    """An edge appears more than once within the fixed or the fragile list."""


class ParseError(PagerankSelectError):
    """An instance file or constraint spec violates the expected schema."""


class DimensionMismatch(PagerankSelectError):
    """Vector lengths disagree (selection vs. coefficients vs. fragile count), or a selection
    bit is not 0 or 1 (``check_selection``) or an edge id not an integer in [0, |Z|) (``check_forced``)."""


class TooLargeToEnumerate(PagerankSelectError):
    """An enumeration was requested over more fragile edges than the limit."""


class TooLargeForDense(PagerankSelectError):
    """The dense walk numerics would allocate an array past their size limit."""


class InfeasibleSpec(PagerankSelectError):
    """Random-instance spec gives a count that is not an integer or a density
    outside [0, 1], or asks for a negative number of fragile edges, or for
    more fragile edges than non-edges exist."""


class SingularSystem(PagerankSelectError):
    """Hitting-time system is singular (damping 1 with the target unreachable)."""


class NoConvergence(PagerankSelectError):
    """An iterative method exceeded its iteration guard."""


class LTooLarge(PagerankSelectError):
    """Supplied lower-bound constant exceeds the incumbent's objective value."""


class InvalidOrdering(PagerankSelectError):
    """Lift ordering is not a permutation of the unselected fragile edges."""


class Infeasible(PagerankSelectError):
    """No selection satisfies the constraint set."""
