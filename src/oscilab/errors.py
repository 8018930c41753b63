"""Error types shared across the package."""


class InvariantViolation(ValueError):
    """A spec or configuration violates one of its declared invariants.

    ``invariant`` is a stable machine-readable slug (e.g. "beta-positivity")
    so callers such as the command-line runner can report which rule failed
    without parsing the human-readable message.
    """

    def __init__(self, invariant, message):
        self.invariant = invariant
        super().__init__(message)

    def __reduce__(self):
        # the default rebuilds from self.args, which lacks the invariant; a
        # failure raised in a forked worker must reach the caller whole
        return type(self), (self.invariant, str(self))


class ComputeFailure(InvariantViolation):
    """A computation on a valid input could not produce a trustworthy number.

    Raised mid-run, e.g. when an iterative norm runs out of iterations or a
    resolvent factorization breaks down; the command-line runner reports it
    as a compute failure rather than as a bad configuration.
    """
