"""Exception taxonomy shared by the whole package.

Every failure mode that callers are expected to handle gets its own class
so the CLI can map them onto stable exit codes.
"""


class PottsHodgeError(Exception):
    """Base class for all package-specific errors."""


class InvalidParametersError(PottsHodgeError):
    """An argument violates a documented precondition (bad q, wrong length, ...)."""


class NotAMatroidError(PottsHodgeError):
    """A rank table fails one of the rank axioms.

    The failing axiom and the witnessing subsets are kept on the instance
    so callers can report them structurally.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = dict(witness) if witness else {}


class ResourceLimitError(PottsHodgeError):
    """An operation would exceed an enumeration limit: the ground-set cap
    or the graph enumeration budget."""


class SamplingFailureError(PottsHodgeError):
    """A rejection sampler exhausted its retry budget."""


class NotApplicableError(PottsHodgeError):
    """The requested check is meaningless for this input (e.g. degree too low)."""


class ImpossibleStateError(PottsHodgeError):
    """An internal invariant that should be unreachable was violated."""


class ParseError(PottsHodgeError):
    """Malformed textual input (JSON files, rational literals, corpus specs)."""
