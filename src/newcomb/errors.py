"""Exception hierarchy.

Every error raised on purpose by this package derives from NewcombError,
so callers can catch one type at an API boundary. Errors that signal bad
input values also derive from ValueError.
"""

from __future__ import annotations


class NewcombError(Exception):
    """Base class for all errors raised by this package."""


class EmptyDistributionError(NewcombError, ValueError):
    """A distribution was built from no atoms."""


class NegativeWeightError(NewcombError, ValueError):
    """A distribution weight was negative."""


class ZeroTotalWeightError(NewcombError, ValueError):
    """Distribution weights summed to zero, so normalization is undefined."""


class ZeroProbabilityEventError(NewcombError):
    """Conditioning on an event the model gives probability zero.

    This is a refusal, not a value. The conditional does not exist, and
    callers must not fall back to treating it as probability 0.
    """


class UnknownOmegaValueError(ZeroProbabilityEventError):
    """An omega value outside the prior support was named.

    Conditioning on it would condition on a zero-probability event.
    """


class InvalidModelError(NewcombError, ValueError):
    """A directly constructed object violates its structural invariants."""


class PerfectKnowledgeError(NewcombError, ValueError):
    """The prior mean is 0 or 1, so a conditional the caller asked for
    degenerates (one of the two decisions has probability zero)."""


class InvalidPartitionError(NewcombError, ValueError):
    """Blocks do not form a partition of the fine support indices."""


class DeltaOutOfRangeError(NewcombError, ValueError):
    """delta must satisfy 0 <= delta < min(p, 1 - p)."""


class NotADistributionError(NewcombError, ValueError):
    """Belief vector entries must be positive and sum exactly to 1."""


class ZeroSamplesError(NewcombError, ValueError):
    """A simulation was requested with fewer than one sample."""


class ScenarioParseError(NewcombError, ValueError):
    """Input text could not be parsed (syntax, types, rational grammar)."""


class InvalidScenarioError(NewcombError, ValueError):
    """Parsed scenario data violates a semantic constraint."""
