"""Exception types raised by the chslit package."""

from __future__ import annotations


class ChslitError(Exception):
    """Base class for all package-specific errors."""


# -- partition parsing and path bookkeeping ---------------------------------

class BadIndex(ChslitError):
    """A path list that does not fit the scenario: an index out of range or
    not parseable, a path repeated or in two groups, a path missing, a closed
    path in a group, or an empty list or group."""


# -- experiment construction and evaluation ---------------------------------

class NoOpenPaths(ChslitError):
    """The scenario has no open path, so no experiment can be built."""


class DegenerateDetector(ChslitError):
    """All amplitudes vanish, leaving the detector direction undefined."""


class InconsistentSet(ChslitError):
    """Probabilities were requested for a history set that fails consistency."""


class ConditionUnsatisfied(ChslitError):
    """Conditioning event has (numerically) zero probability."""


# -- framework enumeration and queries ---------------------------------------

class TooLarge(ChslitError):
    """Open-path count exceeds the configured enumeration cap."""


class NotInFramework(ChslitError):
    """Event not expressible in the framework; the single-framework rule
    forbids assigning it a probability here."""


class MeaninglessCombination(ChslitError):
    """Neither framework refines the other, so no joint context exists."""

    def __init__(self, message: str, partition_a=None, partition_b=None):
        super().__init__(message)
        self.partition_a = partition_a
        self.partition_b = partition_b


# -- scenario documents -------------------------------------------------------

class ParseError(ChslitError):
    """Scenario document is not valid JSON."""


class SchemaError(ChslitError):
    """Scenario document violates the schema."""

    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field_path = field_path


class PartSumMismatch(ChslitError):
    """Sub-part amplitudes do not sum to the parent slit amplitude."""

    def __init__(self, slit_label: str, message: str):
        super().__init__(message)
        self.slit_label = slit_label


class UnknownScenario(ChslitError):
    """No built-in scenario under the requested name."""


class UnknownSlit(ChslitError):
    """No slit with the requested label."""


class AlreadyRefined(ChslitError):
    """The slit already carries sub-parts."""
