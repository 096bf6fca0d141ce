"""Exception types raised by the chslit package: one per refusal that a
caller or the CLI treats differently.  A bad value passed to a constructor
or a lookup by name (an unknown demo or slit, a slit refined twice) raises
``ValueError`` instead."""

from __future__ import annotations


class ChslitError(Exception):
    """Base class for all package-specific errors."""


# -- partition parsing and path bookkeeping ---------------------------------

class BadIndex(ChslitError):
    """A path list that does not fit the scenario: an index out of range or
    not parseable, a path repeated or in two groups, a path missing, a closed
    path in a group, an empty list or group, or a group that is not a
    collection of integers."""


# -- experiment construction and evaluation ---------------------------------

class DegenerateScenario(ChslitError):
    """No experiment can be built: the scenario has no open path, or all
    its amplitudes vanish, leaving the detector direction undefined."""


class InconsistentSet(ChslitError):
    """Probabilities were requested for a history set that fails consistency."""


class ConditionUnsatisfied(ChslitError):
    """Conditioning event has (numerically) zero probability."""


# -- framework enumeration and queries ---------------------------------------

class TooLarge(ChslitError):
    """Open-path count exceeds the configured enumeration cap."""


class NotInFramework(ChslitError):
    """The single-framework rule: an event not expressible in the framework,
    or two frameworks neither of which refines the other, so that no joint
    context exists."""


# -- scenario documents -------------------------------------------------------

class SchemaError(ChslitError):
    """Scenario document is not valid JSON (field path ``$``) or violates
    the schema."""

    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field_path = field_path


class PartSumMismatch(ChslitError):
    """Sub-part amplitudes do not sum to the parent slit amplitude."""

    def __init__(self, slit_label: str, message: str):
        super().__init__(message)
        self.slit_label = slit_label
