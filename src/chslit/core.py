"""Amplitudes, paths, partitions and counting rates for multi-slit scenarios.

A scenario is a list of slits, each carrying a complex amplitude and an
open/closed flag; a slit may be subdivided into parts.  Flattening the slits
gives the scenario's path list, and every other module works with path
indices into that list.  Closed slits keep their dimension (with the path
marked closed) so indices stay stable when slits are toggled.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from collections.abc import Iterable, Mapping
from functools import cached_property

from .errors import BadIndex, PartSumMismatch

#: Tolerance for sub-part amplitudes summing to the slit amplitude, relative
#: to the largest modulus among the slit amplitude and its parts.
PART_SUM_TOLERANCE = 1e-12


def _require_finite(value: complex, kind: str, label: str) -> complex:
    try:
        if isinstance(value, str):  # complex() would parse "1j"; a string is not a number
            raise TypeError
        z = complex(value)
    except TypeError:
        raise ValueError(f"{kind} {label!r} amplitude must be a number, got {value!r}") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{kind} {label!r} amplitude must have finite components, got {z!r}")
    return z


def _require_str(value: object, what: str) -> None:
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {value!r}")


def _require_items(items: Iterable[object], kind: type, what: str) -> tuple:
    items = tuple(items)
    for item in items:
        if not isinstance(item, kind):
            raise ValueError(f"{what} must be a {kind.__name__}, got {item!r}")
    return items


class _Entity:
    """Mixed into a record type whose instances are equal only to
    themselves and hash by identity, however alike their fields."""

    __slots__ = ()
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__


class _Checked:
    """Mixed into a record type whose constructor checks or converts its
    fields, so that namedtuple's ``_make``, and ``_replace``, build through it."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))


class Path(namedtuple("Path", "index label amplitude is_open")):
    """One flattened path: its stable dense index, display label, amplitude
    and open/closed state."""

    __slots__ = ()


class SlitPart(_Checked, namedtuple("SlitPart", "label amplitude")):
    __slots__ = ()

    def __new__(cls, label: str, amplitude: complex) -> SlitPart:
        _require_str(label, "part label")
        return super().__new__(cls, label, _require_finite(amplitude, "part", label))


class Slit(_Checked, namedtuple("Slit", "label amplitude is_open parts")):
    """A slit in the wall.  ``parts`` subdivides it into sub-paths whose
    amplitudes must sum to the slit amplitude."""

    __slots__ = ()

    def __new__(cls, label: str, amplitude: complex, is_open: bool = True, parts: Iterable[SlitPart] = ()) -> Slit:
        _require_str(label, "slit label")
        if not isinstance(is_open, bool):
            raise ValueError(f"slit {label!r} is_open must be True or False, got {is_open!r}")
        amplitude = _require_finite(amplitude, "slit", label)
        parts = _require_items(parts, SlitPart, f"each part of slit {label!r}")
        if parts:
            labels = [p.label for p in parts]
            if len(set(labels)) != len(labels):
                raise ValueError(f"slit {label!r} has duplicate part labels")
            values = [amplitude, *(p.amplitude for p in parts)]
            # In the power-of-two unit of the largest component: scaling loses
            # nothing the tolerance can see, and no sum or modulus overflows.
            unit = math.ldexp(1.0, math.frexp(max(max(abs(z.real), abs(z.imag)) for z in values))[1] - 1)
            scaled = [complex(z.real / unit, z.imag / unit) for z in values]
            total = _sum_amplitudes(scaled[1:])
            if abs(total - scaled[0]) > PART_SUM_TOLERANCE * max(map(abs, scaled)):
                raise PartSumMismatch(label, f"parts of slit {label!r} sum to {total * unit}, expected {amplitude}")
        return super().__new__(cls, label, amplitude, is_open, parts)


class SlitScenario(_Entity, _Checked, namedtuple("SlitScenario", "name slits metadata")):
    """A named slit configuration together with its flattened path list."""

    # No __slots__: the cached properties below keep their values in the
    # instance dict.

    def __new__(cls, name: str, slits: Iterable[Slit], metadata: Mapping[str, str] | None = None) -> SlitScenario:
        _require_str(name, "scenario name")
        slits = _require_items(slits, Slit, "each slit")
        if not slits:
            raise ValueError("a scenario needs at least one slit")
        labels = [s.label for s in slits]
        if len(set(labels)) != len(labels):
            raise ValueError("slit labels must be unique")
        metadata = dict(metadata or {})
        if not all(isinstance(text, str) for item in metadata.items() for text in item):
            raise ValueError(f"metadata keys and values must be strings, got {metadata!r}")
        return super().__new__(cls, name, slits, metadata)

    @cached_property
    def paths(self) -> tuple[Path, ...]:
        """Flattened paths: a slit with parts contributes one path per part.
        ``Path`` checks nothing, so each is built past namedtuple's
        Python-level ``__new__``."""
        new = tuple.__new__
        out: list[Path] = []
        for slit in self.slits:
            if slit.parts:
                for part in slit.parts:
                    out.append(new(Path, (len(out), f"{slit.label}.{part.label}", part.amplitude, slit.is_open)))
            else:
                out.append(new(Path, (len(out), slit.label, slit.amplitude, slit.is_open)))
        return tuple(out)

    @cached_property
    def amplitudes(self) -> tuple[complex, ...]:
        return tuple(p.amplitude for p in self.paths)

    @cached_property
    def open_indices(self) -> tuple[int, ...]:
        return tuple(p.index for p in self.paths if p.is_open)

    @property
    def n_paths(self) -> int:
        return len(self.paths)

    @property
    def n_open(self) -> int:
        return len(self.open_indices)

    def path_label(self, index: int) -> str:
        return self.paths[index].label

    def check_index(self, index: int) -> int:
        if not 0 <= index < self.n_paths:
            raise BadIndex(f"path index {index} out of range 0..{self.n_paths - 1}")
        return index


class Partition(_Checked, namedtuple("Partition", "groups")):
    """Disjoint groups of path indices, in canonical order.

    Groups are sorted by smallest member; exhaustiveness over a particular
    path set is checked where the partition is used, since the same
    combinatorial object may be read against open positions or path indices.
    """

    __slots__ = ()

    def __new__(cls, groups: Iterable[Iterable[int]]) -> Partition:
        try:
            groups = [frozenset(map(operator.index, g)) for g in groups]
        except TypeError as exc:
            raise BadIndex(f"partition groups must be collections of integers: {exc}") from None
        if not all(groups):
            raise BadIndex("partition groups must be non-empty")
        groups.sort(key=min)
        seen: set[int] = set()
        for g in groups:
            overlap = seen & g
            if overlap:
                raise BadIndex(f"path {min(overlap) + 1} appears in two groups")
            seen |= g
        return super().__new__(cls, tuple(groups))

    @classmethod
    def _trusted(cls, groups: tuple[frozenset[int], ...]) -> Partition:
        """A partition of groups that are already non-empty frozensets,
        disjoint and ordered by lowest member, built without checking so:
        for partitions canonical by construction, such as the enumeration's."""
        return tuple.__new__(cls, (groups,))

    @property
    def universe(self) -> frozenset[int]:
        return frozenset().union(*self.groups)

    def __len__(self) -> int:
        return len(self.groups)

    def refines(self, other: "Partition") -> bool:
        """True when every group here sits inside a single group of ``other``."""
        return all(any(g <= h for h in other.groups) for g in self.groups)


def _parse_indices(text: str, count: int) -> list[int]:
    """Comma-separated distinct 1-based numbers in 1..count, as 0-based indices."""
    indices = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise BadIndex(f"empty index in {text!r}")
        try:
            number = int(token)
        except ValueError:
            raise BadIndex(f"cannot parse path index {token!r}") from None
        if not 1 <= number <= count:
            raise BadIndex(f"path index {number} out of range 1..{count}")
        if number - 1 in indices:
            raise BadIndex(f"path index {number} repeated in {text!r}")
        indices.append(number - 1)
    return indices


def parse_partition(text: str, n_paths: int) -> Partition:
    """Parse ``"1,2|3"``-style text into a partition of paths 1..n_paths.

    Groups are separated by ``|`` and hold comma-separated 1-based indices;
    internally indices are 0-based.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {n_paths!r}")
    partition = Partition(tuple(frozenset(_parse_indices(g, n_paths)) for g in text.split("|")))
    missing = set(range(n_paths)) - partition.universe
    if missing:
        raise BadIndex(f"partition is missing path {min(missing) + 1}")
    return partition


def format_partition(partition: Partition) -> str:
    """Canonical text for a partition, inverse of :func:`parse_partition`."""
    return "|".join(",".join(str(i + 1) for i in sorted(g)) for g in partition.groups)


def partition_on_paths(scenario: SlitScenario, partition: Partition) -> Partition:
    """Reinterpret a partition of open positions 1..k as one of path indices.

    Partition text always numbers the open paths in flattening order; when
    every slit is open this is the identity.
    """
    open_indices = scenario.open_indices
    k = len(open_indices)
    if partition.universe != frozenset(range(k)):
        raise BadIndex(f"partition must cover open positions 1..{k}")
    return Partition(tuple(frozenset(open_indices[j] for j in g) for g in partition.groups))


def parse_scenario_partition(scenario: SlitScenario, text: str) -> Partition:
    """Parse partition text against a scenario, yielding path indices."""
    return partition_on_paths(scenario, parse_partition(text, scenario.n_open))


def _check_covers_open(scenario: SlitScenario, partition: Partition) -> None:
    if partition.universe != frozenset(scenario.open_indices):
        raise BadIndex("partition must cover exactly the scenario's open paths")


def format_scenario_partition(scenario: SlitScenario, partition: Partition) -> str:
    """Canonical text of a path-index partition, numbered over open positions.

    Positions rise with path indices, so the groups and their members keep
    their order."""
    _check_covers_open(scenario, partition)
    position = {index: str(j + 1) for j, index in enumerate(scenario.open_indices)}
    return "|".join(",".join(position[i] for i in sorted(g)) for g in partition.groups)


def _sum_amplitudes(amplitudes: Iterable[complex]) -> complex:
    """The correctly rounded sum of complex amplitudes, the one way the
    package adds them: it does not depend on their order, so exact
    cancellations cancel however the paths are listed."""
    amps = list(amplitudes)
    try:
        return complex(math.fsum([a.real for a in amps]), math.fsum([a.imag for a in amps]))
    except OverflowError:
        raise ValueError("amplitude sum is too large for a float") from None


def _open_members(scenario: SlitScenario, group: Iterable[int]) -> list[int]:
    """The group's path indices in order, each checked to name an open path."""
    members = sorted(frozenset(group))
    for index in members:
        scenario.check_index(index)
        path = scenario.paths[index]
        if not path.is_open:
            raise BadIndex(f"path {path.label!r} is closed")
    return members


def group_amplitude(scenario: SlitScenario, group: Iterable[int]) -> complex:
    """Sum of path amplitudes over a group of open paths.

    Groups add exactly: the amplitude of a composite slit is the plain
    complex sum of its members.  An empty group sums to zero; a sum too
    large for a float raises ValueError.
    """
    return _sum_amplitudes(scenario.amplitudes[i] for i in _open_members(scenario, group))


def counting_rate(scenario: SlitScenario, open_mask: Iterable[int]) -> float:
    """Relative detector counting rate with exactly ``open_mask`` held open.

    Returns ``|sum of the masked amplitudes|**2``; the proportionality
    constant is fixed at 1 by convention.  The mask is hypothetical, so it
    may include paths whose slit is currently closed.  A rate too large for
    a float raises ValueError.
    """
    mask = frozenset(open_mask)
    if not mask:
        raise BadIndex("counting rate needs at least one open path")
    try:
        return abs(_sum_amplitudes(scenario.amplitudes[scenario.check_index(i)] for i in mask)) ** 2
    except OverflowError:
        raise ValueError("counting rate is too large for a float") from None
