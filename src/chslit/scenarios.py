"""Loading, saving and refining slit scenarios, plus the built-in demos.

On disk a scenario is a small JSON document:

    {
      "version": 1,
      "name": "three-slit-contradiction",
      "slits": [
        {"label": "S1", "amplitude": {"re": 1.0, "im": 0.0}, "open": true},
        ...
      ]
    }

Each slit may carry ``"parts": [{"label": ..., "amplitude": {...}}, ...]``;
part amplitudes must sum to the slit amplitude.  Complex numbers are always
``{"re": ..., "im": ...}`` pairs, never strings, so parsing is bit-exact and
locale-proof.  Closed slits are kept in the document with ``"open": false``
so path indices stay stable.
"""

from __future__ import annotations

import json
import random
import sys
from collections.abc import Iterable

from .core import Slit, SlitPart, SlitScenario
from .errors import (
    AlreadyRefined,
    ParseError,
    SchemaError,
    UnknownScenario,
    UnknownSlit,
)

SCHEMA_VERSION = 1

#: Seed behind the "generic" demo; recorded in its metadata.
GENERIC_SEED = 1643

BUILTIN_SCENARIOS = ("three-slit-contradiction", "two-slit-footnote", "generic")


def _at(*where: str | int) -> str:
    """A field's path, as ``slits[2].amplitude.re``: built only for an error."""
    return "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in where)[1:]


def _number(value: object, where: tuple[str | int, ...], key: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SchemaError(_at(*where, key), "expected a number")
    # A comparison, not math.isfinite: integer literals may exceed the double range.
    if not abs(value) <= sys.float_info.max:
        raise SchemaError(_at(*where, key), "must be finite")
    return float(value)


def _amplitude(value: object, *where: str | int) -> complex:
    if not isinstance(value, dict):
        raise SchemaError(_at(*where), "expected an object with fields 're' and 'im'")
    if "re" not in value or "im" not in value:
        raise SchemaError(_at(*where, "im" if "re" in value else "re"), "missing field")
    return complex(_number(value["re"], where, "re"), _number(value["im"], where, "im"))


def _text(value: object, *where: str | int) -> str:
    if not isinstance(value, str):
        raise SchemaError(_at(*where), "expected a string")
    return value


def load_scenario(data: str | bytes) -> SlitScenario:
    """Parse and validate a scenario document.

    Raises ParseError for malformed JSON, SchemaError (naming the field) for
    structural problems, and PartSumMismatch when a slit's parts do not sum
    to its amplitude.  Checks are plain tests: a field's path and message
    are built only when it fails.
    """
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"scenario document is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("scenario document is nested too deeply") from None
    if not isinstance(doc, dict):
        raise SchemaError("$", "expected a JSON object")
    if "version" not in doc:
        raise SchemaError("version", "missing field")
    version = doc["version"]
    # JSON true loads as True, and True == 1: refuse a bool, as _number does.
    if version != SCHEMA_VERSION or isinstance(version, bool):
        raise SchemaError("version", f"expected {SCHEMA_VERSION}, got {version!r}")
    name = _text(doc.get("name"), "name")
    raw_slits = doc.get("slits")
    if not isinstance(raw_slits, list):
        raise SchemaError("slits", "expected a list")
    if not raw_slits:
        raise SchemaError("slits", "must not be empty")

    slits: list[Slit] = []
    seen_labels: set[str] = set()
    for i, raw in enumerate(raw_slits):
        if not isinstance(raw, dict):
            raise SchemaError(f"slits[{i}]", "expected an object")
        label = _text(raw.get("label"), "slits", i, "label")
        if label in seen_labels:
            raise SchemaError(f"slits[{i}].label", f"duplicate slit label {label!r}")
        seen_labels.add(label)
        amplitude = _amplitude(raw.get("amplitude"), "slits", i, "amplitude")
        if not isinstance(raw.get("open"), bool):
            raise SchemaError(f"slits[{i}].open", "expected true or false")
        if "parts" not in raw:
            # Every field is checked above, and a slit without parts has no
            # sum to check: build it past Slit's constructor, which would
            # check its amplitude again.
            slits.append(tuple.__new__(Slit, (label, amplitude, raw["open"], ())))
            continue
        raw_parts = raw["parts"]
        if not isinstance(raw_parts, list):
            raise SchemaError(f"slits[{i}].parts", "expected a list")
        if not raw_parts:
            raise SchemaError(f"slits[{i}].parts", "must not be empty when present")
        parts: list[SlitPart] = []
        part_labels: set[str] = set()
        for j, raw_part in enumerate(raw_parts):
            if not isinstance(raw_part, dict):
                raise SchemaError(f"slits[{i}].parts[{j}]", "expected an object")
            part_label = _text(raw_part.get("label"), "slits", i, "parts", j, "label")
            if part_label in part_labels:
                raise SchemaError(f"slits[{i}].parts[{j}].label", f"duplicate part label {part_label!r}")
            part_labels.add(part_label)
            part_amplitude = _amplitude(raw_part.get("amplitude"), "slits", i, "parts", j, "amplitude")
            parts.append(SlitPart(part_label, part_amplitude))
        # Slit construction raises PartSumMismatch with the slit label.
        slits.append(Slit(label, amplitude, raw["open"], tuple(parts)))

    metadata: dict[str, str] = {}
    if "metadata" in doc:
        if not isinstance(doc["metadata"], dict):
            raise SchemaError("metadata", "expected an object")
        for key, value in doc["metadata"].items():
            metadata[str(key)] = _text(value, "metadata", key)
    # The labels are checked unique above, and the metadata dict is this
    # scenario's own: build it past SlitScenario's constructor too.
    return tuple.__new__(SlitScenario, (name, tuple(slits), metadata))


def save_scenario(scenario: SlitScenario) -> str:
    """Serialize a scenario to its canonical document (fixed field order)."""
    doc: dict[str, object] = {"version": SCHEMA_VERSION, "name": scenario.name}
    slits = []
    for slit in scenario.slits:
        record: dict[str, object] = {
            "label": slit.label,
            "amplitude": {"re": slit.amplitude.real, "im": slit.amplitude.imag},
            "open": slit.is_open,
        }
        if slit.parts:
            record["parts"] = [
                {"label": p.label, "amplitude": {"re": p.amplitude.real, "im": p.amplitude.imag}}
                for p in slit.parts
            ]
        slits.append(record)
    doc["slits"] = slits
    if scenario.metadata:
        doc["metadata"] = dict(scenario.metadata)
    return json.dumps(doc, indent=2) + "\n"


def builtin_scenario(name: str) -> SlitScenario:
    """One of the bundled demo scenarios.

    ``three-slit-contradiction``
        Amplitudes (1, -1, 1), all slits open: the middle slit cancels
        either neighbour, so two incompatible frameworks each retrodict a
        definite path for a detected particle.
    ``two-slit-footnote``
        First slit closed, second slit split into upper/lower parts with
        amplitudes 1 and -1 (net zero), third slit at 1: the same clash with
        only two slits open, via sub-slit refinement.
    ``generic``
        Seeded pseudo-random complex amplitudes with no vanishing subset
        sums, where only the coarsest analysis survives.
    """
    if name == "three-slit-contradiction":
        return SlitScenario(
            name=name,
            slits=(
                Slit("S1", 1.0 + 0j),
                Slit("S2", -1.0 + 0j),
                Slit("S3", 1.0 + 0j),
            ),
        )
    if name == "two-slit-footnote":
        return SlitScenario(
            name=name,
            slits=(
                Slit("S1", 0j, is_open=False),
                Slit("S2", 0j, parts=(SlitPart("upper", 1.0 + 0j), SlitPart("lower", -1.0 + 0j))),
                Slit("S3", 1.0 + 0j),
            ),
        )
    if name == "generic":
        rng = random.Random(GENERIC_SEED)
        slits = tuple(
            Slit(f"S{i + 1}", complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
            for i in range(3)
        )
        return SlitScenario(name=name, slits=slits, metadata={"seed": str(GENERIC_SEED)})
    raise UnknownScenario(f"no built-in scenario named {name!r}; available: {', '.join(BUILTIN_SCENARIOS)}")


def refine_slit(
    scenario: SlitScenario,
    slit_label: str,
    sub_amplitudes: Iterable[tuple[str, complex]],
) -> SlitScenario:
    """Split one slit into named parts, keeping every other slit in place.

    The part amplitudes must sum to the slit amplitude; path indices are
    reassigned by re-flattening the slit list.
    """
    subs = tuple(SlitPart(label, amplitude) for label, amplitude in sub_amplitudes)
    if not subs:
        raise ValueError(f"refinement of slit {slit_label!r} needs at least one sub-part")
    replaced = False
    slits: list[Slit] = []
    for slit in scenario.slits:
        if slit.label != slit_label:
            slits.append(slit)
            continue
        if slit.parts:
            raise AlreadyRefined(f"slit {slit_label!r} already has parts")
        # Raises PartSumMismatch when the sub-amplitudes do not add up.
        slits.append(Slit(label=slit.label, amplitude=slit.amplitude, is_open=slit.is_open, parts=subs))
        replaced = True
    if not replaced:
        raise UnknownSlit(f"no slit labelled {slit_label!r}")
    return SlitScenario(name=scenario.name, slits=tuple(slits), metadata=scenario.metadata)
