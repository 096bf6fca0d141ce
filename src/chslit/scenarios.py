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


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise SchemaError(path, message)


def _number(value: object, path: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool), path, "expected a number")
    # A comparison, not math.isfinite: integer literals may exceed the double range.
    _require(abs(value) <= sys.float_info.max, path, "must be finite")
    return float(value)


def _amplitude(value: object, path: str) -> complex:
    _require(isinstance(value, dict), path, "expected an object with fields 're' and 'im'")
    for key in ("re", "im"):
        _require(key in value, f"{path}.{key}", "missing field")
    return complex(_number(value["re"], f"{path}.re"), _number(value["im"], f"{path}.im"))


def _text(value: object, path: str) -> str:
    _require(isinstance(value, str), path, "expected a string")
    return value


def load_scenario(data: str | bytes) -> SlitScenario:
    """Parse and validate a scenario document.

    Raises ParseError for malformed JSON, SchemaError (naming the field) for
    structural problems, and PartSumMismatch when a slit's parts do not sum
    to its amplitude.
    """
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"scenario document is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("scenario document is nested too deeply") from None
    _require(isinstance(doc, dict), "$", "expected a JSON object")
    _require("version" in doc, "version", "missing field")
    version = doc["version"]
    # JSON true loads as True, and True == 1: refuse a bool, as _number does.
    valid = version == SCHEMA_VERSION and not isinstance(version, bool)
    _require(valid, "version", f"expected {SCHEMA_VERSION}, got {version!r}")
    name = _text(doc.get("name"), "name")
    _require(isinstance(doc.get("slits"), list), "slits", "expected a list")
    _require(len(doc["slits"]) > 0, "slits", "must not be empty")

    slits: list[Slit] = []
    seen_labels: set[str] = set()
    for i, raw in enumerate(doc["slits"]):
        where = f"slits[{i}]"
        _require(isinstance(raw, dict), where, "expected an object")
        label = _text(raw.get("label"), f"{where}.label")
        _require(label not in seen_labels, f"{where}.label", f"duplicate slit label {label!r}")
        seen_labels.add(label)
        amplitude = _amplitude(raw.get("amplitude"), f"{where}.amplitude")
        _require(isinstance(raw.get("open"), bool), f"{where}.open", "expected true or false")
        parts: list[SlitPart] = []
        if "parts" in raw:
            _require(isinstance(raw["parts"], list), f"{where}.parts", "expected a list")
            _require(len(raw["parts"]) > 0, f"{where}.parts", "must not be empty when present")
            part_labels: set[str] = set()
            for j, raw_part in enumerate(raw["parts"]):
                part_where = f"{where}.parts[{j}]"
                _require(isinstance(raw_part, dict), part_where, "expected an object")
                part_label = _text(raw_part.get("label"), f"{part_where}.label")
                _require(part_label not in part_labels, f"{part_where}.label", f"duplicate part label {part_label!r}")
                part_labels.add(part_label)
                parts.append(SlitPart(part_label, _amplitude(raw_part.get("amplitude"), f"{part_where}.amplitude")))
        # Slit construction raises PartSumMismatch with the slit label.
        slits.append(Slit(label=label, amplitude=amplitude, is_open=raw["open"], parts=tuple(parts)))

    metadata: dict[str, str] = {}
    if "metadata" in doc:
        _require(isinstance(doc["metadata"], dict), "metadata", "expected an object")
        for key, value in doc["metadata"].items():
            metadata[str(key)] = _text(value, f"metadata.{key}")
    return SlitScenario(name=name, slits=tuple(slits), metadata=metadata)


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
