"""The library's framework lists and contradiction records, bit for bit.

``tests/data/library_digests.json`` maps each run, ``"<family>-<k> <mode>
<tol>"``, to the SHA-256 of what ``enumerate_consistent_frameworks`` returns
(each framework's partition, its table items in table order and its report,
every float as ``float.hex``) followed, for k <= 7, by what
``find_contradictions`` returns (each record's kind, the partitions of its
two frameworks, its events and its probabilities).  The scenarios are seeded
by family and k, the number of slits: every slit is one open path except in
two families, one closing every third slit and one splitting a slit into
two parts that cancel.  A change meant to alter the output regenerates the
fixture with

    PYTHONPATH=src python tests/test_library_digests.py
"""

from __future__ import annotations

import cmath
import functools
import hashlib
import json
import random
import sys
from pathlib import Path

from chslit import (
    Partition, Slit, SlitPart, SlitScenario, build_experiment, enumerate_consistent_frameworks, find_contradictions,
)

FIXTURE = Path(__file__).parent / "data" / "library_digests.json"

SIZES = {
    "generic": (1, 3, 5, 8),
    "planted": (4, 6, 8),
    "single-nonzero": (3, 5, 7),
    "two-nonzero": (4, 6, 8),
    "alternating": (3, 5, 7),
    "quarter-turn": (4, 6, 8),
    "near-quarter-turn": (4, 6, 7),
    "alternating-third-closed": (5, 7),
    "cancelling-parts": (4, 6),
}
RUNS = [(mode, tol) for mode in ("medium", "weak") for tol in ("0", "1e-10", "1e-3", "0.3")]
#: Contradiction records are digested up to this many paths.
MAX_SEARCH_PATHS = 7


def _scenario(family: str, k: int) -> SlitScenario:
    """A seeded scenario of ``k`` slits."""
    rng = random.Random(f"library:{family}:{k}")
    amps = [complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(k)]
    c, d = amps[0], amps[-1]
    if family == "planted":
        # The first k - 1 paths sum to zero.
        amps[k - 2] = -sum(amps[: k - 2])
    elif family in ("single-nonzero", "two-nonzero"):
        nonzero = [c] if family == "single-nonzero" else [c, d]
        amps = nonzero + [0j] * (k - len(nonzero))
        rng.shuffle(amps)
    elif family == "alternating":
        amps = [c * (-1) ** j for j in range(k)]
    elif family == "quarter-turn":
        amps = [c * 1j**j for j in range(k)]
    elif family == "near-quarter-turn":
        # Relative noise below 1e-11..1e-1 puts the real parts of orthogonal
        # weak-mode group pairs on both sides of the tolerance.
        level = 10 ** rng.uniform(-11, -1)
        amps = [c * 1j**j * (1 + cmath.rect(level * rng.random(), rng.uniform(-3.2, 3.2))) for j in range(k)]
    elif family == "alternating-third-closed":
        # Open positions and path indices part at the first closed slit.
        slits = [Slit(f"S{j + 1}", c * (-1) ** j, is_open=j % 3 != 2) for j in range(k)]
        return SlitScenario(name=f"{family}-{k}", slits=slits)
    elif family == "cancelling-parts":
        # Alternating slits, the second of amplitude 0 split into paths d and -d.
        slits = [Slit(f"S{j + 1}", c * (-1) ** j) for j in range(k)]
        slits[1] = Slit("S2", 0j, parts=[SlitPart("a", d), SlitPart("b", -d)])
        return SlitScenario(name=f"{family}-{k}", slits=slits)
    return SlitScenario(name=f"{family}-{k}", slits=tuple(Slit(f"S{j + 1}", a) for j, a in enumerate(amps)))


@functools.cache
def _members(group: frozenset[int]) -> str:
    return ",".join(map(str, sorted(group)))


@functools.cache
def _partition(partition: Partition) -> str:
    return "|".join(map(_members, partition.groups))


def _lines(family: str, k: int, mode: str, tol: str):
    """The run's output, one line of text per framework and per record."""
    model = build_experiment(_scenario(family, k))
    for f in enumerate_consistent_frameworks(model, mode=mode, tolerance=float(tol)):
        table = " ".join(f"{_members(g)}/{branch}={p.hex()}" for (g, branch), p in f.probabilities.items())
        r = f.report
        yield (f"F {_partition(f.partition)} {f.mode} {table} "
               f"{r.mode} {r.consistent} {r.max_violation.hex()} {r.offending_pair} {r.tolerance_used.hex()}")
    if k <= MAX_SEARCH_PATHS:
        for r in find_contradictions(model, mode=mode, tolerance=float(tol)):
            yield (f"R {r.kind} {_partition(r.framework_a.partition)} {_partition(r.framework_b.partition)} "
                   f"{_members(r.event_a)} {_members(r.event_b)} {r.p_a.hex()} {r.p_b.hex()}")


def _digests() -> dict[str, str]:
    digests = {}
    for family, sizes in SIZES.items():
        for k in sizes:
            for mode, tol in RUNS:
                digest = hashlib.sha256()
                for line in _lines(family, k, mode, tol):
                    digest.update(line.encode() + b"\n")
                digests[f"{family}-{k} {mode} {tol}"] = digest.hexdigest()
    return digests


def test_library_output_matches_the_recorded_digests():
    want = json.loads(FIXTURE.read_text())
    got = _digests()
    assert list(got) == list(want)
    differ = [run for run in want if got[run] != want[run]]
    assert not differ, "\n".join(differ)


if __name__ == "__main__":
    digests = _digests()
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"{len(digests)} runs written to {FIXTURE}", file=sys.stderr)
