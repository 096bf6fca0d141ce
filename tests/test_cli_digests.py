"""The CLI's output, byte for byte, over a fixed list of invocations.

Each invocation runs ``main(argv)`` in process.  ``tests/data/cli_digests.json``
maps each argv, joined by spaces, to its exit code and the SHA-256 of its
stdout and of its stderr.  Scenario files are named by their stem in the
argv and written to a temporary directory for the run; no invocation
prints a file path.  A change meant to alter the output regenerates the
fixture with

    PYTHONPATH=src python tests/test_cli_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from chslit import Slit, SlitScenario, save_scenario
from chslit.cli import MAX_PATHS_ENV, main

FIXTURE = Path(__file__).parent / "data" / "cli_digests.json"

DEMOS = ("three-slit-contradiction", "two-slit-footnote", "generic")
FILES = {"generic": (3, 5), "planted": (4, 6), "single-nonzero": (3, 6), "alternating": (4, 5, 6)}
RUNS = [(mode, tol) for mode in ("medium", "weak") for tol in ("0", "1e-10", "1e-3")]


def _scenario(family: str, n: int) -> SlitScenario:
    """A seeded scenario of ``n`` open paths, named by its file stem."""
    rng = random.Random(f"cli:{family}:{n}")
    amps = [complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(n)]
    if family == "planted":
        # The first n - 1 paths sum to zero.
        amps[n - 2] = -sum(amps[: n - 2])
    elif family == "single-nonzero":
        amps = [0j] * (n - 1) + [amps[0]]
    elif family == "alternating":
        amps = [amps[0] * (-1) ** j for j in range(n)]
    stem = f"{family}-{n}"
    return SlitScenario(name=stem, slits=tuple(Slit(f"S{j + 1}", a) for j, a in enumerate(amps)))


def _invocations() -> list[list[str]]:
    # Every demo has three open paths.
    sizes = [(["--demo", d], 3) for d in DEMOS]
    sizes += [(["--file", f"{family}-{n}"], n) for family, ns in FILES.items() for n in ns]
    sources = [(source, ",".join(map(str, range(1, n + 1))), ",".join(map(str, range(2, n + 1))))
               for source, n in sizes]
    # A cycle of odd length, so that every command and run meets both formats.
    formats = itertools.cycle(("text", "json", "json", "text", "text", "json", "json"))
    argvs = []
    for source, everything, rest in sources:
        for mode, tol in RUNS:
            for command in ("frameworks", "contradictions"):
                argvs.append([command, *source, "--mode", mode, "--tol", tol, "--format", next(formats)])
        partitions = (everything, f"1|{rest}", everything.replace(",", "|"))
        for partition, (mode, tol) in zip(partitions, RUNS[::2]):
            argvs.append(["check", *source, "--partition", partition, "--mode", mode, "--tol", tol,
                          "--format", next(formats)])
        argvs.append(["rates", *source, "--mask", "1,2", "--all-single", "--format", next(formats)])
    for source, everything, rest in sources[::2] + sources[1::4]:
        argvs.append(["query", *source, "--framework", f"1|{rest}", "--event", rest, "--given-detected"])
        argvs.append(["query", *source, "--framework", everything, "--event", everything, "--format", "json",
                      "--and", f"1@1|{rest}"])
    demo = ["--demo", DEMOS[0]]
    argvs += [
        ["check", *demo, "--partition", "1,2|2"],
        ["check", *demo, "--partition", "1,2"],
        ["check", *demo, "--partition", "1,2|3", "--tol", "-1"],
        ["check", *demo, "--partition", "1,2|3", "--mode", "strong"],
        ["frameworks", "--demo", "nowhere"],
        ["frameworks", "--file", "alternating-6", "--max-n", "5"],
        ["contradictions", "--file", "planted-6", "--max-n", "0"],
        ["query", *demo, "--framework", "1,2|3", "--event", "2,3"],
        ["query", *demo, "--framework", "1,2|3", "--event", "1,2", "--and", "2,3@1|2,3"],
        ["query", *demo, "--framework", "1,2|3", "--event", "1,2", "--and", "2,3"],
        ["query", "--file", "alternating-4", "--framework", "1,2|3,4", "--event", "1,2", "--given-detected"],
        ["rates", *demo],
    ]
    return argvs


def _digests(directory: Path) -> dict[str, dict[str, object]]:
    """Each invocation's exit code and output digests, keyed by its argv."""
    for family, sizes in FILES.items():
        for n in sizes:
            (directory / f"{family}-{n}.json").write_text(save_scenario(_scenario(family, n)))
    digests = {}
    for argv in _invocations():
        run = [str(directory / f"{a}.json") if b == "--file" else a for b, a in zip(["", *argv], argv)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(run)
        digests[" ".join(argv)] = {
            "exit": code,
            "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
        }
    return digests


def test_cli_output_matches_the_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.delenv(MAX_PATHS_ENV, raising=False)
    want = json.loads(FIXTURE.read_text())
    got = _digests(tmp_path)
    assert list(got) == list(want)
    differ = [argv for argv in want if got[argv] != want[argv]]
    assert not differ, "\n".join(differ)


if __name__ == "__main__":
    os.environ.pop(MAX_PATHS_ENV, None)
    with tempfile.TemporaryDirectory() as directory:
        digests = _digests(Path(directory))
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"{len(digests)} invocations written to {FIXTURE}", file=sys.stderr)
