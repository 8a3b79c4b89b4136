"""Byte identity of the CLI's --json --no-timings output against a pinned file.

tests/data/cli_golden.json holds, for each request below, the exact stdout,
the exit code and the last line of stderr. A change that is meant to keep
every verdict, count and report the same must leave this test passing. To
rewrite the file after a deliberate output change, run

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of the JSON file.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from fuchslab import cli

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
FLAGS = ["--json", "--no-timings"]

# the fully realizable groups of order <= 64: C2^a x H for H in C1, C3, C4, C12
_WITNESSES = [
    "C1", "C2", "C2^2", "C2^3", "C2^4", "C2^5", "C2^6",
    "C3", "C2 x C3", "C2^2 x C3", "C2^3 x C3", "C2^4 x C3",
    "C4", "C2 x C4", "C2^2 x C4", "C2^3 x C4", "C2^4 x C4",
    "C12", "C2 x C12", "C2^2 x C12",
]
# the witnesses whose |End(G)| is at most 4,096
_VERIFIED = [
    "C1", "C2", "C2^2", "C2^3",
    "C3", "C2 x C3", "C2^2 x C3", "C2^3 x C3",
    "C4", "C2 x C4", "C2^2 x C4",
    "C12", "C2 x C12", "C2^2 x C12",
]
# groups with 2 to 5 blocks, of residue degree up to 4: the chain pool lists
# one generator per block
_MULTI_BLOCK = ["C3", "C7", "C12", "C15", "C3 x C3"]

REQUESTS: list[list[str]] = (
    [["verify", "C2^4"], ["verify", "C2^3 x C4"]]
    + [
        ["search", spec, "--pool", pool, "--budget", "256"]
        for spec, pool in (
            ("C4 x C4", "default"),
            ("C3 x C3", "default"),
            ("C2 x C8", "default"),
            ("C2^4", "default"),
            ("C16", "chain"),
        )
    ]
    + [["construct", spec] for spec in _WITNESSES]
    + [["verify", spec] for spec in _VERIFIED]
    + [["verify", "C2^5"], ["verify", "C2^4 x C4"], ["construct", "C2^3 x C12"]]
    + [["selftest"]]
    + [["search", spec, "--pool", "chain"] for spec in _MULTI_BLOCK]
)


def _capture(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv + FLAGS)
    lines = err.getvalue().splitlines()
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr_last": lines[-1] if lines else ""}


def test_request_list_is_the_pinned_one():
    assert [entry["argv"] for entry in json.loads(GOLDEN.read_text())] == REQUESTS
    assert len(REQUESTS) == 50


def test_cli_output_is_byte_identical_to_the_golden_file():
    golden = json.loads(GOLDEN.read_text())
    mismatched = [entry["argv"] for entry in golden if _capture(entry["argv"]) != entry]
    assert mismatched == []


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([_capture(argv) for argv in REQUESTS], indent=1) + "\n")
    print(f"wrote {len(REQUESTS)} entries to {GOLDEN}", file=sys.stderr)
