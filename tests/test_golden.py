"""Pinned outputs of every README command and of one nine-check sweep.

Each command runs in process, in an empty directory of its own.  Its result
is the exit code, the sha256 of its stdout and the sha256 of each file it
writes; JSON is hashed after dropping ``timestamp`` and ``elapsed_s``, which
vary run to run.  ``tests/golden.json`` holds the pinned results.

Check them outside pytest (this also works under ``python -O``, and with
``PLAID_WORKERS=2`` the sweep runs in two worker processes)::

    PYTHONPATH=src python tests/test_golden.py

A change that alters an output on purpose re-pins them with ``--write`` and
lists each changed command and field in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

from plaid.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.json"
SWEEP = ("plaid sweep --max-omega 45 --checks coherence,hier,first,omnibus,"
         "main,box,copy,copytheorem,pet --json sweep.json")


def commands() -> list[str]:
    """The README's command-line examples, then the nine-check sweep."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
    lines = [shlex.join(shlex.split(ln, comments=True))
             for ln in block.split("```", 1)[0].splitlines()
             if ln.startswith("plaid ")]
    return lines + [SWEEP]


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".json":
        payload = json.loads(data)
        payload.pop("timestamp", None)
        payload.pop("elapsed_s", None)
        data = json.dumps(payload, indent=2).encode()
    return hashlib.sha256(data).hexdigest()


def outcome(command: str) -> dict:
    """Exit code and digests of one command, run in a fresh directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        out = io.StringIO()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out):
                code = main(shlex.split(command)[1:])
        finally:
            os.chdir(cwd)
        files = {p.name: _digest(p) for p in sorted(Path(tmp).iterdir())}
    return {"exit": code,
            "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "files": files}


def outcomes() -> dict:
    return {command: outcome(command) for command in commands()}


def test_outputs_match_golden():
    pinned = json.loads(GOLDEN.read_text())
    assert outcomes() == pinned


if __name__ == "__main__":
    got = outcomes()
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(json.dumps(got, indent=2) + "\n")
        print(f"pinned {len(got)} commands in {GOLDEN}")
        sys.exit(0)
    pinned = json.loads(GOLDEN.read_text())
    bad = sorted(set(got) ^ set(pinned)
                 | {c for c in got if c in pinned and got[c] != pinned[c]})
    for command in bad:
        print(f"differs: {command}")
    print(f"{len(bad)} of {len(pinned)} pinned commands differ")
    sys.exit(1 if bad else 0)
