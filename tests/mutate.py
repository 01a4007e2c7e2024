"""Run the standing mutants of ``tests/mutants.json``.

Each mutant is one exact-string edit of a source file (``old`` occurs there
exactly once) and the test node that must fail on it.  The runner copies
``src/``, ``tests/``, ``README.md`` and ``pyproject.toml`` to a temporary
directory, checks that every listed node passes there unmutated, then applies
one edit at a time, runs its node, and restores the file.  It prints one line
per mutant, ``killed`` or ``survived``, and exits 1 if a mutant survives or a
node fails unmutated.  It uses the standard library only::

    python tests/mutate.py          # every mutant
    python tests/mutate.py 3 17     # mutants by index (0-based)
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = ROOT / "tests" / "mutants.json"
COPIED = ("src", "tests", "README.md", "pyproject.toml")


def run_node(tree: Path, node: str) -> bool:
    """Does the test node pass in ``tree``?"""
    # no bytecode: a restored file must not meet the mutant's cached .pyc
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "-o", "addopts=", node],
        cwd=tree, env=env, capture_output=True, text=True)
    return proc.returncode == 0


def main(argv: list[str]) -> int:
    mutants = json.loads(MUTANTS.read_text())
    chosen = [int(a) for a in argv] or range(len(mutants))
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, tree / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis"))
            else:
                shutil.copy2(src, tree / name)
        broken = sorted({mutants[i]["node"] for i in chosen
                         if not run_node(tree, mutants[i]["node"])})
        for node in broken:
            print(f"FAILS UNMUTATED  {node}")
        survived = 0
        for i in chosen:
            m = mutants[i]
            path = tree / m["file"]
            text = path.read_text()
            if text.count(m["old"]) != 1:
                print(f"{i:2d} NOT FOUND  {m['name']}")
                survived += 1
                continue
            path.write_text(text.replace(m["old"], m["new"]))
            started = time.monotonic()
            killed = m["node"] not in broken and not run_node(tree, m["node"])
            path.write_text(text)
            survived += not killed
            print(f"{i:2d} {'killed' if killed else 'SURVIVED'} "
                  f"({time.monotonic() - started:.1f} s)  {m['name']}")
    print(f"{len(chosen) - survived} of {len(chosen)} mutants killed")
    return 1 if survived or broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
