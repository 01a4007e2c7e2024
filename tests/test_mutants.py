"""The standing mutants stay applicable: each edit still finds its one place.

``python tests/mutate.py`` runs them; this test only keeps the list from
rotting as the code moves.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = json.loads((ROOT / "tests" / "mutants.json").read_text())


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["name"] for m in MUTANTS])
def test_mutant_edits_exactly_one_place(mutant):
    assert set(mutant) == {"name", "file", "old", "new", "node"}
    assert mutant["old"] != mutant["new"]
    assert (ROOT / mutant["file"]).read_text().count(mutant["old"]) == 1
    path, test = mutant["node"].split("::")
    name = re.match(r"\w+", test).group()
    assert f"def {name}(" in (ROOT / path).read_text()
