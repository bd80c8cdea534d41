import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent
# allow running the suite from a fresh checkout without installing
sys.path.insert(0, str(ROOT / "src"))


@pytest.fixture
def gf_all() -> dict:
    """``fixtures/grid_meet_three.json`` with every deadline recurring:
    r1's ``G F[<=8] recharge1``, r2's ``G F[<=12] recharge2`` and the
    team's ``G F[<=30]``.  It is unsatisfiable, and the global search
    exhausts its product (30,467 states), pruning as it goes."""
    problem = json.loads(
        (ROOT / "fixtures" / "grid_meet_three.json").read_text())
    problem["agents"][0]["formula"] = "G F[<=8] recharge1"
    problem["agents"][1]["formula"] = "G F[<=12] recharge2"
    problem["global"]["formula"] = problem["global"]["formula"].replace(
        "F[<=30]", "G F[<=30]")
    return problem
