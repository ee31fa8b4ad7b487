"""The narrative demos, each run as a script under ``python -W error``."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spatialgraphs

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# sha256 of each demo's stdout; every demo is deterministic
PINNED_DEMOS = {
    "apex_analysis.py": "c91aded3166cfab43051ed424eda2f8090306bbeb5ae0d01bd2e30f496fa12e3",
    "cycle_structure.py": "2e44e82395fb85d6e1a1b18e2d927d9e508a1cb9ffdbc85ee0761ad4999af0f8",
    "dichotomy_sampling.py": "8cebfb05f827ad6e538f94233222ab7274c372e6a9f8b0406f5219ed9d278e4d",
    "family_census.py": "0fb1a8a814f1ede1f5b277b5ac1dda97c44fc5ad64eb33cd4e1c3e59f1e6aa08",
    "knot_invariants.py": "e33db5610750a3e74b7a189540006a57ff3b46aed63b4ffc670c7eba4646de69",
    "minor_scripts.py": "c1aa88e0e2b9a293449829a892c0a15662816d8f76b664eb8297ed48c528e480",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(PINNED_DEMOS)


@pytest.mark.parametrize("name", sorted(PINNED_DEMOS))
def test_demo_output_matches_pin(name):
    # a warning is an error here, as it is in the tests
    src = os.path.dirname(os.path.dirname(spatialgraphs.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-W", "error", str(DEMOS / name)],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == PINNED_DEMOS[name]
