"""Golden outputs: sha256 of every file `simulate` writes for the default cohort.

The default 20-run config (seed 0) is simulated at IL -0.8, 0 and +0.9 and
each written file is hashed against `golden_simulate.json`.  A change that
is meant to alter the outputs regenerates the fixture with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from odlisim.cli import main

FIXTURE = Path(__file__).with_name("golden_simulate.json")
ILS = ("-0.8", "0.0", "0.9")


def simulate_digests(il: str, work: Path) -> dict[str, str]:
    cfg = work / "config.json"
    out = work / "out"
    assert main(["scenario", "gen", "--il", il, "--seed", "0", "--out", str(cfg)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


@pytest.mark.parametrize("il", ILS)
def test_simulate_outputs_match_golden(il, tmp_path):
    expected = json.loads(FIXTURE.read_text())[il]
    assert simulate_digests(il, tmp_path) == expected


if __name__ == "__main__":
    golden = {}
    for il in ILS:
        with tempfile.TemporaryDirectory() as d:
            golden[il] = simulate_digests(il, Path(d))
    FIXTURE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)
