"""Every benchmark workload's CLI output matches its recorded golden digest.

``benches/golden.json`` holds the sha256 of each workload's outputs at the
golden seed: ``events.csv`` and ``balances.csv`` of a run, ``ranktable.csv``
of a tournament. A change that moves any of them changes output; this test
makes that a tier-1 failure. The files under ``benches/`` are only read.
"""

import hashlib
import json
from pathlib import Path

import pytest
import yaml

from bidforward.cli import main

BENCH_DIR = Path(__file__).resolve().parents[1] / "benches"
GOLDEN = json.loads((BENCH_DIR / "golden.json").read_text())


@pytest.mark.parametrize("workload", sorted(GOLDEN["sha256"]))
def test_workload_outputs_match_the_golden_digest(workload, tmp_path, capsys):
    config = BENCH_DIR / "workloads" / f"{workload}.yaml"
    tournament = "tournament" in yaml.safe_load(config.read_text())
    command = "tournament" if tournament else "run"
    assert main([command, "--config", str(config), "--seed", str(GOLDEN["seed"]),
                 "--out", str(tmp_path)]) == 0
    names = ["ranktable.csv"] if tournament else ["events.csv", "balances.csv"]
    digest = hashlib.sha256(b"".join((tmp_path / n).read_bytes() for n in names)).hexdigest()
    assert digest == GOLDEN["sha256"][workload]
