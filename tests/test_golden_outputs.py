"""Every benchmark workload's CLI output matches its recorded golden digest.

``benches/golden.json`` holds the sha256 of each workload's outputs at the
golden seed: ``events.csv`` and ``balances.csv`` of a run, ``ranktable.csv``
of a tournament. ``tests/golden_khop.json`` holds the same digest for
``khop-churn`` under overrides that move its bid histories (other scopes,
tapes small enough to trim, forced bids), and for ``wolfpack-pack`` under
``khop`` scopes, where every pack member keeps a store of its own and the
stores hear events by distance on a churning graph. A case may instead name
a config file (``config``, relative to the repository root), extra CLI
arguments (``args``) and the files it digests (``files``): the pack cases
with ``--dump-profiles`` also pin ``profiles.csv``, every pack member's
profiles at the end of every round, after the pack's merge, for one and
two packs. Its ``global`` cases
(``khop-churn`` with ``game.observation=global``, and ``wolfpack-pack``,
which is ``global``) pin the bid windows where every history owner hears
every bid but its own: short and tiny windows, a long run that trims, and
forced bids. A window that heard its owner's own bids would change
``wolfpack-trimmed-tapes`` and ``global-seed-7``. Each case names its
workload, and may name its seed (the file's ``seed`` otherwise).
``tests/golden_sweep.json`` pins two sweeps of ``tournament-mix``,
one whose seeds all run and one where some fail: the sorted names of the
``ranktable*.csv`` files written, the exit status, and the sha256 of the
files' digest followed by stdout and stderr, at ``--workers`` 1 and 3 alike.
A change that moves any of them changes output; this test makes that a
tier-1 failure. The files under ``benches/`` are only read.
"""

import hashlib
import json
from pathlib import Path

import pytest
import yaml

from bidforward.cli import main

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = ROOT / "benches"
GOLDEN = json.loads((BENCH_DIR / "golden.json").read_text())
GOLDEN_KHOP = json.loads(Path(__file__).with_name("golden_khop.json").read_text())
GOLDEN_SWEEP = json.loads(Path(__file__).with_name("golden_sweep.json").read_text())


def run_digest(args, out, names=("events.csv", "balances.csv"), status=0):
    assert main([*args, "--out", str(out)]) == status
    return hashlib.sha256(b"".join((out / n).read_bytes() for n in names)).hexdigest()


@pytest.mark.parametrize("workload", sorted(GOLDEN["sha256"]))
def test_workload_outputs_match_the_golden_digest(workload, tmp_path, capsys):
    config = BENCH_DIR / "workloads" / f"{workload}.yaml"
    tournament = "tournament" in yaml.safe_load(config.read_text())
    command = "tournament" if tournament else "run"
    names = ["ranktable.csv"] if tournament else ["events.csv", "balances.csv"]
    args = [command, "--config", str(config), "--seed", str(GOLDEN["seed"])]
    assert run_digest(args, tmp_path, names) == GOLDEN["sha256"][workload]


@pytest.mark.parametrize("case", sorted(GOLDEN_KHOP["sha256"]))
def test_khop_histories_match_the_golden_digest(case, tmp_path):
    expected = GOLDEN_KHOP["sha256"][case]
    if "config" in expected:
        config = ROOT / expected["config"]
    else:
        config = BENCH_DIR / "workloads" / f"{expected['workload']}.yaml"
    seed = expected.get("seed", GOLDEN_KHOP["seed"])
    args = ["run", "--config", str(config), "--seed", str(seed), *expected.get("args", ())]
    for override in expected["overrides"]:
        args += ["--override", override]
    names = expected.get("files", ("events.csv", "balances.csv"))
    assert run_digest(args, tmp_path, names) == expected["digest"]


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("case", sorted(GOLDEN_SWEEP["cases"]))
def test_sweep_outputs_match_the_golden_digest(case, workers, tmp_path, monkeypatch, capsys):
    expected = GOLDEN_SWEEP["cases"][case]
    config = BENCH_DIR / "workloads" / f"{GOLDEN_SWEEP['workload']}.yaml"
    args = ["tournament", "--config", str(config), "--workers", str(workers)]
    for override in expected["overrides"]:
        args += ["--override", override]
    monkeypatch.chdir(tmp_path)  # stdout names the output directory as given
    out = Path("out")
    files = run_digest(args, out, expected["files"], expected["status"])
    assert sorted(p.name for p in out.glob("ranktable*.csv")) == expected["files"]
    captured = capsys.readouterr()
    text = f"{files}\n{captured.out}{captured.err}"
    assert hashlib.sha256(text.encode()).hexdigest() == expected["digest"]
