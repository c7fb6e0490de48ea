"""Self-tests of the benchmark harness.

Run from the root of the checkout::

    PYTHONPATH=src python3 -m pytest benches/tests -q
"""

import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

import pytest
import yaml

import compare
import run
from spans import self_times

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN = json.loads((BENCH_DIR / "golden.json").read_text())


def tiny_config(workload: str, tmp_path):
    """The workload's config, cut to a few packets (and one seed per cell)."""
    tree = yaml.safe_load((BENCH_DIR / "workloads" / f"{workload}.yaml").read_text())
    tree["game"]["packets_total"] = 6
    if "tournament" in tree:
        tree["tournament"]["seeds"] = 1
    path = tmp_path / f"{workload}.yaml"
    path.write_text(yaml.safe_dump(tree))
    return path


def tiny_run(workload, tmp_path, trace=False, golden=None):
    return run.run_workload(ROOT, workload, seed=3, seconds=0, trace=trace,
                            out=tmp_path / "out", config=tiny_config(workload, tmp_path),
                            golden=golden)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("section", ["end_to_end", "per_layer"])
def test_smoke_emits_every_metric_with_its_unit(workload, section, tmp_path):
    trace = section == "per_layer"
    result_run = tiny_run(workload, tmp_path, trace=trace)
    names = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    result = run.result_line(result_run, names, trace)
    assert result["correct"], result_run.failures
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == names
    computed = run.per_layer(result_run.traced) if trace else run.end_to_end(result_run.reports)
    assert set(computed) == set(names)  # nothing measured that the file does not declare
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_self_time_subtracts_covered_child_time():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),  # overlaps a: 1..6 is covered once, not twice
        ("leaf", 2.0, 3.0, 1),
        ("a", 7.0, 8.0, 0),
        ("orphan", 20.0, 21.5, -1),
    ]
    assert self_times(spans) == pytest.approx(
        {"root": 10.0 - 5.0 - 1.0, "a": 2.0 + 1.0, "b": 3.0, "leaf": 1.0, "orphan": 1.5}
    )


def test_self_time_of_child_reaching_past_its_parent_is_clipped():
    spans = [("p", 0.0, 2.0, -1), ("c", 1.0, 3.0, 0)]
    assert self_times(spans) == pytest.approx({"p": 1.0, "c": 2.0})


def test_scaled_clock_scales_each_lap_by_the_pace_loops_beside_it(monkeypatch):
    import op

    paces = iter([0.002, 0.002, 0.004])
    ticks = iter([0.0, 1.0, 1.0, 4.0, 4.0])
    monkeypatch.setattr(op, "pace_s", lambda: next(paces))
    monkeypatch.setattr(op, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    clock = op.ScaledClock()
    assert clock.lap() == pytest.approx(1.0 * 0.001 / 0.002)
    assert clock.lap() == pytest.approx(3.0 * 0.001 / 0.003)


def corrupt_balance(out):
    lines = (out / "balances.csv").read_text().splitlines()
    cols = lines[1].split(",")
    cols[2] = str(int(cols[2]) + 1)
    lines[1] = ",".join(cols)
    (out / "balances.csv").write_text("\n".join(lines) + "\n")


def corrupt_promise(out):
    lines = (out / "events.csv").read_text().splitlines()
    won: dict[str, list[int]] = {}
    for i, line in enumerate(lines):
        if ",bid-won," in line:
            won.setdefault(line.split(",")[2], []).append(i)
    last = max(rows[-1] for rows in won.values() if len(rows) > 1)
    cols = lines[last].split(",")
    cols[4] = "100000"  # above the promise the previous hop granted
    lines[last] = ",".join(cols)
    (out / "events.csv").write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("corrupt", [corrupt_balance, corrupt_promise])
def test_corrupted_run_output_fails_its_check(corrupt, tmp_path):
    config = tiny_config("khop-churn", tmp_path)
    out = tmp_path / "op"
    report = run.run_op(ROOT, config, 5, out, tournament=False)
    assert run.check_run_outputs(out, report) == []
    corrupt(out)
    assert run.check_run_outputs(out, report)


def test_path_over_ttl_fails_its_check(tmp_path):
    config = tiny_config("khop-churn", tmp_path)
    out = tmp_path / "op"
    report = run.run_op(ROOT, config, 5, out, tournament=False)
    report["ttl"] = 0
    assert any("over ttl" in f for f in run.check_run_outputs(out, report))


def test_tournament_cell_error_or_foreign_round_probe_fails_its_check(tmp_path):
    config = tiny_config("tournament-mix", tmp_path)
    out = tmp_path / "op"
    report = run.run_op(ROOT, config, 5, out, tournament=True, rerun_cell=2)  # khop2
    assert run.check_tournament_outputs(out, report) == []
    report["probe_sums_match"]["khop2"] = False
    assert run.check_tournament_outputs(out, report) == [
        "khop2 reruns: sums differ from the tournament's"]
    report["errors"] = {"base": "boom"}
    assert "cell base failed: boom" in run.check_tournament_outputs(out, report)


def test_wrong_golden_digest_counts_as_failed_operation(tmp_path):
    result_run = tiny_run("wolfpack-pack", tmp_path, golden=(1401, "0" * 64))
    names = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    result = run.result_line(result_run, names, False)
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 2
    assert "golden" in result_run.failures[0]


def test_crashing_operation_counts_as_failed(tmp_path):
    config = tmp_path / "bad.yaml"
    config.write_text("game: {packets_total: 0}\n")
    bad = run.Run(ROOT, config, False, tmp_path / "out")
    bad.timed(1, trace=False)
    assert bad.attempted == 1 and len(bad.failures) == 1
    with pytest.raises(ValueError):
        run.result_line(bad, {}, False)  # nothing measured: no result is printed


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_golden_digest_matches_the_cli(workload, tmp_path):
    from bidforward.cli import main

    command = "tournament" if run.WORKLOADS[workload] == "tournament" else "run"
    config = BENCH_DIR / "workloads" / f"{workload}.yaml"
    assert main([command, "--config", str(config), "--seed", str(GOLDEN["seed"]),
                 "--out", str(tmp_path)]) == 0
    names = ["ranktable.csv"] if command == "tournament" else ["events.csv", "balances.csv"]
    digest = hashlib.sha256(b"".join((tmp_path / n).read_bytes() for n in names)).hexdigest()
    assert digest == GOLDEN["sha256"][workload]


def test_compare_verdicts(tmp_path, capsys):
    parent = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert compare.verdict(parent, [v * 1.2 for v in parent], "higher", 0.1)[0] == "gain"
    assert compare.verdict(parent, [v * 0.8 for v in parent], "higher", 0.1)[0] == "regression"
    assert compare.verdict(parent, [v * 0.95 for v in parent], "higher", 0.1)[0] == "no regression"
    noisy = [50.0, 150, 80, 120, 100, 60, 140, 90, 110, 100]
    assert compare.verdict(noisy, [v * 0.95 for v in noisy], "higher", 0.1)[0] == "unresolved"
    # lower is better: a 20% drop in time is a gain
    assert compare.verdict(parent, [v * 0.8 for v in parent], "lower", 0.1)[0] == "gain"

    def results(scale, failed):
        runs = {m["name"]: [(100.0 + i) * scale for i in range(10)]
                for m in BENCHMARK["end_to_end"]}
        return {"seeds": list(range(1, 11)), "workloads": {
            "khop-churn": {"attempted": 200, "failed": failed, "runs": runs}}}

    parent_file, change_file = tmp_path / "parent.json", tmp_path / "change.json"
    parent_file.write_text(json.dumps(results(1.0, 0)))
    change_file.write_text(json.dumps(results(1.0, 0)))
    argv = [str(parent_file), str(change_file), "--benchmark", str(ROOT / "BENCHMARK.json")]
    assert compare.main(argv) == 0
    # faster on every metric, but wrong: never a gain, and the compare fails
    change_file.write_text(json.dumps(results(0.5, 200)))
    assert compare.main(argv) == 1
    out = capsys.readouterr().out
    assert "change 200 of 200" in out
    rows = compare.compare(results(1.0, 0), results(0.5, 200), BENCHMARK)
    assert {verdict for _, _, verdict, _ in rows} == {"incorrect"}
