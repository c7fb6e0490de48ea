"""The bidforward benchmark: one workload, timed from outside, outputs checked.

Run from the root of a checkout::

    python3 benches/run.py --workload khop-churn --seed 1 --seconds 30 --trace 0

Each operation runs ``benches/op.py`` in a fresh interpreter, one at a time
(a closed loop): the workload's config at an instance seed derived from
``--seed``, set up, run to the end and its outputs written. Operations repeat
until ``--seconds`` have passed. Before them, one untimed operation runs at
the recorded seed of ``golden.json`` and its outputs must match the recorded
digest. Every operation's outputs are checked; a failed check counts in
``failed``. Times are scaled to a fixed host speed (see ``op.py``). With
``--trace 0`` the last line of output is a JSON object with the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` each
operation is also run traced and the object holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = {"wolfpack-pack": "run", "khop-churn": "run", "tournament-mix": "tournament"}
# A run must end within 180 s; operations are cut off well before that.
DEADLINE_S = 160.0


class OpError(RuntimeError):
    """An operation that crashed, timed out or printed no report."""


def instance_seed(seed: int, index: int) -> int:
    """The master seed of operation ``index`` in a run with ``seed``."""
    digest = hashlib.sha256(f"bench:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 2


def run_op(root: Path, config: Path, seed: int, out: Path, *, tournament: bool,
           workers: int | None = None, trace: Path | None = None,
           rerun_cell: int | None = None, timeout: float = 120.0) -> dict:
    """Run one operation in a fresh interpreter and return its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, str(BENCH_DIR / "op.py"), "--config", str(config),
           "--seed", str(seed), "--out", str(out)]
    if tournament:
        cmd.append("--tournament")
    if workers is not None:
        cmd += ["--workers", str(workers)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    if rerun_cell is not None:
        cmd += ["--rerun-cell", str(rerun_cell)]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the pool's workers too
        proc.communicate()
        raise OpError(f"seed {seed}: no result within {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["no message"]
        raise OpError(f"seed {seed}: exit {proc.returncode}: {tail[0]}")
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise OpError(f"seed {seed}: printed no report") from None


# -- output checks -------------------------------------------------------------


def output_digest(out: Path, tournament: bool) -> str:
    names = ("ranktable.csv",) if tournament else ("events.csv", "balances.csv")
    sha = hashlib.sha256()
    for name in names:
        sha.update((out / name).read_bytes())
    return sha.hexdigest()


def check_run_outputs(out: Path, report: dict) -> list[str]:
    """Invariants of one simulation's ``events.csv`` and ``balances.csv``.

    Money is conserved, promises never increase along a packet's path, and
    no packet takes more custody transfers than the TTL allows.
    """
    failures = []
    with open(out / "balances.csv", newline="") as fh:
        total = sum(int(row["balance"]) for row in csv.DictReader(fh))
    if total + report["backbone_balance"] != 0:
        failures.append(f"money not conserved: balances {total}, "
                        f"backbone {report['backbone_balance']}")
    promise: dict[str, int] = {}
    hops: Counter[str] = Counter()
    with open(out / "events.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["kind"] != "bid-won":
                continue
            packet, amount = row["packet_id"], int(row["amount"])
            if amount > promise.get(packet, amount):
                failures.append(f"packet {packet}: promise rose to {amount}")
            promise[packet] = amount
            hops[packet] += 1
    over = [p for p, h in hops.items() if h > report["ttl"]]
    if over:
        failures.append(f"packets over ttl {report['ttl']}: {over[:5]}")
    return failures


def check_tournament_outputs(out: Path, report: dict) -> list[str]:
    """No cell failed, and every (cell, strategy) row ranks every seed once."""
    failures = [f"cell {cell} failed: {err}" for cell, err in report["errors"].items()]
    seen = set()
    with open(out / "ranktable.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            seen.add(row["cell"])
            ranks = sum(int(v) for k, v in row.items() if k.startswith("rank_"))
            if ranks != report["seeds"]:
                failures.append(f"{row['cell']}/{row['strategy']}: {ranks} ranks "
                                f"for {report['seeds']} seeds")
    failures += [f"cell {c} missing from ranktable" for c in report["cells"] if c not in seen]
    for name, probe in report.get("probes", {}).items():
        failures += [f"{name} rerun: {f}" for f in check_run_outputs(out / name, probe)]
    failures += [f"{cell} reruns: sums differ from the tournament's"
                 for cell, match in report.get("probe_sums_match", {}).items() if not match]
    return failures


# -- metrics -------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(reports: list[dict]) -> dict[str, tuple[float, list[float]]]:
    """Each end-to-end metric with the samples it is the median of.

    Times are the scaled ones ``op.py`` reports (see its docstring).
    Throughput is total work over the total time of all operations. Round
    times are pooled over every simulation an operation stepped (one per run,
    the reruns of one cell for a tournament) before taking percentiles; round growth is
    the time of the last quarter of every simulation's rounds over the time of
    the first quarter, both summed over those simulations.
    """
    sims = [rounds for r in reports for rounds in r["round_s"]]
    first = last = 0.0
    for rounds in sims:
        quarter = max(len(rounds) // 4, 1)
        first += sum(rounds[:quarter])
        last += sum(rounds[-quarter:])
    round_ms = [t * 1000 for rounds in sims for t in rounds]
    samples = {
        "setup_s": [r["setup_s"] for r in reports],
        "round_ms_p50": round_ms,
        "peak_rss_mb": [r["rss_kb"] / 1024 for r in reports],
    }
    metrics = {name: (statistics.median(values), values) for name, values in samples.items()}
    metrics["round_ms_p90"] = (statistics.quantiles(round_ms, n=10)[8], round_ms)
    metrics["round_growth"] = (last / first, [])
    run_s = sum(r["run_s"] for r in reports)
    metrics["packets_per_s"] = (sum(r["packets"] for r in reports) / run_s, [])
    return metrics


def per_layer(traced: list[dict]) -> dict[str, float]:
    """Per-layer metrics, as means per traced operation.

    Each entry of ``traced`` holds the traced operation's spans and counts
    and the wall time of the same operation untraced. For a tournament it
    also holds the untraced run time at workers=1, which is the sum of its
    task times without the tracing overhead, and the untraced run time at
    the configured worker count.
    """
    from spans import self_times  # beside this script, first on sys.path

    n = len(traced)
    counts: Counter[str] = Counter()
    self_s: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    tasks: list[float] = []
    for t in traced:
        counts.update(t["counts"])
        self_s.update(self_times(t["spans"]))
        calls.update(span[0] for span in t["spans"])
        tasks += [end - start for name, start, end, _ in t["spans"] if name == "tournament.task"]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    pooled = [t for t in traced if "pool_run_s" in t]
    serial_s = sum(t["serial_run_s"] for t in pooled)
    pool_s = sum(t["pool_run_s"] * t["pool_workers"] for t in pooled)
    return {
        "config.build_s": self_s["config.build"] / n,
        "topology.generate_s": self_s["topology.generate"] / n,
        "topology.view_of_calls": calls["topology.view_of"] / n,
        "topology.view_of_s": self_s["topology.view_of"] / n,
        "topology.churn_s": self_s["topology.churn"] / n,
        "topology.hop_distance_calls": counts["topology.hop_distance_calls"] / n,
        "topology.distances_from_misses": counts["topology.distances_from_misses"] / n,
        "topology.view_distance_calls": counts["topology.view_distance_calls"] / n,
        "observation.merge_pack_calls": calls["observation.merge_pack"] / n,
        "observation.merge_pack_s": self_s["observation.merge_pack"] / n,
        "observation.rebuild_calls": counts["observation.rebuild_calls"] / n,
        "observation.apply_calls": counts["observation.apply_calls"] / n,
        "observation.apply_useful_ratio": ratio(
            counts["observation.apply_first"], counts["observation.apply_calls"]),
        "predictor.predict_bid_calls": calls["predictor.predict_bid"] / n,
        "predictor.predict_bid_s": self_s["predictor.predict_bid"] / n,
        "predictor.points_scanned": counts["predictor.points_scanned"] / n,
        "predictor.record_calls": counts["predictor.record_calls"] / n,
        "strategies.on_event_calls": counts["strategies.on_event_calls"] / n,
        "strategies.on_auction_s": self_s["strategies.on_auction"] / n,
        "strategies.choose_winner_s": self_s["strategies.choose_winner"] / n,
        "strategies.on_hold_drops": counts["strategies.on_hold_drops"] / n,
        "engine.round_self_s": self_s["engine.round"] / n,
        "engine.events": counts["engine.events"] / n,
        "engine.events_per_packet": ratio(counts["engine.events"], counts["engine.packets"]),
        "engine.auctions": counts["engine.auctions"] / n,
        "engine.bids": counts["engine.bids"] / n,
        "engine.bids_rejected": counts["engine.bids_rejected"] / n,
        "engine.bid_accept_ratio": ratio(
            counts["engine.bids"] - counts["engine.bids_rejected"], counts["engine.bids"]),
        "engine.fanout_per_event": ratio(
            counts["strategies.on_event_calls"], counts["engine.events"]),
        "engine.settle_calls": counts["engine.settle_calls"] / n,
        "model.parse_extra_calls": counts["model.parse_extra_calls"] / n,
        "model.events_to_log_s": self_s["model.events_to_log"] / n,
        "tournament.tasks": len(tasks) / n,
        "tournament.task_s_p50": statistics.median(tasks) if tasks else 0.0,
        "tournament.task_s_max": max(tasks, default=0.0),
        "tournament.parallel_eff": ratio(serial_s, pool_s),
        "trace.overhead_ratio": ratio(
            sum(t["traced_wall_s"] for t in traced), sum(t["plain_wall_s"] for t in traced)),
    }


# -- the run -------------------------------------------------------------------


class Run:
    """One invocation: operations attempted, failures, and what they measured."""

    def __init__(self, root: Path, config: Path, tournament: bool, out: Path):
        self.root, self.config, self.tournament, self.out = root, config, tournament, out
        self.started = time.perf_counter()
        self.attempted = 0
        self.failures: list[str] = []
        self.reports: list[dict] = []
        self.traced: list[dict] = []

    def op(self, seed: int, name: str, **kwargs) -> dict:
        out = self.out / name
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        report = run_op(self.root, self.config, seed, out, tournament=self.tournament,
                        timeout=min(remaining, 120.0), **kwargs)
        report["digest"] = output_digest(out, self.tournament)
        check = check_tournament_outputs if self.tournament else check_run_outputs
        report["checks"] = check(out, report)
        return report

    def attempt(self, step) -> None:
        """Run one checked step; any failure it reports or raises counts once."""
        self.attempted += 1
        try:
            failures = step()
        except (OpError, OSError, KeyError, ValueError) as exc:
            failures = [f"{type(exc).__name__}: {exc}"]
        if failures:
            self.failures.append("; ".join(failures))

    def expect(self, seed: int, name: str, digest: str, what: str, **kwargs) -> None:
        """One untimed, checked operation whose outputs must have ``digest``."""
        def step():
            report = self.op(seed, name, **kwargs)
            if report["digest"] != digest:
                report["checks"].append(f"seed {seed}: {what}")
            return report["checks"]

        self.attempt(step)

    def timed(self, seed: int, trace: bool, rerun_cell: int | None = None) -> None:
        """One timed operation; when tracing, also its traced rerun (after, for a
        tournament, an untraced rerun at workers=1 that the trace is compared with).
        ``rerun_cell`` is passed on to ``op.py``."""
        def step():
            report = self.op(seed, "plain", rerun_cell=rerun_cell)
            self.reports.append(report)
            failures = report["checks"]
            if not trace:
                return failures
            entry = {"plain_wall_s": report["wall_s"]}
            base = report
            if self.tournament:
                base = self.op(seed, "serial", workers=1)
                entry.update(plain_wall_s=base["wall_s"], serial_run_s=base["run_s"],
                             pool_run_s=report["run_s"], pool_workers=report["workers"])
                failures += base["checks"]
                if base["digest"] != report["digest"]:
                    failures.append(f"seed {seed}: ranktable differs at workers=1")
            spans_path = self.out / "spans.json"
            traced = self.op(seed, "traced", trace=spans_path,
                             workers=1 if self.tournament else None)
            failures += traced["checks"]
            if traced["digest"] != base["digest"]:
                failures.append(f"seed {seed}: traced outputs differ from untraced")
            entry.update(json.loads(spans_path.read_text()), traced_wall_s=traced["wall_s"])
            self.traced.append(entry)
            return failures

        self.attempt(step)


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool,
                 out: Path, config: Path | None = None,
                 golden: tuple[int, str] | None = None) -> Run:
    """Run the operations of one benchmark invocation and check their outputs."""
    tournament = WORKLOADS[workload] == "tournament"
    config = config or BENCH_DIR / "workloads" / f"{workload}.yaml"
    run = Run(root, config, tournament, out)
    if golden is not None:  # also fills the byte-code cache before timing
        golden_seed, digest = golden
        run.expect(golden_seed, "golden", digest, "outputs differ from golden.json")
    start = time.perf_counter()
    index = 0
    cycle = 1
    while index == 0 or time.perf_counter() - start < seconds or index % cycle:
        # Untraced tournament operations also rerun one cell each, in turn,
        # for round times. Cells differ in round time by 2x, so the run ends
        # after a whole number of turns, with every cell rerun equally often.
        rerun = index if tournament and not trace else None
        run.timed(instance_seed(seed, index), trace, rerun_cell=rerun)
        index += 1
        if rerun is not None and run.reports:
            cycle = len(run.reports[0]["cells"])
    if tournament and not trace and run.reports:
        run.expect(instance_seed(seed, 0), "serial", run.reports[0]["digest"],
                   "ranktable differs at workers=1", workers=1)
    return run


def result_line(run: Run, names: dict[str, str], trace: bool) -> dict:
    """The result object printed last; raises ValueError when nothing was measured."""
    if not run.reports or (trace and not run.traced):
        raise ValueError("no operation completed")
    if trace:
        values = per_layer(run.traced)
    else:
        values = {name: value for name, (value, _) in end_to_end(run.reports).items()}
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names.items()},
    }


def print_table(run: Run, result: dict, trace: bool) -> None:
    samples = {} if trace else {k: s for k, (_, s) in end_to_end(run.reports).items()}
    print(f"{'metric':<34}{'value':>14}  {'unit':<8}{'q1':>12}{'q3':>12}{'n':>7}")
    for name, metric in result["metrics"].items():
        line = f"{name:<34}{metric['value']:>14.6g}  {metric['unit']:<8}"
        if samples.get(name):
            q1, _, q3 = quartiles(samples[name])
            line += f"{q1:>12.6g}{q3:>12.6g}{len(samples[name]):>7}"
        print(line)
    if not trace:
        pace = statistics.median(r["pace_ms"] for r in run.reports)
        print(f"times are scaled to a 1 ms pace loop; here it took {pace:.4g} ms (median)")
    print(f"{'error_rate':<34}{result['failed'] / result['attempted']:>14.6g}  "
          f"{'ratio':<8}  ({result['failed']} of {result['attempted']} operations failed)")
    for failure in run.failures:
        print(f"FAILED: {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one bidforward benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "bidforward" / "__init__.py").is_file():
        print("benchmark: run from the root of a bidforward checkout (no src/bidforward)",
              file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    golden = json.loads((BENCH_DIR / "golden.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    names = {m["name"]: m["unit"] for m in bench[section]}

    run = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace),
                       root / ".bench_out" / args.workload,
                       golden=(golden["seed"], golden["sha256"][args.workload]))
    try:
        result = result_line(run, names, bool(args.trace))
    except ValueError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        for failure in run.failures:
            print(f"FAILED: {failure}", file=sys.stderr)
        return 1
    print_table(run, result, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
