"""Run the benchmark over several seeds and write a results file.

One checkout::

    python3 benches/collect.py --root . --out benches/results.json

A parent and a change, interleaved seed by seed with the side that runs first
alternating, one results file each (compare them with ``compare.py``)::

    python3 benches/collect.py --root ../parent --out parent.json --root . --out change.json

Each workload runs once per seed 1-10 with ``--trace 0``, using the command
and ``run_seconds`` of each checkout's ``BENCHMARK.json``, then once with
``--trace 1`` at seed 1. The file keeps every run's end-to-end values, their
median, quartiles and sample count, and the traced run's per-layer values.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS, quartiles

SEEDS = list(range(1, 11))


def invoke(root: Path, workload: str, seed: int, trace: int) -> dict:
    """One benchmark run in ``root``, as the command in its BENCHMARK.json."""
    bench = json.loads((root / "BENCHMARK.json").read_text())
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root} {workload} seed {seed}: exit {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def summarise(runs: dict[str, list[float]], units: dict[str, str]) -> dict:
    summary = {}
    for name, values in runs.items():
        q1, median, q3 = quartiles(values)
        summary[name] = {"median": median, "q1": q1, "q3": q3, "n": len(values),
                         "spread": (q3 - q1) / median if median else 0.0, "unit": units[name]}
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", action="append", required=True, help="checkout to run in")
    parser.add_argument("--out", action="append", required=True, help="results file per root")
    args = parser.parse_args(argv)
    if len(args.root) != len(args.out):
        parser.error("give one --out per --root")
    roots = [Path(r).resolve() for r in args.root]
    files = {root: {"host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                             "python": platform.python_version()},
                    "seeds": SEEDS, "workloads": {}} for root in roots}

    for workload in WORKLOADS:
        values: dict[Path, dict[str, list[float]]] = {root: {} for root in roots}
        counts = {root: [0, 0] for root in roots}
        units: dict[str, str] = {}
        for i, seed in enumerate(SEEDS):
            for root in roots if i % 2 == 0 else roots[::-1]:
                result = invoke(root, workload, seed, 0)
                counts[root][0] += result["attempted"]
                counts[root][1] += result["failed"]
                for name, metric in result["metrics"].items():
                    values[root].setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
                line = "  ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items())
                print(f"{root.name} {workload} seed {seed}: {line}", flush=True)
        for root in roots:
            entry = {
                "attempted": counts[root][0],
                "failed": counts[root][1],
                "runs": values[root],
                "summary": summarise(values[root], units),
            }
            traced = invoke(root, workload, SEEDS[0], 1)
            entry["attempted"] += traced["attempted"]
            entry["failed"] += traced["failed"]
            entry["per_layer"] = {"seed": SEEDS[0], "metrics": {
                name: m["value"] for name, m in traced["metrics"].items()}}
            files[root]["workloads"][workload] = entry
            for name, s in entry["summary"].items():
                print(f"{root.name} {workload} {name}: median {s['median']:.5g} "
                      f"[{s['q1']:.5g}, {s['q3']:.5g}] n={s['n']} spread {s['spread']:.3f}")

    for root, out in zip(roots, args.out):
        Path(out).write_text(json.dumps(files[root], indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
