"""Compare two results files, a parent's and a change's, metric by metric.

    python3 benches/compare.py parent.json change.json

Both files come from ``collect.py`` over the same seeds; runs are paired by
seed. It prints the attempted and failed operations of each side per
workload, then for every (workload, end-to-end metric) the verdict:

- ``incorrect``: the change failed at least one operation on the workload
  (a crash or a failed output check), so none of its figures count.
- ``gain``: the change wins at least 9 in 10 pairs (ties count for neither)
  and its median beats the parent's by more than the parent's interquartile
  range.
- ``unresolved``: the run-to-run spread (interquartile range over median, the
  wider of the two sides) is larger than the metric's bound, and not every
  change run beats every parent run.
- ``regression``: the change's median is worse than the parent's by more than
  the metric's bound in ``BENCHMARK.json``.
- ``no regression`` otherwise.

Exits 1 when any metric regressed or any workload is incorrect.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import quartiles

WIN_SHARE = 0.9


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, dict]:
    """The verdict for one metric on one workload, with the figures behind it."""
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    worse_by = -sign * (cm - pm) / pm
    figures = {"parent": (p1, pm, p3), "change": (c1, cm, c3), "wins": wins,
               "pairs": len(pairs), "spread": spread, "change_rel": (cm - pm) / pm}
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if wins >= WIN_SHARE * len(pairs) and sign * (cm - pm) > p3 - p1:
        return "gain", figures
    if spread > bound and not all_better:
        return "unresolved", figures
    if worse_by > bound:
        return "regression", figures
    return "no regression", figures


def compare(parent: dict, change: dict, bench: dict) -> list[tuple[str, str, str, dict]]:
    if parent["seeds"] != change["seeds"]:
        raise ValueError(f"seeds differ: {parent['seeds']} and {change['seeds']}")
    rows = []
    for workload in parent["workloads"]:
        if workload not in change["workloads"]:
            continue
        p, c = parent["workloads"][workload], change["workloads"][workload]
        for metric in bench["end_to_end"]:
            name = metric["name"]
            result, figures = verdict(p["runs"][name], c["runs"][name],
                                      metric["better"], metric["bound"])
            if c["failed"]:
                result = "incorrect"
            rows.append((workload, name, result, figures))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args(argv)
    parent = json.loads(Path(args.parent).read_text())
    change = json.loads(Path(args.change).read_text())
    bench = json.loads(Path(args.benchmark).read_text())
    rows = compare(parent, change, bench)

    for workload, c in change["workloads"].items():
        p = parent["workloads"].get(workload, {"attempted": 0, "failed": 0})
        print(f"{workload:<16}parent {p['failed']} of {p['attempted']} operations failed, "
              f"change {c['failed']} of {c['attempted']}")
    print()
    def cell(q: tuple[float, float, float]) -> str:
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    print(f"{'workload':<16}{'metric':<15}{'parent median [q1, q3]':>28}"
          f"{'change median [q1, q3]':>28}{'change':>9}{'wins':>8}  verdict")
    for workload, name, result, f in rows:
        wins = f"{f['wins']}/{f['pairs']}"
        print(f"{workload:<16}{name:<15}{cell(f['parent']):>28}{cell(f['change']):>28}"
              f"{f['change_rel']:>+9.1%}{wins:>8}  {result}")
    return 1 if any(r[2] in ("regression", "incorrect") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
