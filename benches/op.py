"""One benchmark operation in a fresh interpreter: set up, run, write outputs.

Run from the root of a checkout, with ``src`` on ``PYTHONPATH``::

    python3 benches/op.py --config benches/workloads/khop-churn.yaml --seed 7 --out OUT

It makes the same public calls as ``bidforward run`` (or, with
``--tournament``, ``bidforward tournament``), times them from outside, writes
the same output files into OUT and prints one JSON line of timings. With
``--trace FILE`` it first wraps the package's layers (see ``spans.py``) and
writes the recorded spans to FILE.

Times are scaled to a fixed host speed. On a shared host the speed of the
same code drifts by ±20% from one minute to the next, and it can differ
between the vCPUs a process moves across, so raw times of runs made minutes
apart differ by more than most changes to the code. Every timed section is
therefore followed by a fixed pure-Python pace loop (``pace_s``), and the
section's time is multiplied by ``PACE_REF_S`` over the mean time of the
pace loops on either side of it: the time the section would take on a host
where the pace loop takes 1 ms. Pace loops run outside the timed sections.
The tournament's pool works for seconds in other processes, so its time is
scaled by the mean of pace loops run every 50 ms in a second thread.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import resource
import statistics
import sys
import threading
import time


PACE_REF_S = 0.001


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key, self.value = key, value


_PACE_ITEMS = [_Item(i % 61, i) for i in range(5000)]


def pace_s() -> float:
    """Time of one fixed loop of attribute reads, dict updates, tuples and a sort."""
    gc_on = gc.isenabled()
    gc.disable()  # collecting the simulation's heap is not the host's speed
    start = time.perf_counter()
    table: dict[int, int] = {}
    picked = []
    for item in _PACE_ITEMS:
        key = item.key
        table[key] = table.get(key, 0) + item.value
        if item.value & 3 == 0:
            picked.append((item.value, key))
    picked.sort()
    elapsed = time.perf_counter() - start
    if gc_on:
        gc.enable()
    return elapsed


class ScaledClock:
    """Times consecutive sections of work, each scaled by the pace loops beside it."""

    def __init__(self) -> None:
        self.paces = [pace_s()]
        self.start = time.perf_counter()

    def lap(self) -> float:
        """The scaled time since the previous lap; then a pace loop, then restart."""
        elapsed = time.perf_counter() - self.start
        self.paces.append(pace_s())
        self.start = time.perf_counter()
        return elapsed * PACE_REF_S * 2 / (self.paces[-2] + self.paces[-1])

    def lap_sampled(self, work):
        """Run ``work()`` as one section, with a pace loop every 50 ms in a second
        thread; returns its result and its time scaled by all those loops."""
        samples = [self.paces[-1]]
        stop = threading.Event()

        def sample() -> None:
            while not stop.wait(0.05):
                samples.append(pace_s())

        sampler = threading.Thread(target=sample)
        sampler.start()
        start = time.perf_counter()
        try:
            result = work()
        finally:
            elapsed = time.perf_counter() - start
            stop.set()
            sampler.join()
        self.paces.append(pace_s())
        samples.append(self.paces[-1])
        self.start = time.perf_counter()
        return result, elapsed * PACE_REF_S / statistics.fmean(samples)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _simulate(clock: ScaledClock, game, graph, resolved, predictor, out: str) -> dict:
    """Step one simulation round by round and write its event log and balances.

    Returns the scaled set-up time left (building the strategies and the
    simulation), round times and run time, the result and what the output
    checks need.
    """
    from bidforward import engine, model
    from bidforward.strategies import build_strategy

    assignment = {node: build_strategy(name, params) for node, (name, params) in resolved.items()}
    sim = engine.Simulation(game, graph, assignment, predictor)
    setup_s = clock.lap()
    round_s = []
    while True:
        more = sim.step_round()
        lap = clock.lap()
        if not more:
            break
        round_s.append(lap)
    result = sim.run()
    _write(os.path.join(out, "events.csv"), model.events_to_log(result.events))
    _write(os.path.join(out, "balances.csv"), engine.balances_csv(result))
    return {
        "setup_s": setup_s,
        "run_s": sum(round_s) + lap + clock.lap(),
        "round_s": round_s,
        "packets": len(result.settlements),
        "backbone_balance": result.backbone_balance,
        "ttl": game.ttl,
        "result": result,
    }


def _add_strategy_sums(sums: dict[str, list[int]], result) -> None:
    """Add one simulation's per-strategy (node runs, balance, delivered, fines)."""
    for node, name in result.strategy_names.items():
        stats = result.stats[node]
        row = sums.setdefault(name, [0, 0, 0, 0])
        for i, value in enumerate((1, result.balances[node], stats.delivered, stats.fines_paid)):
            row[i] += value


def _matches_table(sums: dict[str, list[int]], aggregates: dict) -> bool:
    """Whether per-strategy sums over a cell's runs equal the rank table's cell."""
    return sums == {
        name: [agg.node_runs, agg.total_balance, agg.total_delivered, agg.total_fines]
        for name, agg in aggregates.items()
    }


def main(argv: list[str] | None = None) -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tournament", action="store_true")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--trace", default=None, help="write spans to this file")
    parser.add_argument("--rerun-cell", type=int, default=None,
                        help="tournament: rerun cell N (mod the cell count) for round times")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)

    clock = ScaledClock()
    from bidforward import config as cfg
    from bidforward import seeding, tournament

    setup_s = clock.lap()

    tracer = None
    if args.trace:
        from spans import Tracer  # beside this script, first on sys.path

        tracer = Tracer()
        tracer.install()

    tree = cfg.load_config(args.config)
    report: dict = {}
    if args.tournament:
        spec, extras = cfg.build_tournament(tree, args.seed)
        workers = args.workers if args.workers is not None else extras["workers"]
        setup_s += clock.lap()

        def run() -> tournament.RankTable:
            table = tournament.run_tournament(spec, workers=workers)
            _write(os.path.join(args.out, "ranktable.csv"), table.to_csv())
            return table

        table, run_s = clock.lap_sampled(run)
        run_end = time.perf_counter()
        report.update(
            packets=sum(c.config.packets_total for c in spec.cells) * spec.seeds_per_cell,
            seeds=spec.seeds_per_cell,
            workers=workers,
            cells=[c.name for c in spec.cells],
            errors=table.errors,
        )
        if args.rerun_cell is not None:
            # The pool hides the tournament's rounds, so round times come from
            # the runs of one cell, every seed rebuilt and stepped again here
            # as cmd_run steps a run. Their outputs get the run checks, and
            # their per-strategy sums must equal the rank table's cell, so a
            # rerun that stops being the tournament's own run fails.
            index = args.rerun_cell % len(spec.cells)
            cell = spec.cells[index]
            report.update(round_s=[], probes={})
            sums: dict[str, list[int]] = {}
            for seed_index in range(spec.seeds_per_cell):
                run_seed = seeding.derive_seed(spec.master_seed, index, seed_index)
                graph = cell.topology.build(run_seed)
                resolved = tournament.assign_mix(cell.mix, graph.n, run_seed)
                game = dataclasses.replace(cell.config, master_seed=run_seed)
                name = f"{cell.name}/{seed_index}"
                out = os.path.join(args.out, name)
                os.makedirs(out, exist_ok=True)
                probe = _simulate(clock, game, graph, resolved, cell.predictor, out)
                report["round_s"].append(probe["round_s"])
                report["probes"][name] = {"backbone_balance": probe["backbone_balance"],
                                          "ttl": probe["ttl"]}
                _add_strategy_sums(sums, probe["result"])
            report["probe_sums_match"] = {
                cell.name: _matches_table(sums, table.cells.get(cell.name, {}))}
    else:
        game = cfg.build_game_config(tree, args.seed)
        graph = cfg.build_graph(tree, game.master_seed)
        resolved = tournament.assign_mix(cfg.build_mix(tree), graph.n, game.master_seed)
        predictor = cfg.build_predictor_config(tree, game)
        setup_s += clock.lap()
        sim = _simulate(clock, game, graph, resolved, predictor, args.out)
        run_end = time.perf_counter()
        del sim["result"]
        setup_s += sim.pop("setup_s")
        run_s = sim.pop("run_s")
        report.update(sim, round_s=[sim["round_s"]])

    report.update(
        setup_s=setup_s,
        run_s=run_s,
        pace_ms=statistics.median(clock.paces) * 1000,
        wall_s=run_end - start,
        rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if tracer is not None:
        tracer.write(args.trace)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
