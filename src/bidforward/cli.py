"""Command-line entry point: run simulations, tournaments, or print graphs.

Everything an invocation produces is a pure function of the config file,
the overrides and the seed; re-running with the same inputs writes
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import config as cfg
from .engine import Simulation, balances_csv
from .model import events_to_log
from .observation import PROFILES_CSV_HEADER, profiles_csv
from .strategies import build_strategy
from .tournament import assign_mix, run_tournament


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _load_tree(args) -> dict:
    tree = cfg.load_config(args.config)
    for assignment in args.override or []:
        cfg.apply_override(tree, assignment)
    cfg.check_sections(tree)
    return tree


def cmd_run(args) -> int:
    tree = _load_tree(args)
    game = cfg.build_game_config(tree, args.seed)
    graph = cfg.build_graph(tree, game.master_seed)
    mix = cfg.build_mix(tree, graph.n)
    resolved = assign_mix(mix, graph.n, game.master_seed)
    assignment = {
        node: build_strategy(name, params) for node, (name, params) in resolved.items()
    }
    predictor = cfg.build_predictor_config(tree, game)

    sim = Simulation(game, graph, assignment, predictor)
    profile_rows = [PROFILES_CSV_HEADER]
    while True:
        round_no = sim.round
        if not sim.step_round():
            break
        if args.dump_profiles:
            stores = [(n, c.observer) for n, c in sim.contexts.items() if c.observer is not None]
            profile_rows.extend(profiles_csv(stores, round_no))
    result = sim.run()

    _write(os.path.join(args.out, "events.csv"), events_to_log(result.events))
    _write(os.path.join(args.out, "balances.csv"), balances_csv(result))
    if args.dump_profiles:
        _write(os.path.join(args.out, "profiles.csv"), "\n".join(profile_rows) + "\n")

    delivered = sum(1 for s in result.settlements if s.status.value == "delivered")
    dropped = len(result.settlements) - delivered
    print(f"packets {len(result.settlements)}: delivered {delivered}, dropped {dropped}")
    print(f"rounds {result.rounds}, backbone balance {result.backbone_balance}")
    per_strategy: dict[str, list[int]] = {}
    for node, name in result.strategy_names.items():
        per_strategy.setdefault(name, []).append(node)
    print(f"{'strategy':<12}{'nodes':>6}{'balance':>10}{'delivered':>11}{'dropped':>9}{'fines':>8}")
    for name in sorted(per_strategy):
        nodes = per_strategy[name]
        bal = sum(result.balances[n] for n in nodes)
        deliv = sum(result.stats[n].delivered for n in nodes)
        drop = sum(result.stats[n].dropped for n in nodes)
        fines = sum(result.stats[n].fines_paid for n in nodes)
        print(f"{name:<12}{len(nodes):>6}{bal:>10}{deliv:>11}{drop:>9}{fines:>8}")
    print(f"outputs in {args.out}/")
    return 0


def cmd_tournament(args) -> int:
    tree = _load_tree(args)
    spec, extras = cfg.build_tournament(tree, args.seed)
    workers = args.workers if args.workers is not None else extras["workers"]
    if workers < 1:
        raise cfg.ConfigError("--workers: must be >= 1")
    table = run_tournament(spec, workers=workers)
    _write(os.path.join(args.out, "ranktable.csv"), table.to_csv())
    if spec.sweep is None:
        print(table.summary())
    else:
        axis, values = spec.sweep
        for cell, value in zip(spec.cells, values):
            value_table = table.only(cell.name)  # as this value's own tournament
            _write(os.path.join(args.out, f"ranktable_{axis}_{value}.csv"), value_table.to_csv())
            print(value_table.summary())
    print(f"outputs in {args.out}/")
    if table.errors:
        failed = ", ".join(table.errors)
        print(f"error: {len(table.errors)} cell(s) failed: {failed}", file=sys.stderr)
        return 1
    return 0


def cmd_topo(args) -> int:
    tree = _load_tree(args)
    game = cfg.build_game_config(tree, args.seed)
    graph = cfg.build_graph(tree, game.master_seed)
    text = graph.to_edge_list()
    if args.out:
        _write(os.path.join(args.out, "graph.txt"), text)
        print(f"wrote {os.path.join(args.out, 'graph.txt')}")
    else:
        sys.stdout.write(text)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bidforward",
        description="Auction-based packet forwarding game simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="YAML config file")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument(
            "--override", action="append", metavar="PATH=VALUE",
            help="config override on a dotted path, repeatable",
        )

    run_p = sub.add_parser("run", help="run one simulation")
    common(run_p)
    run_p.add_argument(
        "--dump-profiles", action="store_true",
        help="write per-round observer profiles to profiles.csv",
    )
    run_p.set_defaults(func=cmd_run)

    tour_p = sub.add_parser("tournament", help="run a tournament batch")
    common(tour_p)
    tour_p.add_argument(
        "--workers", type=int, default=None,
        help="worker processes to fork, each inheriting the tasks (runs in process "
        "where fork is missing); the rank table is the same for any count",
    )
    tour_p.set_defaults(func=cmd_tournament)

    topo_p = sub.add_parser("topo", help="generate and print a topology")
    common(topo_p)
    topo_p.set_defaults(func=cmd_topo)
    # topo prints to stdout unless --out is given explicitly
    topo_p.set_defaults(out=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except cfg.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
