import copy
import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from bidforward import config as cfg
from bidforward.cli import main
from bidforward.engine import GameConfig
from bidforward.model import field_kinds
from bidforward.predictor import PredictorConfig
from bidforward.strategies import WolfPackParams, build_strategy
from bidforward.topology import TopologyGraph
from bidforward.tournament import TopologySpec

BENCH_DIR = Path(__file__).resolve().parents[1] / "benches"

DEMO = {
    "game": {
        "budget": 100, "fine": 200, "ttl": 8,
        "packets_total": 12, "injection_rate": 3, "seed": 42,
    },
    "topology": {"kind": "geometric", "n": 10, "radius": 0.45, "seed": 5, "gateways": [0]},
    "strategies": [
        {"nodes": "0-3", "strategy": "fair"},
        {"count": 2, "strategy": "wolfpack", "params": {"pack": "alpha"}},
        {"rest": True, "strategy": "random"},
    ],
}


def write_config(tmp_path, tree, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(tree))
    return str(path)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestRunCommand:
    def test_repeat_runs_are_byte_identical(self, tmp_path, capsys):
        conf = write_config(tmp_path, DEMO)
        out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        assert main(["run", "--config", conf, "--seed", "42", "--out", out1]) == 0
        assert main(["run", "--config", conf, "--seed", "42", "--out", out2]) == 0
        assert read(os.path.join(out1, "events.csv")) == read(os.path.join(out2, "events.csv"))
        assert read(os.path.join(out1, "balances.csv")) == read(os.path.join(out2, "balances.csv"))
        assert "delivered" in capsys.readouterr().out

    def test_event_log_has_documented_header(self, tmp_path):
        conf = write_config(tmp_path, DEMO)
        out = str(tmp_path / "o")
        main(["run", "--config", conf, "--out", out])
        first = read(os.path.join(out, "events.csv")).decode().splitlines()[0]
        assert first == "round,kind,packet_id,node,amount,extra"

    def test_missing_node_coverage_names_the_node(self, tmp_path, capsys):
        tree = dict(DEMO, strategies=[{"nodes": "0-6", "strategy": "fair"}])
        conf = write_config(tmp_path, tree)
        code = main(["run", "--config", conf, "--out", str(tmp_path / "o")])
        assert code != 0
        assert "node 7" in capsys.readouterr().err

    def test_unknown_strategy_rejected_at_parse_time(self, tmp_path, capsys):
        tree = dict(DEMO, strategies=[{"rest": True, "strategy": "bully"}])
        conf = write_config(tmp_path, tree)
        assert main(["run", "--config", conf, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "bully" in err and "strategies[0]" in err

    def test_override_changes_only_that_field(self, tmp_path):
        conf = write_config(tmp_path, DEMO)
        out = str(tmp_path / "o")
        main(["run", "--config", conf, "--out", out,
              "--override", "game.packets_total=1"])
        events = read(os.path.join(out, "events.csv")).decode().splitlines()[1:]
        packet_ids = {line.split(",")[2] for line in events}
        assert packet_ids == {"0"}

    def test_zero_fine_override_means_no_fine_events(self, tmp_path):
        conf = write_config(tmp_path, DEMO)
        out = str(tmp_path / "o")
        main(["run", "--config", conf, "--out", out, "--override", "game.fine=0",
              "--override", "game.ttl=1"])
        events = read(os.path.join(out, "events.csv")).decode()
        assert "fine-assessed" not in events

    def test_dump_profiles(self, tmp_path):
        conf = write_config(tmp_path, DEMO)
        out = str(tmp_path / "o")
        main(["run", "--config", conf, "--out", out, "--dump-profiles"])
        header = read(os.path.join(out, "profiles.csv")).decode().splitlines()[0]
        assert header == "round,observer,subject,profit_est,fairness_dev,drop_rate"

    @pytest.mark.parametrize("observation, digest", [
        ("global", "24a6a0d706281da60626e49838162567c31756a53b86c00da01d5ee37911f4fa"),
        ("khop:2", "78ec16dc71341fe647e58b55228304b134a0f1126106c6463d908e75a23de40c"),
    ], ids=["global", "khop2"])
    def test_dump_profiles_rows_are_unchanged(self, tmp_path, observation, digest):
        # Digests recorded when every observer kept a store of its own: the
        # shared store under global scope prints one block per observer.
        tree = {
            "game": {"packets_total": 40, "injection_rate": 2, "ttl": 6, "seed": 5,
                     "observation": observation},
            "topology": {"kind": "geometric", "n": 16, "radius": 0.4, "seed": 3,
                         "gateways": [0]},
            "strategies": [
                {"nodes": [0], "strategy": "fair"},
                {"nodes": "1-5", "strategy": "wolfpack",
                 "params": {"pack": "a", "sabotage_enabled": True}},
                {"nodes": "6-9", "strategy": "always_one"},
                {"nodes": "10-12", "strategy": "sniper"},
                {"rest": True, "strategy": "fair"},
            ],
        }
        out = tmp_path / "o"
        assert main(["run", "--config", write_config(tmp_path, tree), "--out", str(out),
                     "--dump-profiles"]) == 0
        assert hashlib.sha256((out / "profiles.csv").read_bytes()).hexdigest() == digest

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == 2
        assert "not found" in capsys.readouterr().err


RUN_IMPORTS = """
import sys
from bidforward.cli import main

assert main(["run", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
assert "concurrent.futures" not in sys.modules
"""


class TestRunImports:
    def test_run_does_not_import_the_process_pool(self, tmp_path):
        """A run in a fresh interpreter leaves the process pool unimported
        (tournaments fork their workers without it)."""
        conf = write_config(tmp_path, DEMO)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        paths = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        proc = subprocess.run(
            [sys.executable, "-c", RUN_IMPORTS, conf, str(tmp_path / "o")],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "o" / "events.csv").exists()


class TestTopoCommand:
    def test_prints_edge_list(self, tmp_path, capsys):
        conf = write_config(tmp_path, DEMO)
        assert main(["topo", "--config", conf]) == 0
        text = capsys.readouterr().out
        graph = TopologyGraph.from_edge_list(text)
        assert graph.n == 10 and graph.gateways == frozenset({0})

    def test_graph_file_round_trips_into_run(self, tmp_path, capsys):
        conf = write_config(tmp_path, DEMO)
        main(["topo", "--config", conf])
        graph_path = tmp_path / "graph.txt"
        graph_path.write_text(capsys.readouterr().out)
        tree = dict(DEMO, topology={"file": str(graph_path)})
        conf2 = write_config(tmp_path, tree, "from_file.yaml")
        assert main(["run", "--config", conf2, "--out", str(tmp_path / "o")]) == 0

    def test_missing_graph_file_is_a_config_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.txt")
        conf = write_config(tmp_path, dict(DEMO, topology={"file": missing}))
        assert main(["run", "--config", conf, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "topology.file" in err and missing in err

    def test_malformed_graph_file_names_file_and_line(self, tmp_path, capsys):
        graph_path = tmp_path / "graph.txt"
        graph_path.write_text("n 4\n0 1\n0 x\ngateways 0\n")
        conf = write_config(tmp_path, dict(DEMO, topology={"file": str(graph_path)}))
        assert main(["run", "--config", conf, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert str(graph_path) in err and "line 3" in err and "'0 x'" in err

    def test_graph_file_with_other_topology_keys_is_a_config_error(self, tmp_path, capsys):
        graph_path = tmp_path / "graph.txt"
        graph_path.write_text("n 4\n0 1\n1 2\n2 3\ngateways 0\n")
        topology = {"file": str(graph_path), "n": 50, "kind": "ring", "gateways": [2]}
        conf = write_config(tmp_path, dict(DEMO, topology=topology))
        assert main(["run", "--config", conf, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "topology.file" in err
        assert "topology.gateways, topology.kind, topology.n" in err
        assert not os.path.exists(tmp_path / "o")

    def test_graph_file_with_every_node_a_gateway_is_a_config_error(self, tmp_path, capsys):
        graph_path = tmp_path / "graph.txt"
        graph_path.write_text("n 3\n0 1\n1 2\ngateways 0 1 2\n")
        tree = dict(DEMO, topology={"file": str(graph_path)})
        tree["strategies"] = [{"rest": True, "strategy": "fair"}]
        conf = write_config(tmp_path, tree)
        assert main(["run", "--config", conf, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error: topology.gateways: every node" in err and str(graph_path) in err
        assert not os.path.exists(tmp_path / "o")


class TestTournamentCommand:
    def tournament_tree(self, sweep=None):
        tree = dict(DEMO)
        tree["game"] = dict(DEMO["game"], packets_total=6, injection_rate=2)
        tree["tournament"] = {"seeds": 2}
        if sweep:
            tree["tournament"]["sweep"] = sweep
        return tree

    def test_plain_batch_writes_rank_table(self, tmp_path, capsys):
        conf = write_config(tmp_path, self.tournament_tree())
        out = str(tmp_path / "t")
        assert main(["tournament", "--config", conf, "--out", out]) == 0
        lines = read(os.path.join(out, "ranktable.csv")).decode().splitlines()
        assert lines[0].startswith("cell,strategy,mean_balance")
        assert "cell base" in capsys.readouterr().out

    def test_sweep_writes_one_csv_per_value_plus_combined(self, tmp_path):
        conf = write_config(
            tmp_path, self.tournament_tree(sweep={"axis": "fine", "values": [0, 200]})
        )
        out = str(tmp_path / "t")
        assert main(["tournament", "--config", conf, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "ranktable_fine_0.csv"))
        assert os.path.exists(os.path.join(out, "ranktable_fine_200.csv"))
        combined = read(os.path.join(out, "ranktable.csv")).decode()
        assert "base[fine=0]" in combined and "base[fine=200]" in combined

    def test_sweep_tables_equal_at_any_worker_count(self, tmp_path):
        conf = write_config(
            tmp_path, self.tournament_tree(sweep={"axis": "fine", "values": [0, 200]})
        )
        tables = {}
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            args = ["tournament", "--config", conf, "--out", str(out), "--workers", str(workers)]
            assert main(args) == 0
            tables[workers] = {p.name: read(p) for p in out.glob("ranktable*.csv")}
        assert sorted(tables[1]) == [
            "ranktable.csv", "ranktable_fine_0.csv", "ranktable_fine_200.csv"
        ]
        assert tables[2] == tables[1]

    def test_empty_sweep_values_rejected(self, tmp_path, capsys):
        conf = write_config(
            tmp_path, self.tournament_tree(sweep={"axis": "fine", "values": []})
        )
        assert main(["tournament", "--config", conf, "--out", str(tmp_path / "t")]) == 2
        assert "sweep.values" in capsys.readouterr().err

    def test_sweep_forks_its_workers_once(self, tmp_path, monkeypatch):
        forks, real_fork = [], os.fork

        def counting_fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        conf = write_config(
            tmp_path, self.tournament_tree(sweep={"axis": "fine", "values": [0, 100, 200]})
        )
        args = ["tournament", "--config", conf, "--out", str(tmp_path / "t"), "--workers", "2"]
        assert main(args) == 0
        assert len(forks) == 2

    @pytest.mark.parametrize("sweep", [None, {"axis": "fine", "values": [0, 200]}])
    def test_failed_cells_exit_one(self, tmp_path, capsys, sweep):
        tree = self.tournament_tree(sweep=sweep)
        # No geometric graph this sparse is connected: every run fails.
        tree["topology"] = dict(tree["topology"], radius=0.01)
        conf = write_config(tmp_path, tree)
        out = str(tmp_path / "t")
        assert main(["tournament", "--config", conf, "--out", out]) == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.out and "failed" in captured.err
        assert os.path.exists(os.path.join(out, "ranktable.csv"))

    def test_graph_file_rejected(self, tmp_path, capsys):
        graph_path = tmp_path / "graph.txt"
        graph_path.write_text("n 4\n0 1\n1 2\n2 3\ngateways 0\n")
        tree = dict(self.tournament_tree(), topology={"file": str(graph_path)})
        conf = write_config(tmp_path, tree)
        assert main(["tournament", "--config", conf, "--out", str(tmp_path / "t")]) == 2
        err = capsys.readouterr().err
        assert "topology.file" in err and "topology.kind" in err
        assert not os.path.exists(tmp_path / "t")

    def test_missing_tournament_section(self, tmp_path, capsys):
        conf = write_config(tmp_path, DEMO)
        assert main(["tournament", "--config", conf, "--out", str(tmp_path / "t")]) == 2
        assert "tournament" in capsys.readouterr().err


class TestConfigHelpers:
    @pytest.mark.parametrize("libyaml", [True, False])
    def test_load_config_builds_the_safe_loaders_tree(self, libyaml, tmp_path, monkeypatch):
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        workloads = sorted((BENCH_DIR / "workloads").glob("*.yaml"))
        assert len(workloads) == 3
        for path in workloads:
            assert cfg.load_config(str(path)) == yaml.safe_load(path.read_text()), path
        assert cfg.load_config(write_config(tmp_path, DEMO)) == DEMO
        bad = tmp_path / "bad.yaml"
        bad.write_text("game: [1, 2\n")
        with pytest.raises(cfg.ConfigError, match="invalid YAML"):
            cfg.load_config(str(bad))

    def test_apply_override_paths(self):
        tree = {"game": {"fine": 200}}
        cfg.apply_override(tree, "game.fine=0")
        cfg.apply_override(tree, "topology.kind=ring")
        assert tree == {"game": {"fine": 0}, "topology": {"kind": "ring"}}

    def test_apply_override_bad_forms(self):
        with pytest.raises(cfg.ConfigError):
            cfg.apply_override({}, "no-equals")
        with pytest.raises(cfg.ConfigError):
            cfg.apply_override({"game": 3}, "game.fine=1")

    def test_parse_node_set(self):
        assert cfg.parse_node_set("0-2,5") == (0, 1, 2, 5)
        assert cfg.parse_node_set(4) == (4,)
        assert cfg.parse_node_set([1, 2]) == (1, 2)
        with pytest.raises(cfg.ConfigError):
            cfg.parse_node_set("3-1")

    def test_unknown_game_field_rejected(self):
        with pytest.raises(cfg.ConfigError, match="game.budgets"):
            cfg.build_game_config({"game": {"budgets": 1}})

    def test_mix_requires_exactly_one_selector(self):
        tree = dict(DEMO, strategies=[{"strategy": "fair", "nodes": "0", "count": 1}])
        with pytest.raises(cfg.ConfigError, match="exactly one"):
            cfg.build_mix(tree)

    def test_bad_strategy_params_flagged(self, tmp_path, capsys):
        tree = dict(DEMO, strategies=[
            {"rest": True, "strategy": "wolfpack", "params": {"w_richness": 2}},
        ])
        conf = write_config(tmp_path, tree)
        assert main(["run", "--config", conf, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "wolfpack" in err and "strategies[0].params" in err

    @pytest.mark.parametrize("strategy, name, value, message", [
        ("sniper", "small_cap", 2.5, "small_cap must be an integer, got 2.5"),
        ("wolfpack", "small_cap", 2.5, "small_cap must be an integer, got 2.5"),
        ("wolfpack", "small_cap", True, "small_cap must be an integer, got True"),
        ("wolfpack", "greed_margin", 0.5, "greed_margin must be an integer, got 0.5"),
        ("wolfpack", "sabotage_budget", "50", "sabotage_budget must be an integer, got '50'"),
        ("wolfpack", "w_rich", "1", "w_rich must be a number, got '1'"),
        ("always_one", "w_fair", False, "w_fair must be a number, got False"),
        ("wolfpack", "drop_rate_cap", None, "drop_rate_cap must be a number, got None"),
        ("wolfpack", "w_rich", float("nan"), "rank weights must be finite and non-negative"),
        ("always_one", "w_bid", float("inf"), "rank weights must be finite and non-negative"),
        ("wolfpack", "pack", 1, "pack must be a string, got 1"),
    ])
    def test_strategy_param_types_checked(self, tmp_path, capsys, strategy, name, value, message):
        tree = dict(DEMO, tournament={"seeds": 1}, strategies=[
            {"rest": True, "strategy": strategy, "params": {name: value}},
        ])
        conf = write_config(tmp_path, tree)
        out = tmp_path / "o"
        for command in ("run", "tournament"):
            assert main([command, "--config", conf, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"strategies[0].params: {message}" in err, err
            assert not out.exists()

    @pytest.mark.parametrize("strategy", ["sniper", "wolfpack"])
    def test_whole_float_param_runs_as_its_int(self, tmp_path, strategy):
        outputs = []
        for cap in (3, 3.0):
            tree = dict(DEMO, strategies=[
                {"nodes": "0", "strategy": "fair"},
                {"rest": True, "strategy": strategy, "params": {"small_cap": cap}},
            ])
            conf = write_config(tmp_path, tree, name=f"config-{cap}.yaml")
            out = tmp_path / f"o-{cap}"
            assert main(["run", "--config", conf, "--out", str(out)]) == 0
            outputs.append([read(out / name) for name in ("events.csv", "balances.csv")])
        assert outputs[0] == outputs[1]


def with_override(path, value):
    """A copy of the demo tree with ``value`` set at the dotted ``path``."""
    tree = copy.deepcopy(DEMO)
    tree["tournament"] = {"seeds": 1}
    node = tree
    keys = path.split(".")
    for key in keys[:-1]:
        node = node[int(key)] if isinstance(node, list) else node.setdefault(key, {})
    node[keys[-1]] = value
    return tree


class TestConfigValueChecks:
    """Values of the wrong type are config errors naming the field, never coerced."""

    @pytest.mark.parametrize("path, value, field", [
        ("game.packets_total", 20.9, "game.packets_total"),
        ("game.ttl", True, "game.ttl"),
        ("game.churn_rate", True, "game.churn_rate"),
        ("predictor.max_history", 2.5, "predictor.max_history"),
        ("topology.gateways", [0.5], "topology.gateways"),
        ("game.forced_bid_mode", "false", "game.forced_bid_mode"),
        ("strategies.2.rest", "yes", "strategies[2].rest"),
        ("strategies.1.count", 1.5, "strategies[1].count"),
        ("strategies.0.nodes", [0, 1, 2, 3.5], "strategies[0].nodes"),
        ("strategies.0.params", {"bogus": 1}, "strategies[0].params"),
        ("strategies.1.params.sabotage_enabled", "no", "strategies[1].params: sabotage_enabled"),
        ("strategies.1.params.prefer_unfair", 1, "strategies[1].params: prefer_unfair"),
        ("predictor.epsilon", float("nan"), "predictor.epsilon"),
        ("game.observation", "khop:x", "with an integer k >= 1, got 'khop:x'"),
        ("game.observation", "khop:2.5", "with an integer k >= 1, got 'khop:2.5'"),
        ("topology.radius", -0.3, "radius must be > 0, got -0.3"),
        ("topology.radius", float("nan"), "radius must be > 0, got nan"),
        ("topology.gateways", [0, 0], "topology.gateways: gateway 0 is listed twice"),
        ("strategies.2.strategy", ["random"], "strategies[2].strategy: expected a strategy name"),
        ("strategies.2.strategy", {"random": 1}, "strategies[2].strategy: expected a strategy"),
        ("game.budget", "100", "game.budget must be an integer, got '100'"),
        ("topology.n", "20", "topology.n must be an integer, got '20'"),
        ("predictor.epsilon", "inf", "predictor.epsilon must be a number, got 'inf'"),
        ("game", 5, "game must be a mapping, got 5"),
        ("strategies", {"strategy": "fair"}, "strategies must be a list"),
        ("strategies", ["fair"], "strategies[0] must be a mapping, got 'fair'"),
        ("strategies.0.params", [], "strategies[0].params must be a mapping, got []"),
        ("predictor.budget_norm", 100, "predictor.budget_norm: unknown field"),
        ("predictor.ttl_norm", 8, "predictor.ttl_norm: unknown field"),
    ])
    def test_run_rejects(self, tmp_path, capsys, path, value, field):
        conf = write_config(tmp_path, with_override(path, value))
        assert main(["run", "--config", conf, "--out", str(tmp_path / "o")]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("path, value, field", [
        ("tournament.workers", -3, "tournament.workers"),
        ("tournament.workers", 0, "tournament.workers"),
        ("tournament.sweep", {"axis": "budget", "values": [1]}, "tournament.sweep.axis"),
        ("tournament.seeds", "2", "tournament.seeds must be an integer, got '2'"),
        ("tournament.workers", "2", "tournament.workers must be an integer, got '2'"),
        ("tournament.cells", [{"name": None}], "tournament.cells[0].name must be a string"),
        ("tournament.cells", [{"name": [1]}], "tournament.cells[0].name must be a string"),
        ("tournament.cells", [{"name": "a", "override": {"game.fine": 0}}],
         "tournament.cells[0].override: unknown field"),
        ("tournament.sweep", {"axis": "fine", "values": [0, 1], "valeus": [3]},
         "tournament.sweep.valeus: unknown field"),
        ("tournament.cells", {}, "tournament.cells must be a list, got {}"),
        ("tournament.cells", ["base"], "tournament.cells[0] must be a mapping, got 'base'"),
        ("tournament.cells", [{"overrides": ["game.fine=0"]}],
         "tournament.cells[0].overrides must be a mapping"),
        ("tournament.sweep", [{"axis": "fine"}], "tournament.sweep must be a mapping"),
    ])
    def test_tournament_rejects(self, tmp_path, capsys, path, value, field):
        conf = write_config(tmp_path, with_override(path, value))
        assert main(["tournament", "--config", conf, "--out", str(tmp_path / "t")]) == 2
        assert field in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "t")

    @pytest.mark.parametrize("path", [
        "game.packets_total", "game.budget", "game.churn_rate", "game.seed",
        "topology.n", "predictor.epsilon",
    ])
    def test_null_rejected_where_the_default_is_not(self, tmp_path, capsys, path):
        conf = write_config(tmp_path, with_override(path, None))
        for command in ("run", "tournament"):
            assert main([command, "--config", conf, "--out", str(tmp_path / "o")]) == 2
            assert path in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    def test_null_accepted_where_the_default_is_none(self, tmp_path):
        tree = with_override("topology.cols", None)
        tree["topology"]["seed"] = None
        conf = write_config(tmp_path, tree)
        assert main(["run", "--config", conf, "--out", str(tmp_path / "o")]) == 0
        # A ring reads none of radius, cols and seed; null is no value.
        tree["topology"].update(kind="ring", radius=None)
        conf = write_config(tmp_path, tree)
        assert main(["run", "--config", conf, "--out", str(tmp_path / "ring")]) == 0

    @pytest.mark.parametrize("value", [0, -1, None])
    def test_tournament_seeds_below_one_rejected(self, tmp_path, capsys, value):
        conf = write_config(tmp_path, with_override("tournament.seeds", value))
        assert main(["tournament", "--config", conf, "--out", str(tmp_path / "t")]) == 2
        assert "tournament.seeds" in capsys.readouterr().err

    def test_workers_flag_below_one_rejected(self, tmp_path, capsys):
        conf = write_config(tmp_path, with_override("tournament.workers", 2))
        args = ["tournament", "--config", conf, "--out", str(tmp_path / "t"), "--workers", "0"]
        assert main(args) == 2
        assert "--workers" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "t")

    def test_integral_float_and_yaml_booleans_accepted(self, tmp_path):
        tree = with_override("game.packets_total", 4.0)
        tree["game"]["forced_bid_mode"] = False
        tree["strategies"][2]["rest"] = True
        conf = write_config(tmp_path, tree)
        assert main(["run", "--config", conf, "--out", str(tmp_path / "o")]) == 0

    def test_infinite_epsilon_accepted(self, tmp_path):
        conf = write_config(tmp_path, with_override("predictor.epsilon", float("inf")))
        assert main(["run", "--config", conf, "--out", str(tmp_path / "o")]) == 0


class TestChecksBeforeAnyRun:
    """Errors that depend only on the config fail before any run starts or file is written."""

    def test_duplicate_cell_names_rejected(self, tmp_path, capsys):
        tree = with_override("tournament.cells", [
            {"name": "a"}, {"name": "a", "overrides": {"game.fine_mode": "dropper-only"}},
        ])
        conf = write_config(tmp_path, tree)
        assert main(["tournament", "--config", conf, "--out", str(tmp_path / "t")]) == 2
        assert "tournament.cells[1].name" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "t")

    @pytest.mark.parametrize("overrides, path", [
        ({"game.seed": 99}, "game.seed"),
        ({"game": {"seed": 99}}, "game.seed"),
        ({"game.fine": 0, "tournament.seeds": 99}, "tournament.seeds"),
        ({"tournament.workers": 2}, "tournament.workers"),
        ({"tournament": {"seeds": 2}}, "tournament"),
    ])
    def test_cell_overrides_of_what_every_cell_shares_rejected(
        self, tmp_path, capsys, overrides, path
    ):
        tree = with_override("tournament.cells", [{"name": "a", "overrides": overrides}])
        conf = write_config(tmp_path, tree)
        assert main(["tournament", "--config", conf, "--out", str(tmp_path / "t")]) == 2
        assert f"tournament.cells[0]: {path}: every cell shares it" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "t")

    @pytest.mark.parametrize("game", [{"fine": 0}, {"fine": 0, "seed": 42}])
    def test_cell_game_mapping_that_keeps_the_seed_accepted(self, tmp_path, game):
        tree = with_override("tournament.cells", [{"name": "a", "overrides": {"game": game}}])
        conf = write_config(tmp_path, tree)
        assert main(["tournament", "--config", conf, "--out", str(tmp_path / "t")]) == 0

    @pytest.mark.parametrize("axis, values, field", [
        ("ttl", [2.5], "values[0]"),
        ("ttl", [3, 0], "values[1]"),
        ("ttl", [True], "values[0]"),
        ("fine", [100, -5], "values[1]"),
        ("churn", [0.1, "abc"], "values[1]"),
        ("churn", [1.5], "values[0]"),
        ("churn", ["0.1"], "values[0]"),
    ])
    def test_bad_sweep_value_rejected(self, tmp_path, capsys, axis, values, field):
        tree = with_override("tournament.sweep", {"axis": axis, "values": values})
        conf = write_config(tmp_path, tree)
        assert main(["tournament", "--config", conf, "--out", str(tmp_path / "t")]) == 2
        assert f"tournament.sweep.{field}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "t")

    @pytest.mark.parametrize("axis, values, field", [
        ("fine", [100, 100, 100.0], "values[1]: 100 repeats tournament.sweep.values[0]"),
        ("fine", [50, 100, 100.0], "values[2]: 100.0 repeats tournament.sweep.values[1]"),
        ("churn", [0, 0.1, 0.0], "values[2]: 0.0 repeats tournament.sweep.values[0]"),
    ])
    def test_sweep_values_equal_once_typed_rejected(self, tmp_path, capsys, axis, values, field):
        tree = with_override("tournament.sweep", {"axis": axis, "values": values})
        conf = write_config(tmp_path, tree)
        assert main(["tournament", "--config", conf, "--out", str(tmp_path / "t")]) == 2
        assert f"tournament.sweep.{field}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "t")

    @pytest.mark.parametrize("overrides, field", [
        ({"topology.radius": -0.3}, "topology.radius: geometric: radius must be > 0, got -0.3"),
        ({"topology.radius": float("nan")}, "topology.radius: geometric: radius must be > 0"),
        ({"topology.kind": "hexagon"}, "topology.kind: unknown topology kind 'hexagon'"),
        ({"topology.n": 1}, "topology.n: n must be >= 2"),
        ({"topology.kind": "grid", "topology.cols": 0}, "topology.cols: grid: 10 nodes"),
        ({"topology.gateways": [99]}, "topology.gateways: gateway 99 is not a node"),
        ({"topology.gateways": [0, 3, 0]}, "topology.gateways: gateway 0 is listed twice"),
        ({"topology.gateways": list(range(10))}, "topology.gateways: every node is a gateway"),
        ({"topology.kind": "ring"}, "topology.radius: only a geometric graph uses it, not a ring"),
        ({"topology.kind": "grid"}, "topology.radius: only a geometric graph uses it, not a grid"),
        ({"topology.cols": 5}, "topology.cols: only a grid graph uses it, not a geometric"),
        ({"topology.kind": "ring", "topology.radius": None},
         "topology.seed: only a geometric graph uses it, not a ring"),
        ({"topology.kind": "grid", "topology.radius": None, "topology.cols": 5},
         "topology.seed: only a geometric graph uses it, not a grid"),
    ], ids=["negative-radius", "nan-radius", "unknown-kind", "one-node", "grid-cols-0",
            "unknown-gateway", "repeated-gateway", "all-gateways", "ring-radius", "grid-radius",
            "geometric-cols", "ring-seed", "grid-seed"])
    def test_topology_no_seed_can_build_rejected(self, tmp_path, capsys, overrides, field):
        # In the base config, the run and the tournament both fail on it.
        tree = with_override("tournament.seeds", 2)
        for dotted, value in overrides.items():
            _, key = dotted.split(".")
            tree["topology"][key] = value
        conf = write_config(tmp_path, tree)
        for command in ("run", "tournament"):
            assert main([command, "--config", conf, "--out", str(tmp_path / "o")]) == 2
            assert f"config error: {field}" in capsys.readouterr().err
        # As a cell's override, the error names the cell.
        tree = with_override("tournament.cells", [
            {"name": "a"}, {"name": "b", "overrides": overrides},
        ])
        conf = write_config(tmp_path, tree)
        assert main(["tournament", "--config", conf, "--out", str(tmp_path / "o")]) == 2
        assert f"config error: tournament.cells[1]: {field}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    def test_cell_override_error_names_the_cell(self, tmp_path, capsys):
        tree = with_override("tournament.cells", [
            {"name": "a"}, {"name": "b", "overrides": {"game.ttl": 0}},
        ])
        conf = write_config(tmp_path, tree)
        assert main(["tournament", "--config", conf, "--out", str(tmp_path / "t")]) == 2
        assert "config error: tournament.cells[1]: game: ttl must be >= 1" in (
            capsys.readouterr().err
        )
        assert not os.path.exists(tmp_path / "t")

    @pytest.mark.parametrize("overrides, message", [
        ({"strategies": [{"strategy": ["fair"], "rest": True}]}, "strategies[0].strategy"),
        ({"gmae.fine": 5}, "gmae: unknown section"),
    ], ids=["list-strategy-name", "misspelled-section"])
    def test_cell_override_shape_error_names_the_cell(self, tmp_path, capsys, overrides, message):
        tree = with_override("tournament.cells", [
            {"name": "a"}, {"name": "b", "overrides": overrides},
        ])
        conf = write_config(tmp_path, tree)
        assert main(["tournament", "--config", conf, "--out", str(tmp_path / "t")]) == 2
        assert f"config error: tournament.cells[1]: {message}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "t")

    @pytest.mark.parametrize("command", ["run", "topo", "tournament"])
    @pytest.mark.parametrize("override", [False, True], ids=["in-file", "override"])
    def test_misspelled_section_rejected(self, tmp_path, capsys, command, override):
        if override:
            tree, extra = with_override("tournament.seeds", 1), ["--override", "gmae.fine=5"]
        else:
            tree, extra = with_override("gmae", {"packets_total": 3}), []
        conf = write_config(tmp_path, tree)
        assert main([command, "--config", conf, "--out", str(tmp_path / "o")] + extra) == 2
        assert "config error: gmae: unknown section" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("mix, field", [
        ([{"nodes": "0-3", "strategy": "fair"}, {"nodes": [3], "strategy": "sniper"},
          {"rest": True, "strategy": "random"}], "strategies[1].nodes: node 3"),
        ([{"nodes": [0, 40], "strategy": "fair"}, {"rest": True, "strategy": "random"}],
         "strategies[0].nodes: node 40"),
        ([{"nodes": "0-3", "strategy": "fair"}, {"count": 4, "strategy": "sniper"},
          {"count": 4, "strategy": "random"}], "strategies[2].count"),
        ([{"nodes": "0-3", "strategy": "fair"}, {"count": 2, "strategy": "sniper"}],
         "strategies: no strategy assigned to 4 of the unpinned nodes"),
        ([{"rest": True, "strategy": "fair"}, {"rest": True, "strategy": "random"}],
         "strategies[1].rest"),
        ([{"count": -1, "strategy": "fair"}, {"rest": True, "strategy": "random"}],
         "strategies[0].count"),
    ])
    def test_mix_that_cannot_cover_the_graph_rejected(self, tmp_path, capsys, mix, field):
        conf = write_config(tmp_path, with_override("strategies", mix))
        for command in ("run", "tournament"):
            assert main([command, "--config", conf, "--out", str(tmp_path / "o")]) == 2
            assert field in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("nodes", [[], "", ","], ids=["empty-list", "empty", "comma"])
    def test_node_set_that_selects_no_node_rejected(self, tmp_path, capsys, nodes):
        mix = [
            {"nodes": "0-3", "strategy": "fair"},
            {"nodes": nodes, "strategy": "wolfpack", "params": {"pack": "a"}},
            {"rest": True, "strategy": "random"},
        ]
        conf = write_config(tmp_path, with_override("strategies", mix))
        for command in ("run", "tournament"):
            assert main([command, "--config", conf, "--out", str(tmp_path / "o")]) == 2
            assert f"strategies[1].nodes: {nodes!r} selects no node" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    def test_mix_checked_against_each_cells_graph(self, tmp_path, capsys):
        tree = with_override("tournament.cells", [
            {"name": "big"}, {"name": "small", "overrides": {"topology.n": 3}},
        ])
        conf = write_config(tmp_path, tree)
        assert main(["tournament", "--config", conf, "--out", str(tmp_path / "t")]) == 2
        assert "strategies[0].nodes: node 3" in capsys.readouterr().err


# One case per field of each record: a number field set to a bool or a string,
# a bool field to "no", a string field to a number and the gateway list to a string.
WRONG_KIND = {int: True, float: "0.5", bool: "no", str: 5}
FIELD_CASES = [
    (f"{path}.{'seed' if f.name == 'master_seed' else f.name}",
     WRONG_KIND.get(field_kinds(record)[f.name][0], "0"), named)
    for path, record, named in [
        ("game", GameConfig, "game."),
        ("predictor", PredictorConfig, "predictor."),
        ("topology", TopologySpec, "topology."),
        ("strategies.1.params", WolfPackParams, "strategies[1].params: "),
    ]
    for f in dataclasses.fields(record)
]


class TestSchemaFromFields:
    """Each config section and the wolf pack's params are read off their dataclass."""

    def test_empty_sections_give_the_dataclass_defaults(self):
        assert cfg.build_game_config({}) == GameConfig()
        assert cfg.build_predictor_config({}, GameConfig()) == PredictorConfig()
        assert cfg.build_topology_spec({}) == TopologySpec()
        assert build_strategy("wolfpack").params == WolfPackParams()

    @pytest.mark.parametrize("path, value, named", FIELD_CASES, ids=[c[0] for c in FIELD_CASES])
    def test_every_field_rejects_a_value_of_the_wrong_kind(
        self, tmp_path, capsys, path, value, named
    ):
        conf = write_config(tmp_path, with_override(path, value))
        assert main(["run", "--config", conf, "--out", str(tmp_path / "o")]) == 2
        field = named + path.rsplit(".", 1)[1]
        assert f"config error: {field} must be " in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("path", ["game.churn_rate", "strategies.1.params.w_rich"])
    def test_int_beyond_the_float_range_rejected(self, tmp_path, capsys, path):
        conf = write_config(tmp_path, with_override(path, 10**400))
        assert main(["run", "--config", conf, "--out", str(tmp_path / "o")]) == 2
        assert "must be a number, got 1000" in capsys.readouterr().err

    def test_null_radius_fails_where_the_graph_needs_one(self, tmp_path, capsys):
        conf = write_config(tmp_path, with_override("topology.radius", None))
        assert main(["run", "--config", conf, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "topology.radius: geometric graphs need a connection radius" in err, err

    @pytest.mark.parametrize("command", ["run", "tournament"])
    def test_game_seed_checked_when_seed_flag_given(self, tmp_path, capsys, command):
        conf = write_config(tmp_path, with_override("game.seed", "abc"))
        args = [command, "--config", conf, "--out", str(tmp_path / "o"), "--seed", "3"]
        assert main(args) == 2
        assert "game.seed must be an integer, got 'abc'" in capsys.readouterr().err

    def test_null_cell_name_does_not_collide_with_none(self, tmp_path, capsys):
        conf = write_config(tmp_path, with_override("tournament.cells", [
            {"name": "None"}, {"name": None, "overrides": {"game.fine": 0}},
        ]))
        assert main(["tournament", "--config", conf, "--out", str(tmp_path / "t")]) == 2
        assert "tournament.cells[1].name must be a string, got None" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["pack", "sabotage_enabled", "greed_margin"])
    def test_always_one_rejects_wolf_only_params(self, tmp_path, capsys, name):
        conf = write_config(tmp_path, with_override("strategies", [
            {"nodes": "0", "strategy": "fair"},
            {"rest": True, "strategy": "always_one", "params": {name: 1}},
        ]))
        assert main(["run", "--config", conf, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "strategies[1].params: bad parameters for strategy 'always_one'" in err, err
        assert repr(name) in err
