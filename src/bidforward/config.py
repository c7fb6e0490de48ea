"""Config file parsing and validation for the command-line tools.

One YAML tree describes a whole experiment: the game parameters, the
topology, the predictor tuning, the strategy assignment, and optionally a
tournament section. CLI overrides address dotted paths in the same tree, so
a recorded config plus its overrides fully reproduces a run; a mapping
merges into the mapping at its path. A tournament cell is the tree with its
overrides set, and a sweep value is one more override, ``game.<field>``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Sequence

import yaml

from .engine import EngineError, GameConfig
from .model import ConfigError, check_fields, check_value
from .predictor import PredictorConfig
from .strategies import STRATEGY_REGISTRY, build_strategy
from .topology import TopologyError, TopologyGraph, check_generate
from .tournament import (
    CellSpec,
    MixEntry,
    MixError,
    TopologySpec,
    TournamentSpec,
    check_mix,
    make_mix_entry,
)


def load_config(path: str) -> dict:
    """The YAML tree in ``path``, read with libyaml's safe loader where PyYAML
    was built with it (several times faster), else with the pure one."""
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            tree = yaml.load(fh, Loader=loader)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if tree is None:
        tree = {}
    if not isinstance(tree, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return tree


SECTIONS = ("game", "topology", "predictor", "strategies", "tournament")


def check_sections(tree: dict) -> None:
    """Reject a top-level key that names no section, such as a misspelling."""
    for key in tree:
        if key not in SECTIONS:
            raise ConfigError(f"{key}: unknown section (known: {', '.join(SECTIONS)})")


def apply_override(tree: dict, assignment: str) -> None:
    """Set one ``dotted.path=value`` override in place: a YAML value, set by ``set_override``."""
    if "=" not in assignment:
        raise ConfigError(f"override {assignment!r} must look like key.path=value")
    path, raw = assignment.split("=", 1)
    try:
        value = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigError(f"override value {raw!r} is invalid: {exc}") from exc
    set_override(tree, path, value)


def set_override(tree: dict, path: str, value: Any) -> None:
    """Set ``value`` at the dotted ``path``: a mapping merges key by key into a
    mapping already there; a list, scalar or null replaces what is there."""
    keys = [k for k in str(path).strip().split(".") if k]
    if not keys:
        raise ConfigError(f"override path {path!r} is empty")
    node = tree
    for key in keys[:-1]:
        nxt = node.get(key)
        if nxt is None:
            nxt = node[key] = {}
        if not isinstance(nxt, dict):
            raise ConfigError(f"override path {path!r} crosses non-mapping {key!r}")
        node = nxt
    _merge(node, keys[-1], value)


def _merge(node: dict, key: Any, value: Any) -> None:
    if isinstance(value, dict) and isinstance(node.get(key), dict):
        for sub, item in value.items():
            _merge(node[key], sub, item)
    else:
        node[key] = value


def _section(tree: dict, name: str) -> dict:
    return check_value(name, tree.get(name), dict, optional=True) or {}


def build_game_config(tree: dict, seed_override: int | None = None) -> GameConfig:
    fields = check_fields(GameConfig, _section(tree, "game"), "game.", {"master_seed": "seed"})
    if seed_override is not None:
        fields["master_seed"] = seed_override
    try:
        return GameConfig(**fields)
    except EngineError as exc:
        raise ConfigError(f"game: {exc}") from exc


def build_topology_spec(tree: dict) -> TopologySpec:
    """The spec of a generated graph, checked for every error no seed can avoid;
    tournaments build one graph per run from it."""
    topo = _section(tree, "topology")
    if "file" in topo:
        raise ConfigError(
            "topology.file: tournaments generate each run's graph from topology.kind "
            "and cannot use a graph file; set topology.kind instead"
        )
    spec = TopologySpec(**check_fields(TopologySpec, topo, "topology."))
    try:
        check_generate(
            spec.kind, spec.n, radius=spec.radius, cols=spec.cols, gateways=spec.gateways
        )
    except TopologyError as exc:
        raise ConfigError(f"topology.{exc.field}: {exc}") from None
    for key, kind in (("radius", "geometric"), ("cols", "grid"), ("seed", "geometric")):
        if topo.get(key) is not None and spec.kind != kind:
            raise ConfigError(f"topology.{key}: only a {kind} graph uses it, not a {spec.kind}")
    if len(spec.gateways) == spec.n:
        raise ConfigError("topology.gateways: every node is a gateway; no valid destinations exist")
    return spec


def build_graph(tree: dict, run_seed: int) -> TopologyGraph:
    topo = _section(tree, "topology")
    if "file" in topo:
        ignored = sorted(f"topology.{key}" for key in topo if key != "file")
        if ignored:
            raise ConfigError(
                f"topology.file: the graph file fixes nodes, edges and gateways; "
                f"remove {', '.join(ignored)}"
            )
        path = check_value("topology.file", topo["file"], str)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"topology.file: cannot read {path}: {exc}") from None
        try:
            graph = TopologyGraph.from_edge_list(text)
        except TopologyError as exc:
            raise ConfigError(f"topology.file {path}: {exc}") from None
        if len(graph.gateways) == graph.n:
            raise ConfigError(
                f"topology.gateways: every node of the graph in {path} is a gateway; "
                "no valid destinations exist"
            )
        return graph
    try:
        return build_topology_spec(tree).build(run_seed)
    except TopologyError as exc:
        raise ConfigError(f"topology: {exc}") from exc


def build_predictor_config(tree: dict, game: GameConfig) -> PredictorConfig:
    """The ``predictor`` section. ``game`` is not read: each run scales the
    predictor's queries by its own budget and TTL."""
    fields = check_fields(PredictorConfig, _section(tree, "predictor"), "predictor.")
    try:
        return PredictorConfig(**fields)
    except ValueError as exc:
        raise ConfigError(f"predictor.{exc}") from exc


def parse_node_set(spec: object) -> tuple[int, ...]:
    """Node ids from ``"0-4,7"`` style strings, ints, or int lists."""
    if isinstance(spec, (int, float)):
        spec = [spec]
    if isinstance(spec, (list, tuple)):
        return tuple(check_value("node id", x, int) for x in spec)
    out: list[int] = []
    for chunk in str(spec).split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "-" in chunk:
            lo, hi = chunk.split("-", 1)
            try:
                lo_i, hi_i = int(lo), int(hi)
            except ValueError:
                raise ConfigError(f"bad node range {chunk!r}") from None
            if hi_i < lo_i:
                raise ConfigError(f"bad node range {chunk!r}")
            out.extend(range(lo_i, hi_i + 1))
        else:
            try:
                out.append(int(chunk))
            except ValueError:
                raise ConfigError(f"bad node id {chunk!r}") from None
    return tuple(out)


def build_mix(tree: dict, n: int | None = None) -> tuple[MixEntry, ...]:
    """The strategy mix; given the node count ``n``, also checked to cover it."""
    entries = tree.get("strategies")
    if not entries:
        raise ConfigError("strategies: section is required")
    mix: list[MixEntry] = []
    for i, raw in enumerate(check_value("strategies", entries, tuple[dict, ...])):
        where = f"strategies[{i}]"
        name = raw.get("strategy")
        if not name:
            raise ConfigError(f"{where}.strategy: required")
        if not isinstance(name, str):
            raise ConfigError(f"{where}.strategy: expected a strategy name, got {name!r}")
        if name not in STRATEGY_REGISTRY:
            known = ", ".join(sorted(STRATEGY_REGISTRY))
            raise ConfigError(f"{where}.strategy: unknown strategy {name!r} (known: {known})")
        params = check_value(f"{where}.params", raw.get("params"), dict, optional=True) or {}
        try:
            build_strategy(name, params)
        except ValueError as exc:
            raise ConfigError(f"{where}.params: {exc}") from None
        nodes = raw.get("nodes")
        count = raw.get("count")
        rest = check_value(f"{where}.rest", raw.get("rest", False), bool)
        extra_keys = set(raw) - {"strategy", "params", "nodes", "count", "rest"}
        if extra_keys:
            raise ConfigError(f"{where}.{sorted(extra_keys)[0]}: unknown field")
        if sum(x is not None and x is not False for x in (nodes, count, rest)) != 1:
            raise ConfigError(f"{where}: give exactly one of nodes, count, rest")
        if nodes is not None:
            try:
                selected = parse_node_set(nodes)
            except ConfigError as exc:
                raise ConfigError(f"{where}.nodes: {exc}") from None
            if not selected:
                raise ConfigError(f"{where}.nodes: {nodes!r} selects no node")
            mix.append(make_mix_entry(name, params, nodes=selected))
        elif count is not None:
            count = check_value(f"{where}.count", count, int)
            mix.append(make_mix_entry(name, params, count=count))
        else:
            mix.append(make_mix_entry(name, params))
    if n is not None:
        try:
            check_mix(tuple(mix), n)
        except MixError as exc:
            where = "strategies" if exc.entry is None else f"strategies[{exc.entry}].{exc.field}"
            raise ConfigError(f"{where}: {exc}") from None
    return tuple(mix)


def build_cell(tree: dict, name: str, overrides: Sequence = (), where: str = "") -> CellSpec:
    """The cell ``name``: ``tree`` with each ``(dotted path, value)`` of ``overrides`` set in
    turn, its errors named by ``where``; no override may set ``tournament`` or ``game.seed``."""
    seed = _section(tree, "game").get("seed")
    subtree = copy.deepcopy({key: tree[key] for key in tree if key != "tournament"})
    try:
        for dotted, value in overrides:
            set_override(subtree, dotted, copy.deepcopy(value))
            if "tournament" in subtree:
                raise ConfigError(f"{dotted}: every cell shares it; set it in the base config")
        check_sections(subtree)
        if _section(subtree, "game").get("seed", seed) != seed:  # as a key or in a mapping
            raise ConfigError("game.seed: every cell shares it; set it in the base config")
        game = build_game_config(subtree)
        topology = build_topology_spec(subtree)
        return CellSpec(
            name=name,
            config=game,
            topology=topology,
            mix=build_mix(subtree, topology.n),
            predictor=build_predictor_config(subtree, game),
        )
    except ConfigError as exc:
        if not overrides:
            raise
        raise ConfigError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class TournamentRecord:
    """The ``tournament`` section. Each of ``cells`` is read as a ``CellRecord``,
    ``sweep`` as a ``SweepRecord``; no cells means one cell, ``base``."""

    seeds: int = 5
    workers: int = 1
    cells: tuple[dict, ...] | None = None
    sweep: dict | None = None


@dataclass(frozen=True)
class CellRecord:
    """One of ``tournament.cells``: its name (``cell<i>`` when not given) and
    the overrides of the base tree, set as ``set_override`` sets them."""

    name: str
    overrides: dict | None = None


@dataclass(frozen=True)
class SweepRecord:
    """``tournament.sweep``: one cell per value of the game parameter ``axis``,
    the base cell with the value as one more override of the field it sets."""

    axis: str = ""
    values: tuple[object, ...] = ()


#: Sweep axis -> the ``GameConfig`` field it sets; the field's annotation types its values.
SWEEP_FIELDS = {"fine": "fine", "ttl": "ttl", "churn": "churn_rate"}


def build_tournament(
    tree: dict, seed_override: int | None = None
) -> tuple[TournamentSpec, dict]:
    """The tournament spec, a sweep expanded into its cells, plus its extras (workers)."""
    section = _section(tree, "tournament")
    if not section:
        raise ConfigError("tournament: section is required for this command")
    record = TournamentRecord(**check_fields(TournamentRecord, section, "tournament."))
    if record.seeds < 1:
        raise ConfigError("tournament.seeds: must be >= 1")
    if record.workers < 1:
        raise ConfigError("tournament.workers: must be >= 1")
    master = build_game_config(tree, seed_override).master_seed

    cells = []
    names: dict[str, int] = {}
    for i, raw in enumerate(record.cells or ({"name": "base"},)):
        where = f"tournament.cells[{i}]"
        entry = CellRecord(**{"name": f"cell{i}", **check_fields(CellRecord, raw, f"{where}.")})
        if entry.name in names:
            raise ConfigError(
                f"{where}.name: {entry.name!r} already names tournament.cells[{names[entry.name]}]"
            )
        names[entry.name] = i
        overrides = list((entry.overrides or {}).items())
        cells.append(build_cell(tree, entry.name, overrides, where))

    sweep = None
    if record.sweep is not None:
        sweep = SweepRecord(**check_fields(SweepRecord, record.sweep, "tournament.sweep."))
        if sweep.axis not in SWEEP_FIELDS:
            raise ConfigError(f"tournament.sweep.axis: must be one of {', '.join(SWEEP_FIELDS)}")
        if not sweep.values:
            raise ConfigError("tournament.sweep.values: need a non-empty list")
        if len(cells) != 1:
            raise ConfigError("tournament.sweep: works with exactly one base cell")
        base = cells.pop()
        field = SWEEP_FIELDS[sweep.axis]
        first: dict[Any, int] = {}  # typed value -> index of its first appearance
        for i, value in enumerate(sweep.values):
            where = f"tournament.sweep.values[{i}]"
            swept = [*overrides, (f"game.{field}", value)]  # the one cell's, then the value
            cell = build_cell(tree, f"{base.name}[{sweep.axis}={value}]", swept, where)
            typed = getattr(cell.config, field)
            if typed in first:
                raise ConfigError(
                    f"{where}: {value!r} repeats tournament.sweep.values[{first[typed]}]"
                )
            first[typed] = i
            cells.append(cell)
    axis_values = None if sweep is None else (sweep.axis, sweep.values)
    spec = TournamentSpec(tuple(cells), record.seeds, master, axis_values)
    return spec, {"workers": record.workers}
