"""Scenario JSON and trace CSV serialization.

Scenario files carry every numeric field as a string, either a decimal
literal ("0.05") or a fraction literal ("3/20"); raw JSON numbers are
rejected so no value ever passes through a float.  A null budget means
unlimited.

Trace CSV files have header ``t,<node ids...>,<entity ids...>``; each row
holds the exact health of every node at step t and the node each entity
targeted at t ("-" for idle, so a node named "-" cannot be written).  The
reader maps each health onto the scenario's lattice: it must be a
multiple of 1/unit.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from repairalloc.engine import Trace, TraceStep
from repairalloc.errors import ScenarioFormatError
from repairalloc.model import EntitySpec, NodeSpec, Scenario
from repairalloc.rational import format_rational, parse_rational


def scenario_from_dict(data: object) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioFormatError("top level: expected an object")
    nodes_raw = _expect_list(data, "nodes")
    entities_raw = _expect_list(data, "entities")
    parsed: dict[str, Fraction] = {}  # each distinct numeric string is parsed once per call

    nodes = []
    for i, raw in enumerate(nodes_raw):
        where = f"nodes[{i}]"
        if not isinstance(raw, dict):
            raise ScenarioFormatError(f"{where}: expected an object")
        nodes.append(
            NodeSpec(
                id=_expect_id(raw, "id", where),
                v0=_parse_in(raw.get("v0"), f"{where}.v0", _OPEN_UNIT, parsed),
                delta_dec=_parse_in(raw.get("delta_dec"), f"{where}.delta_dec", _POSITIVE, parsed),
            )
        )
    node_ids = [n.id for n in nodes]

    entities = []
    for i, raw in enumerate(entities_raw):
        where = f"entities[{i}]"
        if not isinstance(raw, dict):
            raise ScenarioFormatError(f"{where}: expected an object")
        entities.append(
            EntitySpec(
                id=_expect_id(raw, "id", where),
                cost=_parse_in(raw.get("cost"), f"{where}.cost", _NONNEGATIVE, parsed),
                repair_rate=_parse_rates(raw.get("delta_inc"), node_ids, f"{where}.delta_inc", parsed),
            )
        )

    if "budget" not in data:
        raise ScenarioFormatError("budget: missing (use null for unlimited)")
    budget_raw = data["budget"]
    budget = None if budget_raw is None else _parse_in(budget_raw, "budget", _NONNEGATIVE, parsed)

    try:
        return Scenario(nodes=tuple(nodes), entities=tuple(entities), budget=budget)
    except (ValueError, TypeError) as exc:
        raise ScenarioFormatError(str(exc)) from exc


# the ranges ``NodeSpec`` and ``EntitySpec`` enforce, checked here so that
# an error names the field's path in the file
_Range = tuple[Callable[[Fraction], bool], str]
_OPEN_UNIT: _Range = (lambda v: 0 < v < 1, "must lie strictly in (0, 1)")
_POSITIVE: _Range = (lambda v: v > 0, "must be positive")
_NONNEGATIVE: _Range = (lambda v: v >= 0, "must be >= 0")


def _parse_in(raw: object, where: str, allowed: _Range, parsed: dict[str, Fraction]) -> Fraction:
    """``raw`` parsed (through ``parsed``, the call's cache of strings already parsed) and checked against ``allowed``."""
    if isinstance(raw, str) and raw in parsed:
        value = parsed[raw]
    else:
        value = parse_rational(raw, where)
        parsed[raw] = value  # only a string parses, so only strings are keys
    test, rule = allowed
    if not test(value):
        raise ScenarioFormatError(f"{where}: {rule}, got {format_rational(value)}")
    return value


def _expect_list(data: dict, key: str) -> list:
    value = data.get(key)
    if not isinstance(value, list) or not value:
        raise ScenarioFormatError(f"{key}: expected a non-empty array")
    return value


def _expect_id(raw: dict, key: str, where: str) -> str:
    value = raw.get(key)
    if not isinstance(value, str) or not value:
        raise ScenarioFormatError(f"{where}.{key}: expected a non-empty string")
    return value


def _parse_rates(raw: object, node_ids: list[str], where: str, parsed: dict[str, Fraction]) -> dict[str, Fraction]:
    """A full node-id map, or {"default": rate} with optional per-node overrides."""
    if not isinstance(raw, dict) or not raw:
        raise ScenarioFormatError(f"{where}: expected an object of rates")
    unknown = set(raw) - set(node_ids) - {"default"}
    if unknown:
        raise ScenarioFormatError(f"{where}: unknown node ids {sorted(unknown)}")
    rates: dict[str, Fraction] = {}
    if "default" in raw:
        default = _parse_in(raw["default"], f"{where}.default", _POSITIVE, parsed)
        rates = {nid: default for nid in node_ids}
    for key, value in raw.items():
        if key == "default":
            continue
        rates[key] = _parse_in(value, f"{where}.{key}", _POSITIVE, parsed)
    missing = set(node_ids) - set(rates)
    if missing:
        raise ScenarioFormatError(f"{where}: missing rates for {sorted(missing)}")
    return rates


def load_scenario(path: str | Path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"{path}: invalid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioFormatError(f"{path}: not UTF-8: {exc}") from exc
    except RecursionError:
        raise ScenarioFormatError(f"{path}: JSON nested too deeply to read") from None
    return scenario_from_dict(data)


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "nodes": [
            {
                "id": n.id,
                "v0": format_rational(n.v0),
                "delta_dec": format_rational(n.delta_dec),
            }
            for n in scenario.nodes
        ],
        "entities": [
            {
                "id": e.id,
                "cost": format_rational(e.cost),
                "delta_inc": {nid: format_rational(e.rate_for(nid)) for nid in scenario.node_ids},
            }
            for e in scenario.entities
        ],
        "budget": None if scenario.budget is None else format_rational(scenario.budget),
    }


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(scenario_to_dict(scenario), handle, indent=2)
        handle.write("\n")


_IDLE = "-"


def write_trace_csv(trace: Trace, path: str | Path) -> None:
    if _IDLE in trace.node_ids:
        raise ScenarioFormatError(f"node id {_IDLE!r} cannot be written: trace CSV files mark idle with it")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", *trace.node_ids, *trace.entity_ids])
        for t, row in enumerate(trace.steps):
            cells: list[str] = [str(t)]
            cells.extend(format_rational(Fraction(h, trace.unit)) for h in row.healths)
            for entity_id in trace.entity_ids:
                target = row.actions.get(entity_id)
                cells.append(_IDLE if target is None else target)
            writer.writerow(cells)


def read_trace_csv(path: str | Path, scenario: Scenario) -> Trace:
    """Load a trace written by ``write_trace_csv`` back onto the scenario's lattice."""
    unit = scenario.lattice.unit
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
    except UnicodeDecodeError as exc:
        raise ScenarioFormatError(f"{path}: not UTF-8: {exc}") from exc
    header = rows[0] if rows else None
    expected = ["t", *scenario.node_ids, *scenario.entity_ids]
    if header != expected:
        raise ScenarioFormatError(f"{path}: header {header} does not match {expected}")
    n, known = len(scenario.node_ids), scenario.lattice.positions
    steps: list[TraceStep] = []
    for t, cells in enumerate(rows[1:]):
        if len(cells) != len(expected):
            raise ScenarioFormatError(f"{path}: row {t} has {len(cells)} cells, expected {len(expected)}")
        if cells[0] != str(t):
            raise ScenarioFormatError(f"{path}: row {t} is labeled {cells[0]!r}")
        healths = tuple(
            _lattice_level(cell, unit, f"{path}: row {t}, node {nid}")
            for nid, cell in zip(scenario.node_ids, cells[1 : 1 + n])
        )
        actions: dict[str, Optional[str]] = {}
        for entity_id, cell in zip(scenario.entity_ids, cells[1 + n :]):
            if cell != _IDLE and cell not in known:
                raise ScenarioFormatError(f"{path}: row {t}, entity {entity_id}: unknown node {cell!r}")
            actions[entity_id] = None if cell == _IDLE else cell
        steps.append(TraceStep(healths, actions))
    if not steps:
        raise ScenarioFormatError(f"{path}: no rows")
    return Trace(
        node_ids=scenario.node_ids,
        entity_ids=scenario.entity_ids,
        steps=tuple(steps),
        unit=unit,
    )


def _lattice_level(cell: str, unit: int, where: str) -> int:
    health = parse_rational(cell, where)
    level, rest = divmod(health.numerator * unit, health.denominator)
    if rest:
        raise ScenarioFormatError(f"{where}: health {format_rational(health)} is not a multiple of 1/{unit}")
    return level
