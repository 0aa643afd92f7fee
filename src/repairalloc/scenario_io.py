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
    # per range rule, the strings that passed it earlier in this call, with their values
    in_unit: dict[str, Fraction] = {}
    positive: dict[str, Fraction] = {}
    nonnegative: dict[str, Fraction] = {}

    nodes = []
    for i, raw in enumerate(nodes_raw):
        if not isinstance(raw, dict):
            raise ScenarioFormatError(f"nodes[{i}]: expected an object")
        nodes.append(
            NodeSpec(
                id=_expect_id(raw, "nodes[{}].id", i),
                v0=_value(raw.get("v0"), in_unit, _OPEN_UNIT, "nodes[{}].v0", i),
                delta_dec=_value(raw.get("delta_dec"), positive, _POSITIVE, "nodes[{}].delta_dec", i),
            )
        )
    node_ids = [n.id for n in nodes]
    node_set = set(node_ids)

    entities = []
    for i, raw in enumerate(entities_raw):
        if not isinstance(raw, dict):
            raise ScenarioFormatError(f"entities[{i}]: expected an object")
        entity_id = _expect_id(raw, "entities[{}].id", i)
        cost = _value(raw.get("cost"), nonnegative, _NONNEGATIVE, "entities[{}].cost", i)
        # a full node-id map, or {"default": rate} with optional per-node overrides
        rates_raw = raw.get("delta_inc")
        if not isinstance(rates_raw, dict) or not rates_raw:
            raise ScenarioFormatError(f"entities[{i}].delta_inc: expected an object of rates")
        unknown = rates_raw.keys() - node_set - {"default"}
        if unknown:
            raise ScenarioFormatError(f"entities[{i}].delta_inc: unknown node ids {sorted(unknown)}")
        rates: dict[str, Fraction] = {}
        if "default" in rates_raw:
            rates = dict.fromkeys(node_ids, _value(rates_raw["default"], positive, _POSITIVE, "entities[{}].delta_inc.{}", i, "default"))
        for key, text in rates_raw.items():
            if key != "default":
                rates[key] = _value(text, positive, _POSITIVE, "entities[{}].delta_inc.{}", i, key)
        if len(rates) < len(node_set):  # every key is a node id, so some node has no rate
            raise ScenarioFormatError(f"entities[{i}].delta_inc: missing rates for {sorted(node_set - rates.keys())}")
        entities.append(EntitySpec(id=entity_id, cost=cost, repair_rate=rates))

    if "budget" not in data:
        raise ScenarioFormatError("budget: missing (use null for unlimited)")
    budget = None if data["budget"] is None else _value(data["budget"], nonnegative, _NONNEGATIVE, "budget", 0)

    try:
        return Scenario(nodes=tuple(nodes), entities=tuple(entities), budget=budget)
    except (ValueError, TypeError) as exc:
        raise ScenarioFormatError(str(exc)) from exc


# the ranges ``NodeSpec`` and ``EntitySpec`` enforce, tested on numerator and (positive)
# denominator and checked here so that an error names the field's path in the file
_Range = tuple[Callable[[int, int], bool], str]
_OPEN_UNIT: _Range = (lambda num, den: 0 < num < den, "must lie strictly in (0, 1)")
_POSITIVE: _Range = (lambda num, den: num > 0, "must be positive")
_NONNEGATIVE: _Range = (lambda num, den: num >= 0, "must be >= 0")


def _value(raw: object, passed: dict[str, Fraction], allowed: _Range, where: str, i: int, key: str = "") -> Fraction:
    """``raw`` from ``passed`` (the strings that passed ``allowed`` before), else parsed at path ``where.format(i, key)`` and checked."""
    value = passed.get(raw) if isinstance(raw, str) else None
    if value is not None:
        return value
    path = where.format(i, key)
    value = parse_rational(raw, path)
    test, rule = allowed
    if not test(value.numerator, value.denominator):
        raise ScenarioFormatError(f"{path}: {rule}, got {format_rational(value)}")
    passed[raw] = value  # only a string parses, so only strings are keys
    return value


def _expect_list(data: dict, key: str) -> list:
    value = data.get(key)
    if not isinstance(value, list) or not value:
        raise ScenarioFormatError(f"{key}: expected a non-empty array")
    return value


def _expect_id(raw: dict, where: str, i: int) -> str:
    value = raw.get("id")
    if not isinstance(value, str) or not value:
        raise ScenarioFormatError(f"{where.format(i)}: expected a non-empty string")
    return value


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
