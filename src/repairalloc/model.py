"""Core model: nodes, entities, scenarios, and the exact health update.

A scenario describes N deteriorating nodes and M repair entities.  Node
health lives in [0, 1] with two absorbing boundaries: a node that reaches 0
has permanently failed, a node that reaches 1 is permanently repaired.  At
each discrete time step every Active node either gains its targeting
entity's repair rate (clamped at 1) or loses its own deterioration rate
(clamped at 0).  Absorbed nodes never move, so the rule is positional:
``decayed`` steps only the Active positions it is handed, copies the
rest, and in the same pass lists the positions it leaves Active.  All
values are exact, so the rule (``decayed``, ``repaired``), the status
test (``health_status``) and the regime checks run on one integer
lattice per scenario, and costs and the budget are summed and compared on
one integer ledger per scenario.  Fractions and None stay at the boundary:
scenario values, an unlimited budget (None, which the ledger turns into an
integer no allocation can spend), an allocation's total cost, a remaining
budget, regime messages, and a trace's ``health_at`` and CSV cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from repairalloc.errors import AssumptionViolated, BudgetExceeded
from repairalloc.rational import lcm_denominators

if TYPE_CHECKING:
    from repairalloc.oracle import WalkRoot

IntVec = tuple[int, ...]


class Status(Enum):
    ACTIVE = "active"
    REPAIRED = "repaired"
    FAILED = "failed"


@dataclass(frozen=True, slots=True)
class NodeSpec:
    """A deteriorating node: identifier, initial health, decay per step."""

    id: str
    v0: Fraction
    delta_dec: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.v0, Fraction) or not isinstance(self.delta_dec, Fraction):
            raise TypeError("NodeSpec requires exact Fraction values")
        if not (0 < self.v0.numerator < self.v0.denominator):  # the integer test for 0 < v0 < 1
            raise ValueError(f"node {self.id!r}: v0 must lie strictly in (0, 1), got {self.v0}")
        if self.delta_dec.numerator <= 0:
            raise ValueError(f"node {self.id!r}: delta_dec must be positive, got {self.delta_dec}")


@dataclass(frozen=True, slots=True)
class EntitySpec:
    """A repair entity: identifier, per-node cost, per-node repair rates.

    ``repair_rate`` maps every node id in the scenario to the health gained
    per step while this entity targets that node.
    """

    id: str
    cost: Fraction
    repair_rate: Mapping[str, Fraction]

    def __post_init__(self) -> None:
        if not isinstance(self.cost, Fraction):
            raise TypeError("EntitySpec.cost must be a Fraction")
        if self.cost.numerator < 0:
            raise ValueError(f"entity {self.id!r}: cost must be >= 0, got {self.cost}")
        object.__setattr__(self, "repair_rate", dict(self.repair_rate))
        for node_id, rate in self.repair_rate.items():
            if not isinstance(rate, Fraction) or rate.numerator <= 0:
                raise ValueError(f"entity {self.id!r}: repair rate for {node_id!r} must be a positive Fraction")

    def rate_for(self, node_id: str) -> Fraction:
        return self.repair_rate[node_id]


@dataclass(frozen=True)
class Scenario:
    """An immutable problem instance.

    ``budget`` is an exact Fraction, or None for an unlimited budget;
    ``ledger`` turns either into an integer.
    Node and entity ids are unique within their kind; ties everywhere in
    the package are broken by plain string order of the id.  ``node_ids``
    and ``entity_ids`` are built once at construction.
    """

    nodes: tuple[NodeSpec, ...]
    entities: tuple[EntitySpec, ...]
    budget: Optional[Fraction]
    node_ids: tuple[str, ...] = field(init=False, repr=False, compare=False)
    entity_ids: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "entities", tuple(self.entities))
        object.__setattr__(self, "node_ids", tuple(n.id for n in self.nodes))
        object.__setattr__(self, "entity_ids", tuple(e.id for e in self.entities))
        if len(self.nodes) < 2:
            raise ValueError("a scenario needs at least 2 nodes")
        if not (1 <= len(self.entities) <= len(self.nodes)):
            raise ValueError("entity count must satisfy 1 <= M <= N")
        node_set = set(self.node_ids)
        if len(node_set) != len(self.nodes):
            raise ValueError("node ids must be unique")
        if len(set(self.entity_ids)) != len(self.entities):
            raise ValueError("entity ids must be unique")
        for entity in self.entities:
            missing = node_set - entity.repair_rate.keys()
            if missing:
                raise ValueError(f"entity {entity.id!r}: missing repair rate for {sorted(missing)}")
            unknown = entity.repair_rate.keys() - node_set
            if unknown:
                raise ValueError(f"entity {entity.id!r}: repair rate for unknown nodes {sorted(unknown)}")
        if self.budget is not None:
            if not isinstance(self.budget, Fraction):
                raise TypeError("budget must be a Fraction or None (unlimited)")
            if self.budget.numerator < 0:
                raise ValueError("budget must be >= 0")

    @cached_property
    def lattice(self) -> Lattice:
        """This scenario's integer lattice, worked out on first use."""
        rates = [[e.rate_for(n.id) for n in self.nodes] for e in self.entities]
        v0, decs = [n.v0 for n in self.nodes], [n.delta_dec for n in self.nodes]
        unit = lcm_denominators(v0 + decs + [rate for row in rates for rate in row])
        def scaled(exact: list[Fraction]) -> IntVec:
            return tuple(v.numerator * (unit // v.denominator) for v in exact)
        incs = {e.id: scaled(row) for e, row in zip(self.entities, rates)}
        healths, steps = scaled(v0), scaled(decs)
        lifetimes = tuple([-(-h // dec) for h, dec in zip(healths, steps)])
        return Lattice(unit, healths, steps, incs, {nid: j for j, nid in enumerate(self.node_ids)}, lifetimes)

    @cached_property
    def ledger(self) -> Ledger:
        """This scenario's costs and budget as integers, worked out on first use; an unlimited budget is N times the dearest cost."""
        exact = [e.cost for e in self.entities]
        scale = lcm_denominators(exact if self.budget is None else [*exact, self.budget])
        costs = tuple(c.numerator * (scale // c.denominator) for c in exact)
        if self.budget is None:
            return Ledger(scale, costs, len(self.nodes) * max(costs))
        return Ledger(scale, costs, self.budget.numerator * (scale // self.budget.denominator))

    @cached_property
    def walk_root(self) -> WalkRoot:
        """What the oracle's walk and witness read of this scenario alone, worked out at their first call on it."""
        from repairalloc.oracle import WalkRoot  # the oracle imports this module

        return WalkRoot.of(self)


@dataclass(frozen=True, slots=True)
class Lattice:
    """A scenario's values as integers over ``unit``, the lcm of their denominators.

    ``v0``, ``decs``, each entity's ``incs`` and ``lifetimes`` follow node
    order; ``positions`` maps node id to position.  A node's lifetime is
    ceil(v0 / dec), the steps it stays Active untargeted: it has health
    v0 - t * dec at step t while that is positive, and 0, which absorbs,
    from step ceil(v0 / dec) on.
    """

    unit: int
    v0: IntVec
    decs: IntVec
    incs: Mapping[str, IntVec]
    positions: Mapping[str, int]
    lifetimes: IntVec


@dataclass(frozen=True, slots=True)
class Ledger:
    """A scenario's entity costs and budget as integers over ``scale``, the lcm of their denominators.

    ``costs`` follows entity order.  ``budget`` is the scenario's budget,
    or N * max(costs) when it is unlimited.  That number never binds, since
    each node has at most one owner and so k owned nodes cost at most
    k * max:

    * the oracle's walk, at depth d < N, tests the owners fixed so far plus
      one more, which cost at most (d + 1) * max <= N * max;
    * ``allocate_budgeted`` and the online run find the remainder short of
      a cost only once every node is taken.  With k < N nodes taken, at
      least (N - k) * max >= max remains, so a positive cost also fits
      N - k times, as many nodes as are left.  The online run tests only
      while a node is left; the allocator stops once all are taken, when
      every later entity would get nothing anyway;
    * ``Allocation.fits_budget`` compares a total of at most N * max.
    """

    scale: int
    costs: IntVec
    budget: int


def schedulable(capacity: Sequence[int], order: Iterable[int]) -> list[int]:
    """The positions of ``order`` kept by the greedy "keep j while fewer than capacity[j] are kept".

    The slots are (entity, step) pairs, and a member may take a slot whose
    step is below its lifetime, so the slots open to a member of lifetime
    L are open to every member of lifetime at least L too.
    ``capacity[j]`` counts the slots open to member j; the slot sets are
    nested, so two members of equal capacity have the same ones, and
    ``order`` must run in increasing capacity.  A set of nodes is
    *schedulable* when each member can have its own slot; by Hall's
    theorem (Hall, "On representatives of subsets", 1935) and these
    nested slot sets, that holds exactly when, for every c, at most c
    members have a capacity of at most c.  The greedy keeps a schedulable
    set, since every kept j has at most capacity[j] kept members of
    capacity at most its own.  Schedulable sets are those with a matching
    into the slots, so they form a matroid (a transversal one), and the
    greedy keeps j exactly when j joins the kept set as a schedulable set:
    the only new condition is the count at capacity[j], as every member
    kept before j has a capacity of at most capacity[j].  A position
    passed over would make the set kept so far unschedulable, and so every
    later kept set, which contains it, so the kept set is maximal; in a
    matroid every maximal independent subset has the largest size, so the
    kept count is the rank, the most members of ``order`` that can each
    take their own slot.  With the lifetimes as ``capacity``, one entity
    with a slot at every step, that is unit-time scheduling with deadlines
    on one machine in earliest-deadline order (Jackson, 1955).
    """
    kept: list[int] = []
    for j in order:
        if len(kept) < capacity[j]:
            kept.append(j)
    return kept


def active_positions(healths: Sequence[int], unit: int) -> list[int]:
    """The positions of the Active lattice healths (0 < h < unit), in increasing order."""
    return [j for j, h in enumerate(healths) if 0 < h < unit]


def decayed(healths: Sequence[int], decs: Sequence[int], active: Iterable[int]) -> tuple[list[int], list[int]]:
    """Lattice healths one step on, untargeted: the positions in ``active`` lose their decay, clamped at 0.

    Every other position is copied unchanged, so ``active`` must hold every
    Active position (0 < h < unit) for this to be the model's step.  Also
    returns, in the order of ``active`` (increasing, as every caller hands
    it), the positions it leaves above 0.  Each of them decayed from below
    ``unit``, so it stays below ``unit``: the list is the positions still
    Active after an untargeted step, found in the same pass.
    """
    stepped = list(healths)
    alive: list[int] = []
    for j in active:
        h, d = healths[j], decs[j]
        if h > d:
            stepped[j] = h - d
            alive.append(j)
        else:
            stepped[j] = 0
    return stepped, alive


def repaired(health: int, inc: int, unit: int) -> int:
    """An Active lattice health one step on while targeted: it gains ``inc``, clamped at ``unit``."""
    gained = health + inc
    return gained if gained < unit else unit


def health_status(level: int, unit: int) -> Status:
    """The status of health level / unit (unit > 0): FAILED at or below 0, REPAIRED at or above 1, ACTIVE in between."""
    if level <= 0:
        return Status.FAILED
    if level >= unit:
        return Status.REPAIRED
    return Status.ACTIVE


@dataclass(frozen=True)
class Allocation:
    """Disjoint node sets handed to entities at t=0, with their total cost.

    ``sets`` maps every entity id of the scenario to a frozenset of node
    ids (possibly empty).  ``total_cost`` is sum over entities of
    cost * set size, and ``owner`` maps each allocated node id to the id
    of the entity whose set holds it; it follows from ``sets``, so it
    takes no part in equality or repr.  Build allocations with ``build``,
    which computes both.
    """

    sets: Mapping[str, frozenset[str]]
    total_cost: Fraction
    owner: Mapping[str, str] = field(repr=False, compare=False)

    @staticmethod
    def build(scenario: Scenario, sets: Mapping[str, frozenset[str] | set[str]]) -> "Allocation":
        full: dict[str, frozenset[str]] = {}
        owner: dict[str, str] = {}
        positions = scenario.lattice.positions
        for entity_id in scenario.entity_ids:
            given = sets.get(entity_id, frozenset())
            if isinstance(given, str):  # frozenset("ab") would be the nodes "a" and "b"
                raise TypeError(f"entity {entity_id!r}: its nodes must be a set of node ids, not the string {given!r}")
            assigned = frozenset(given)
            if unknown := assigned.difference(positions):
                raise ValueError(f"entity {entity_id!r}: unknown nodes {sorted(unknown)}")
            if not owner.keys().isdisjoint(assigned):
                raise ValueError(f"allocation sets must be disjoint; {sorted(assigned & owner.keys())} appear twice")
            for node_id in assigned:
                owner[node_id] = entity_id
            full[entity_id] = assigned
        if not full.keys() >= sets.keys():
            raise ValueError(f"unknown entities in allocation: {sorted(sets.keys() - full.keys())}")
        ledger = scenario.ledger
        spent = sum(cost * len(full[eid]) for cost, eid in zip(ledger.costs, scenario.entity_ids))
        return Allocation(sets=full, total_cost=Fraction(spent, ledger.scale), owner=owner)

    def nodes_of(self, entity_id: str) -> frozenset[str]:
        return self.sets[entity_id]

    def fits_budget(self, scenario: Scenario) -> bool:
        cost, ledger = self.total_cost, scenario.ledger
        return cost.numerator * ledger.scale <= ledger.budget * cost.denominator  # cost <= budget / scale

    def require_budget(self, scenario: Scenario) -> None:
        if not self.fits_budget(scenario):
            raise BudgetExceeded(
                f"allocation costs {self.total_cost}, budget is {scenario.budget}"
            )


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of a rate-regime check: overall verdict plus violations.

    When the uniform regime (Assumption 2) holds, ``steps_per_decay`` maps
    each entity id to the integer n with delta_dec = n * delta_inc; it is
    empty for Assumption 1 and whenever the regime fails.
    """

    holds: bool
    violations: tuple[str, ...] = ()
    steps_per_decay: Mapping[str, int] = field(default_factory=dict)

    def require(self, condition: str) -> None:
        """Raise AssumptionViolated, naming ``condition`` and every violation, unless the regime holds."""
        if not self.holds:
            raise AssumptionViolated(
                f"the {condition} fails; pass force=True (--force on the command line) to run anyway:\n  " + "\n  ".join(self.violations)
            )


def check_assumption1(scenario: Scenario) -> AssumptionReport:
    """Check the repair-dominant regime.

    Every repair rate must strictly exceed both (N - 1) times the decaying
    node's own rate and the sum of all other nodes' decay rates.  In this
    regime a targeted node outruns everything it is racing against.
    """
    n = len(scenario.nodes)
    lattice = scenario.lattice
    total_dec = sum(lattice.decs)
    violations: list[str] = []
    for j, (node, dec) in enumerate(zip(scenario.nodes, lattice.decs)):
        others = total_dec - dec
        for entity in scenario.entities:
            inc = lattice.incs[entity.id][j]
            if inc <= (n - 1) * dec:
                violations.append(
                    f"rate of {entity.id!r} on {node.id!r} ({entity.rate_for(node.id)}) must exceed (N-1)*delta_dec = {(n - 1) * node.delta_dec}"
                )
            if inc <= others:
                violations.append(
                    f"rate of {entity.id!r} on {node.id!r} ({entity.rate_for(node.id)}) must exceed the other nodes' total decay {Fraction(others, lattice.unit)}"
                )
    return AssumptionReport(holds=not violations, violations=tuple(violations))


def check_assumption2(scenario: Scenario) -> AssumptionReport:
    """Check the decay-dominant uniform regime.

    Requires: one repair rate per entity (uniform over nodes), one decay
    rate for all nodes, decay >= every repair rate, equal entity costs,
    decay an integer multiple of each repair rate, and every health deficit
    1 - v0 an integer multiple of each repair rate.
    """
    lattice = scenario.lattice
    unit = lattice.unit
    violations: list[str] = []
    decs = set(lattice.decs)
    if len(decs) > 1:
        violations.append(f"delta_dec must be uniform across nodes, got {sorted({str(n.delta_dec) for n in scenario.nodes})}")
    if len(set(scenario.ledger.costs)) > 1:  # the ledger's integers, equal exactly when the costs are
        violations.append(f"entity costs must be equal, got {sorted({str(entity.cost) for entity in scenario.entities})}")

    entity_rates: dict[str, int] = {}
    for entity in scenario.entities:
        rates = set(lattice.incs[entity.id])
        if len(rates) > 1:
            violations.append(f"entity {entity.id!r}: repair rate must be uniform across nodes")
            continue
        entity_rates[entity.id] = next(iter(rates))

    steps_per_decay: dict[str, int] = {}
    if not violations:
        dec = next(iter(decs))
        for entity_id, inc in entity_rates.items():
            if dec < inc:
                violations.append(f"entity {entity_id!r}: repair rate {Fraction(inc, unit)} exceeds the decay rate {Fraction(dec, unit)}")
                continue
            if dec % inc:
                violations.append(f"entity {entity_id!r}: decay/repair ratio {Fraction(dec, inc)} is not an integer")
                continue
            steps_per_decay[entity_id] = dec // inc
            for node, v0 in zip(scenario.nodes, lattice.v0):
                if (unit - v0) % inc:
                    violations.append(
                        f"node {node.id!r} vs entity {entity_id!r}: (1 - v0)/rate = {Fraction(unit - v0, inc)} is not an integer"
                    )

    if violations:
        return AssumptionReport(holds=False, violations=tuple(violations))
    return AssumptionReport(holds=True, steps_per_decay=steps_per_decay)
