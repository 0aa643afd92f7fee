"""Reference feasibility test for one entity's repair order.

``largest_repairable_subset`` is checked against it: the greedy's set,
reversed, must pass, and no larger set may pass in any order.
"""

from __future__ import annotations

from typing import Iterable

from repairalloc.model import NodeSpec


def feasible_ordered_set(nodes: Iterable[NodeSpec]) -> bool:
    """Whether an ordered list of nodes can all be saved by one entity.

    The list (n_1, ..., n_z) is feasible when every node outlives the work
    queued behind it: v0 of the j-th node must strictly exceed
    (z - j) * delta_dec of that node.  The last element has the weakest
    constraint, so orderings place the most urgent node last.
    """
    ordered = list(nodes)
    z = len(ordered)
    for j, node in enumerate(ordered, start=1):
        if node.v0 <= (z - j) * node.delta_dec:
            return False
    return True
