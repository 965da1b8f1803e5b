"""Built-in example instances.

``fig5`` is a small eight-node instance with six operators whose full
equilibrium is known in closed form, used as the primary golden fixture.
``build_sioux_falls`` assembles the Sioux Falls road network with a parallel
rail layer (nodes offset by 100) joined by platform-owned transfer links.
"""

from __future__ import annotations

from ._sioux_falls_data import LINKS, OD_DEMAND_X100, TRANSFER_LINKS
from .errors import ValidationError
from .network import DemandEntry, DemandTable, Link, Network

BIG_CAPACITY = 1_000_000.0

# fig5 operator ids
OP_A, OP_B, OP_C, OP_D, OP_E, OP_F = 1, 2, 3, 4, 5, 6

BUS_OPERATOR = 1
RAIL_OPERATOR = 2
TRANSFER_CAPACITY = 1e9


def fig5() -> tuple[Network, DemandTable]:
    """Eight-node instance: two user groups, six operators, one binding link."""
    links = [
        Link(1, 3, travel_cost=7, operating_cost=200, capacity=BIG_CAPACITY, owner=OP_A),
        Link(1, 21, travel_cost=2, operating_cost=200, capacity=200, owner=OP_A),
        Link(21, 22, travel_cost=0, operating_cost=0, capacity=BIG_CAPACITY, owner=0),
        Link(21, 23, travel_cost=0, operating_cost=0, capacity=BIG_CAPACITY, owner=0),
        Link(22, 3, travel_cost=7, operating_cost=300, capacity=BIG_CAPACITY, owner=OP_B),
        Link(23, 4, travel_cost=4, operating_cost=200, capacity=BIG_CAPACITY, owner=OP_C),
        Link(1, 4, travel_cost=10, operating_cost=200, capacity=BIG_CAPACITY, owner=OP_D),
        Link(1, 5, travel_cost=7, operating_cost=200, capacity=BIG_CAPACITY, owner=OP_E),
        Link(5, 4, travel_cost=3, operating_cost=200, capacity=BIG_CAPACITY, owner=OP_E),
        Link(1, 6, travel_cost=7, operating_cost=200, capacity=BIG_CAPACITY, owner=OP_F),
        Link(6, 4, travel_cost=5, operating_cost=200, capacity=BIG_CAPACITY, owner=OP_F),
    ]
    network = Network(nodes=frozenset(n for l in links for n in l.arc),
                      links=tuple(sorted(links, key=lambda l: l.arc)))
    demand = DemandTable(entries=(
        DemandEntry(origin=1, destination=3, demand=1000, utility=20),
        DemandEntry(origin=1, destination=4, demand=500, utility=20),
    ))
    return network, demand


def _owner(tail: int, head: int) -> int:
    rail_tail, rail_head = tail >= 100, head >= 100
    if rail_tail and rail_head:
        return RAIL_OPERATOR
    if not rail_tail and not rail_head:
        return BUS_OPERATOR
    return 0


def build_sioux_falls(
    transfer_cost: float,
    utility: float = 40.0,
    capacity_scale: float = 1.0,
) -> tuple[Network, DemandTable]:
    """Sioux Falls with a rail overlay, platform transfer links, and the
    published OD demand multiplied by 100.

    ``capacity_scale`` scales every service-link capacity; the published
    large-scale run is only feasible with capacities scaled up (see tests).
    """
    if transfer_cost < 0:
        raise ValidationError("transfer_cost must be non-negative")
    links = [
        Link(tail, head, travel_cost=cost, operating_cost=cost,
             capacity=capacity * capacity_scale, owner=_owner(tail, head))
        for tail, head, capacity, cost in LINKS
    ]
    links += [
        Link(tail, head, travel_cost=transfer_cost, operating_cost=0.0,
             capacity=TRANSFER_CAPACITY, owner=0)
        for tail, head in TRANSFER_LINKS
    ]
    network = Network(nodes=frozenset(n for l in links for n in l.arc),
                      links=tuple(sorted(links, key=lambda l: l.arc)))
    entries = []
    for i, row in enumerate(OD_DEMAND_X100):
        for j, cell in enumerate(row):
            if i == j or cell == 0:
                continue
            entries.append(DemandEntry(origin=i + 1, destination=j + 1,
                                       demand=cell * 100.0, utility=utility))
    return network, DemandTable(entries=tuple(sorted(entries, key=lambda e: e.od)))
