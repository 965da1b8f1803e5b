"""Seeded random instance generators for tests and benchmarks.

All generators are deterministic in the seed.  ``random_instance`` builds a
small multi-operator network around a guaranteed-feasible chain backbone and
keeps the simple-path count per OD low enough for explicit enumeration.
The two duopoly generators construct line instances matching the closed-form
bound settings; the first targets the regime where the cooperative-price
floor is tight so the bound is attained, not merely valid.
"""

from __future__ import annotations

import random

from .closedform import CoopCompeteInstance, SmallVsLargeInstance
from .errors import PathCapExceeded
from .matching import _routable
from .network import DemandEntry, DemandTable, Link, Network
from .stability import _omega_arcs, _predecessors, simple_paths

BIG = 1e7
MAX_NODES = 10
MAX_OPERATORS = 4
MAX_ODS = 3
PATH_CAP = 20  # simple paths per OD


def random_instance(seed: int) -> tuple[Network, DemandTable]:
    """Small feasible instance with at most ``PATH_CAP`` simple paths per OD."""
    rng = random.Random(seed)
    for attempt in range(200):
        n = rng.randint(5, MAX_NODES)
        num_ops = rng.randint(2, MAX_OPERATORS)
        ops = list(range(1, num_ops + 1))
        links = {}
        # chain backbone guarantees every forward OD is routable
        for i in range(1, n):
            links[(i, i + 1)] = Link(
                i, i + 1,
                travel_cost=round(rng.uniform(1, 10), 2),
                operating_cost=round(rng.uniform(0, 15), 2),
                capacity=BIG, owner=rng.choice(ops))
        extra = rng.randint(1, n)
        for _ in range(extra):
            tail, head = rng.sample(range(1, n + 1), 2)
            if (tail, head) in links:
                continue
            links[(tail, head)] = Link(
                tail, head,
                travel_cost=round(rng.uniform(1, 12), 2),
                operating_cost=round(rng.uniform(0, 15), 2),
                capacity=BIG,
                owner=rng.choice(ops + [0]))
        network = Network(nodes=frozenset(range(1, n + 1)),
                          links=tuple(sorted(links.values(), key=lambda l: l.arc)))
        # omega with no duals and every link operated is the travel cost
        succ = _omega_arcs(network, {}, dict.fromkeys(links, 1))
        pred = _predecessors(succ)
        num_ods = rng.randint(1, MAX_ODS)
        od_pool = [(o, d) for o in range(1, n + 1) for d in range(1, n + 1)
                   if o < d]
        rng.shuffle(od_pool)
        entries = []
        for od in od_pool:
            if len(entries) == num_ods:
                break
            try:
                costs = [cost for cost, _ in simple_paths(succ, pred, od, PATH_CAP)]
            except PathCapExceeded:
                continue
            if not costs:
                continue
            cheapest = min(costs)
            demand = round(rng.uniform(5, 50), 1)
            utility = round(cheapest + rng.uniform(5, 60), 2)
            entries.append(DemandEntry(origin=od[0], destination=od[1],
                                       demand=demand, utility=utility))
        if len(entries) < num_ods:
            rng = random.Random(f"{seed}-{attempt}")
            continue
        demand_table = DemandTable(entries=tuple(sorted(entries, key=lambda e: e.od)))
        if rng.random() < 0.6:
            # shrink one shared backbone link to force a split or a dual,
            # keeping the instance routable
            total = demand_table.total_demand()
            arc = rng.choice([a for a in links if a[1] == a[0] + 1])
            factor = rng.uniform(0.4, 0.95)
            new_links = [l if l.arc != arc else
                         Link(l.tail, l.head, l.travel_cost, l.operating_cost,
                              max(1.0, total * factor), l.owner)
                         for l in network.links]
            candidate = Network(nodes=network.nodes, links=tuple(new_links))
            if _routable(candidate, demand_table):
                network = candidate
        return network, demand_table
    raise RuntimeError(f"could not generate an instance for seed {seed}")


def random_coop_compete(seed: int, tight: bool = True) -> CoopCompeteInstance:
    """Fig-3a style duopoly parameters.

    ``tight=True`` places the instance exactly where the closed-form price
    floor binds: the direct option's cost premium equals the first leg's
    per-traveler operating cost, which needs fractional demand, a direct
    link expensive enough to keep cooperation optimal, and a first leg at
    least as costly to run as the second.
    """
    rng = random.Random(seed)
    if not tight:
        t12, t23 = rng.uniform(1, 10), rng.uniform(1, 10)
        c12, c23 = rng.uniform(1, 10), rng.uniform(1, 10)
        d = rng.uniform(1, 20)
        # keep cooperation optimal with slack
        t13 = t12 + t23 + rng.uniform(0, 5)
        c13 = c12 + c23 + rng.uniform(0, 20)
        return CoopCompeteInstance(t12=t12, t23=t23, t13=t13,
                                   c12=c12, c23=c23, c13=c13, d=d)
    d = rng.uniform(0.2, 0.8)
    c23 = rng.uniform(1, 10)
    c12 = c23 + rng.uniform(0, 5)
    t12 = rng.uniform(30, 50)
    t23 = rng.uniform(30, 50)
    c13 = c23 / (1 - d) + rng.uniform(0.5, 5)
    t13 = t12 + t23 + c12 / d - c13
    assert t13 >= 0
    return CoopCompeteInstance(t12=t12, t23=t23, t13=t13,
                               c12=c12, c23=c23, c13=c13, d=d)


def coop_compete_network(inst: CoopCompeteInstance,
                         utility: float | None = None
                         ) -> tuple[Network, DemandTable, int]:
    """Line network for the cooperation/competition duopoly.

    Operator 1 owns the first leg and the direct link; operator 2 owns the
    second leg.  Returns the network, the single-OD demand, and the id of
    the second-leg operator whose price the bound constrains.
    """
    links = (
        Link(1, 2, travel_cost=inst.t12, operating_cost=inst.c12,
             capacity=BIG, owner=1),
        Link(2, 3, travel_cost=inst.t23, operating_cost=inst.c23,
             capacity=BIG, owner=2),
        Link(1, 3, travel_cost=inst.t13, operating_cost=inst.c13,
             capacity=BIG, owner=1),
    )
    network = Network(nodes=frozenset({1, 2, 3}), links=links)
    if utility is None:
        utility = inst.t12 + inst.t23 + (inst.c12 + inst.c23) / inst.d + 100.0
    demand = DemandTable(entries=(
        DemandEntry(origin=1, destination=3, demand=inst.d, utility=utility),))
    return network, demand, 2


def random_small_vs_large(seed: int) -> SmallVsLargeInstance:
    rng = random.Random(seed)
    t_small = rng.uniform(1, 8)
    t_large = t_small + rng.uniform(0.5, 8)
    c_large = rng.uniform(0.5, 10)
    return SmallVsLargeInstance(t23_small=t_small, t23_large=t_large,
                                c23_large=c_large, x23_large_flow=0.0)


def small_vs_large_network(
    inst: SmallVsLargeInstance,
    seed: int = 0,
    utility: float | None = None,
) -> tuple[Network, DemandTable, int]:
    """Line network 1-2-3-4 where the large operator owns the end legs and a
    parallel middle segment (via a helper node).  Returns the network, the
    demand, and the small operator's id."""
    rng = random.Random(f"{seed}-fig3b")
    t12 = rng.uniform(1, 10)
    t34 = rng.uniform(1, 10)
    c12 = rng.uniform(0.5, 10)
    c34 = rng.uniform(0.5, 10)
    d = rng.uniform(1, 20)
    c_small = rng.uniform(0.0, 0.5)
    links = (
        Link(1, 2, travel_cost=t12, operating_cost=c12, capacity=BIG, owner=1),
        Link(3, 4, travel_cost=t34, operating_cost=c34, capacity=BIG, owner=1),
        Link(2, 3, travel_cost=inst.t23_small, operating_cost=c_small,
             capacity=BIG, owner=2),
        # the large operator's own middle segment, split by a helper node
        Link(2, 5, travel_cost=inst.t23_large, operating_cost=inst.c23_large,
             capacity=BIG, owner=1),
        Link(5, 3, travel_cost=0.0, operating_cost=0.0, capacity=BIG, owner=1),
    )
    network = Network(nodes=frozenset({1, 2, 3, 4, 5}), links=links)
    if utility is None:
        # generous utility so the cost-recovery floor, not the budget,
        # limits the small operator's price
        utility = (t12 + inst.t23_small + t34
                   + (c12 + c34) / d
                   + inst.t23_large - inst.t23_small + inst.c23_large + 50.0)
    demand = DemandTable(entries=(
        DemandEntry(origin=1, destination=4, demand=d, utility=utility),))
    return network, demand, 2
