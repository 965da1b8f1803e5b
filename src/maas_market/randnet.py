"""Seeded random instances for tests and benchmarks.

``random_instance`` is deterministic in the seed: it builds a small
multi-operator network around a guaranteed-feasible chain backbone and keeps
the simple-path count per OD low enough for explicit enumeration.
"""

from __future__ import annotations

import random

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
