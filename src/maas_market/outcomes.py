"""Stable-outcome LP assembly, vertex solves, and market metrics.

Variables are the per-group surplus u_s and the per-(path, operator) price
p_rf, both non-negative.  The platform operator never carries a price
variable.  Solving a vertex happens in two stages: the requested objective
first, then a lexicographic re-optimization of operator revenues (ascending
operator id, each over the optimal face of the objectives before) so the
reported split is canonical even when the vertex is degenerate.

Each tie-break stage is one ``solve_lp`` call that re-solves warm on the
primary solve's HiGHS handle: it swaps in the next operator's revenue and
maximises it over the optimal face of the stage before, which the solver
fixes by bounds (see :mod:`maas_market.solve`).  No row is added, so there
is no pin of an optimum for HiGHS to find infeasible.  Only the model's
first solve is cold.  Where revenues tie, prices are not unique, and a warm
stage may stop at another optimal price split than a cold one would;
revenues and the objective do not move.

The rows that no policy or option changes -- the surplus equalities, the
operator covers and the stability rows -- are built once per
``ConstraintSystem`` and kept in its cache, as its price variables are.
Each model starts from that very :class:`~maas_market.solve.Rows` value and
adds only its fixed-fare rows and its objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import SolveNumericalError
from .matching import MatchingSolution
from .network import require_priced
from .solve import EQ, GE, LinearProgram, solve_lp
from .stability import ConstraintSystem

REVENUE_MAX = "revenue_max"
WELFARE_MAX = "welfare_max"
BUYER_OPTIMAL = "buyer_optimal"
SELLER_OPTIMAL = "seller_optimal"


@dataclass(frozen=True)
class ObjectivePolicy:
    """Either one global mode or a complete per-operator mode assignment."""

    global_mode: str | None = None
    per_operator: dict = field(default_factory=dict)

    def __post_init__(self):
        if (self.global_mode is None) == (not self.per_operator):
            raise ValueError("set exactly one of global_mode / per_operator")
        if self.global_mode not in (None, BUYER_OPTIMAL, SELLER_OPTIMAL):
            raise ValueError(f"unknown global mode {self.global_mode!r}")
        require_priced(self.per_operator, "per_operator")
        for f, mode in self.per_operator.items():
            if mode not in (REVENUE_MAX, WELFARE_MAX):
                raise ValueError(f"unknown operator mode {mode!r} for {f}")


@dataclass(frozen=True)
class OutcomeOptions:
    fixed_fare_operators: frozenset[int] = frozenset()
    subsidies: dict = field(default_factory=dict)  # arc -> gamma

    def __post_init__(self):
        require_priced(self.fixed_fare_operators, "fixed_fare_operators")


@dataclass
class OutcomeModel:
    lp: LinearProgram
    system: ConstraintSystem
    u_index: dict          # od -> column
    p_index: dict          # (od, nodes, f) -> column
    objective_label: str
    options: OutcomeOptions
    revenue_terms: dict    # f -> [(column, z)] over f's price columns, in column order


@dataclass
class OperatorMetrics:
    operator: int
    revenue: float
    operating_cost: float
    subsidy: float
    profit: float
    ridership: float
    avg_fare: float
    min_fare: float
    max_fare: float


_METRIC_FIELDS = tuple(f.name for f in fields(OperatorMetrics))  # report() row order


@dataclass
class StableOutcome:
    status: str                       # optimal | empty_core
    objective: float | None = None
    objective_label: str = ""
    surplus: dict = field(default_factory=dict)       # od -> u_s
    prices: dict = field(default_factory=dict)        # (od, nodes, f) -> p_rf
    operators: dict = field(default_factory=dict)     # f -> OperatorMetrics
    consumer_surplus: float = 0.0                     # sum d_s u_s
    avg_services_per_traveler: float = 0.0


def build_outcome_lp(
    system: ConstraintSystem,
    policy: ObjectivePolicy,
    options: OutcomeOptions = OutcomeOptions(),
) -> OutcomeModel:
    """Assemble the stable-outcome LP for one objective policy.

    The rows that no policy or option changes are built once per system and
    kept in its cache; each model starts from them and adds only its
    fixed-fare rows and its objective.
    """
    u_index, p_index, revenue_terms = _columns(system)
    n = len(u_index) + len(p_index)
    rows = system.cached("outcome_rows",
                         lambda: _policy_free_rows(system, u_index, p_index))
    lp = LinearProgram(num_vars=n, objective=[0.0] * n, maximize=True, rows=rows)

    # fixed-fare tying: one common price across all paths of a flagged
    # operator, p_a - p_b = 0 per adjacent pair (a, b) of its price columns
    pairs = []
    for f in sorted(options.fixed_fare_operators):
        cols = [col for col, _ in revenue_terms.get(f, ())]
        pairs += zip(cols, cols[1:])
    if pairs:
        lp.add_rows(range(0, 2 * len(pairs) + 1, 2), [j for pair in pairs for j in pair],
                    [1.0, -1.0] * len(pairs), EQ, [0.0] * len(pairs))

    objective, label = _objective_vector(system, policy, u_index, revenue_terms, n)
    lp.objective = objective
    return OutcomeModel(lp=lp, system=system, u_index=u_index,
                        p_index=p_index, objective_label=label,
                        options=options, revenue_terms=revenue_terms)


def _columns(system: ConstraintSystem):
    """The column of each surplus and price variable, and each operator's
    revenue terms ``[(column, z_r)]`` in column order."""
    u_index = {od: i for i, od in enumerate(sorted(system.groups))}
    p_vars = system.price_variables()
    p_index = {key: len(u_index) + i for i, key in enumerate(p_vars)}
    flows = {(od, nodes): z for terms, _ in system.covers.values()
             for od, nodes, z in terms}
    revenue_terms = {}
    for (od, nodes, f), col in p_index.items():
        revenue_terms.setdefault(f, []).append((col, flows.get((od, nodes), 0.0)))
    return u_index, p_index, revenue_terms


def _policy_free_rows(system: ConstraintSystem, u_index, p_index):
    """The surplus equalities, the operator covers and the stability rows,
    in one block: the rows of the outcome LP that no policy or option
    changes."""
    start, index, value, rhs = [0], [], [], []

    def add(columns, coefficients, bound):
        index.extend(columns)
        value.extend(coefficients)
        start.append(len(index))
        rhs.append(bound)

    # surplus equalities: u_s + sum_f p_rf = U_s - travel cost, per optimal path
    for od, pset in sorted(system.groups.items()):
        for info in pset.paths:
            columns = [u_index[od]] + [p_index[(od, info.nodes, f)]
                                       for f in sorted(info.operators)]
            add(columns, [1.0] * len(columns), pset.utility - info.travel_cost)
    equalities = len(rhs)

    # operator cost covers: sum z_r p_rf >= operated cost net of subsidies
    for f in sorted(system.covers):
        terms, bound = system.covers[f]
        positive = [(p_index[(od, nodes, f)], z) for od, nodes, z in terms if z > 0]
        add([j for j, _ in positive], [z for _, z in positive], bound)

    for row in system.stability_rows:
        columns = [u_index[row.group]] + [p_index[(row.group, nodes, f)]
                                          for nodes, f in row.terms]
        add(columns, [1.0] * len(columns), row.bound)
    lp = LinearProgram(num_vars=len(u_index) + len(p_index), objective=[])
    lp.add_rows(start, index, value, [EQ] * equalities + [GE] * (len(rhs) - equalities), rhs)
    return lp.rows


def _objective_vector(system, policy, u_index, revenue_terms, n):
    obj = [0.0] * n

    def add_surplus(weight=1.0):
        for col in u_index.values():
            obj[col] += weight

    def add_revenue(operator):
        for col, z in revenue_terms.get(operator, ()):
            obj[col] += z

    if policy.global_mode == BUYER_OPTIMAL:
        add_surplus()
        return obj, BUYER_OPTIMAL
    if policy.global_mode == SELLER_OPTIMAL:
        for f in system.covers:
            add_revenue(f)
        return obj, SELLER_OPTIMAL
    for f, mode in sorted(policy.per_operator.items()):
        if mode == REVENUE_MAX:
            add_revenue(f)
        else:
            add_surplus()
    label = ",".join(f"{f}:{m}" for f, m in sorted(policy.per_operator.items()))
    return obj, label


def solve_outcome(
    model: OutcomeModel,
    matching: MatchingSolution | None = None,
    network=None,
    tie_break: bool = True,
) -> StableOutcome:
    """Solve one vertex of the stable-outcome polytope with derived metrics.

    Operating cost and subsidy income count each operated link of an
    operator, so they need ``matching`` and ``network``; without them both
    are zero.
    """
    result = solve_lp(model.lp)
    if result.status == "infeasible":
        return StableOutcome(status="empty_core",
                             objective_label=model.objective_label)
    if result.status == "unbounded":
        raise SolveNumericalError(
            "stable-outcome LP unbounded: surplus equalities missing a variable")
    objective = result.objective
    x = result.x
    if tie_break:
        x = _lexicographic_revenue_tiebreak(model, result)
    return _assemble_outcome(model, objective, x, matching, network)


def _lexicographic_revenue_tiebreak(model, primary):
    """Maximize each operator's revenue in ascending id order, each over the
    optimal face of the primary objective and of the stages before.

    ``primary`` is the optimal result of ``model.lp``; each stage re-solves
    warm from the stage before, on the same rows.  Returns the last stage's
    solution, or the primary one when no operator earns revenue.  ``model``
    is unchanged.
    """
    result = primary
    for f in sorted(model.system.covers):
        terms = model.revenue_terms.get(f, ())
        objective = np.zeros(model.lp.num_vars)
        objective[np.array([c for c, _ in terms], dtype=np.intp)] = [z for _, z in terms]
        if not objective.any():
            continue
        result = solve_lp(replace(model.lp, objective=objective), warm=result)
        if result.status != "optimal":
            raise SolveNumericalError(
                f"revenue tie-break stage for operator {f}: {result.status}")
    return result.x


def _assemble_outcome(model, objective, x, matching, network):
    system = model.system
    surplus = {od: max(0.0, float(x[col])) for od, col in model.u_index.items()}
    prices = {key: max(0.0, float(x[col])) for key, col in model.p_index.items()}
    subsidies = model.options.subsidies

    operators = {}
    for f in sorted(set(model.revenue_terms) | set(system.covers)):
        revenue = ridership = 0.0
        fares = []
        for col, z in model.revenue_terms.get(f, ()):
            p = max(0.0, float(x[col]))
            revenue += p * z
            ridership += z
            if z > 0:
                fares.append(p)
        cost = subsidy = 0.0
        if matching is not None and network is not None:
            for link in network.operator_links(f):
                if matching.activations.get(link.arc, 0) >= 0.5:
                    cost += link.operating_cost
                    subsidy += subsidies.get(link.arc, 0.0)
        operators[f] = OperatorMetrics(
            operator=f, revenue=revenue, operating_cost=cost, subsidy=subsidy,
            profit=revenue - cost + subsidy, ridership=ridership,
            avg_fare=revenue / ridership if ridership > 0 else 0.0,
            min_fare=min(fares) if fares else 0.0,
            max_fare=max(fares) if fares else 0.0)

    consumer_surplus = sum(system.groups[od].demand * u
                           for od, u in surplus.items())
    total_demand = sum(p.demand for p in system.groups.values())
    weighted_services = sum(
        info.flow * len(info.operators)
        for pset in system.groups.values() for info in pset.paths)
    return StableOutcome(
        status="optimal", objective=float(objective),
        objective_label=model.objective_label,
        surplus=surplus, prices=prices, operators=operators,
        consumer_surplus=consumer_surplus,
        avg_services_per_traveler=(weighted_services / total_demand
                                   if total_demand > 0 else 0.0))


def report(outcome: StableOutcome, matching: MatchingSolution | None = None) -> dict:
    """JSON-ready metrics document mirroring the per-operator table layout."""
    doc = {
        "status": outcome.status,
        "objective": outcome.objective,
        "objective_label": outcome.objective_label,
        "consumer_surplus": outcome.consumer_surplus,
        "avg_services_per_traveler": outcome.avg_services_per_traveler,
        "operators": [{k: getattr(m, k) for k in _METRIC_FIELDS}
                      for _, m in sorted(outcome.operators.items())],
        "surplus": [
            {"origin": od[0], "destination": od[1], "u": u}
            for od, u in sorted(outcome.surplus.items())
        ],
        "prices": [
            {"origin": od[0], "destination": od[1],
             "path": list(nodes), "operator": f, "price": p}
            for (od, nodes, f), p in sorted(outcome.prices.items())
        ],
    }
    if matching is not None:
        doc["matching_objective"] = matching.objective
    return doc
