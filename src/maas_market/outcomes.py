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
revenues and the objective do not move.  When the primary objective is the
stages' sum (seller-optimal, or every operator at revenue-max), the last
stage is not run: the stages before fix its revenue too, as the primary
optimum less theirs.

The models of one ``ConstraintSystem`` share one frame, laid out in one
walk over its groups and kept in its cache: the surplus and price columns,
each operator's revenue terms, and the rows that no policy or option
changes -- the surplus equalities, the operator covers and the stability
rows.  Each model starts from that very :class:`~maas_market.solve.Rows`
value and adds only its fixed-fare rows and its objective.  The frame is
read-only, as systems are.
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
_NO_TERMS = (np.zeros(0, dtype=np.intp), np.zeros(0))  # an operator on no optimal path


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
    """One objective's LP over a system's frame.  ``u_index``, ``p_index``,
    ``revenue_terms`` and the rows ``lp`` starts from are the frame's, shared
    by every model of the system, so they are read-only, as systems are."""

    lp: LinearProgram
    system: ConstraintSystem
    u_index: dict          # od -> column
    p_index: dict          # (od, nodes, f) -> column
    objective_label: str
    options: OutcomeOptions
    revenue_terms: dict    # f -> (f's price columns ascending, their z) as two arrays


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

    The models of one system share its frame: the columns, the revenue terms
    and the rows that no policy or option changes, built on the first call
    and kept in the system's cache.  Like the system, the frame is
    read-only; each model adds only its fixed-fare rows and its objective.
    """
    u_index, p_index, revenue_terms, rows = system.cached(
        "outcome_frame", lambda: _frame(system))
    n = len(u_index) + len(p_index)
    objective, label = _objective_vector(system, policy, u_index, revenue_terms, n)
    lp = LinearProgram(num_vars=n, objective=objective, maximize=True, rows=rows)

    # fixed-fare tying: one common price across all paths of a flagged
    # operator, p_a - p_b = 0 per adjacent pair (a, b) of its price columns
    pairs = []
    for f in sorted(options.fixed_fare_operators):
        cols = revenue_terms.get(f, _NO_TERMS)[0].tolist()
        pairs += zip(cols, cols[1:])
    if pairs:
        lp.add_rows(range(0, 2 * len(pairs) + 1, 2), [j for pair in pairs for j in pair],
                    [1.0, -1.0] * len(pairs), EQ, [0.0] * len(pairs))
    return OutcomeModel(lp=lp, system=system, u_index=u_index,
                        p_index=p_index, objective_label=label,
                        options=options, revenue_terms=revenue_terms)


def _frame(system: ConstraintSystem):
    """``(u_index, p_index, revenue_terms, rows)``: the column of each
    surplus and price variable, each operator's price columns in ascending
    order with their flows z_r as two arrays, and the surplus equalities,
    the operator covers and the stability rows in one block."""
    u_index = {od: i for i, od in enumerate(sorted(system.groups))}
    p_index, terms = {}, {}
    start, index, value, rhs = [0], [], [], []

    def add(columns, coefficients, bound):
        index.extend(columns)
        value.extend(coefficients)
        start.append(len(index))
        rhs.append(bound)

    # surplus equalities: u_s + sum_f p_rf = U_s - travel cost, per optimal path
    for od, pset in sorted(system.groups.items()):
        for info in pset.paths:
            columns = [u_index[od]]
            for f in sorted(info.operators):
                col = p_index[(od, info.nodes, f)] = len(u_index) + len(p_index)
                terms.setdefault(f, []).append((col, info.flow))
                columns.append(col)
            add(columns, [1.0] * len(columns), pset.utility - info.travel_cost)
    equalities = len(rhs)
    revenue_terms = {}
    for f, pairs in terms.items():
        cols, z = zip(*pairs)
        revenue_terms[f] = np.array(cols, dtype=np.intp), np.array(z, dtype=float)

    # operator cost covers: sum z_r p_rf >= operated cost net of subsidies
    for f, (_, bound) in sorted(system.covers.items()):
        cols, z = revenue_terms.get(f, _NO_TERMS)
        add(cols[z > 0].tolist(), z[z > 0].tolist(), bound)

    for row in system.stability_rows:
        columns = [u_index[row.group]] + [p_index[(row.group, nodes, f)]
                                          for nodes, f in row.terms]
        add(columns, [1.0] * len(columns), row.bound)
    lp = LinearProgram(num_vars=len(u_index) + len(p_index), objective=[])
    lp.add_rows(start, index, value, [EQ] * equalities + [GE] * (len(rhs) - equalities), rhs)
    return u_index, p_index, revenue_terms, lp.rows


def _objective_vector(system, policy, u_index, revenue_terms, n):
    if policy.global_mode == BUYER_OPTIMAL:
        modes = [(None, WELFARE_MAX)]
    elif policy.global_mode == SELLER_OPTIMAL:
        modes = [(f, REVENUE_MAX) for f in system.covers]
    else:
        modes = sorted(policy.per_operator.items())
    obj = np.zeros(n)
    for f, mode in modes:
        if mode == REVENUE_MAX:
            cols, z = revenue_terms.get(f, _NO_TERMS)
            obj[cols] += z
        else:
            obj[:len(u_index)] += 1.0  # the surplus columns come first
    return obj, policy.global_mode or ",".join(f"{f}:{m}" for f, m in modes)


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
    x = _lexicographic_revenue_tiebreak(model, result) if tie_break else result.x
    return _assemble_outcome(model, result.objective, x, matching, network)


def _lexicographic_revenue_tiebreak(model, primary):
    """Maximize each operator's revenue in ascending id order, each over the
    optimal face of the primary objective and of the stages before.

    ``primary`` is the optimal result of ``model.lp``; each stage re-solves
    warm from the stage before, on the same rows.  The last is not run when
    the primary objective is the stages' sum, which fixes its revenue.
    Returns the last run stage's x, or the primary one's.  ``model`` is unchanged.
    """
    stages = {}
    for f in sorted(model.system.covers):
        cols, z = model.revenue_terms.get(f, _NO_TERMS)
        if z.any():
            stages[f] = np.zeros(model.lp.num_vars)
            stages[f][cols] = z
    if stages and np.array_equal(sum(stages.values()), model.lp.objective):
        stages.popitem()
    result = primary
    for f, objective in stages.items():
        result = solve_lp(replace(model.lp, objective=objective), warm=result)
        if result.status != "optimal":
            raise SolveNumericalError(
                f"revenue tie-break stage for operator {f}: {result.status}")
    return result.x


def _assemble_outcome(model, objective, x, matching, network):
    system = model.system
    x = np.where(x > 0.0, x, 0.0)  # max(0.0, v): 0.0 also for -0.0 and NaN
    u = len(model.u_index)  # the surplus columns, then the price columns
    surplus = dict(zip(model.u_index, x[:u].tolist()))
    prices = dict(zip(model.p_index, x[u:].tolist()))
    subsidies = model.options.subsidies

    operators = {}
    for f in sorted(set(model.revenue_terms) | set(system.covers)):
        cols, z = model.revenue_terms.get(f, _NO_TERMS)
        p = x[cols]
        revenue = sum((p * z).tolist(), 0.0)  # left to right, as a loop adds
        ridership = sum(z.tolist(), 0.0)
        fares = p[z > 0].tolist()
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
