"""Exact LP/MILP layer with dual extraction.

Two interchangeable engines solve mixed-integer programs:

* ``bundled`` -- a deterministic branch-and-bound over the binary variables
  with LP-relaxation bounds (best-bound node order, most-fractional branching,
  ties broken by lowest variable index).  It converts its model to scipy form
  once per solve; each node changes only the bounds of the binaries it fixes.
  It proves optimality to the absolute gap ``MIP_GAP`` and gives up with
  :class:`ResourceLimitExceeded` after ``NODE_LIMIT`` nodes.
* ``external`` -- HiGHS' own branch-and-cut via :func:`scipy.optimize.milp`,
  with a relative gap of zero.

The configuration is fixed: no tolerance, gap or limit is settable.  Pure
LPs always go through HiGHS (:func:`scipy.optimize.linprog`), which also
provides the row duals.  Reported duals follow the convention
``dual = d(objective)/d(rhs)`` in the problem's own optimization sense.
"""

from __future__ import annotations

import heapq
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from .errors import ResourceLimitExceeded, SolveNumericalError

LE, EQ, GE = "<=", "=", ">="

ENGINE_ENV_VAR = "MAAS_MARKET_ENGINE"
DEFAULT_ENGINE = "bundled"

MIP_GAP = 1e-6         # absolute: a node is pruned unless it beats the incumbent by this
NODE_LIMIT = 200_000   # bundled branch-and-bound children before ResourceLimitExceeded

_LP_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def resolve_engine(engine: str | None = None) -> str:
    """Engine precedence: explicit argument, then environment, then default."""
    name = engine or os.environ.get(ENGINE_ENV_VAR) or DEFAULT_ENGINE
    if name not in ("bundled", "external"):
        raise ValueError(f"unknown engine {name!r}")
    return name


@dataclass
class Row:
    coeffs: list[tuple[int, float]]
    sense: str
    rhs: float


@dataclass
class LinearProgram:
    num_vars: int
    objective: list[float]
    maximize: bool = False
    rows: list[Row] = field(default_factory=list)
    # per-variable (lower, upper); None entries default to (0, +inf)
    bounds: list[tuple[float, float]] | None = None

    def add_row(self, coeffs, sense, rhs) -> int:
        for idx, val in coeffs:
            if not 0 <= idx < self.num_vars:
                raise ValueError(f"column {idx} out of range")
            if not math.isfinite(val):
                raise ValueError("non-finite coefficient")
        if not math.isfinite(rhs):
            raise ValueError("non-finite rhs")
        self.rows.append(Row(list(coeffs), sense, float(rhs)))
        return len(self.rows) - 1

    def effective_bounds(self) -> list[tuple[float, float]]:
        if self.bounds is None:
            return [(0.0, math.inf)] * self.num_vars
        return list(self.bounds)


@dataclass
class MixedIntegerProgram:
    lp: LinearProgram
    binary_vars: frozenset[int] = frozenset()

    def __post_init__(self):
        bad = [i for i in self.binary_vars if not 0 <= i < self.lp.num_vars]
        if bad:
            raise ValueError(f"binary indices out of range: {bad}")


@dataclass
class SolveResult:
    status: str                      # optimal | infeasible | unbounded
    x: np.ndarray | None = None
    objective: float | None = None
    duals: np.ndarray | None = None  # per row, d(obj)/d(rhs), LPs only


def _to_scipy(lp: LinearProgram):
    n = lp.num_vars
    c = np.asarray(lp.objective, dtype=float)
    sign = -1.0 if lp.maximize else 1.0
    data_ub, rows_ub, cols_ub, b_ub, map_ub = [], [], [], [], []
    data_eq, rows_eq, cols_eq, b_eq, map_eq = [], [], [], [], []
    for k, row in enumerate(lp.rows):
        if row.sense == EQ:
            r = len(b_eq)
            for idx, val in row.coeffs:
                rows_eq.append(r); cols_eq.append(idx); data_eq.append(val)
            b_eq.append(row.rhs)
            map_eq.append(k)
        else:
            flip = -1.0 if row.sense == GE else 1.0
            r = len(b_ub)
            for idx, val in row.coeffs:
                rows_ub.append(r); cols_ub.append(idx); data_ub.append(flip * val)
            b_ub.append(flip * row.rhs)
            map_ub.append((k, flip))
    A_ub = sp.csr_matrix((data_ub, (rows_ub, cols_ub)), shape=(len(b_ub), n)) if b_ub else None
    A_eq = sp.csr_matrix((data_eq, (rows_eq, cols_eq)), shape=(len(b_eq), n)) if b_eq else None
    return sign * c, A_ub, (np.array(b_ub) if b_ub else None), A_eq, \
        (np.array(b_eq) if b_eq else None), map_ub, map_eq, sign


def _linprog(c, A_ub, b_ub, A_eq, b_eq, bounds):
    """One HiGHS solve of a model in ``_to_scipy`` form: (status, scipy result)."""
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if res.status not in _LP_STATUS:
        raise SolveNumericalError(f"LP solve failed: {res.message}")
    return _LP_STATUS[res.status], res


def solve_lp(lp: LinearProgram) -> SolveResult:
    """Solve a pure LP to an optimal basic solution with row duals."""
    if lp.num_vars == 0:
        return SolveResult(status="optimal", x=np.zeros(0), objective=0.0,
                           duals=np.zeros(len(lp.rows)))
    c, A_ub, b_ub, A_eq, b_eq, map_ub, map_eq, sign = _to_scipy(lp)
    status, res = _linprog(c, A_ub, b_ub, A_eq, b_eq, lp.effective_bounds())
    if status != "optimal":
        return SolveResult(status=status)
    duals = np.zeros(len(lp.rows))
    if map_ub:
        marg = res.ineqlin.marginals
        for r, (k, flip) in enumerate(map_ub):
            duals[k] = sign * flip * marg[r]
    if map_eq:
        marg = res.eqlin.marginals
        for r, k in enumerate(map_eq):
            duals[k] = sign * marg[r]
    return SolveResult(status="optimal", x=res.x, objective=sign * res.fun,
                       duals=duals)


def solve_milp(mip: MixedIntegerProgram, engine: str | None = None) -> SolveResult:
    """Solve a MILP to proven optimality within the absolute gap ``MIP_GAP``."""
    if not mip.binary_vars:
        return solve_lp(mip.lp)
    if resolve_engine(engine) == "external":
        return _solve_milp_external(mip)
    return _solve_milp_bundled(mip)


def _binary_bounds(mip):
    """Variable bounds as an (n, 2) array, each binary clamped to [0, 1]."""
    bounds = np.array(mip.lp.effective_bounds(), dtype=float)
    binaries = sorted(mip.binary_vars)
    bounds[binaries, 0] = np.maximum(bounds[binaries, 0], 0.0)
    bounds[binaries, 1] = np.minimum(bounds[binaries, 1], 1.0)
    return bounds


def _solve_milp_external(mip):
    lp = mip.lp
    c, A_ub, b_ub, A_eq, b_eq, _, _, sign = _to_scipy(lp)
    constraints = []
    if A_ub is not None:
        constraints.append(LinearConstraint(A_ub, -np.inf, b_ub))
    if A_eq is not None:
        constraints.append(LinearConstraint(A_eq, b_eq, b_eq))
    integrality = np.zeros(lp.num_vars)
    integrality[sorted(mip.binary_vars)] = 1
    bounds = _binary_bounds(mip)
    # HiGHS's MIP solver prints debug text to C-level stdout; send it to stderr
    sys.stdout.flush()
    saved_stdout = os.dup(1)
    os.dup2(2, 1)
    try:
        res = milp(c=c, constraints=constraints,
                   bounds=Bounds(bounds[:, 0], bounds[:, 1]),
                   integrality=integrality, options={"mip_rel_gap": 0.0})
    finally:
        os.dup2(saved_stdout, 1)
        os.close(saved_stdout)
    if res.status == 2:
        return SolveResult(status="infeasible")
    if res.status == 1:  # iteration limit or another HiGHS limit
        raise ResourceLimitExceeded(
            "external engine hit its resource limit",
            incumbent=(sign * res.fun if res.fun is not None else None),
            bound=(sign * res.mip_dual_bound if res.mip_dual_bound is not None else None),
        )
    if res.status == 3:
        return SolveResult(status="unbounded")
    if res.status != 0:
        raise SolveNumericalError(f"MILP solve failed: {res.message}")
    return SolveResult(status="optimal", x=res.x, objective=sign * res.fun)


def _solve_milp_bundled(mip):
    """Branch-and-bound on the binaries with LP-relaxation bounds.

    Internally minimizes; deterministic: best-bound node order with FIFO
    tie-break, branch on the binary closest to 1/2, ties to the lowest index.
    The model is converted once; a node only fixes the bounds of its
    branched binaries.
    """
    lp = mip.lp
    c, A_ub, b_ub, A_eq, b_eq, _, _, sign = _to_scipy(lp)
    base_bounds = _binary_bounds(mip)
    binaries = sorted(mip.binary_vars)

    def relax(fixings):
        bounds = base_bounds.copy()
        for i, value in fixings.items():
            bounds[i] = value
        return _linprog(c, A_ub, b_ub, A_eq, b_eq, bounds)

    counter = 0
    incumbent_x = None
    incumbent_val = math.inf  # minimization value
    status, root = relax({})
    if status != "optimal":
        return SolveResult(status=status)
    heap = [(root.fun, counter, {}, root.x)]
    while heap:
        node_bound, _, fixings, x = heapq.heappop(heap)
        if node_bound >= incumbent_val - MIP_GAP:
            break  # best-bound order: nothing left can improve
        frac_i, frac_dist = -1, -1.0
        for i in binaries:
            if abs(x[i] - round(x[i])) <= 1e-9:
                continue
            dist = 0.5 - abs(x[i] - 0.5)
            if dist > frac_dist + 1e-9:
                frac_i, frac_dist = i, dist
        if frac_i < 0:
            # integral solution
            if node_bound < incumbent_val:
                incumbent_val = node_bound
                incumbent_x = np.array(x)
                incumbent_x[binaries] = np.round(incumbent_x[binaries])
            continue
        for value in (0, 1):
            counter += 1
            if counter > NODE_LIMIT:
                raise ResourceLimitExceeded(
                    "bundled branch-and-bound node cap exceeded",
                    incumbent=None if incumbent_x is None else sign * incumbent_val,
                    bound=sign * node_bound)
            child_fix = dict(fixings)
            child_fix[frac_i] = value
            status, child = relax(child_fix)
            if status != "optimal":
                continue
            if child.fun < incumbent_val - MIP_GAP:
                heapq.heappush(heap, (child.fun, counter, child_fix, child.x))
    if incumbent_x is None:
        return SolveResult(status="infeasible")
    objective = float(np.dot(lp.objective, incumbent_x))
    return SolveResult(status="optimal", x=incumbent_x, objective=objective)
