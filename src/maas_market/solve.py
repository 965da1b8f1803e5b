"""Exact LP/MILP layer with dual extraction.

Two interchangeable engines solve mixed-integer programs:

* ``bundled`` -- a deterministic branch-and-bound over the binary variables
  with LP-relaxation bounds (best-bound node order, most-fractional branching,
  ties broken by lowest variable index).
* ``external`` -- HiGHS' own branch-and-cut via :func:`scipy.optimize.milp`.

Pure LPs always go through HiGHS (:func:`scipy.optimize.linprog`), which also
provides the row duals.  Reported duals follow the convention
``dual = d(objective)/d(rhs)`` in the problem's own optimization sense.
"""

from __future__ import annotations

import heapq
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from .errors import ResourceLimitExceeded, SolveNumericalError

LE, EQ, GE = "<=", "=", ">="

ENGINE_ENV_VAR = "MAAS_MARKET_ENGINE"
DEFAULT_ENGINE = "bundled"


def resolve_engine(engine: str | None = None) -> str:
    """Engine precedence: explicit argument, then environment, then default."""
    name = engine or os.environ.get(ENGINE_ENV_VAR) or DEFAULT_ENGINE
    if name not in ("bundled", "external"):
        raise ValueError(f"unknown engine {name!r}")
    return name


@dataclass(frozen=True)
class Tolerances:
    optimality: float = 1e-6      # relative, LP strong duality
    mip_gap: float = 1e-6         # absolute, MILP incumbent-vs-bound


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


def solve_lp(lp: LinearProgram) -> SolveResult:
    """Solve a pure LP to an optimal basic solution with row duals."""
    if lp.num_vars == 0:
        return SolveResult(status="optimal", x=np.zeros(0), objective=0.0,
                           duals=np.zeros(len(lp.rows)))
    c, A_ub, b_ub, A_eq, b_eq, map_ub, map_eq, sign = _to_scipy(lp)
    res = linprog(
        c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
        bounds=lp.effective_bounds(), method="highs")
    if res.status == 2:
        return SolveResult(status="infeasible")
    if res.status == 3:
        return SolveResult(status="unbounded")
    if res.status != 0:
        raise SolveNumericalError(f"LP solve failed: {res.message}")
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


def solve_milp(
    mip: MixedIntegerProgram,
    engine: str | None = None,
    tolerances: Tolerances = Tolerances(),
    node_limit: int = 200_000,
    time_limit: float | None = None,
) -> SolveResult:
    """Solve a MILP to proven optimality within the absolute gap tolerance."""
    if not mip.binary_vars:
        return solve_lp(mip.lp)
    if resolve_engine(engine) == "external":
        return _solve_milp_external(mip, time_limit)
    return _solve_milp_bundled(mip, tolerances, node_limit, time_limit)


def _solve_milp_external(mip, time_limit):
    lp = mip.lp
    c, A_ub, b_ub, A_eq, b_eq, _, _, sign = _to_scipy(lp)
    constraints = []
    if A_ub is not None:
        constraints.append(LinearConstraint(A_ub, -np.inf, b_ub))
    if A_eq is not None:
        constraints.append(LinearConstraint(A_eq, b_eq, b_eq))
    integrality = np.zeros(lp.num_vars)
    lower = np.zeros(lp.num_vars)
    upper = np.full(lp.num_vars, np.inf)
    for i, (lo, hi) in enumerate(lp.effective_bounds()):
        lower[i], upper[i] = lo, hi
    for i in mip.binary_vars:
        integrality[i] = 1
        lower[i] = max(lower[i], 0.0)
        upper[i] = min(upper[i], 1.0)
    options = {"mip_rel_gap": 0.0}
    if time_limit is not None:
        options["time_limit"] = time_limit
    # HiGHS's MIP solver prints debug text to C-level stdout; send it to stderr
    sys.stdout.flush()
    saved_stdout = os.dup(1)
    os.dup2(2, 1)
    try:
        res = milp(c=c, constraints=constraints, bounds=Bounds(lower, upper),
                   integrality=integrality, options=options)
    finally:
        os.dup2(saved_stdout, 1)
        os.close(saved_stdout)
    if res.status == 2:
        return SolveResult(status="infeasible")
    if res.status == 1:  # iteration/time limit
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


def _solve_milp_bundled(mip, tolerances, node_limit, time_limit):
    """Branch-and-bound on the binaries with LP-relaxation bounds.

    Internally minimizes; deterministic: best-bound node order with FIFO
    tie-break, branch on the binary closest to 1/2, ties to the lowest index.
    """
    lp = mip.lp
    base_bounds = lp.effective_bounds()
    binaries = sorted(mip.binary_vars)
    sign = -1.0 if lp.maximize else 1.0
    gap = tolerances.mip_gap

    def relax(fixings):
        bounds = list(base_bounds)
        for i in binaries:
            lo, hi = bounds[i]
            lo, hi = max(lo, 0.0), min(hi, 1.0)
            if i in fixings:
                lo = hi = float(fixings[i])
            bounds[i] = (lo, hi)
        relaxed = replace(lp, bounds=bounds)
        return solve_lp(relaxed)

    start = time.monotonic()
    counter = 0
    incumbent_x = None
    incumbent_val = math.inf  # minimization value
    root = relax({})
    if root.status == "infeasible":
        return SolveResult(status="infeasible")
    if root.status == "unbounded":
        return SolveResult(status="unbounded")
    heap = [(sign * root.objective, counter, {}, root)]
    while heap:
        node_bound, _, fixings, res = heapq.heappop(heap)
        if node_bound >= incumbent_val - gap:
            break  # best-bound order: nothing left can improve
        if time_limit is not None and time.monotonic() - start > time_limit:
            raise ResourceLimitExceeded(
                "bundled branch-and-bound time cap exceeded",
                incumbent=None if incumbent_x is None else sign * incumbent_val,
                bound=sign * node_bound)
        frac_i, frac_dist = -1, -1.0
        for i in binaries:
            if abs(res.x[i] - round(res.x[i])) <= 1e-9:
                continue
            dist = 0.5 - abs(res.x[i] - 0.5)
            if dist > frac_dist + 1e-9:
                frac_i, frac_dist = i, dist
        if frac_i < 0:
            # integral solution
            if node_bound < incumbent_val:
                incumbent_val = node_bound
                incumbent_x = np.array(res.x)
                incumbent_x[binaries] = np.round(incumbent_x[binaries])
            continue
        for value in (0, 1):
            counter += 1
            if counter > node_limit:
                raise ResourceLimitExceeded(
                    "bundled branch-and-bound node cap exceeded",
                    incumbent=None if incumbent_x is None else sign * incumbent_val,
                    bound=sign * node_bound)
            child_fix = dict(fixings)
            child_fix[frac_i] = value
            child = relax(child_fix)
            if child.status != "optimal":
                continue
            child_bound = sign * child.objective
            if child_bound < incumbent_val - gap:
                heapq.heappush(heap, (child_bound, counter, child_fix, child))
    if incumbent_x is None:
        return SolveResult(status="infeasible")
    objective = float(np.dot(lp.objective, incumbent_x))
    return SolveResult(status="optimal", x=incumbent_x, objective=objective)


def write_lp_file(program, path) -> None:
    """Emit a model as fixed-point decimal LP-format text for debugging."""
    lp = program.lp if isinstance(program, MixedIntegerProgram) else program
    binaries = program.binary_vars if isinstance(program, MixedIntegerProgram) else frozenset()

    def term(val, idx):
        return f"{'+' if val >= 0 else '-'} {abs(val):.12f} x{idx}"

    lines = ["Maximize" if lp.maximize else "Minimize"]
    obj = " ".join(term(v, i) for i, v in enumerate(lp.objective) if v != 0) or "0 x0"
    lines.append(f" obj: {obj}")
    lines.append("Subject To")
    for k, row in enumerate(lp.rows):
        body = " ".join(term(v, i) for i, v in row.coeffs) or "0 x0"
        sense = {LE: "<=", EQ: "=", GE: ">="}[row.sense]
        lines.append(f" r{k}: {body} {sense} {row.rhs:.12f}")
    lines.append("Bounds")
    for i, (lo, hi) in enumerate(lp.effective_bounds()):
        hi_txt = "+inf" if math.isinf(hi) else f"{hi:.12f}"
        lines.append(f" {lo:.12f} <= x{i} <= {hi_txt}")
    if binaries:
        lines.append("Binary")
        lines.append(" " + " ".join(f"x{i}" for i in sorted(binaries)))
    lines.append("End")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
