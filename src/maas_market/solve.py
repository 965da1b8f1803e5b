"""Exact LP/MILP layer with dual extraction.

Two interchangeable engines solve mixed-integer programs:

* ``bundled`` -- a deterministic branch-and-bound over the binary variables
  with LP-relaxation bounds (best-bound node order, most-fractional branching,
  ties broken by lowest variable index).  It passes its model to one HiGHS
  handle once per solve.  Each node changes only the bounds of the binaries,
  restores its parent's simplex basis and re-solves with the dual simplex
  from there.  It proves optimality to the absolute gap ``MIP_GAP`` and gives
  up with :class:`ResourceLimitExceeded` after ``NODE_LIMIT`` nodes.
* ``external`` -- HiGHS' own branch-and-cut via :func:`scipy.optimize.milp`,
  with a relative gap of zero.

Pure LPs go through the same handle builder: one cold HiGHS solve, whose
row duals are read from the solution.  An optimal LP result keeps its
handle, so a later LP over the same columns whose rows extend the solved
ones can re-solve warm (``solve_lp(lp, warm=result)``): only the new rows
are added and the objective replaced, and HiGHS starts from the optimal
basis already on the handle.  That basis stays primal feasible when the
new rows hold at the old optimum -- a row pinning the old objective to its
optimal value does -- and only the new objective makes it non-optimal, so
the warm solve runs the primal simplex.  The dual simplex, which suits a
cold solve, would first have to repair the dual infeasibility the new
objective causes.  No solve goes through
:func:`scipy.optimize.linprog`.  The handle is the private binding
``scipy.optimize._highspy._core._Highs`` (HiGHS 1.12.0 in scipy 1.17), on
which ``linprog`` and ``milp`` are built; a scipy without it fails at import.
HiGHS gets the model in ``linprog``'s form -- the ``<=`` rows (``>=`` rows
negated), then the ``=`` rows -- with ``linprog``'s options.

The configuration is fixed: no tolerance, gap or limit is settable.
Reported duals follow the convention ``dual = d(objective)/d(rhs)`` in the
problem's own optimization sense.
"""

from __future__ import annotations

import heapq
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.optimize._highspy._core import (HighsLp, HighsModelStatus,
                                           MatrixFormat, _Highs)

from .errors import ResourceLimitExceeded, SolveNumericalError

LE, EQ, GE = "<=", "=", ">="

ENGINE_ENV_VAR = "MAAS_MARKET_ENGINE"
DEFAULT_ENGINE = "bundled"

MIP_GAP = 1e-6         # absolute: a node is pruned unless it beats the incumbent by this
NODE_LIMIT = 200_000   # bundled branch-and-bound children before ResourceLimitExceeded

_LP_STATUS = {HighsModelStatus.kOptimal: "optimal",
              HighsModelStatus.kInfeasible: "infeasible",
              HighsModelStatus.kUnbounded: "unbounded"}


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
    # the solved HiGHS handle of an optimal LP, until a warm solve takes it
    handle: _Handle | None = field(default=None, repr=False, compare=False)


@dataclass
class _Handle:
    """A HiGHS handle holding an LP in ``_to_scipy`` form, and that form's
    map back to the LP: per handle row its LP row and sign flip."""

    highs: _Highs
    lp_rows: np.ndarray              # LP row index of each handle row
    flips: np.ndarray                # -1 where the handle negated a >= row
    sign: float                      # -1 when the LP maximizes
    rows: tuple = ()                 # the LP rows on the handle, in LP order
    shape: tuple = ()                # the LP's (num_vars, maximize, bounds)


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
    return sign * c, A_ub, np.array(b_ub, dtype=float), A_eq, \
        np.array(b_eq, dtype=float), map_ub, map_eq, sign


def _highs_handle(lp: LinearProgram, bounds) -> _Handle:
    """A HiGHS handle holding ``lp`` in ``_to_scipy`` form with column
    ``bounds`` (an (n, 2) array)."""
    c, A_ub, b_ub, A_eq, b_eq, map_ub, map_eq, sign = _to_scipy(lp)
    blocks = [A for A in (A_ub, A_eq) if A is not None]
    A = sp.vstack(blocks).tocsc() if blocks else sp.csc_matrix((0, lp.num_vars))
    model = HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = lp.num_vars
    model.num_row_ = model.a_matrix_.num_row_ = A.shape[0]
    model.col_cost_ = c
    model.col_lower_ = bounds[:, 0]
    model.col_upper_ = bounds[:, 1]
    model.row_lower_ = np.concatenate((np.full(len(b_ub), -np.inf), b_eq))
    model.row_upper_ = np.concatenate((b_ub, b_eq))
    model.a_matrix_.format_ = MatrixFormat.kColwise
    model.a_matrix_.start_ = A.indptr
    model.a_matrix_.index_ = A.indices
    model.a_matrix_.value_ = A.data
    highs = _Highs()
    highs.setOptionValue("simplex_strategy", 1)  # dual simplex, as linprog sets
    highs.setOptionValue("output_flag", False)
    highs.passModel(model)
    return _Handle(highs=highs,
                   lp_rows=np.array([k for k, _ in map_ub] + map_eq, dtype=int),
                   flips=np.array([f for _, f in map_ub] + [1.0] * len(map_eq)),
                   sign=sign)


def _run(highs) -> str:
    """Solve from the handle's current state: optimal, infeasible or unbounded."""
    highs.run()
    status = highs.getModelStatus()
    if status not in _LP_STATUS:
        raise SolveNumericalError(
            f"LP solve failed: {highs.modelStatusToString(status)}")
    return _LP_STATUS[status]


def _extend(lp: LinearProgram, warm: SolveResult) -> _Handle:
    """Take ``warm``'s handle and add the rows of ``lp`` past the solved
    ones, as given (no sign flip), with ``lp``'s objective in place of the
    old one."""
    handle = warm.handle
    if handle is None:
        raise ValueError("warm start needs an optimal LP result whose "
                         "handle no later solve has taken")
    solved = handle.rows
    if ((lp.num_vars, lp.maximize, lp.bounds) != handle.shape
            or len(lp.rows) < len(solved)
            or not all(a is b or a == b for a, b in zip(lp.rows, solved))):
        raise ValueError("warm start needs the same columns, sense and bounds, "
                         "and the solved rows as a prefix of the rows")
    warm.handle = None
    new = lp.rows[len(solved):]
    if new:
        lower = [row.rhs if row.sense != LE else -math.inf for row in new]
        upper = [row.rhs if row.sense != GE else math.inf for row in new]
        starts = np.cumsum([0] + [len(row.coeffs) for row in new[:-1]])
        indices = [idx for row in new for idx, _ in row.coeffs]
        values = [val for row in new for _, val in row.coeffs]
        handle.highs.addRows(len(new), np.array(lower), np.array(upper),
                             len(indices), starts.astype(np.int32),
                             np.array(indices, dtype=np.int32),
                             np.array(values, dtype=float))
        handle.lp_rows = np.concatenate(
            (handle.lp_rows, np.arange(len(solved), len(lp.rows))))
        handle.flips = np.concatenate((handle.flips, np.ones(len(new))))
    handle.highs.changeColsCost(
        lp.num_vars, np.arange(lp.num_vars, dtype=np.int32),
        handle.sign * np.asarray(lp.objective, dtype=float))
    handle.highs.setOptionValue("simplex_strategy", 4)  # primal simplex
    return handle


def solve_lp(lp: LinearProgram, warm: SolveResult | None = None) -> SolveResult:
    """Solve a pure LP to an optimal basic solution with row duals.

    ``warm``, an earlier optimal result of this function, hands its HiGHS
    handle to this solve: ``lp`` must have the same columns, sense and
    bounds, and the rows that result solved as a prefix of its own rows,
    else ``ValueError``.  Only the rows past that prefix are added and the
    objective replaced; the primal simplex re-solves from the handle's
    optimal basis.  A result can warm-start one later solve only.
    """
    if lp.num_vars == 0 and warm is None:
        return SolveResult(status="optimal", x=np.zeros(0), objective=0.0,
                           duals=np.zeros(len(lp.rows)))
    if warm is None:
        handle = _highs_handle(lp, np.array(lp.effective_bounds(), dtype=float))
    else:
        handle = _extend(lp, warm)
    highs = handle.highs
    status = _run(highs)
    if status != "optimal":
        return SolveResult(status=status)
    solution = highs.getSolution()
    duals = np.zeros(len(lp.rows))
    duals[handle.lp_rows] = handle.sign * handle.flips * np.asarray(solution.row_dual)
    handle.rows, handle.shape = tuple(lp.rows), (lp.num_vars, lp.maximize, lp.bounds)
    return SolveResult(status="optimal", x=np.array(solution.col_value),
                       objective=handle.sign * highs.getInfo().objective_function_value,
                       duals=duals, handle=handle)


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
    One HiGHS handle holds the model.  A node resets the bounds of every
    binary, fixing its branched ones, and re-solves from its parent's basis.
    """
    lp = mip.lp
    bounds = _binary_bounds(mip)
    binaries = sorted(mip.binary_vars)
    handle = _highs_handle(lp, bounds)
    highs, sign = handle.highs, handle.sign
    cols = np.array(binaries, dtype=np.int32)

    def solved():
        """The handle's optimum as (objective, x, basis)."""
        return (highs.getInfo().objective_function_value,
                np.array(highs.getSolution().col_value), highs.getBasis())

    def relax(fixings, basis):
        node = bounds.copy()
        for i, value in fixings.items():
            node[i] = value
        highs.changeColsBounds(len(cols), cols, node[cols, 0], node[cols, 1])
        highs.setBasis(basis)
        return solved() if _run(highs) == "optimal" else None

    counter = 0
    incumbent_x = None
    incumbent_val = math.inf  # minimization value
    status = _run(highs)
    if status != "optimal":
        return SolveResult(status=status)
    root_val, root_x, root_basis = solved()
    heap = [(root_val, counter, {}, root_x, root_basis)]
    while heap:
        node_bound, _, fixings, x, basis = heapq.heappop(heap)
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
            child = relax(child_fix, basis)
            if child is not None and child[0] < incumbent_val - MIP_GAP:
                heapq.heappush(heap, (child[0], counter, child_fix, *child[1:]))
    if incumbent_x is None:
        return SolveResult(status="infeasible")
    objective = float(np.dot(lp.objective, incumbent_x))
    return SolveResult(status="optimal", x=incumbent_x, objective=objective)
