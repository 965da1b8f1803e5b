"""Exact LP/MILP layer with dual extraction.

Mixed-integer programs are solved by a deterministic branch-and-bound over
the binary variables with LP-relaxation bounds (Land and Doig, 1960):
best-bound node order, most-fractional branching, ties broken by lowest
variable index.  It passes its model to one HiGHS handle once per solve.
Each node changes only the bounds of the binaries, restores its parent's
simplex basis and re-solves with the dual simplex from there.  It proves
optimality to the absolute gap ``MIP_GAP`` and gives up with
:class:`ResourceLimitExceeded` after ``NODE_LIMIT`` nodes.  A caller that
can prove binaries fixed may pass a root hook: given the root LP's columns
and row duals, it returns binaries whose value every optimum shares, and the
search fixes them at every node after one warm re-solve of the root.  That
is exact as long as the hook's proof is: a fixing only removes solutions
that no optimum is among.  The matching's hook fixes a link open when a
Lagrangian bound on closing it exceeds a known solution's cost by
1e-6 max(1, |cost|), a relative margin at least ``MIP_GAP`` (see
:mod:`maas_market.matching`).

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
objective causes.  The handle is the private binding
``scipy.optimize._highspy._core._Highs`` (HiGHS 1.12.0 in scipy 1.17), on
which ``linprog`` is built; a scipy without it fails at import.  HiGHS gets
the model in ``linprog``'s form (see :func:`_highs_handle`) with
``linprog``'s options.

The configuration is fixed: no tolerance, gap or limit is settable.
Reported duals follow the convention ``dual = d(objective)/d(rhs)`` in the
problem's own optimization sense.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize._highspy._core import (HighsLp, HighsModelStatus,
                                           MatrixFormat, _Highs)

from .errors import ResourceLimitExceeded, SolveNumericalError

LE, EQ, GE = "<=", "=", ">="

MIP_GAP = 1e-6         # absolute: a node is pruned unless it beats the incumbent by this
NODE_LIMIT = 200_000   # branch-and-bound children before ResourceLimitExceeded

_LP_STATUS = {HighsModelStatus.kOptimal: "optimal",
              HighsModelStatus.kInfeasible: "infeasible",
              HighsModelStatus.kUnbounded: "unbounded"}


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
    """A HiGHS handle holding an LP in ``linprog``'s row form, and that
    form's map back to the LP: per handle row its LP row and sign flip."""

    highs: _Highs
    lp_rows: np.ndarray              # LP row index of each handle row
    flips: np.ndarray                # -1 where the handle negated a >= row
    sign: float                      # -1 when the LP maximizes
    rows: tuple = ()                 # the LP rows on the handle, in LP order
    shape: tuple = ()                # the LP's (num_vars, maximize, bounds)


def _highs_handle(lp: LinearProgram, bounds) -> _Handle:
    """A HiGHS handle holding ``lp`` with column ``bounds`` (an (n, 2) array).

    The handle's rows are in ``linprog``'s form: the ``<=`` rows and the
    negated ``>=`` rows, each as ``row <= rhs`` and in LP order, then the
    ``=`` rows.  Keep that form.  Row order and negation decide which of
    several optimal vertices HiGHS returns, and so the activations, the path
    decomposition and the prices downstream.  Passing the rows as ranged rows
    in LP order instead changed answers on 99 of 303 instances (fig5, Sioux
    Falls at 10/3 with and without its 0.6x capacity cut, and
    ``random_instance(0..299)``): mostly tied prices, the decomposition paths
    on the cut, and on ``random_instance(275)`` the buyer objective, from
    47.659 to 45.961.
    """
    ineq = [k for k, row in enumerate(lp.rows) if row.sense != EQ]
    eq = [k for k, row in enumerate(lp.rows) if row.sense == EQ]
    rows = [lp.rows[k] for k in ineq + eq]
    flips = np.array([-1.0 if row.sense == GE else 1.0 for row in rows])
    rhs = flips * np.array([row.rhs for row in rows], dtype=float)
    lengths = [len(row.coeffs) for row in rows]
    values = np.array([val for row in rows for _, val in row.coeffs], dtype=float)
    A = sp.csc_matrix(
        (np.repeat(flips, lengths) * values,
         (np.repeat(np.arange(len(rows)), lengths),
          np.array([idx for row in rows for idx, _ in row.coeffs], dtype=int))),
        shape=(len(rows), lp.num_vars))
    model = HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = lp.num_vars
    model.num_row_ = model.a_matrix_.num_row_ = len(rows)
    sign = -1.0 if lp.maximize else 1.0
    model.col_cost_ = sign * np.asarray(lp.objective, dtype=float)
    model.col_lower_ = bounds[:, 0]
    model.col_upper_ = bounds[:, 1]
    model.row_lower_ = np.concatenate((np.full(len(ineq), -np.inf), rhs[len(ineq):]))
    model.row_upper_ = rhs
    model.a_matrix_.format_ = MatrixFormat.kColwise
    model.a_matrix_.start_ = A.indptr
    model.a_matrix_.index_ = A.indices
    model.a_matrix_.value_ = A.data
    highs = _Highs()
    highs.setOptionValue("simplex_strategy", 1)  # dual simplex, as linprog sets
    highs.setOptionValue("output_flag", False)
    highs.passModel(model)
    return _Handle(highs=highs, lp_rows=np.array(ineq + eq, dtype=int),
                   flips=flips, sign=sign)


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


def _row_duals(handle: _Handle, solution, num_rows: int) -> np.ndarray:
    """The row duals of ``solution``, the handle's optimum, as
    d(objective)/d(rhs) per LP row."""
    duals = np.zeros(num_rows)
    duals[handle.lp_rows] = handle.sign * handle.flips * np.asarray(solution.row_dual)
    return duals


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
    duals = _row_duals(handle, solution, len(lp.rows))
    handle.rows, handle.shape = tuple(lp.rows), (lp.num_vars, lp.maximize, lp.bounds)
    return SolveResult(status="optimal", x=np.array(solution.col_value),
                       objective=handle.sign * highs.getInfo().objective_function_value,
                       duals=duals, handle=handle)


def solve_milp(mip: MixedIntegerProgram, root_fixings=None) -> SolveResult:
    """Solve a MILP to proven optimality within the absolute gap ``MIP_GAP``.

    Branch-and-bound on the binaries, each clamped to [0, 1], with
    LP-relaxation bounds.  Internally minimizes; deterministic: best-bound
    node order with FIFO tie-break, branch on the binary closest to 1/2, ties
    to the lowest index.  One HiGHS handle holds the model.  A node resets
    the bounds of every binary, fixing its branched ones, and re-solves from
    its parent's basis.

    ``root_fixings(x, duals) -> {column: value}`` (private to this package)
    is called once, when the root relaxation is optimal with a fractional
    binary, with the root's columns and its row duals as :func:`solve_lp`
    gives them.  It must return only binaries whose value every optimum
    shares: the root re-solves warm with them fixed, and every node keeps
    them.
    """
    if not mip.binary_vars:
        return solve_lp(mip.lp)
    lp = mip.lp
    binaries = sorted(mip.binary_vars)
    bounds = np.array(lp.effective_bounds(), dtype=float)
    bounds[binaries, 0] = np.maximum(bounds[binaries, 0], 0.0)
    bounds[binaries, 1] = np.minimum(bounds[binaries, 1], 1.0)
    handle = _highs_handle(lp, bounds)
    highs, sign = handle.highs, handle.sign
    cols = np.array(binaries, dtype=np.int32)

    def solved():
        """The handle's optimum as (objective, x, basis)."""
        return (highs.getInfo().objective_function_value,
                np.array(highs.getSolution().col_value), highs.getBasis())

    def relax(fixings, basis=None):
        """Re-solve with ``fixings``, from ``basis`` or the handle's own."""
        node = bounds.copy()
        for i, value in fixings.items():
            node[i] = value
        highs.changeColsBounds(len(cols), cols, node[cols, 0], node[cols, 1])
        if basis is not None:
            highs.setBasis(basis)
        return solved() if _run(highs) == "optimal" else None

    def most_fractional(x):
        frac_i, frac_dist = -1, -1.0
        for i in binaries:
            if abs(x[i] - round(x[i])) <= 1e-9:
                continue
            dist = 0.5 - abs(x[i] - 0.5)
            if dist > frac_dist + 1e-9:
                frac_i, frac_dist = i, dist
        return frac_i

    counter = 0
    incumbent_x = None
    incumbent_val = math.inf  # minimization value
    status = _run(highs)
    if status != "optimal":
        return SolveResult(status=status)
    root = solved()
    root_fix = {}
    if root_fixings is not None and most_fractional(root[1]) >= 0:
        duals = _row_duals(handle, highs.getSolution(), len(lp.rows))
        root_fix = root_fixings(root[1], duals)
        if root_fix:
            root = relax(root_fix)
    heap = [(root[0], counter, root_fix, *root[1:])] if root is not None else []
    while heap:
        node_bound, _, fixings, x, basis = heapq.heappop(heap)
        if node_bound >= incumbent_val - MIP_GAP:
            break  # best-bound order: nothing left can improve
        frac_i = most_fractional(x)
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
                    "branch-and-bound node cap exceeded",
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
