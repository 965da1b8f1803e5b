"""Exact LP/MILP layer with dual extraction.

An LP keeps its rows as one block of CSR arrays (:class:`Rows`), a value
that is never written, from the model builders to HiGHS.  They come in only
through :meth:`LinearProgram.add_rows`, which checks every row of a block
and gives the LP a new ``Rows`` holding the old rows and the new, so LPs
may share one.  The handle builder reorders them into ``linprog``'s form
with numpy, and HiGHS takes them row by row through the array form of
``passModel`` and stores them by column itself: no model passes through
``scipy.sparse`` or per-coefficient Python.  Read as a sequence, the rows
are :class:`Row` values built from the arrays.  HiGHS rejects a row that
lists a column twice, and so does the solver, with ``ValueError``.

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
handle, and ``solve_lp(lp, warm=result)`` re-solves on it: it optimises
``lp.objective`` over the optimal face of ``result``, which complementary
slackness fixes by bounds alone (Bertsimas and Tsitsiklis, *Introduction
to Linear Optimization*, 1997, ch. 4), so no row is added.  The old optimum
lies on the face, so its basis stays primal feasible and only the new
objective makes it non-optimal: the warm solve runs the primal simplex.
The dual simplex, which suits a cold solve, would first have to repair the
dual infeasibility the new objective causes.  The handle is the private
binding ``scipy.optimize._highspy._core._Highs`` (HiGHS 1.12.0 in scipy
1.17), on which ``linprog`` is built; a scipy without it fails at import.
HiGHS gets the model in ``linprog``'s form (see :func:`_highs_handle`) with
``linprog``'s options.

A handle lives as long as the result that holds it.  Once dropped, it
leaves its HiGHS instance in a one-place idle slot if that is empty, and the
next handle takes the instance from there, clears its model (the options
stay) and sets the dual simplex again; only when the slot is empty does it
construct one, which costs much more than clearing it.  A
cleared instance solves like a new one, bit for bit.  The handle also keeps
the costs HiGHS holds and which columns and rows the face restrictions have
fixed, so a warm solve fixes only the columns and rows that are new to the
face and writes only the costs that differ.

The configuration is fixed: no tolerance, gap or limit is settable.
Reported duals follow the convention ``dual = d(objective)/d(rhs)`` in the
problem's own optimization sense.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize._highspy._core import (HighsModelStatus, HighsStatus,
                                           MatrixFormat, ObjSense, _Highs)

from .errors import ResourceLimitExceeded, SolveNumericalError

LE, EQ, GE = "<=", "=", ">="

MIP_GAP = 1e-6         # absolute: a node is pruned unless it beats the incumbent by this
NODE_LIMIT = 200_000   # branch-and-bound children before ResourceLimitExceeded
FACE_TOL = 1e-9        # a reduced cost or row dual above this (absolute) is nonzero
PRIMAL_TOL = 1e-7      # HiGHS's primal feasibility tolerance, for LPs it does not see

_LP_STATUS = {HighsModelStatus.kOptimal: "optimal",
              HighsModelStatus.kInfeasible: "infeasible",
              HighsModelStatus.kUnbounded: "unbounded"}


_SENSES = (LE, EQ, GE)  # a row's sense is stored as its index here
_LE, _EQ, _GE = range(3)
_CODES = {sense: code for code, sense in enumerate(_SENSES)}


def _sense_index(sense) -> int:
    if sense not in _SENSES:
        raise ValueError(f"unknown row sense {sense!r}")
    return _CODES[sense]


def _sense_codes(sense, count: int) -> np.ndarray:
    """The index of each of ``count`` rows' sense: ``sense`` is one sense for
    every row or a sequence of one per row."""
    if isinstance(sense, str):
        return np.full(count, _sense_index(sense), dtype=np.int8)
    codes = np.array([_sense_index(s) for s in sense], dtype=np.int8)
    if len(codes) != count:
        raise ValueError(f"{len(codes)} row senses for {count} rows")
    return codes


@dataclass(frozen=True)
class Row:
    coeffs: list[tuple[int, float]]
    sense: str
    rhs: float


class Rows(Sequence):
    """The rows of an LP as one block of CSR arrays, never written once built.

    Row ``k`` has the columns ``index[start[k]:start[k + 1]]``, the
    coefficients ``value`` at the same positions, the sense ``sense[k]`` (an
    index into ``(LE, EQ, GE)``) and the right-hand side ``rhs[k]``;
    :meth:`csr` returns these five arrays.  As a sequence the rows read as
    :class:`Row` values.  ``Rows()`` holds no rows, and
    :meth:`LinearProgram.add_rows` gives its LP a new ``Rows`` holding the
    old rows and the new, so LPs may share one.
    """

    def __init__(self):
        self._csr = (np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int32),
                     np.zeros(0), np.zeros(0, dtype=np.int8), np.zeros(0))

    def csr(self):
        """The arrays ``(start, index, value, sense, rhs)`` of every row."""
        return self._csr

    def __len__(self) -> int:
        return len(self._csr[4])

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        k = range(len(self))[k]  # IndexError past either end
        start, index, value, sense, rhs = self._csr
        a, b = start[k], start[k + 1]
        return Row(list(zip(index[a:b].tolist(), value[a:b].tolist())),
                   _SENSES[sense[k]], float(rhs[k]))


@dataclass
class LinearProgram:
    num_vars: int
    objective: list[float]
    maximize: bool = False
    # empty, or another LP's rows; added through add_rows
    rows: Rows = field(default_factory=Rows)
    # per-variable (lower, upper) numbers, +-inf for none; None: all (0, +inf)
    bounds: list[tuple[float, float]] | None = None

    def __post_init__(self):
        if not isinstance(self.rows, Rows):
            raise TypeError("rows must be a Rows; add rows through add_rows")

    def add_row(self, coeffs, sense, rhs) -> int:
        """Append the row ``sum(v * x[j] for j, v in coeffs) sense rhs``
        through :meth:`add_rows`; returns its index."""
        return self.add_rows([0, len(coeffs)], [j for j, _ in coeffs],
                             [v for _, v in coeffs], sense, [rhs])[0]

    def add_rows(self, start, index, value, sense, rhs) -> range:
        """Append rows in CSR form as one block: row ``k`` has the columns
        ``index[start[k]:start[k + 1]]``, the coefficients ``value`` at the
        same positions, the right-hand side ``rhs[k]`` and the sense
        ``sense``, or ``sense[k]`` when a sequence gives one per row.
        Returns the new rows' indices; ValueError, adding nothing, unless
        every column is in range, every coefficient and rhs finite and every
        sense one of ``LE``, ``EQ`` and ``GE``."""
        # copies: the rows keep these arrays, and the caller may reuse its own
        start, index = np.array(start, dtype=np.int64), np.asarray(index)
        value, rhs = np.array(value, dtype=float), np.array(rhs, dtype=float)
        if (any(a.ndim != 1 for a in (start, index, value, rhs))
                or len(start) != len(rhs) + 1 or start[0] != 0
                or start[-1] != len(index) or len(value) != len(index)
                or (start[1:] < start[:-1]).any()):
            raise ValueError("start, index, value and rhs do not form CSR rows")
        if index.size and (index.min() < 0 or index.max() >= self.num_vars):
            raise ValueError("column out of range")
        if not np.isfinite(value).all():
            raise ValueError("non-finite coefficient")
        if not np.isfinite(rhs).all():
            raise ValueError("non-finite rhs")
        block = (start, index.astype(np.int32), value, _sense_codes(sense, len(rhs)), rhs)
        first = len(self.rows)
        if first:  # the old rows, then the block
            old = self.rows.csr()
            block = (np.concatenate((old[0], start[1:] + old[0][-1])),
                     *(np.concatenate(pair) for pair in zip(old[1:], block[1:])))
        self.rows = Rows()
        self.rows._csr = block
        return range(first, len(self.rows))


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


# at most one HiGHS instance that no handle holds, for the next handle to take
_IDLE: list[_Highs] = []


@dataclass
class _Handle:
    """A HiGHS handle holding an LP in ``linprog``'s row form, and that
    form's map back to the LP: per handle row its LP row and sign flip.
    It also keeps what the face restrictions have changed so far.  Once
    dropped, it leaves its instance in the idle slot if that is empty."""

    highs: _Highs
    lp_rows: np.ndarray              # LP row index of each handle row
    flips: np.ndarray                # -1 where the handle negated a >= row
    upper: np.ndarray                # each handle row's upper bound, flips * rhs
    sign: float                      # -1 when the LP maximizes
    rows: Rows                       # the LP rows on the handle, in LP order
    shape: tuple                     # the LP's (num_vars, maximize, bounds)
    cost: np.ndarray                 # the costs HiGHS holds (it minimizes)
    fixed: np.ndarray                # columns a restriction fixed, by column
    equal: np.ndarray                # handle rows held as equalities: = rows, fixed binding rows

    def __del__(self):
        # at interpreter exit the module's globals may be None already
        if _IDLE == []:
            _IDLE.append(self.highs)


def _column_bounds(lp: LinearProgram) -> np.ndarray:
    """``lp.bounds`` as an (n, 2) array, (0, inf) per column when ``None``;
    ValueError unless they are one (lower, upper) pair of numbers per
    column."""
    if lp.bounds is None:
        return np.column_stack((np.zeros(lp.num_vars), np.full(lp.num_vars, np.inf)))
    try:
        bounds = np.array(lp.bounds, dtype=float)
    except (TypeError, ValueError):
        bounds = None
    if bounds is None or bounds.shape != (lp.num_vars, 2) or np.isnan(bounds).any():
        raise ValueError(f"bounds must be one (lower, upper) pair of numbers "
                         f"per column, {lp.num_vars} in all")
    return bounds


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
    start, index, value, sense, rhs = lp.rows.csr()
    objective = _objective(lp)
    eq = sense == _EQ
    order = np.argsort(eq, kind="stable")  # LP row per handle row
    flips = np.where(sense[order] == _GE, -1.0, 1.0)
    lengths = (start[1:] - start[:-1])[order]
    firsts = lengths.cumsum() - lengths  # each handle row's first entry
    at = np.arange(start[-1]) + np.repeat(start[order] - firsts, lengths)
    upper = flips * rhs[order]
    sign = -1.0 if lp.maximize else 1.0
    cost = sign * objective
    try:
        highs = _IDLE.pop()  # one step, so two threads never take one instance
    except IndexError:
        highs = _Highs()
        highs.setOptionValue("output_flag", False)
    else:
        highs.clearModel()  # keeps the options
    highs.setOptionValue("simplex_strategy", 1)  # dual simplex, as linprog sets
    # the array form of passModel, row by row: HiGHS stores the matrix by
    # column, each column's rows ascending, as scipy.sparse's CSC form has them
    status = highs.passModel(
        lp.num_vars, len(order), len(at), int(MatrixFormat.kRowwise),
        int(ObjSense.kMinimize), 0.0, cost,
        bounds[:, 0], bounds[:, 1], np.where(eq[order], upper, -np.inf), upper,
        firsts, index[at], np.repeat(flips, lengths) * value[at],
        np.zeros(lp.num_vars, dtype=np.int32))  # every column continuous
    if status == HighsStatus.kError:
        raise ValueError("HiGHS rejected the LP: a row lists a column twice "
                         "or one out of range, or a cost or bound is not valid")
    return _Handle(highs=highs, lp_rows=order, flips=flips, upper=upper, sign=sign,
                   rows=lp.rows, shape=(lp.num_vars, lp.maximize, lp.bounds),
                   cost=cost, fixed=np.zeros(lp.num_vars, dtype=bool), equal=eq[order])


def _objective(lp: LinearProgram) -> np.ndarray:
    """``lp.objective`` as an array.  HiGHS reads ``num_vars`` costs
    whatever the array's length, so any other length is a ValueError."""
    objective = np.asarray(lp.objective, dtype=float)
    if objective.shape != (lp.num_vars,):
        raise ValueError(f"{objective.size} objective entries for {lp.num_vars} columns")
    return objective


def _run(highs) -> str:
    """Solve from the handle's current state: optimal, infeasible or unbounded."""
    highs.run()
    status = highs.getModelStatus()
    if status not in _LP_STATUS:
        raise SolveNumericalError(
            f"LP solve failed: {highs.modelStatusToString(status)}")
    return _LP_STATUS[status]


def _restrict_to_face(lp: LinearProgram, warm: SolveResult) -> _Handle:
    """Take ``warm``'s handle, restrict it to the optimal face of the LP it
    solved and put ``lp``'s objective in place of the old one.

    A feasible point is on that face exactly when it keeps the value of each
    column whose reduced cost is nonzero and holds each row whose dual is
    nonzero with equality (the handle's inequality rows bind at their upper
    bound).  "Nonzero" is above ``FACE_TOL``: below HiGHS's dual feasibility
    tolerance (1e-7), so no dual the solver counts leaves its column or row
    free to trade away an earlier objective, and above the rounding left on
    zero duals.  1e-7 and 1e-11 gave the same answers.

    Only the columns and rows new to the face and the costs that changed
    reach HiGHS: a column fixed before and still of nonzero reduced cost is
    nonbasic, so it sits at its fixed value already.  Values and row duals
    come from ``warm``; only the reduced costs are read from HiGHS.
    """
    handle = warm.handle
    if handle is None:
        raise ValueError("warm start needs an optimal LP result whose "
                         "handle no later solve has taken")
    if ((lp.num_vars, lp.maximize, lp.bounds) != handle.shape
            or lp.rows is not handle.rows):
        raise ValueError("warm start needs the same columns, sense and bounds, "
                         "and the very rows that were solved")
    highs = handle.highs
    reduced = np.abs(highs.getSolution().col_dual) > FACE_TOL
    cols = np.flatnonzero(reduced & ~handle.fixed).astype(np.int32)
    value = warm.x[cols]
    highs.changeColsBounds(len(cols), cols, value, value)
    handle.fixed[cols] = True
    binding = np.abs(warm.duals[handle.lp_rows]) > FACE_TOL
    rows = np.flatnonzero(binding & ~handle.equal)
    for k, bound in zip(rows.tolist(), handle.upper[rows].tolist()):
        highs.changeRowBounds(k, bound, bound)
    handle.equal[rows] = True
    warm.handle = None
    cost = handle.sign * _objective(lp)
    moved = np.flatnonzero(cost != handle.cost).astype(np.int32)
    highs.changeColsCost(len(moved), moved, cost[moved])
    handle.cost = cost
    highs.setOptionValue("simplex_strategy", 4)  # primal simplex
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
    handle to this solve, which optimises ``lp.objective`` over the optimal
    face of that result with the primal simplex, from the handle's basis.
    ``lp`` must have the same columns, sense and bounds and the very rows
    that result solved (the same :class:`Rows` object: adding rows gives an
    LP a new one), else ``ValueError``.  The duals are those of the LP
    restricted to the face.  A result can warm-start one later solve only.
    """
    if lp.num_vars == 0 and warm is None:
        # HiGHS rejects a model without columns.  Each row reads 0 sense rhs,
        # which a <= row misses by -rhs, a >= row by rhs and an = row by |rhs|
        sense, rhs = lp.rows.csr()[3:]
        miss = np.where(sense == _EQ, np.abs(rhs), np.where(sense == _LE, -rhs, rhs))
        if (miss > PRIMAL_TOL).any():
            return SolveResult(status="infeasible")
        return SolveResult(status="optimal", x=np.zeros(0), objective=0.0,
                           duals=np.zeros(len(lp.rows)))
    handle = (_highs_handle(lp, _column_bounds(lp)) if warm is None
              else _restrict_to_face(lp, warm))
    highs = handle.highs
    status = _run(highs)
    if status != "optimal":
        return SolveResult(status=status)
    solution = highs.getSolution()
    duals = _row_duals(handle, solution, len(lp.rows))
    return SolveResult(status="optimal", x=np.array(solution.col_value),
                       objective=handle.sign * highs.getObjectiveValue(),
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
    bounds = _column_bounds(lp)
    bounds[binaries, 0] = np.maximum(bounds[binaries, 0], 0.0)
    bounds[binaries, 1] = np.minimum(bounds[binaries, 1], 1.0)
    handle = _highs_handle(lp, bounds)
    highs, sign = handle.highs, handle.sign
    cols = np.array(binaries, dtype=np.int32)

    def solved():
        """The handle's optimum as (objective, x, basis)."""
        return (highs.getObjectiveValue(),
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
