"""Exact rational linear programming by two-phase primal simplex.

Coefficients are kept as given when they are ints and coerced to Fraction
otherwise (strings like '3/4' included), once, when a constraint or the
objective is added; the solver reads numerator and denominator of either.

The tableau is sparse and integer: each row (the two objective rows too)
is a dict of its nonzero entries keyed by original column number, with the
right-hand side under the key _RHS, and stands for the real tableau row
times a positive scale of its own.  Each row is built straight from its
constraint's coefficient dict, scaled by the lcm of the row's
denominators.  A pivot on (pr, pc) first divides the pivot row prow by
the gcd of its entries, negated when prow[pc] < 0 (only when an
artificial is driven out: both phases pivot on positive entries), so
piv = prow[pc] is positive and as small as the row allows.  Every other
row with f = row[pc] != 0 becomes

    a * row - (f / g) * prow,   g = gcd(piv, f),  a = piv / g,

in place: the entry in column pc, which always cancels, is deleted first,
entries that reach zero are deleted, and rows with no entry in column pc
are not touched.  When piv = 1, as on most pivots, this is row - f * prow
with no gcd at all.  Only a row multiplied by some a != 1 is divided
afterwards by the gcd of its entries.  With a = 1 the row keeps its scale
exactly (row - (f / piv) * prow is the same scale times the new real
row), so its scale does not grow, but it may carry a common factor until
it is next the pivot row.  That moves no decision, which reads signs and
ratios within a row alone; over the benchmark-sized and golden programs
in the tests no entry needs more than 10 bits.  The tableau's dicts are the solver's own; a constraint's
coefficient dict is only read, so programs may share rows.

Every decision therefore reads the same as on the real tableau: the sign
of each entry, each ratio rhs/a within a row and each rhs/diagonal.
Entering columns follow Bland's rule (smallest column number with a
negative reduced cost), ties in the ratio test leave the basic variable
with the smallest column number, which rules out cycling, an artificial
is driven out on its row's first nonzero, and rows left all zero are
dropped.  The exception is the phase-1 row, minus the sum of the
artificial rows at their scales: it weights each artificial by its row's
scale, so the vertex phase 1 reaches, and with it the optimal vertex
returned, can move when the scales do (doubling a rhs of 5/2, say).

Artificial columns are implicit: they never enter, and a pivot updates
each column from that column, the pivot column and the pivot row alone,
so leaving them out changes no other entry beyond its row's scale.  Each
still takes the column number it would have, which the ratio-test
tie-break compares, and a set marks those numbers.

Free variables are split into differences of two non-negative columns;
non-zero lower bounds are shifted away.  Infeasibility and unboundedness
are reported as statuses, never exceptions.  Every optimal solution is
re-substituted into the original constraints before it is returned, in
integers: the values are scaled once by the lcm D of their denominators,
and each row's lhs at the scaled point, times the denominator of its rhs,
is compared exactly with the rhs numerator times D.  Every constraint and
every lower bound is checked, and a violation raises LpInternalError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .pbf import InvariantError, format_rational, rat

LESS, GREATER, EQUAL = "<=", ">=", "=="

OPTIMAL, INFEASIBLE, UNBOUNDED = "optimal", "infeasible", "unbounded"

_FLIPPED = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL}

_RHS = -1  # key of the right-hand side in every tableau row


class LpInternalError(InvariantError):
    """A solved point failed exact re-validation, or a program's answer is
    not what its rows promise; indicates a solver or builder bug."""


@dataclass(frozen=True)
class Constraint:
    coeffs: dict[str, int | Fraction]
    rel: str
    rhs: Fraction


@dataclass(frozen=True)
class LpSolution:
    status: str
    values: dict[str, Fraction]
    objective_value: Fraction | None


class LinearProgram:
    """Named-variable minimization program with exact rational data."""

    def __init__(self):
        self._order: list[str] = []
        self._lower: dict[str, Fraction | None] = {}
        self.constraints: list[Constraint] = []
        self.objective: dict[str, int | Fraction] = {}

    def add_variable(self, name: str, lower: object = 0) -> str:
        if name in self._lower:
            raise ValueError(f"variable {name!r} already declared")
        self._order.append(name)
        self._lower[name] = None if lower is None else rat(lower)
        return name

    @property
    def variables(self) -> list[str]:
        return list(self._order)

    def _nonzero(self, coeffs: dict[str, object]) -> dict[str, int | Fraction]:
        """The nonzero coefficients over declared names; ints stay ints,
        anything else is coerced to Fraction once."""
        cl = {}
        for name, c in coeffs.items():
            if type(c) is not int:
                c = rat(c)
            if c:
                if name not in self._lower:
                    raise ValueError(f"unknown variable {name!r}")
                cl[name] = c
        return cl

    def add_constraint(self, coeffs: dict[str, object], rel: str, rhs: object):
        if rel not in (LESS, GREATER, EQUAL):
            raise ValueError(f"bad relation {rel!r}")
        self.constraints.append(Constraint(self._nonzero(coeffs), rel, rat(rhs)))

    def set_objective(self, coeffs: dict[str, object]):
        self.objective = self._nonzero(coeffs)

    def copy(self) -> LinearProgram:
        """The same variables, rows and objective in containers of its own;
        the rows themselves are shared, as solve only reads them."""
        lp = LinearProgram()
        lp._order, lp._lower = list(self._order), dict(self._lower)
        lp.constraints, lp.objective = list(self.constraints), dict(self.objective)
        return lp

    def dump(self) -> str:
        """Plain-text form, one constraint per line, for debugging."""

        def form(coeffs):
            parts = [f"{format_rational(c)}*{n}" for n, c in sorted(coeffs.items())]
            return " + ".join(parts) if parts else "0"

        lines = [f"min {form(self.objective)}"]
        for con in self.constraints:
            lines.append(f"{form(con.coeffs)} {con.rel} {format_rational(con.rhs)}")
        for name in self._order:
            lb = self._lower[name]
            lines.append(f"{name} free" if lb is None else f"{name} >= {format_rational(lb)}")
        return "\n".join(lines) + "\n"


def _pivot(rows: list[dict[int, int]], pr: int, pc: int) -> None:
    """Pivot on (pr, pc) in place, as the module docstring describes."""
    prow = rows[pr]
    g = gcd(*prow.values())
    if prow[pc] < 0:
        g = -g
    if g != 1:
        for j in prow:
            prow[j] //= g
    piv = prow[pc]
    pitems = [(j, p) for j, p in prow.items() if j != pc]
    for row in rows:
        if row is prow:
            continue
        f = row.pop(pc, None)  # the pivot column always cancels
        if f is None:
            continue
        a = 1
        if piv != 1:
            g = gcd(piv, f)
            a, f = piv // g, f // g
            if a != 1:
                for j in row:
                    row[j] *= a
        for j, p in pitems:
            v = row.get(j, 0) - f * p
            if v:
                row[j] = v
            else:
                del row[j]
        if a != 1:
            g = gcd(*row.values())
            if g > 1:
                for j in row:
                    row[j] //= g


def solve(lp: LinearProgram) -> LpSolution:
    """Exact simplex solve; statuses are optimal/infeasible/unbounded."""
    # Structural columns: one per non-negative variable, two per free
    # variable (positive and negative part).  Lower bounds are shifted out.
    columns: dict[str, list[tuple[int, int]]] = {}
    shift: dict[str, Fraction] = {}
    ncols = 0
    for name in lp.variables:
        lb = lp._lower[name]
        columns[name] = [(ncols, 1)] if lb is not None else [(ncols, 1), (ncols + 1, -1)]
        ncols += len(columns[name])
        if lb:
            shift[name] = lb

    def sparse_row(coeffs: dict[str, int | Fraction], scale: int, sign: int = 1) -> dict[int, int]:
        row = {}
        for name, c in coeffs.items():
            v = sign * c.numerator * (scale // c.denominator)
            for idx, s in columns[name]:
                row[idx] = s * v
        return row

    # Standard form with rhs >= 0: a row with a negative rhs is negated and
    # its relation flipped.  A <= row gets a slack basic, a >= row a surplus
    # column and an artificial basic, an == row an artificial basic; the
    # phase-1 row is minus the sum of the artificial rows.  Every column
    # keeps its original number, artificials included.
    rows: list[dict[int, int]] = []
    basis: list[int] = []
    artificial: set[int] = set()
    p1: dict[int, int] = {}
    label = ncols
    for con in lp.constraints:
        rhs = con.rhs
        if shift:
            rhs -= sum((c * shift[n] for n, c in con.coeffs.items() if n in shift), Fraction(0))
        sign = -1 if rhs < 0 else 1
        rel = con.rel if sign > 0 else _FLIPPED[con.rel]
        # Star-arguments from a list, not a generator, here and below: CPython
        # sizes a generator's tuple by a guess and resizes it, and the freed
        # tuple then sits in the free list of its final size (up to 2000 per
        # size), which showed as peak-RSS growth over thousands of solves.
        scale = lcm(rhs.denominator, *[c.denominator for c in con.coeffs.values()])
        row = sparse_row(con.coeffs, scale, sign)
        if rhs:
            row[_RHS] = sign * rhs.numerator * (scale // rhs.denominator)
        if rel != EQUAL:
            row[label] = scale if rel == LESS else -scale
            label += 1
        if rel == LESS:
            basis.append(label - 1)
        else:  # the implicit artificial, numbered where it would sit
            basis.append(label)
            artificial.add(label)
            label += 1
            for j, v in row.items():
                w = p1.get(j, 0) - v
                if w:
                    p1[j] = w
                else:
                    del p1[j]
        rows.append(row)

    # Objective rows ride along at the bottom: phase 2 first, then phase 1.
    nrows = len(rows)
    rows += [sparse_row(lp.objective, lcm(*[c.denominator for c in lp.objective.values()])), p1]

    def run_phase(obj_idx: int) -> str:
        while True:
            enter = min((j for j, v in rows[obj_idx].items() if v < 0 and j != _RHS), default=-1)
            if enter < 0:
                return OPTIMAL
            leave = -1
            best_num = best_den = None
            for r in range(nrows):
                a = rows[r].get(enter, 0)
                if a > 0:
                    b = rows[r].get(_RHS, 0)
                    if leave < 0 or b * best_den < best_num * a or (
                        b * best_den == best_num * a and basis[r] < basis[leave]
                    ):
                        leave, best_num, best_den = r, b, a
            if leave < 0:
                return UNBOUNDED
            _pivot(rows, leave, enter)
            basis[leave] = enter

    status = run_phase(nrows + 1)
    if status != OPTIMAL or _RHS in rows[-1]:
        return LpSolution(INFEASIBLE, {}, None)
    rows.pop()  # the phase-1 row has done its work

    # Drive leftover artificial basics out on their row's first nonzero
    # entry; rows that cannot pivot are redundant and harmless to keep
    # (their rhs is zero), but dropping keeps later ratio tests cheap.
    drop = []
    for r in range(nrows):
        if basis[r] in artificial:
            pc = min((j for j in rows[r] if j != _RHS), default=None)
            if pc is None:
                drop.append(r)
            else:
                _pivot(rows, r, pc)
                basis[r] = pc
    for r in reversed(drop):
        del rows[r]
        del basis[r]
    nrows -= len(drop)

    status = run_phase(nrows)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, {}, None)

    # A basic variable's value is rhs over its own diagonal entry, which
    # carries the row's scale; only nonzero values are kept and summed.
    col_value: dict[int, Fraction] = {}
    for r in range(nrows):
        col = basis[r]
        if col < ncols and _RHS in rows[r]:
            col_value[col] = Fraction(rows[r][_RHS], rows[r][col])
    values = {}
    for name in lp.variables:
        v = shift.get(name, Fraction(0))
        for idx, s in columns[name]:
            if idx in col_value:
                v += s * col_value[idx]
        values[name] = v
    # Re-validate in integers, at the values times their common denominator.
    scale = lcm(*[v.denominator for v in values.values()])
    scaled = {n: v.numerator * (scale // v.denominator) for n, v in values.items() if v}

    def lhs(coeffs: dict[str, int | Fraction]) -> int | Fraction:
        return sum(c * scaled[n] for n, c in coeffs.items() if n in scaled)

    for con in lp.constraints:
        left, right = lhs(con.coeffs) * con.rhs.denominator, con.rhs.numerator * scale
        ok = left <= right if con.rel == LESS else left >= right if con.rel == GREATER else left == right
        if not ok:
            raise LpInternalError(f"solution violates {con.coeffs} {con.rel} {con.rhs}")
    for name in lp.variables:
        lb = lp._lower[name]
        if lb is not None and values[name] < lb:
            raise LpInternalError(f"solution violates bound on {name}")

    return LpSolution(OPTIMAL, values, Fraction(lhs(lp.objective), scale))
