"""Exact rational linear programming by two-phase primal simplex.

The tableau is kept fraction-free: an integer matrix M plus one positive
integer denominator q represent the real tableau M/q.  A pivot replaces q
by the pivot entry and updates every other row with

    M'[i][j] = (M[i][j] * M[pr][pc] - M[i][pc] * M[pr][j]) // q

where the division is exact (tableau entries are scaled basis minors), so
no gcd work happens in the inner loop and Python's big integers carry the
growth.  Entering columns follow Bland's rule (smallest index with a
negative reduced cost) and ties in the ratio test leave the basic variable
with the smallest index, which rules out cycling.

Free variables are split into differences of two non-negative columns;
non-zero lower bounds are shifted away.  Infeasibility and unboundedness
are reported as statuses, never exceptions.  Every optimal solution is
re-substituted into the original constraints before it is returned.

Each integer row is built straight from its constraint's sparse
coefficient dict, scaled by the lcm of the row's denominators.  Artificial
columns are implicit: they never enter, and a pivot updates each column
from that column, the pivot column and the pivot row alone, so leaving
them out changes no other entry.  The basis keeps every column's original
number, artificials included, because the ratio-test tie-break compares
those numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .pbf import format_rational, rat

LESS, GREATER, EQUAL = "<=", ">=", "=="

OPTIMAL, INFEASIBLE, UNBOUNDED = "optimal", "infeasible", "unbounded"

_FLIPPED = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL}


class LpInternalError(RuntimeError):
    """A solved point failed exact re-validation; indicates a solver bug."""


@dataclass(frozen=True)
class Constraint:
    coeffs: dict[str, Fraction]
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
        self.objective: dict[str, Fraction] = {}

    def add_variable(self, name: str, lower: object = 0) -> str:
        if name in self._lower:
            raise ValueError(f"variable {name!r} already declared")
        self._order.append(name)
        self._lower[name] = None if lower is None else rat(lower)
        return name

    @property
    def variables(self) -> list[str]:
        return list(self._order)

    def _nonzero(self, coeffs: dict[str, object]) -> dict[str, Fraction]:
        """The nonzero coefficients, each coerced once, over declared names."""
        cl = {}
        for name, c in coeffs.items():
            c = rat(c)
            if c != 0:
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


def _pivot(rows: list[list[int]], q: int, pr: int, pc: int) -> int:
    prow = rows[pr]
    piv = prow[pc]
    for i in range(len(rows)):
        if i == pr:
            continue
        row = rows[i]
        f = row[pc]
        if f:
            rows[i] = [(v * piv - f * p) // q for v, p in zip(row, prow)]
        elif piv != q:
            rows[i] = [v * piv // q for v in row]
    if piv < 0:
        for i in range(len(rows)):
            rows[i] = [-v for v in rows[i]]
        piv = -piv
    return piv


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

    def fill(row: list[int], coeffs: dict[str, Fraction], scale: int, sign: int = 1) -> None:
        for name, c in coeffs.items():
            v = sign * c.numerator * (scale // c.denominator)
            for idx, s in columns[name]:
                row[idx] = s * v

    # Standard form with rhs >= 0: a row with a negative rhs is negated and
    # its relation flipped.  A <= row gets a slack basic, a >= row a surplus
    # column and an artificial basic, an == row an artificial basic; the
    # phase-1 row is minus the sum of the artificial rows.  Basis entries are
    # original column numbers; orig_of_pos maps a stored column to its own.
    width = ncols + sum(con.rel != EQUAL for con in lp.constraints) + 1
    orig_of_pos = list(range(ncols))
    rows: list[list[int]] = []
    basis: list[int] = []
    p1 = [0] * width
    label = ncols
    for con in lp.constraints:
        rhs = con.rhs - sum((c * shift[n] for n, c in con.coeffs.items() if n in shift), Fraction(0))
        sign = -1 if rhs < 0 else 1
        rel = con.rel if sign > 0 else _FLIPPED[con.rel]
        scale = lcm(rhs.denominator, *(c.denominator for c in con.coeffs.values()))
        row = [0] * width
        fill(row, con.coeffs, scale, sign)
        row[-1] = sign * rhs.numerator * (scale // rhs.denominator)
        if rel != EQUAL:
            row[len(orig_of_pos)] = scale if rel == LESS else -scale
            orig_of_pos.append(label)
            label += 1
        if rel == LESS:
            basis.append(orig_of_pos[-1])
        else:  # the implicit artificial, numbered where it would sit
            basis.append(label)
            label += 1
            p1 = [a - b for a, b in zip(p1, row)]
        rows.append(row)
    pos_of = {o: p for p, o in enumerate(orig_of_pos)}

    # Objective rows ride along at the bottom: phase 2 first, then phase 1.
    p2 = [0] * width
    fill(p2, lp.objective, lcm(*(c.denominator for c in lp.objective.values())))
    nrows = len(rows)
    rows += [p2, p1]
    q = 1
    P2, P1 = nrows, nrows + 1

    def run_phase(obj_idx: int) -> str:
        nonlocal q
        while True:
            orow = rows[obj_idx]
            enter = -1
            for j in range(width - 1):
                if orow[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            leave = -1
            best_num = best_den = None
            for r in range(nrows):
                a = rows[r][enter]
                if a > 0:
                    b = rows[r][-1]
                    if leave < 0 or b * best_den < best_num * a or (
                        b * best_den == best_num * a and basis[r] < basis[leave]
                    ):
                        leave, best_num, best_den = r, b, a
            if leave < 0:
                return UNBOUNDED
            q = _pivot(rows, q, leave, enter)
            basis[leave] = orig_of_pos[enter]

    status = run_phase(P1)
    if status != OPTIMAL or rows[P1][-1] != 0:
        return LpSolution(INFEASIBLE, {}, None)

    # Drive leftover artificial basics out on any nonzero stored entry;
    # rows that cannot pivot are redundant and harmless to keep (their rhs
    # is zero), but dropping keeps later ratio tests cheap.
    drop = []
    for r in range(nrows):
        if basis[r] not in pos_of:
            pc = next((j for j in range(width - 1) if rows[r][j] != 0), None)
            if pc is None:
                drop.append(r)
            else:
                q = _pivot(rows, q, r, pc)
                basis[r] = orig_of_pos[pc]
    if drop:
        for r in reversed(drop):
            del rows[r]
            del basis[r]
        nrows -= len(drop)
        P2, P1 = nrows, nrows + 1

    status = run_phase(P2)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, {}, None)

    # A basic variable's value is rhs over its own diagonal entry; initial
    # slack basics keep their build-time row scale there, while pivoted-in
    # columns carry q, so dividing by the diagonal covers both.
    col_value = [Fraction(0)] * ncols
    for r in range(nrows):
        pos = pos_of[basis[r]]
        if pos < ncols:
            col_value[pos] = Fraction(rows[r][-1], rows[r][pos])
    values = {}
    for name in lp.variables:
        v = sum((col_value[idx] * s for idx, s in columns[name]), Fraction(0))
        values[name] = v + shift.get(name, 0)
    objective_value = sum(
        (c * values[n] for n, c in lp.objective.items()), Fraction(0)
    )

    for con in lp.constraints:
        lhs = sum((c * values[n] for n, c in con.coeffs.items()), Fraction(0))
        ok = lhs <= con.rhs if con.rel == LESS else lhs >= con.rhs if con.rel == GREATER else lhs == con.rhs
        if not ok:
            raise LpInternalError(f"solution violates {con.coeffs} {con.rel} {con.rhs}")
    for name in lp.variables:
        lb = lp._lower[name]
        if lb is not None and values[name] < lb:
            raise LpInternalError(f"solution violates bound on {name}")

    return LpSolution(OPTIMAL, values, objective_value)
