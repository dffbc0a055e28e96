"""Nearest submodular quadratic with prescribed auxiliary-variable behavior.

Given a target pseudo-Boolean function g on k variables and a set of
monotone tables m_1..m_M, one auxiliary variable is created per table and
a single linear program searches over all edge capacities of the joint
(k + M)-node form:

  * capacity variables reproduce every arc of the capacity form: source,
    sink and ordered-pair arcs on the originals, the auxiliaries, and the
    original-to-auxiliary couplings;
  * for each of the 2^k labelings x a small max-flow block (flow variable
    per auxiliary-network arc plus one source-throughput variable) whose
    feasibility bounds the throughput by the cheapest auxiliary cut, and a
    tightness row forcing the cut selected by z = m(x) under that bound;
    together these pin min over z at exactly the prescribed states, for
    every feasible point, not just at optimality;
  * a pair of slack rows per labeling measures |g(x) - h(x, m(x))| and the
    objective minimizes their sum, i.e. the L1 distance.

Distance zero therefore certifies an exact reduction, and the reported
per-labeling gaps are always recomputed by the brute-force oracle rather
than read from the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from math import lcm

from . import lpsolver
from .mbf import MbfTable, is_monotone
from .oracle import ReductionResult, verify_reduction
from .pbf import CapacityForm, MultilinearPoly, from_capacity_form

PROGRESSIVE_THRESHOLD = 6

# Largest program build_reduction_lp will build.  Every k <= 3 table set
# fits (at most 2156 columns) and k = 4 with the two threshold tables
# needs 140; the pruned k = 4 set (162 tables) would need about 228k.
MAX_COLUMNS = 2500


@dataclass(frozen=True)
class ReductionProblem:
    """Target polynomial plus the monotone tables its auxiliaries must follow."""

    target: MultilinearPoly
    mbf_set: tuple[MbfTable, ...]

    def __post_init__(self):
        k = self.target.n_vars
        columns = _column_count(k, 0)
        if columns > MAX_COLUMNS:
            raise ValueError(
                f"refusing --k {k}: even the program with no tables has {columns} columns (limit {MAX_COLUMNS})"
            )
        object.__setattr__(self, "mbf_set", tuple(self.mbf_set))
        seen = set()
        for t in self.mbf_set:
            if t.k != k:
                raise ValueError("every table must match the target's variable count")
            if not is_monotone(t):
                raise ValueError("auxiliary tables must be monotone")
            if t.bits in seen:
                raise ValueError("duplicate table in mbf_set")
            seen.add(t.bits)

    @property
    def k(self) -> int:
        return self.target.n_vars


def _check_size(problem: ReductionProblem):
    if problem.k > 4 and len(problem.mbf_set) > 40:
        raise ValueError("refusing k > 4 with more than 40 tables")


def _column_count(k: int, M: int) -> int:
    """Variables of build_reduction_lp's program for k originals and M tables."""
    shared = 1 + 2 * k + k * (k - 1) // 2 + 2 * M + k * M + M * (M - 1) // 2
    per_labeling = 1 + (2 * M + M * (M - 1) // 2 + 1 if M else 0)
    return shared + (1 << k) * per_labeling


@cache
def _capacities(k: int, M: int) -> tuple[tuple[str, tuple], ...]:
    """Capacity variables of the joint (k + M)-node form in declaration
    order, each with its arc (u, v) of the capacity form, charged when u is
    on the source side and v is off it: (0, v) from the source, (v, sink)
    into the sink k + M + 1, or (u, v) between two nodes.  Nodes k+1..k+M
    are the auxiliaries; the 2k + k(k-1)/2 capacities among the originals
    come first."""
    t = k + M + 1
    caps = []
    for i in range(1, k + 1):
        caps += [(f"src_x{i}", (0, i)), (f"snk_x{i}", (i, t))]
    caps += [(f"xx_{i}_{j}", (i, j)) for i in range(2, k + 1) for j in range(1, i)]
    for l in range(1, M + 1):
        caps += [(f"src_z{l}", (0, k + l)), (f"snk_z{l}", (k + l, t))]
    caps += [(f"xz_{i}_{l}", (i, k + l)) for i in range(1, k + 1) for l in range(1, M + 1)]
    caps += [(f"zz_{l}_{m}", (k + l, k + m)) for l in range(2, M + 1) for m in range(1, l)]
    return tuple(caps)


def _cut_terms(caps, y: int) -> dict[str, int]:
    """The capacities among caps cut by the joint labeling y (bit v - 1 set
    when node v is on)."""
    side = y << 1 | 1  # bit u set when node u is on the source side
    return {name: 1 for name, (u, v) in caps if side >> u & 1 and not side >> v & 1}


def _joint_labeling(k: int, mbf_set: tuple[MbfTable, ...], x: int) -> int:
    """x with every auxiliary at its prescribed state: x | m(x) << k."""
    y = x
    for l, t in enumerate(mbf_set):
        y |= t.value(x) << (k + l)
    return y


def build_reduction_lp(problem: ReductionProblem) -> lpsolver.LinearProgram:
    """The L1-nearest program over capacities, flows, and slack variables."""
    _check_size(problem)
    k, M = problem.k, len(problem.mbf_set)
    columns = _column_count(k, M)
    if columns > MAX_COLUMNS:
        # the generators set has max(k - 2, 1) tables; advise it only when smaller
        advice = "--mbfs generators or fewer tables" if M > max(k - 2, 1) else "fewer tables"
        raise ValueError(
            f"refusing a {columns}-column program for k={k} with {M} tables "
            f"(limit {MAX_COLUMNS}); use {advice}"
        )
    template, value_rows = _template(k, problem.mbf_set)
    lp = template.copy()
    rows = lp.constraints
    for i, gx in zip(value_rows, problem.target.evaluate_all()):
        for r in (i, i + 1):
            rows[r] = lpsolver.Constraint(rows[r].coeffs, rows[r].rel, gx)
    return lp


@lru_cache(maxsize=32)
def _template(k: int, mbf_set: tuple[MbfTable, ...]) -> tuple[lpsolver.LinearProgram, tuple[int, ...]]:
    """build_reduction_lp's program with every right-hand side 0, and the
    position of each labeling's >= value row (its <= row follows).  Only
    those rows' right-hand sides, g(x), depend on the target, so one
    template serves every target over these tables; it is only copied,
    never mutated."""
    M = len(mbf_set)
    caps = _capacities(k, M)
    name = {charge: n for n, charge in caps}
    aux_caps = caps[2 * k + k * (k - 1) // 2 :]
    lp = lpsolver.LinearProgram()
    value_rows: list[int] = []
    lp.add_variable("c0", lower=None)
    for n, _ in caps:
        lp.add_variable(n)

    objective: dict[str, Fraction] = {}
    for x in range(1 << k):
        gap = f"gap_{x}"
        lp.add_variable(gap)
        objective[gap] = Fraction(1)
        y = _joint_labeling(k, mbf_set, x)
        value = {"c0": 1} | _cut_terms(caps, y)
        if M:
            for l in range(1, M + 1):
                lp.add_variable(f"fs_{x}_{l}")
                lp.add_variable(f"ft_{x}_{l}")
            for l in range(2, M + 1):
                for m in range(1, l):
                    lp.add_variable(f"fz_{x}_{l}_{m}")
            lp.add_variable(f"thr_{x}")

            for l in range(1, M + 1):
                cap = {f"fs_{x}_{l}": 1, name[0, k + l]: -1}
                for i in range(1, k + 1):
                    if x >> (i - 1) & 1:
                        cap[name[i, k + l]] = -1
                lp.add_constraint(cap, "<=", 0)
                lp.add_constraint({f"ft_{x}_{l}": 1, name[k + l, k + M + 1]: -1}, "<=", 0)
            for l in range(2, M + 1):
                for m in range(1, l):
                    lp.add_constraint({f"fz_{x}_{l}_{m}": 1, name[k + l, k + m]: -1}, "<=", 0)
            # Inflow bounded by outflow at each auxiliary node: summed over
            # any source-side set this caps the throughput by every cut.
            for l in range(1, M + 1):
                cons = {f"fs_{x}_{l}": 1, f"ft_{x}_{l}": -1}
                for m in range(l + 1, M + 1):
                    cons[f"fz_{x}_{m}_{l}"] = 1
                for m in range(1, l):
                    cons[f"fz_{x}_{l}_{m}"] = -1
                lp.add_constraint(cons, "<=", 0)
            source = {f"thr_{x}": 1}
            for l in range(1, M + 1):
                source[f"fs_{x}_{l}"] = -1
            lp.add_constraint(source, "<=", 0)
            # Tightness: the cut picked by the prescribed states must not
            # exceed the throughput, hence equals the minimum cut.
            lp.add_constraint(_cut_terms(aux_caps, y) | {f"thr_{x}": -1}, "<=", 0)

        value_rows.append(len(lp.constraints))
        lp.add_constraint(value | {gap: 1}, ">=", 0)
        lp.add_constraint(value | {gap: -1}, "<=", 0)

    lp.set_objective(objective)
    return lp, tuple(value_rows)


def _capacity_from_solution(problem: ReductionProblem, values: dict[str, Fraction]) -> CapacityForm:
    """The capacity form at an LP point: every value scaled once by the
    lcm of their denominators; zero capacities are left out."""
    k, M = problem.k, len(problem.mbf_set)
    caps = _capacities(k, M)
    scale = lcm(values["c0"].denominator, *[values[n].denominator for n, _ in caps])
    arcs = {arc: c.numerator * (scale // c.denominator) for n, arc in caps if (c := values[n])}
    c0 = values["c0"]
    return CapacityForm(k, M, scale, c0.numerator * (scale // c0.denominator), arcs)


def _result(problem: ReductionProblem, sol: lpsolver.LpSolution) -> ReductionResult:
    """The quadratic at an optimal point, with its gaps recomputed by the
    oracle; their total must equal the program objective."""
    quadratic = from_capacity_form(_capacity_from_solution(problem, sol.values)).drop_unused_aux()
    result = ReductionResult(quadratic, verify_reduction(problem.target, quadratic))
    if result.l1_distance != sol.objective_value:
        raise lpsolver.LpInternalError(
            "oracle gap total disagrees with the program objective; "
            "the tightness block failed to pin the auxiliary minima"
        )
    return result


def _solve(problem: ReductionProblem) -> ReductionResult:
    sol = lpsolver.solve(build_reduction_lp(problem))
    if sol.status != lpsolver.OPTIMAL:
        raise lpsolver.LpInternalError(f"reduction program reported {sol.status}")
    return _result(problem, sol)


def _candidate_subsets(problem: ReductionProblem):
    """Small table subsets worth trying before the full program.

    Ordered by the sign of the target's top coefficient: a non-positive top
    term reduces through the all-variables conjunction, a positive one
    through the |S| >= 2 threshold, so those candidates come first.  The
    empty subset comes first when the target is quadratic, and not at all
    otherwise: with no auxiliaries h is a quadratic, and a multilinear form
    is unique, so it cannot match a term of degree 3 or more.
    """
    k = problem.k
    by_bits = {t.bits: t for t in problem.mbf_set}
    full_mask = (1 << k) - 1
    top = problem.target.terms.get(full_mask, Fraction(0))
    order = range(k, 1, -1) if top <= 0 else range(2, k + 1)
    hinted = []
    for r in order:
        t = by_bits.get(MbfTable.threshold(k, r).bits)
        if t is not None:
            hinted.append(t)
    if problem.target.degree < 3:
        yield ()
    for t in hinted:
        yield (t,)
    for t in problem.mbf_set:
        if t not in hinted:
            yield (t,)
    if len(hinted) >= 2:
        yield tuple(hinted[:2])


def nearest_quadratic(problem: ReductionProblem) -> ReductionResult:
    """L1-closest constrained quadratic; exact optimum.

    With a large table set, subsets are tried first and an exact fit on a
    subset short-circuits (adding tables can never improve on distance
    zero).  Anything short of zero falls back to the full program.
    """
    _check_size(problem)
    if len(problem.mbf_set) > PROGRESSIVE_THRESHOLD:
        for subset in _candidate_subsets(problem):
            sub = ReductionProblem(problem.target, subset)
            result = _solve(sub)
            if result.report.passed:
                return result
    return _solve(problem)


def overestimate(problem: ReductionProblem, anchor: int) -> ReductionResult:
    """Tightest one-sided fit: h dominates the target everywhere and meets
    it at the anchor labeling; minimizes the total overshoot."""
    if anchor >> problem.k:
        raise ValueError("anchor labeling outside the target's variable range")
    lp = build_reduction_lp(problem)
    caps = _capacities(problem.k, len(problem.mbf_set))
    for x in range(1 << problem.k):
        value = {"c0": 1} | _cut_terms(caps, _joint_labeling(problem.k, problem.mbf_set, x))
        gx = problem.target.evaluate(x)
        lp.add_constraint(value, ">=", gx)
        if x == anchor:
            lp.add_constraint(value, "<=", gx)
    sol = lpsolver.solve(lp)
    if sol.status != lpsolver.OPTIMAL:
        raise ValueError(f"overestimation program is {sol.status} at this anchor")
    result = _result(problem, sol)
    gaps = result.report.gaps
    if any(v > 0 for v in gaps.values()) or gaps[anchor] != 0:
        raise lpsolver.LpInternalError("overestimate left a labeling below the target")
    return result
