"""Fourth-order specialization: two auxiliary variables suffice.

A reducible submodular quartic on x1..x4 always admits a form with just
two auxiliary variables.  Once their optimal states are prescribed as
monotone on-sets, one exact program over the auxiliary coefficients
(``_states_lp``) decides whether such a form exists.  The natural
prescription is the pair of symmetric thresholds |S| >= 3 and |S| >= 2
(product active on |S| >= 3).  It covers everything the non-interacting
replacement algebra below produces, but not the whole reducible cone:
sums carrying the two-sided interacting generator can escape it.  The
first variable always stays on |S| >= 3, as in the paper's quartic form;
for those sums ``reduce_quartic`` sweeps the second through its other 113
singleton-free monotone patterns.  Not every submodular quartic is
reducible (Zivny, Cohen and Jeavons 2009, "The expressive power of binary
submodular functions"); the tenth catalog group lies outside the class.
A quartic with no non-negative generator decomposition is reported
NotRepresentable, decided exactly, never by numeric tolerance.

The module also carries the replacement algebra that justifies the
two-variable count for auxiliary variables without interactions:

  * ``remove_singletons`` trades on-states at single-variable labelings
    for linear residual terms;
  * ``case_split`` peels the on-states at two-variable labelings into
    bilinear residual terms plus at most two replacement variables, one
    bound for each threshold;
  * ``normalize_to_reference`` solves a nonsingular 5x5 system to land a
    pair-free variable exactly on the |S| >= 3 sign pattern (and checks
    the analogous consistency for |S| >= 2).

Applied to every auxiliary of an interaction-free quadratic they leave
variables on the two threshold patterns only, and variables on the same
pattern add up, so two remain.  Every step re-checks min preservation on
all 16 labelings.  The printed transformation tables this algebra descends
from are incomplete for some inputs (every input whose on-pairs hold a
complementary pair, among others), so one small exact feasibility program
serves as the fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations

from . import lpsolver
from .mbf import AvParams, MbfTable, enumerate_mbfs, min_contribution, partition_coefficient
from .oracle import verify_reduction
from .pbf import (
    InvariantError as InvariantError,
    MultilinearPoly,
    QuadraticPoly,
    _require,
    indices_of,
    is_submodular,
    mask_of,
    rat,
)

FULL4 = 0b1111
TRIPLES = tuple(FULL4 ^ (1 << (p - 1)) for p in (1, 2, 3, 4))  # missing 1,2,3,4
PAIR_MASKS = tuple(sorted(m for m in range(16) if m.bit_count() == 2))


class NotRepresentable(Exception):
    """The exact feasibility program has no solution: the quartic lies
    outside the reducible subclass."""


class ForbiddenConfiguration(RuntimeError):
    """An auxiliary-variable state pattern that valid parameters cannot
    produce reached the replacement algebra; indicates a caller bug."""


@dataclass(frozen=True)
class QuarticFunction:
    """Multilinear polynomial on exactly four variables."""

    poly: MultilinearPoly

    def __post_init__(self):
        if self.poly.n_vars != 4:
            raise ValueError("quartic functions live on exactly 4 variables")

    @classmethod
    def from_terms(cls, items) -> "QuarticFunction":
        return cls(MultilinearPoly.from_terms(4, items))

    def __add__(self, other: "QuarticFunction") -> "QuarticFunction":
        return QuarticFunction(self.poly + other.poly)

    def scaled(self, c) -> "QuarticFunction":
        return QuarticFunction(self.poly.scaled(c))


@dataclass(frozen=True)
class JointQuadratic:
    """Quadratic over x1..x4 plus the two threshold auxiliaries.

    h(x, z1, z2) = x_part(x) + (g1 - sum w1_i x_i) z1 + (g2 - sum w2_i x_i) z2
                 - j12 z1 z2

    with x_part a quadratic whose pair coefficients are non-positive and the
    w's and j12 non-negative, which is exactly submodularity of the whole
    form.
    """

    x_part: MultilinearPoly
    av1: AvParams
    av2: AvParams
    j12: Fraction

    def __post_init__(self):
        object.__setattr__(self, "j12", rat(self.j12))
        if self.j12 < 0 or any(c > 0 for m, c in self.x_part.terms.items() if m.bit_count() == 2):
            raise ValueError("interaction and pair magnitudes must be non-negative")

    def to_quadratic(self) -> QuadraticPoly:
        terms = dict(self.x_part.terms)
        z1, z2 = 1 << 4, 1 << 5
        for z_mask, av in ((z1, self.av1), (z2, self.av2)):
            terms[z_mask] = av.g
            for i in range(4):
                terms[(1 << i) | z_mask] = -av.weights[i]
        terms[z1 | z2] = -self.j12
        return QuadraticPoly(MultilinearPoly(6, terms), 4, 2)


# ---------------------------------------------------------------------------
# The exact feasibility programs


FORWARD_SET = MbfTable.threshold(4, 3)
BACKWARD_SET = MbfTable.threshold(4, 2)


def _add_av_variables(lp: lpsolver.LinearProgram) -> None:
    lp.add_variable("g1")
    lp.add_variable("g2")
    for i in range(1, 5):
        lp.add_variable(f"w1_{i}")
        lp.add_variable(f"w2_{i}")
    lp.add_variable("j12")


def _kappa_form(tag: str, mask: int) -> dict[str, int]:
    """kappa(S) = g - sum over S of w_i of auxiliary ``tag`` as a linear
    form in (g{tag}, w{tag}_1..w{tag}_4)."""
    row = {f"g{tag}": 1}
    for i in indices_of(mask):
        row[f"w{tag}_{i}"] = -1
    return row


def _zpart_form(mask: int, z1: int, z2: int) -> dict[str, int]:
    """W(S) at the joint state (z1, z2) as a linear form in (g1, w1_i, g2,
    w2_i, j12)."""
    row: dict[str, int] = {}
    for z, tag in ((z1, "1"), (z2, "2")):
        if z:
            row.update(_kappa_form(tag, mask))
    if z1 and z2:
        row["j12"] = -1
    return row


def _add_sign_rows(lp: lpsolver.LinearProgram, on2: MbfTable) -> None:
    """Each auxiliary's coefficient is non-positive on its on-set
    (FORWARD_SET for the first) and non-negative off it."""
    for mask in range(16):
        for tag, table in (("1", FORWARD_SET), ("2", on2)):
            lp.add_constraint(_kappa_form(tag, mask), "<=" if table.value(mask) else ">=", 0)


def _states(mask: int, on2: MbfTable) -> tuple[int, int]:
    """Prescribed joint state at a labeling: the first auxiliary on exactly
    on FORWARD_SET, the second on exactly on on2."""
    return FORWARD_SET.value(mask), on2.value(mask)


def _moebius(top: int, on2: MbfTable) -> dict[str, int]:
    """The coefficient of the monomial ``top`` in W at the prescribed
    states, as a linear form: the alternating sum of W over the subsets of
    top."""
    row: dict[str, int] = {}
    sub = top
    while True:
        sign = -1 if (top ^ sub).bit_count() & 1 else 1
        for name, c in _zpart_form(sub, *_states(sub, on2)).items():
            row[name] = row.get(name, 0) + sign * c
        if sub == 0:
            return row
        sub = (sub - 1) & top


@cache
def _xpart_columns() -> tuple[tuple[str, int, int], ...]:
    """The nearest program's x-part columns as (name, monomial, sign): the
    free constant and linear coefficients, then the non-negative pair
    magnitudes, which enter the x-part negated."""
    linear = [("b0", 0, 1)] + [(f"b{i}", 1 << (i - 1), 1) for i in range(1, 5)]
    return tuple(linear + [("bp_%d%d" % indices_of(pm), pm, -1) for pm in PAIR_MASKS])


def _nearest_lp(f: QuarticFunction) -> lpsolver.LinearProgram:
    """L1-nearest program in the joint-quadratic coefficients: 16 value
    rows at the threshold states, each with a slack pair whose total is
    minimized, the per-threshold sign pattern on every labeling, and
    non-negativity of all bilinear magnitudes."""
    lp = lpsolver.LinearProgram()
    for name, _, sign in _xpart_columns():
        lp.add_variable(name, lower=None if sign > 0 else 0)
    _add_av_variables(lp)

    objective: dict[str, Fraction] = {}
    for mask in range(16):
        row = {name: sign for name, mono, sign in _xpart_columns() if mask & mono == mono}
        row.update(_zpart_form(mask, *_states(mask, BACKWARD_SET)))
        target = f.poly.evaluate(mask)
        slack = f"d_{mask}"
        lp.add_variable(slack)
        objective[slack] = Fraction(1)
        lp.add_constraint(row | {slack: Fraction(1)}, ">=", target)
        lp.add_constraint(row | {slack: Fraction(-1)}, "<=", target)
    _add_sign_rows(lp, BACKWARD_SET)
    lp.set_objective(objective)
    return lp


def _states_lp(
    f: QuarticFunction, on2: MbfTable, sign_rows: bool = False, dominance: bool = True
) -> lpsolver.LinearProgram:
    """Program in the auxiliary coefficients alone, with the optimal state
    of each auxiliary prescribed: the first on exactly on FORWARD_SET
    (|S| >= 3), the second on exactly on the labelings in on2.

    The 16 value rows are folded away: W fixes the x-part f - W, so they
    only ask it to be a submodular quadratic (no degree-3 or degree-4
    coefficient, non-positive pair coefficients).  sign_rows adds each
    auxiliary's own sign pattern; dominance adds, per labeling, that the
    prescribed joint state weakly beats the other three.  With dominance
    rows, feasibility is equivalent to a verified reduction whose states
    follow (FORWARD_SET, on2); sign rows alone do not imply one, since the
    interaction j12 can make another joint state cheaper.
    """
    lp = lpsolver.LinearProgram()
    _add_av_variables(lp)
    for top in TRIPLES + (FULL4,):
        lp.add_constraint(_moebius(top, on2), "==", f.poly.terms.get(top, Fraction(0)))
    for pm in PAIR_MASKS:
        # pair coefficient of f - W must stay non-positive; the Moebius sum
        # over the pair includes singleton and empty corrections so that
        # on-sets reaching below size two are still handled exactly
        row = {name: -c for name, c in _moebius(pm, on2).items()}
        lp.add_constraint(row, "<=", -f.poly.terms.get(pm, Fraction(0)))
    if sign_rows:
        _add_sign_rows(lp, on2)
    if dominance:
        for mask in range(16):
            z1, z2 = _states(mask, on2)
            base = _zpart_form(mask, z1, z2)
            for a1 in (0, 1):
                for a2 in (0, 1):
                    if (a1, a2) == (z1, z2):
                        continue
                    row = dict(base)
                    for name, c in _zpart_form(mask, a1, a2).items():
                        row[name] = row.get(name, 0) - c
                    lp.add_constraint(row, "<=", 0)
    return lp


def _av(values: dict[str, Fraction], tag: str) -> AvParams:
    """Auxiliary ``tag``'s parameters read off a program solution."""
    return AvParams(values[f"g{tag}"], tuple(values[f"w{tag}_{i}"] for i in range(1, 5)))


def _av_params(values: dict[str, Fraction]) -> tuple[AvParams, AvParams, Fraction]:
    """The two auxiliaries' parameters and their interaction, read off a
    solution of any of the programs above."""
    return _av(values, "1"), _av(values, "2"), values["j12"]


def _assemble(f: QuarticFunction, values: dict[str, Fraction], on2=BACKWARD_SET) -> JointQuadratic:
    """The joint quadratic of a states-program point: the x-part is f - W
    at the prescribed states."""
    av1, av2, j12 = _av_params(values)
    xvals = []
    for mask in range(16):
        z1, z2 = _states(mask, on2)
        w = Fraction(0)
        if z1:
            w += partition_coefficient(av1, mask)
        if z2:
            w += partition_coefficient(av2, mask)
        if z1 and z2:
            w -= j12
        xvals.append(f.poly.evaluate(mask) - w)
    x_part = MultilinearPoly.from_values(4, xvals)
    if x_part.degree > 2:
        raise lpsolver.LpInternalError("x-part failed to come out quadratic")
    if any(x_part.terms.get(pm, 0) > 0 for pm in PAIR_MASKS):
        raise lpsolver.LpInternalError("x-part has a positive pair coefficient")
    return JointQuadratic(x_part, av1, av2, j12)


@cache
def _generator_instances():
    out = []
    for group in range(1, 10):
        for pattern in generator_patterns(group):
            fi, _ = generator_catalog(group, pattern)
            out.append((group, pattern, fi))
    return out


def decompose_over_generators(f: QuarticFunction) -> list[tuple[int, tuple, Fraction]] | None:
    """Non-negative weights over all reducible generator instances (plus a
    free affine part) reproducing f, or None when no such combination
    exists.  Membership in this cone is what the replacement algebra can
    certify constructively; the excluded tenth group never participates."""
    instances = _generator_instances()
    lp = lpsolver.LinearProgram()
    for idx in range(len(instances)):
        lp.add_variable(f"l{idx}")
    for mask in range(16):
        if mask.bit_count() < 2:
            continue
        row = {}
        for idx, (_, _, fi) in enumerate(instances):
            c = fi.poly.terms.get(mask, Fraction(0))
            if c:
                row[f"l{idx}"] = c
        lp.add_constraint(row, "==", f.poly.terms.get(mask, Fraction(0)))
    lp.set_objective({f"l{idx}": Fraction(1) for idx in range(len(instances))})
    sol = lpsolver.solve(lp)
    if sol.status != lpsolver.OPTIMAL:
        return None
    return [
        (group, pattern, sol.values[f"l{idx}"])
        for idx, (group, pattern, fi) in enumerate(instances)
        if sol.values[f"l{idx}"] > 0
    ]


@cache
def _second_onsets() -> list[MbfTable]:
    """The second auxiliary's 114 singleton-free monotone tables, larger
    on-sets first, then by their sorted on-labelings, so the backward
    threshold |S| >= 2 leads; ``reduce_quartic`` decides that one in its
    presolves and sweeps the rest."""
    return sorted(
        (t for t in enumerate_mbfs(4) if all(m.bit_count() >= 2 for m in range(16) if t.value(m))),
        key=lambda t: (-t.bits.bit_count(), [m for m in range(16) if t.value(m)]),
    )


def _try_states(f: QuarticFunction, on2: MbfTable, sign_rows: bool = False) -> JointQuadratic | None:
    sol = lpsolver.solve(_states_lp(f, on2, sign_rows))
    if sol.status != lpsolver.OPTIMAL:
        return None
    joint = _assemble(f, sol.values, on2)
    if not verify_reduction(f.poly, joint.to_quadratic()).passed:
        raise lpsolver.LpInternalError("dominance-feasible point failed verification")
    return joint


def reduce_quartic(f: QuarticFunction) -> JointQuadratic:
    """Exact two-auxiliary reduction, oracle-checked.

    The threshold prescription (|S| >= 3, |S| >= 2) is tried first, as two
    presolves: under sign rows alone, whose point is kept only when the
    oracle accepts it, then under sign and dominance rows, which is skipped
    when the first program is infeasible.  It hosts everything the
    non-interacting replacement algebra produces, but sums carrying the
    two-sided interacting generator can escape it.  When the presolves
    fail, a generator decomposition is sought; when none exists f lies
    outside the class the replacement algebra reaches and NotRepresentable
    is raised, after two LP solves in all when the first presolve was
    infeasible.  Otherwise one ordered sweep follows: the first auxiliary
    stays on |S| >= 3 while the second runs through its other 113
    singleton-free monotone patterns (``_second_onsets``).  The whole
    search therefore costs at most 116 LP solves (at most 24 on any
    measured reducible input).  The 114 patterns are not known to cover
    the whole reducible cone, so a decomposable quartic that misses every
    one raises LpInternalError; no measured input has.
    """
    if not is_submodular(f.poly):
        raise ValueError("reduce_quartic needs a submodular quartic")
    sol = lpsolver.solve(_states_lp(f, BACKWARD_SET, sign_rows=True, dominance=False))
    if sol.status == lpsolver.OPTIMAL:
        joint = _assemble(f, sol.values)
        if verify_reduction(f.poly, joint.to_quadratic()).passed:
            return joint
        # The second presolve adds dominance rows to the first one's rows,
        # so it can only be feasible when the first one is.
        joint = _try_states(f, BACKWARD_SET, sign_rows=True)
        if joint is not None:
            return joint
    if decompose_over_generators(f) is None:
        raise NotRepresentable("no non-negative generator decomposition exists")
    # The sweep skips its first on-set, the threshold pair under dominance
    # rows alone: that program is feasible only when the one with sign rows
    # as well is, and that one is infeasible by now (solved, or implied by
    # the infeasible first presolve).  Take a point of it and move the
    # interaction into the first constant (g1 - j12, then j12 = 0); W is
    # unchanged at every prescribed state.  Dominance gave kappa1 <= j12 on
    # |S| >= 3 and kappa1 >= j12 on pairs, so on every smaller set too (the
    # weights are non-negative); likewise kappa2 <= 0 on pairs and above,
    # >= 0 below.  The moved point therefore meets the sign rows, and with
    # no interaction left the sign rows imply dominance.
    for on2 in _second_onsets()[1:]:
        joint = _try_states(f, on2)
        if joint is not None:
            return joint
    raise lpsolver.LpInternalError(
        "decomposable quartic with no two-variable prescription in the search space"
    )


def nearest_quartic(f: QuarticFunction) -> tuple[JointQuadratic, Fraction]:
    """L1-nearest joint quadratic: reduce_quartic's answer at distance 0,
    else the optimum of the nearest program, with the oracle-confirmed
    distance."""
    if not is_submodular(f.poly):
        raise ValueError("nearest_quartic needs a submodular quartic")
    try:
        return reduce_quartic(f), Fraction(0)
    except NotRepresentable:
        pass
    sol = lpsolver.solve(_nearest_lp(f))
    if sol.status != lpsolver.OPTIMAL:
        raise lpsolver.LpInternalError(f"nearest program reported {sol.status}")
    x_part = {mono: sign * sol.values[name] for name, mono, sign in _xpart_columns()}
    joint = JointQuadratic(MultilinearPoly(4, x_part), *_av_params(sol.values))
    report = verify_reduction(f.poly, joint.to_quadratic())
    distance = sum((abs(g) for g in report.gaps.values()), Fraction(0))
    if distance == 0:
        raise lpsolver.LpInternalError("exact fit slipped past the exact program")
    return joint, distance


# ---------------------------------------------------------------------------
# Generator catalog


def _pattern_poly(n_vars, terms, pattern):
    """Catalog terms with the roles 1..4 moved onto ``pattern``; the
    auxiliary indices 5 and 6 stay in place."""
    mapping = {pos + 1: var for pos, var in enumerate(pattern)} | {5: 5, 6: 6}
    return MultilinearPoly.from_terms(
        n_vars, [([mapping[i] for i in idxs], c) for idxs, c in terms]
    )


_CATALOG = {
    # group: (f terms over roles i,j,k,l = 1,2,3,4; aux terms with z1=5, z2=6 or None)
    1: ([((1, 2), -1)], [((1, 2), -1)]),
    2: ([((1, 2, 3), -1)], [((5,), 2), ((1, 5), -1), ((2, 5), -1), ((3, 5), -1)]),
    3: (
        [((1, 2, 3, 4), -1)],
        [((5,), 3), ((1, 5), -1), ((2, 5), -1), ((3, 5), -1), ((4, 5), -1)],
    ),
    4: (
        [((1, 2, 3, 4), -1)]
        + [(t, 1) for t in combinations((1, 2, 3, 4), 3)]
        + [(p, -1) for p in combinations((1, 2, 3, 4), 2)],
        [((5,), 1), ((1, 5), -1), ((2, 5), -1), ((3, 5), -1), ((4, 5), -1)],
    ),
    5: (
        [((1, 2, 3, 4), 1), ((1, 2, 3), -1), ((1, 4), -1), ((2, 4), -1), ((3, 4), -1)],
        [((5,), 2), ((1, 5), -1), ((2, 5), -1), ((3, 5), -1), ((4, 5), -2)],
    ),
    6: (
        [((1, 2, 3), 1), ((1, 2), -1), ((1, 3), -1), ((2, 3), -1)],
        [((5,), 1), ((1, 5), -1), ((2, 5), -1), ((3, 5), -1)],
    ),
    7: (
        [((1, 2, 3, 4), 1), ((1, 2, 3), -1), ((1, 2, 4), -1), ((1, 3, 4), -1)],
        [((5,), 3), ((1, 5), -2), ((2, 5), -1), ((3, 5), -1), ((4, 5), -1)],
    ),
    8: (
        [((1, 2, 3, 4), 2)] + [(t, -1) for t in combinations((1, 2, 3, 4), 3)],
        [((5,), 2), ((1, 5), -1), ((2, 5), -1), ((3, 5), -1), ((4, 5), -1)],
    ),
    9: (
        [((1, 2, 3, 4), 1), ((1, 2), -1), ((1, 3, 4), -1), ((2, 3, 4), -1)],
        [
            ((5,), 1),
            ((6,), 2),
            ((5, 6), -1),
            ((1, 5), -1),
            ((2, 5), -1),
            ((3, 6), -1),
            ((4, 6), -1),
        ],
    ),
    10: (
        [
            ((1, 2, 3, 4), -1),
            ((1, 3, 4), 1),
            ((2, 3, 4), 1),
            ((1, 3), -1),
            ((1, 4), -1),
            ((2, 3), -1),
            ((2, 4), -1),
            ((3, 4), -1),
        ],
        None,
    ),
}


def generator_catalog(group: int, pattern: tuple[int, int, int, int]) -> tuple[QuarticFunction, QuadraticPoly | None]:
    """One catalog row instantiated on an index pattern.

    ``pattern`` assigns the row's four roles to concrete variables and must
    be a permutation of 1..4.  Groups 1-9 also return the closed-form
    quadratic (auxiliaries indexed after the originals); group 10 has none.
    """
    if group not in _CATALOG:
        raise ValueError("group must be 1..10")
    if sorted(pattern) != [1, 2, 3, 4]:
        raise ValueError("pattern must be a permutation of 1 2 3 4")
    f_terms, h_terms = _CATALOG[group]
    f = QuarticFunction(_pattern_poly(4, f_terms, pattern))
    if h_terms is None:
        return f, None
    n_z = max(0, *(i - 4 for idxs, _ in h_terms for i in idxs))
    return f, QuadraticPoly(_pattern_poly(4 + n_z, h_terms, pattern), 4, n_z)


def generator_patterns(group: int) -> list[tuple[int, int, int, int]]:
    """Distinct index patterns for a row, one canonical representative per
    distinct instantiated polynomial."""
    seen = {}
    for perm in permutations((1, 2, 3, 4)):
        f, _ = generator_catalog(group, perm)
        key = frozenset(f.poly.terms.items())
        seen.setdefault(key, perm)
    return sorted(seen.values())


# ---------------------------------------------------------------------------
# Replacement algebra on auxiliary-variable parameters


def _kappa_poly(p: AvParams) -> MultilinearPoly:
    terms: dict[int, Fraction] = {0: p.g}
    for i in range(p.k):
        if p.weights[i]:
            terms[1 << i] = -p.weights[i]
    return MultilinearPoly(p.k, terms)


def _preserves_min(p: AvParams, residual: MultilinearPoly, avs: list[AvParams]) -> bool:
    for mask in range(1 << p.k):
        total = residual.evaluate(mask)
        for a in avs:
            total += min_contribution(a, mask)
        if total != min_contribution(p, mask):
            return False
    return True


def remove_singletons(p: AvParams) -> tuple[MultilinearPoly, AvParams | None]:
    """Eliminate on-states at single-variable labelings.

    When the empty labeling is already on (negative constant) the variable
    is constant-on and folds entirely into the residual.  Otherwise each
    on singleton {e} contributes the linear residual (g - w_e) x_e and its
    weight is clamped to g, which moves the labeling to a tie broken off.
    Min over the variable is preserved labeling by labeling.
    """
    if p.k != 4:
        raise ValueError("the replacement algebra is specific to 4 variables")
    if p.g < 0:
        return _kappa_poly(p), None
    weights = list(p.weights)
    residual: dict[int, Fraction] = {}
    for e in range(4):
        if p.g - weights[e] < 0:
            residual[1 << e] = p.g - weights[e]
            weights[e] = p.g
    out = AvParams(p.g, tuple(weights))
    res_poly = MultilinearPoly(4, residual)
    _require(_preserves_min(p, res_poly, [out]), "remove_singletons broke the minimum")
    return res_poly, out


def reference_system_matrix() -> list[list[Fraction]]:
    """Coefficient matrix of the replacement system: one row per labeling
    of size >= 3 (the four triples in missing-variable order, then the full
    set), columns (g, w1..w4)."""
    rows = []
    for t in TRIPLES + (FULL4,):
        rows.append([Fraction(1)] + [Fraction(-(t >> i & 1)) for i in range(4)])
    return rows


def matrix_determinant(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant by fraction-free style Gaussian elimination."""
    a = [list(map(rat, r)) for r in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, n):
            if a[r][c]:
                factor = a[r][c] * inv
                a[r] = [v - factor * w for v, w in zip(a[r], a[c])]
    return det


def _solve_reference_system(targets: dict[int, Fraction]) -> AvParams:
    """Parameters whose coefficient equals the target on every labeling of
    size >= 3; unique because the system matrix is nonsingular."""
    w = [targets[FULL4 ^ (1 << i)] - targets[FULL4] for i in range(4)]
    g = targets[FULL4] + sum(w, Fraction(0))
    out = AvParams(g, tuple(w))
    _require(
        all(partition_coefficient(out, t) == targets[t] for t in TRIPLES + (FULL4,)),
        "reference system missed a target coefficient",
    )
    return out


def normalize_to_reference(p: AvParams, direction: str) -> AvParams:
    """Replace a variable by one sitting exactly on a threshold pattern.

    forward: requires no on-states below size 3; the output coefficient is
    min(0, old coefficient) on every labeling of size >= 3 and provably
    non-negative below, so the variable realizes the |S| >= 3 pattern.

    backward: same construction aimed at |S| >= 2; the pair labelings are
    overdetermined, so the solved parameters are checked against them and
    rejected when the input cannot sit on that pattern.
    """
    if p.k != 4:
        raise ValueError("reference normalization is specific to 4 variables")
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be forward or backward")
    if p.g < 0 or any(partition_coefficient(p, 1 << e) < 0 for e in range(4)):
        raise ValueError("remove singletons before normalizing")
    targets = {t: min_contribution(p, t) for t in TRIPLES + (FULL4,)}
    if direction == "forward":
        for pm in PAIR_MASKS:
            if partition_coefficient(p, pm) < 0:
                raise ValueError("an on pair labeling cannot move to the size-3 pattern")
        out = _solve_reference_system(targets)
        _require(
            all(partition_coefficient(out, pm) >= 0 for pm in PAIR_MASKS),
            "forward normalization left an on pair labeling",
        )
    else:
        out = _solve_reference_system(targets)
        for pm in PAIR_MASKS:
            if partition_coefficient(out, pm) != min_contribution(p, pm):
                raise ValueError("input does not sit consistently on the size-2 pattern")
    _require(_preserves_min(p, MultilinearPoly.zero(4), [out]), "normalization broke the minimum")
    return out


def _pair_kappas(p: AvParams) -> dict[int, Fraction]:
    return {pm: partition_coefficient(p, pm) for pm in PAIR_MASKS}


def _case_one(p: AvParams, pm: int):
    i, j = indices_of(pm)
    kij = partition_coefficient(p, pm)
    residual = MultilinearPoly(4, {pm: kij})
    w = list(p.weights)
    wt = list(w)
    wt[i - 1] = p.g - w[i - 1]
    wt[j - 1] = p.g - w[j - 1]
    gt = 2 * p.g - w[i - 1] - w[j - 1]
    return residual, [AvParams(gt, tuple(wt))]


def _case_adjacent(p: AvParams, pm_a: int, pm_b: int):
    shared = pm_a & pm_b
    if shared.bit_count() != 1:
        return None
    j = indices_of(shared)[0]
    i = indices_of(pm_a ^ shared)[0]
    k = indices_of(pm_b ^ shared)[0]
    (l,) = indices_of(FULL4 ^ pm_a ^ pm_b ^ shared)
    w = list(p.weights)
    residual = MultilinearPoly(
        4,
        {
            pm_a: partition_coefficient(p, pm_a),
            pm_b: partition_coefficient(p, pm_b),
        },
    )
    wt = [Fraction(0)] * 4
    wt[i - 1] = p.g - w[j - 1]
    wt[k - 1] = p.g - w[j - 1]
    wt[j - 1] = 2 * p.g - w[i - 1] - w[j - 1] - w[k - 1]
    wt[l - 1] = w[l - 1]
    gt = 3 * p.g - 2 * w[j - 1] - w[i - 1] - w[k - 1]
    return residual, [AvParams(gt, tuple(wt))]


def _case_star(p: AvParams, pms):
    hub_mask = pms[0] & pms[1] & pms[2]
    if hub_mask.bit_count() != 1:
        return None
    i = indices_of(hub_mask)[0]
    others = indices_of(FULL4 ^ hub_mask)
    w = list(p.weights)
    residual = {pm: partition_coefficient(p, pm) for pm in pms}
    beta = min_contribution(p, FULL4 ^ hub_mask)
    slope = p.g - w[i - 1]
    wt = [Fraction(0)] * 4
    for o in others:
        wt[o - 1] = slope
    wt[i - 1] = beta + 2 * slope
    gt = beta + 3 * slope
    if wt[i - 1] < 0:
        return None
    return MultilinearPoly(4, residual), [AvParams(gt, tuple(wt))]


def _case_triangle(p: AvParams, pms):
    union = pms[0] | pms[1] | pms[2]
    if union.bit_count() != 3:
        return None
    (l,) = indices_of(FULL4 ^ union)
    best = max(pms, key=lambda pm: (partition_coefficient(p, pm), -pm))
    i, j = indices_of(best)
    (k,) = indices_of(union ^ best)
    w = list(p.weights)
    kij = partition_coefficient(p, best)
    residual = MultilinearPoly(
        4,
        {
            mask_of((i, k)): -(w[k - 1] - w[j - 1]),
            mask_of((j, k)): -(w[k - 1] - w[i - 1]),
        },
    )
    slope = p.g - w[k - 1]
    wt = [Fraction(0)] * 4
    wt[i - 1] = wt[j - 1] = wt[k - 1] = slope
    wt[l - 1] = w[l - 1]
    if slope < 0:
        return None
    z_t = AvParams(2 * slope, tuple(wt))
    wr = [Fraction(0)] * 4
    wr[i - 1] = wr[j - 1] = wr[k - 1] = -kij
    z_r = AvParams(-kij, tuple(wr))
    return residual, [z_t, z_r]


def complement_form(p: AvParams) -> tuple[MultilinearPoly, AvParams]:
    """Equivalent rendering of one variable's contribution with the
    complemented activation convention:

        min(0, coeff(p, S)) = coeff-poly(p)(S) + min(0, g' - sum w_i (1-x_i))

    where the returned parameters are (sum w - g, w).  Used to present
    triangle-case outputs the way the transformation figures print them.
    """
    comp = AvParams(sum(p.weights, Fraction(0)) - p.g, p.weights)
    return _kappa_poly(p), comp


def _shape_candidates(neg: list[int], zero: list[int]):
    seen = set()
    for extra in range(len(zero) + 1):
        for add in combinations(zero, extra):
            shape = tuple(sorted(neg + list(add)))
            if len(shape) > 3 or shape in seen:
                continue
            seen.add(shape)
            yield shape


def _apply_shape(p: AvParams, shape: tuple[int, ...]):
    if len(shape) == 1:
        return _case_one(p, shape[0])
    if len(shape) == 2:
        return _case_adjacent(p, *shape)
    if len(shape) == 3:
        out = _case_star(p, shape)
        if out is not None:
            return out
        return _case_triangle(p, shape)
    return None


def _split_lp(p: AvParams):
    """Exact search for residual-pair magnitudes plus one variable bound to
    each threshold: the forward one may act on every size >= 3 labeling,
    the backward one on every pair labeling and above."""
    lp = lpsolver.LinearProgram()
    for pm in PAIR_MASKS:
        lp.add_variable(f"rho_{pm}")
    lp.add_variable("gt", lower=None)
    lp.add_variable("gr", lower=None)
    for i in range(1, 5):
        lp.add_variable(f"wt_{i}")
        lp.add_variable(f"wr_{i}")

    for pm in PAIR_MASKS:
        lp.add_constraint(_kappa_form("t", pm), ">=", 0)
        lp.add_constraint(_kappa_form("r", pm), "<=", 0)
    for e in range(4):
        lp.add_constraint(_kappa_form("r", 1 << e), ">=", 0)
        lp.add_constraint(_kappa_form("t", 1 << e), ">=", 0)
    for top in TRIPLES + (FULL4,):
        lp.add_constraint(_kappa_form("t", top), "<=", 0)

    for pm in PAIR_MASKS:
        lp.add_constraint(_kappa_form("r", pm) | {f"rho_{pm}": -1}, "==", min_contribution(p, pm))
    for top in TRIPLES + (FULL4,):
        row = _kappa_form("r", top) | _kappa_form("t", top)
        for pm in PAIR_MASKS:
            if pm & top == pm:
                row[f"rho_{pm}"] = -1
        lp.add_constraint(row, "==", min_contribution(p, top))

    lp.set_objective({f"wt_{i}": 1 for i in range(1, 5)} | {f"wr_{i}": 1 for i in range(1, 5)})
    sol = lpsolver.solve(lp)
    if sol.status != lpsolver.OPTIMAL:
        return None
    residual = MultilinearPoly(4, {pm: -sol.values[f"rho_{pm}"] for pm in PAIR_MASKS})
    return residual, [_av(sol.values, "t"), _av(sol.values, "r")]


def case_split(p: AvParams) -> tuple[MultilinearPoly, list[AvParams]]:
    """Trade on-states at pair labelings for bilinear residual terms.

    Output variables are each bound to one threshold: every pair labeling
    coefficient is non-negative (feeds the forward normalization) or every
    one is non-positive (already on the size-2 sign pattern).  Dispatch
    tries the printed single-pair / adjacent / star / triangle
    transformations first, widening the on-pair set across ties.  Those
    tables do not cover every valid input (no table shape holds a
    complementary pair of on-pairs, for one), so a miss falls through to
    one exact feasibility program with a forward and a backward variable.
    """
    if p.k != 4:
        raise ValueError("the replacement algebra is specific to 4 variables")
    if p.g < 0 or any(partition_coefficient(p, 1 << e) < 0 for e in range(4)):
        raise ValueError("remove singletons before splitting")
    kappas = _pair_kappas(p)
    neg = sorted(pm for pm, v in kappas.items() if v < 0)
    zero = sorted(pm for pm, v in kappas.items() if v == 0)
    if not neg or all(v <= 0 for v in kappas.values()):
        return MultilinearPoly.zero(4), _drop_trivial([p])

    for shape in _shape_candidates(neg, zero):
        out = _apply_shape(p, shape)
        if out is not None and _preserves_min(p, *out):
            return out[0], _drop_trivial(out[1])

    out = _split_lp(p)
    if out is not None and _preserves_min(p, *out):
        return out[0], _drop_trivial(out[1])
    raise ForbiddenConfiguration(f"no decomposition found for {p}")


def _drop_trivial(avs: list[AvParams]) -> list[AvParams]:
    return [a for a in avs if any(min_contribution(a, m) != 0 for m in range(16))]
