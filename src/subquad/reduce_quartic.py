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

The programs' unknowns are the coefficients of one form, h = x_part(x) +
kappa1(x) z1 + kappa2(x) z2 - j12 z1 z2, listed once in ``_COLUMNS``.  That
table declares the variables, writes the nearest program's value rows, and
reads every answer back through ``_answer``, which raises LpInternalError
unless ``pbf.is_submodular`` accepts the quadratic.  A states-program
answer's x-part is f minus W's Moebius coefficients (``_moebius``, the
forms its rows are made of) at the solution.

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
all 16 labelings.  The pair split is one small exact program, not the
printed transformation tables this algebra descends from: its optimum is
the printed split on the figures' single-pair, adjacent, star and triangle
inputs, and it also splits the inputs those tables miss (every input whose
on-pairs hold a complementary pair, among others).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import lcm

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
    rat,
)

FULL4 = 0b1111
TRIPLES = tuple(FULL4 ^ (1 << (p - 1)) for p in (1, 2, 3, 4))  # missing 1,2,3,4
PAIR_MASKS = tuple(sorted(m for m in range(16) if m.bit_count() == 2))


class NotRepresentable(Exception):
    """The exact feasibility program has no solution: the quartic lies
    outside the reducible subclass."""


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
    """A reduction's answer: the submodular quadratic over x1..x4 and the
    two auxiliaries z1, z2 (variables 5 and 6),

    h(x, z1, z2) = x_part(x) + (g1 - sum w1_i x_i) z1 + (g2 - sum w2_i x_i) z2
                 - j12 z1 z2,

    built and checked by ``_answer``.
    """

    quadratic: QuadraticPoly

    def to_quadratic(self) -> QuadraticPoly:
        return self.quadratic


# ---------------------------------------------------------------------------
# The exact feasibility programs


FORWARD_SET = MbfTable.threshold(4, 3)
BACKWARD_SET = MbfTable.threshold(4, 2)

# The program columns of h as (name, monomial over x1..x4 z1 z2, sign): h's
# coefficient on the monomial is sign times the column.  First the x-part:
# the free constant and linear coefficients, then the non-negative pair
# magnitudes; then the auxiliaries' constants g, weights w (magnitudes of the
# x-to-z coefficients) and interaction j12, in declaration order.
_Z1, _Z2 = 1 << 4, 1 << 5
_COLUMNS = (
    (("b0", 0, 1),)
    + tuple((f"b{i}", 1 << (i - 1), 1) for i in range(1, 5))
    + tuple(("bp_%d%d" % indices_of(pm), pm, -1) for pm in PAIR_MASKS)
    + (("g1", _Z1, 1), ("g2", _Z2, 1))
    + tuple((f"w{tag}_{i}", 1 << (i - 1) | z, -1) for i in range(1, 5) for tag, z in (("1", _Z1), ("2", _Z2)))
    + (("j12", _Z1 | _Z2, -1),)
)
_X_COLUMNS, _AV_COLUMNS = _COLUMNS[:11], _COLUMNS[11:]


def _add_av_variables(lp: lpsolver.LinearProgram) -> None:
    for name, _, _ in _AV_COLUMNS:
        lp.add_variable(name)


def _h_form(joint: int, columns) -> dict[str, int]:
    """h at a joint labeling (x1..x4 in bits 0-3, z1 and z2 in bits 4 and
    5) as a linear form in the given columns."""
    return {name: sign for name, mono, sign in columns if joint & mono == mono}


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
    return _h_form(mask | z1 << 4 | z2 << 5, _AV_COLUMNS)


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


@cache
def _moebius(on2: MbfTable) -> tuple[dict[str, int], ...]:
    """W's coefficient on each monomial over x1..x4 at the prescribed
    states, as a linear form indexed by the monomial: W's values, Moebius
    transformed as in ``MultilinearPoly.from_values``.  Shared, so never
    mutated."""
    forms = [_zpart_form(mask, *_states(mask, on2)) for mask in range(16)]
    for bit in (1, 2, 4, 8):
        for m in range(16):
            if m & bit:
                for name, c in forms[m ^ bit].items():
                    forms[m][name] = forms[m].get(name, 0) - c
    return tuple({name: c for name, c in form.items() if c} for form in forms)


def _nearest_lp(f: QuarticFunction) -> lpsolver.LinearProgram:
    """L1-nearest program in the joint-quadratic coefficients: 16 value
    rows at the threshold states, each with a slack pair whose total is
    minimized, the per-threshold sign pattern on every labeling, and
    non-negativity of all bilinear magnitudes."""
    lp = lpsolver.LinearProgram()
    for name, _, sign in _X_COLUMNS:
        lp.add_variable(name, lower=None if sign > 0 else 0)
    _add_av_variables(lp)

    objective: dict[str, Fraction] = {}
    for mask in range(16):
        z1, z2 = _states(mask, BACKWARD_SET)
        row = _h_form(mask | z1 << 4 | z2 << 5, _COLUMNS)
        target = f.poly.evaluate(mask)
        slack = f"d_{mask}"
        lp.add_variable(slack)
        objective[slack] = Fraction(1)
        lp.add_constraint(row | {slack: Fraction(1)}, ">=", target)
        lp.add_constraint(row | {slack: Fraction(-1)}, "<=", target)
    _add_sign_rows(lp, BACKWARD_SET)
    lp.set_objective(objective)
    return lp


# The states program's value-carrying rows, in order: the Moebius rows of
# the triples and the full set, then the pair rows, each with the monomial
# of f and the sign its coefficient takes on the right-hand side.
_VALUED_ROWS = tuple((top, 1) for top in TRIPLES + (FULL4,)) + tuple((pm, -1) for pm in PAIR_MASKS)


@cache
def _shared_row(coeffs: tuple[tuple[str, int], ...], rel: str, rhs: Fraction) -> lpsolver.Constraint:
    """One Constraint per distinct states-program row, given its sorted
    coefficients.  The on-sets repeat their rows: the 113 sweep programs'
    6667 rows hold 200 distinct ones."""
    return lpsolver.Constraint(dict(coeffs), rel, rhs)


@cache
def _states_rows(on2: MbfTable, sign_rows: bool, dominance: bool) -> tuple[lpsolver.Constraint, ...]:
    """The states program's rows with every right-hand side 0; none of
    their coefficients depends on f.  Shared by every program built for
    these arguments (at most 114 on-sets times 3 flag combinations), and
    each row with every other template that has it (``_shared_row``), so
    neither the tuple nor a row's dict is ever mutated."""
    lp = lpsolver.LinearProgram()
    _add_av_variables(lp)
    forms = _moebius(on2)
    for mono, sign in _VALUED_ROWS:
        # for the pairs: the pair coefficient of f - W must stay
        # non-positive; the Moebius sum over the pair includes singleton and
        # empty corrections so that on-sets reaching below size two are
        # still handled exactly
        row = {name: sign * c for name, c in forms[mono].items()}
        lp.add_constraint(row, "==" if sign > 0 else "<=", 0)
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
    return tuple(_shared_row(tuple(sorted(con.coeffs.items())), con.rel, con.rhs) for con in lp.constraints)


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

    Only the 11 right-hand sides read off f are new; every row's
    coefficients come from ``_states_rows``.
    """
    lp = lpsolver.LinearProgram()
    _add_av_variables(lp)
    rows = _states_rows(on2, sign_rows, dominance)
    terms = f.poly.terms
    lp.constraints = [
        lpsolver.Constraint(con.coeffs, con.rel, sign * terms.get(mono, Fraction(0)))
        for con, (mono, sign) in zip(rows, _VALUED_ROWS)
    ]
    lp.constraints += rows[len(_VALUED_ROWS) :]
    return lp


def _av(values: dict[str, Fraction], tag: str) -> AvParams:
    """Auxiliary ``tag``'s parameters read off a program solution."""
    return AvParams(values[f"g{tag}"], tuple(values[f"w{tag}_{i}"] for i in range(1, 5)))


def _answer(values: dict[str, Fraction], x_part: dict[int, Fraction]) -> JointQuadratic:
    """The joint quadratic of a program point: the given x-part plus the
    auxiliary columns read off ``values``.  A solver or builder bug shows
    as an answer that is not a submodular quadratic, and raises."""
    terms = x_part | {mono: sign * values[name] for name, mono, sign in _AV_COLUMNS}
    # in ascending monomials: the capacity form and the max-flow graph
    # follow the order of the terms
    poly = MultilinearPoly(6, dict(sorted(terms.items())))
    if poly.degree > 2:
        raise lpsolver.LpInternalError("answer failed to come out quadratic")
    if not is_submodular(poly):
        raise lpsolver.LpInternalError("answer is not submodular")
    return JointQuadratic(QuadraticPoly(poly, 4, 2))


def _assemble(f: QuarticFunction, values: dict[str, Fraction], on2=BACKWARD_SET) -> JointQuadratic:
    """The joint quadratic of a states-program point: the x-part is f - W
    at the prescribed states, coefficient by coefficient.  W's coefficients
    are summed in ints, at the auxiliary values times their common
    denominator."""
    den = lcm(*[values[name].denominator for name, _, _ in _AV_COLUMNS])
    scaled = {name: values[name].numerator * (den // values[name].denominator) for name, _, _ in _AV_COLUMNS}
    terms = f.poly.terms
    x_part = {}
    for mono, form in enumerate(_moebius(on2)):
        w = sum(c * scaled[name] for name, c in form.items())
        c = terms.get(mono, Fraction(0))
        x_part[mono] = Fraction(c.numerator * den - w * c.denominator, c.denominator * den)
    return _answer(values, x_part)


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
    on-sets first, then by their sorted on-labelings, so the threshold
    |S| >= 2 leads; ``reduce_quartic`` decides that one in its
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
    joint = _answer(sol.values, {mono: sign * sol.values[name] for name, mono, sign in _X_COLUMNS})
    distance = verify_reduction(f.poly, joint.to_quadratic()).distance
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


def normalize_to_reference(p: AvParams) -> AvParams:
    """Replace a variable by one sitting exactly on a threshold pattern.

    With no on-state at a pair labeling the target is |S| >= 3: the output
    coefficient is min(0, old coefficient) on every labeling of size >= 3
    and provably non-negative below.  Otherwise the same construction aims
    at |S| >= 2; the pair labelings are overdetermined, so the solved
    parameters are checked against them and rejected when the input
    cannot sit on that pattern.
    """
    if p.k != 4:
        raise ValueError("reference normalization is specific to 4 variables")
    if p.g < 0 or any(partition_coefficient(p, 1 << e) < 0 for e in range(4)):
        raise ValueError("remove singletons before normalizing")
    out = _solve_reference_system({t: min_contribution(p, t) for t in TRIPLES + (FULL4,)})
    if all(partition_coefficient(p, pm) >= 0 for pm in PAIR_MASKS):
        _require(
            all(partition_coefficient(out, pm) >= 0 for pm in PAIR_MASKS),
            "normalization to the size-3 pattern left an on pair labeling",
        )
    elif any(partition_coefficient(out, pm) != min_contribution(p, pm) for pm in PAIR_MASKS):
        raise ValueError("input does not sit consistently on the size-2 pattern")
    _require(_preserves_min(p, MultilinearPoly.zero(4), [out]), "normalization broke the minimum")
    return out


def complement_form(p: AvParams) -> tuple[MultilinearPoly, AvParams]:
    """Equivalent rendering of one variable's contribution with the
    complemented activation convention:

        min(0, coeff(p, S)) = coeff-poly(p)(S) + min(0, g' - sum w_i (1-x_i))

    where the returned parameters are (sum w - g, w).  Used to present
    triangle-case outputs the way the transformation figures print them.
    """
    comp = AvParams(sum(p.weights, Fraction(0)) - p.g, p.weights)
    return _kappa_poly(p), comp


def _split_lp(p: AvParams):
    """Exact search for residual-pair magnitudes rho plus one variable bound
    to each threshold: the |S| >= 3 one (t) may act on every size >= 3
    labeling, the |S| >= 2 one (r) on every pair labeling and above.

    The objective, sum of rho plus t's constant, keeps the residual small
    and the |S| >= 3 variable shallow; on the single-pair, adjacent, star
    and triangle inputs of the transformation figures its optimum is the
    printed split.  It is bounded below by 0: rho >= 0, and t's constant is
    at least w_i + w_j >= 0 because its pair coefficients are non-negative.
    """
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

    lp.set_objective({f"rho_{pm}": 1 for pm in PAIR_MASKS} | {"gt": 1})
    sol = lpsolver.solve(lp)
    if sol.status != lpsolver.OPTIMAL:
        return None
    residual = MultilinearPoly(4, {pm: -sol.values[f"rho_{pm}"] for pm in PAIR_MASKS})
    return residual, [_av(sol.values, "t"), _av(sol.values, "r")]


def case_split(p: AvParams) -> tuple[MultilinearPoly, list[AvParams]]:
    """Trade on-states at pair labelings for bilinear residual terms.

    Output variables are each bound to one threshold: every pair labeling
    coefficient is non-negative (normalized onto |S| >= 3) or every
    one is non-positive (already on the size-2 sign pattern).  A variable
    already so bound passes through; any other goes to one exact program
    (``_split_lp``) with one variable per threshold.  Input that program
    cannot decompose is an InvariantError.
    """
    if p.k != 4:
        raise ValueError("the replacement algebra is specific to 4 variables")
    if p.g < 0 or any(partition_coefficient(p, 1 << e) < 0 for e in range(4)):
        raise ValueError("remove singletons before splitting")
    kappas = [partition_coefficient(p, pm) for pm in PAIR_MASKS]
    if all(v >= 0 for v in kappas) or all(v <= 0 for v in kappas):
        return MultilinearPoly.zero(4), _drop_trivial([p])
    out = _split_lp(p)
    _require(out is not None and _preserves_min(p, *out), f"no decomposition found for {p}")
    return out[0], _drop_trivial(out[1])


def _drop_trivial(avs: list[AvParams]) -> list[AvParams]:
    return [a for a in avs if any(min_contribution(a, m) != 0 for m in range(16))]
