"""Fourth-order specialization: two auxiliary variables suffice.

A reducible submodular quartic on x1..x4 always admits a form with just
two auxiliary variables.  The natural prescription fixes their optimal
states at the symmetric thresholds |S| >= 3 and |S| >= 2 (product active
on |S| >= 3) and solves an exact feasibility program over the twenty-odd
coefficients.  That prescription covers everything the non-interacting
replacement algebra below produces, but not quite the whole reducible
cone: sums carrying the two-sided interacting generator can provably
escape it, and for those ``reduce_quartic`` re-prescribes the two state
patterns (guided by a generator decomposition) and solves the same kind
of program again.  Non-reducibility is certified exactly, never by
numeric tolerance.

The module also carries the replacement algebra that justifies the
two-variable count for auxiliary variables without interactions:

  * ``remove_singletons`` trades on-states at single-variable labelings
    for linear residual terms;
  * ``case_split`` peels the on-states at two-variable labelings into
    bilinear residual terms plus at most two replacement variables, one
    bound for each threshold;
  * ``normalize_to_reference`` solves a nonsingular 5x5 system to land a
    pair-free variable exactly on the |S| >= 3 sign pattern (and checks
    the analogous consistency for |S| >= 2);
  * ``merge_duplicate_avs`` collapses variables with identical induced
    partitions by adding their coefficients.

``reduce_av_count`` composes those steps and ends with at most two
auxiliary variables.  Every stage re-checks min preservation on all 16
labelings; the printed transformation tables this algebra descends from
are incomplete for some inputs, so a small exact feasibility program
serves as the general fallback (and a complement reflection handles the
inputs whose on-pairs contain a complementary pair).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

from . import lpsolver
from .mbf import AvParams, min_contribution, partition_coefficient, partition_from_params
from .oracle import verify_reduction
from .pbf import MultilinearPoly, QuadraticPoly, indices_of, is_submodular, mask_of, rat

FULL4 = 0b1111
TRIPLES = tuple(FULL4 ^ (1 << (p - 1)) for p in (1, 2, 3, 4))  # missing 1,2,3,4
PAIR_MASKS = tuple(sorted(m for m in range(16) if m.bit_count() == 2))


class NotRepresentable(Exception):
    """The exact feasibility program has no solution: the quartic lies
    outside the reducible subclass."""


class InvariantError(RuntimeError):
    """An internal invariant of the replacement algebra failed; indicates a
    bug.  Raised explicitly, so the checks also run under ``python -O``."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise InvariantError(what)


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

    def value(self, mask: int) -> Fraction:
        return self.poly.evaluate(mask)

    def is_submodular(self) -> bool:
        return is_submodular(self.poly)

    def __add__(self, other: "QuarticFunction") -> "QuarticFunction":
        return QuarticFunction(self.poly + other.poly)

    def scaled(self, c) -> "QuarticFunction":
        return QuarticFunction(self.poly.scaled(c))


def interaction_active(mask: int) -> int:
    """Product of the two threshold states: 1 exactly on |S| >= 3."""
    return 1 if mask.bit_count() >= 3 else 0


def prescribed_states(mask: int) -> tuple[int, int]:
    return (1 if mask.bit_count() >= 3 else 0, 1 if mask.bit_count() >= 2 else 0)


@dataclass(frozen=True)
class JointQuadratic:
    """Quadratic over x1..x4 plus the two threshold auxiliaries.

    h(x, z1, z2) = b0 + sum b_i x_i - sum b_pairs[p] x_i x_j
                 + (g1 - sum w1_i x_i) z1 + (g2 - sum w2_i x_i) z2
                 - j12 z1 z2

    with b_pairs, the w's and j12 all non-negative, which is exactly
    submodularity of the whole form.
    """

    b0: Fraction
    b: tuple[Fraction, Fraction, Fraction, Fraction]
    b_pairs: dict[int, Fraction]
    av1: AvParams
    av2: AvParams
    j12: Fraction

    def __post_init__(self):
        object.__setattr__(self, "b0", rat(self.b0))
        object.__setattr__(self, "b", tuple(rat(v) for v in self.b))
        object.__setattr__(
            self, "b_pairs", {m: rat(v) for m, v in self.b_pairs.items() if v != 0}
        )
        object.__setattr__(self, "j12", rat(self.j12))
        if self.j12 < 0 or any(v < 0 for v in self.b_pairs.values()):
            raise ValueError("interaction and pair magnitudes must be non-negative")

    def x_part(self, mask: int) -> Fraction:
        total = self.b0
        for i in range(4):
            if mask >> i & 1:
                total += self.b[i]
        for pm, v in self.b_pairs.items():
            if mask & pm == pm:
                total -= v
        return total

    def evaluate(self, mask: int, z1: int, z2: int) -> Fraction:
        total = self.x_part(mask)
        if z1:
            total += partition_coefficient(self.av1, mask)
        if z2:
            total += partition_coefficient(self.av2, mask)
        if z1 and z2:
            total -= self.j12
        return total

    def value_at_prescribed(self, mask: int) -> Fraction:
        z1, z2 = prescribed_states(mask)
        return self.evaluate(mask, z1, z2)

    def to_quadratic(self) -> QuadraticPoly:
        terms: dict[int, Fraction] = {0: self.b0}
        for i in range(4):
            terms[1 << i] = self.b[i]
        for pm, v in self.b_pairs.items():
            terms[pm] = terms.get(pm, Fraction(0)) - v
        z1, z2 = 1 << 4, 1 << 5
        for z_mask, av in ((z1, self.av1), (z2, self.av2)):
            terms[z_mask] = terms.get(z_mask, Fraction(0)) + av.g
            for i in range(4):
                if av.weights[i]:
                    terms[(1 << i) | z_mask] = -av.weights[i]
        if self.j12:
            terms[z1 | z2] = -self.j12
        return QuadraticPoly(MultilinearPoly(6, terms), 4, 2)


# ---------------------------------------------------------------------------
# The exact feasibility program


def build_quartic_lp(f: QuarticFunction, exact: bool = True) -> lpsolver.LinearProgram:
    """Feasibility (or L1-nearest) program in the joint-quadratic
    coefficients: 16 value rows at the known threshold states, the
    per-threshold sign pattern on every labeling, and non-negativity of
    all bilinear magnitudes.  With exact=False the value rows get slack
    variables and their total is minimized."""
    if not f.is_submodular():
        raise ValueError("the exact program only applies to submodular quartics")
    lp = lpsolver.LinearProgram()
    lp.add_variable("b0", lower=None)
    for i in range(1, 5):
        lp.add_variable(f"b{i}", lower=None)
    for pm in PAIR_MASKS:
        i, j = indices_of(pm)
        lp.add_variable(f"bp_{i}{j}")
    lp.add_variable("g1")
    lp.add_variable("g2")
    for i in range(1, 5):
        lp.add_variable(f"w1_{i}")
        lp.add_variable(f"w2_{i}")
    lp.add_variable("j12")

    objective: dict[str, Fraction] = {}
    for mask in range(16):
        z1, z2 = prescribed_states(mask)
        row: dict[str, Fraction] = {"b0": Fraction(1)}
        for i in range(1, 5):
            if mask >> (i - 1) & 1:
                row[f"b{i}"] = Fraction(1)
        for pm in PAIR_MASKS:
            if mask & pm == pm:
                i, j = indices_of(pm)
                row[f"bp_{i}{j}"] = Fraction(-1)
        for z, tag in ((z1, "1"), (z2, "2")):
            if z:
                row[f"g{tag}"] = Fraction(1)
                for i in range(1, 5):
                    if mask >> (i - 1) & 1:
                        row[f"w{tag}_{i}"] = row.get(f"w{tag}_{i}", Fraction(0)) - 1
        if z1 and z2:
            row["j12"] = Fraction(-1)
        target = f.value(mask)
        if exact:
            lp.add_constraint(row, "==", target)
        else:
            slack = f"d_{mask}"
            lp.add_variable(slack)
            objective[slack] = Fraction(1)
            lo = dict(row)
            lo[slack] = lo.get(slack, Fraction(0)) + 1
            lp.add_constraint(lo, ">=", target)
            hi = dict(row)
            hi[slack] = hi.get(slack, Fraction(0)) - 1
            lp.add_constraint(hi, "<=", target)

    for mask in range(16):
        for tag, on in (("1", mask.bit_count() >= 3), ("2", mask.bit_count() >= 2)):
            row = {f"g{tag}": Fraction(1)}
            for i in range(1, 5):
                if mask >> (i - 1) & 1:
                    row[f"w{tag}_{i}"] = Fraction(-1)
            lp.add_constraint(row, "<=" if on else ">=", 0)

    lp.set_objective(objective)
    return lp


def _threshold_part_form(mask: int) -> dict[str, Fraction]:
    """W(S) as a linear form in (g1, w1_i, g2, w2_i, j12)."""
    z1, z2 = prescribed_states(mask)
    row: dict[str, Fraction] = {}
    for z, tag in ((z1, "1"), (z2, "2")):
        if z:
            row[f"g{tag}"] = row.get(f"g{tag}", Fraction(0)) + 1
            for i in range(1, 5):
                if mask >> (i - 1) & 1:
                    row[f"w{tag}_{i}"] = row.get(f"w{tag}_{i}", Fraction(0)) - 1
    if z1 and z2:
        row["j12"] = row.get("j12", Fraction(0)) - 1
    return row


def _reduced_feasibility_lp(f: QuarticFunction, sign_rows: bool, min_rows: bool) -> lpsolver.LinearProgram:
    """Equivalent presolve of the exact program: the 16 value rows
    determine the x-part uniquely once the threshold part W leaves f - W
    exactly quadratic, so only the threshold coefficients remain unknown.

    sign_rows adds the per-threshold sign pattern; min_rows adds, per
    labeling, dominance of the prescribed state over the other three joint
    states.  Either set makes the program sound; both are implied by any
    representation verified by the oracle.
    """
    lp = lpsolver.LinearProgram()
    lp.add_variable("g1")
    lp.add_variable("g2")
    for i in range(1, 5):
        lp.add_variable(f"w1_{i}")
        lp.add_variable(f"w2_{i}")
    lp.add_variable("j12")

    # f - W must be exactly quadratic: its degree-3 and degree-4
    # multilinear coefficients vanish.
    for top in TRIPLES + (FULL4,):
        row: dict[str, Fraction] = {}
        bits = top.bit_count()
        sub = top
        while True:
            sign = 1 if (bits - sub.bit_count()) % 2 == 0 else -1
            for name, c in _threshold_part_form(sub).items():
                row[name] = row.get(name, Fraction(0)) + sign * c
            if sub == 0:
                break
            sub = (sub - 1) & top
        lp.add_constraint(row, "==", f.poly.terms.get(top, Fraction(0)))

    # Remaining pair coefficients of f - W must be non-positive.
    for pm in PAIR_MASKS:
        row = {}
        for name, c in _threshold_part_form(pm).items():
            row[name] = -c
        lp.add_constraint(row, "<=", -f.poly.terms.get(pm, Fraction(0)))

    if sign_rows:
        for mask in range(16):
            for tag, on in (("1", mask.bit_count() >= 3), ("2", mask.bit_count() >= 2)):
                row = {f"g{tag}": Fraction(1)}
                for i in range(1, 5):
                    if mask >> (i - 1) & 1:
                        row[f"w{tag}_{i}"] = Fraction(-1)
                lp.add_constraint(row, "<=" if on else ">=", 0)
    if min_rows:
        for mask in range(16):
            z1, z2 = prescribed_states(mask)
            base = _zpart_form(mask, z1, z2)
            for a1 in (0, 1):
                for a2 in (0, 1):
                    if (a1, a2) == (z1, z2):
                        continue
                    row = dict(base)
                    for name, c in _zpart_form(mask, a1, a2).items():
                        row[name] = row.get(name, Fraction(0)) - c
                    lp.add_constraint(row, "<=", 0)
    return lp


def _zpart_form(mask: int, z1: int, z2: int) -> dict[str, Fraction]:
    row: dict[str, Fraction] = {}
    for z, tag in ((z1, "1"), (z2, "2")):
        if z:
            row[f"g{tag}"] = row.get(f"g{tag}", Fraction(0)) + 1
            for i in range(1, 5):
                if mask >> (i - 1) & 1:
                    row[f"w{tag}_{i}"] = row.get(f"w{tag}_{i}", Fraction(0)) - 1
    if z1 and z2:
        row["j12"] = row.get("j12", Fraction(0)) - 1
    return row


FORWARD_SET = frozenset(m for m in range(16) if m.bit_count() >= 3)
BACKWARD_SET = frozenset(m for m in range(16) if m.bit_count() >= 2)


def _states_lp(f: QuarticFunction, on1: frozenset, on2: frozenset) -> lpsolver.LinearProgram:
    """Dominance program for arbitrary prescribed on-sets: value rows are
    folded away exactly as in the presolve, and per labeling the prescribed
    joint state must weakly dominate the other three.  Feasibility is then
    equivalent to the existence of a verified reduction whose auxiliary
    states follow (on1, on2)."""
    lp = lpsolver.LinearProgram()
    lp.add_variable("g1")
    lp.add_variable("g2")
    for i in range(1, 5):
        lp.add_variable(f"w1_{i}")
        lp.add_variable(f"w2_{i}")
    lp.add_variable("j12")

    def states(mask):
        return (1 if mask in on1 else 0, 1 if mask in on2 else 0)

    for top in TRIPLES + (FULL4,):
        row: dict[str, Fraction] = {}
        bits = top.bit_count()
        sub = top
        while True:
            sign = 1 if (bits - sub.bit_count()) % 2 == 0 else -1
            for name, c in _zpart_form(sub, *states(sub)).items():
                row[name] = row.get(name, Fraction(0)) + sign * c
            if sub == 0:
                break
            sub = (sub - 1) & top
        lp.add_constraint(row, "==", f.poly.terms.get(top, Fraction(0)))
    for pm in PAIR_MASKS:
        # pair coefficient of f - W must stay non-positive; the Moebius sum
        # over the pair includes singleton and empty corrections so that
        # on-sets reaching below size two are still handled exactly
        row: dict[str, Fraction] = {}
        for name, c in _zpart_form(pm, *states(pm)).items():
            row[name] = -c
        for s in indices_of(pm):
            for name, c in _zpart_form(1 << (s - 1), *states(1 << (s - 1))).items():
                row[name] = row.get(name, Fraction(0)) + c
        for name, c in _zpart_form(0, *states(0)).items():
            row[name] = row.get(name, Fraction(0)) - c
        lp.add_constraint(row, "<=", -f.poly.terms.get(pm, Fraction(0)))
    for mask in range(16):
        z1, z2 = states(mask)
        base = _zpart_form(mask, z1, z2)
        for a1 in (0, 1):
            for a2 in (0, 1):
                if (a1, a2) == (z1, z2):
                    continue
                row = dict(base)
                for name, c in _zpart_form(mask, a1, a2).items():
                    row[name] = row.get(name, Fraction(0)) - c
                lp.add_constraint(row, "<=", 0)
    return lp


def _assemble(f: QuarticFunction, values: dict[str, Fraction], on1=FORWARD_SET, on2=BACKWARD_SET) -> JointQuadratic:
    av1 = AvParams(values["g1"], tuple(values[f"w1_{i}"] for i in range(1, 5)))
    av2 = AvParams(values["g2"], tuple(values[f"w2_{i}"] for i in range(1, 5)))
    j12 = values["j12"]
    xvals = []
    for mask in range(16):
        z1, z2 = (1 if mask in on1 else 0, 1 if mask in on2 else 0)
        w = Fraction(0)
        if z1:
            w += partition_coefficient(av1, mask)
        if z2:
            w += partition_coefficient(av2, mask)
        if z1 and z2:
            w -= j12
        xvals.append(f.value(mask) - w)
    xpoly = MultilinearPoly.from_values(4, xvals)
    if xpoly.degree > 2:
        raise lpsolver.LpInternalError("x-part failed to come out quadratic")
    b_pairs = {}
    for pm in PAIR_MASKS:
        c = xpoly.terms.get(pm, Fraction(0))
        if c > 0:
            raise lpsolver.LpInternalError("x-part has a positive pair coefficient")
        if c:
            b_pairs[pm] = -c
    return JointQuadratic(
        xpoly.terms.get(0, Fraction(0)),
        tuple(xpoly.terms.get(1 << i, Fraction(0)) for i in range(4)),
        b_pairs,
        av1,
        av2,
        j12,
    )


def _generator_instances():
    global _INSTANCES
    if _INSTANCES is None:
        out = []
        for group in range(1, 10):
            for pattern in generator_patterns(group):
                fi, _ = generator_catalog(group, pattern)
                out.append((group, pattern, fi))
        _INSTANCES = out
    return _INSTANCES


_INSTANCES = None


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


def _upward(masks) -> frozenset:
    out = set()
    for m in masks:
        for s in range(16):
            if s & m == m:
                out.add(s)
    return frozenset(out)


def _natural_on_set(group: int, pattern) -> frozenset | None:
    """On-set of the single auxiliary variable in a group's closed form."""
    _, h = generator_catalog(group, pattern)
    if h is None or h.n_z != 1:
        return None
    terms = {m & 0b1111: -c for m, c in h.poly.terms.items() if m >> 4}
    g = -terms.pop(0, Fraction(0))
    weights = [terms.get(1 << i, Fraction(0)) for i in range(4)]
    p = AvParams(g, tuple(weights))
    return frozenset(m for m in range(16) if partition_coefficient(p, m) < 0)


def _split_on_sets(pattern) -> tuple[frozenset, frozenset]:
    i, j, k, l = pattern
    p = (1 << (i - 1)) | (1 << (j - 1))
    q = (1 << (k - 1)) | (1 << (l - 1))
    z2 = frozenset(s for s in _upward([q]) if s.bit_count() >= 3)
    z1 = _upward([p]) | z2
    return z1, z2


def _candidate_states(parts) -> list[tuple[frozenset, frozenset]]:
    """Prescription candidates built from a generator decomposition: the
    pair-free on-sets union into one slot, the pair-bearing ones into the
    other, with the reference thresholds as wildcards."""
    slot1: set[int] = set()
    slot2: set[int] = set()
    atoms1: list[frozenset] = []
    atoms2: list[frozenset] = []
    for group, pattern, _ in parts:
        sets = []
        if group == 9:
            z1, z2 = _split_on_sets(pattern)
            sets = [z1, z2]
        elif group != 1:
            s = _natural_on_set(group, pattern)
            if s:
                sets = [s]
        for s in sets:
            if all(m.bit_count() >= 3 for m in s):
                slot1 |= s
                atoms1.append(s)
            else:
                slot2 |= s
                atoms2.append(s)
    u1, u2 = frozenset(slot1), frozenset(slot2)
    candidates = [
        (u1, u2),
        (FORWARD_SET, u2),
        (u1, BACKWARD_SET),
        (u1 | FORWARD_SET, u2),
        (u1, u2 | BACKWARD_SET),
    ]
    # small bipartition sweep over the individual on-sets
    atoms = sorted(set(atoms1 + atoms2), key=sorted)
    if len(atoms) <= 6:
        for pick in range(1 << len(atoms)):
            a = frozenset().union(*(atoms[i] for i in range(len(atoms)) if pick >> i & 1))
            b = frozenset().union(*(atoms[i] for i in range(len(atoms)) if not pick >> i & 1))
            candidates.append((a, b))
    seen = set()
    out = []
    for cand in candidates:
        if cand not in seen and cand != (FORWARD_SET, BACKWARD_SET):
            seen.add(cand)
            out.append(cand)
    return out


def _restricted_zoo() -> list[tuple[frozenset, frozenset]]:
    global _ZOO
    if _ZOO is None:
        from .mbf import enumerate_mbfs

        onsets = [
            frozenset(m for m in range(16) if t.value(m)) for t in enumerate_mbfs(4)
        ]
        level3 = sorted(
            (u for u in onsets if all(m.bit_count() >= 3 for m in u)),
            key=lambda u: (-len(u), sorted(u)),
        )
        nosing = sorted(
            (u for u in onsets if all(m.bit_count() >= 2 for m in u)),
            key=lambda u: (-len(u), sorted(u)),
        )
        _ZOO = [(u1, u2) for u2 in nosing for u1 in level3]
    return _ZOO


_ZOO = None


def _try_states(f: QuarticFunction, on1: frozenset, on2: frozenset) -> JointQuadratic | None:
    sol = lpsolver.solve(_states_lp(f, on1, on2))
    if sol.status != lpsolver.OPTIMAL:
        return None
    joint = _assemble(f, sol.values, on1, on2)
    if not verify_reduction(f.poly, joint.to_quadratic()).passed:
        raise lpsolver.LpInternalError("dominance-feasible point failed verification")
    return joint


def reduce_quartic(f: QuarticFunction) -> JointQuadratic:
    """Exact two-auxiliary reduction, oracle-checked.

    The fixed threshold prescription is tried first (it hosts everything
    the non-interacting replacement algebra produces), but its cone does
    not exhaust the reducible class: sums carrying the two-sided
    interacting generator can escape it.  Failures therefore re-prescribe
    the auxiliary state patterns, first along candidates read off a
    generator decomposition of f, then across a bounded sweep of monotone
    pattern pairs.  Raises NotRepresentable when f has no non-negative
    generator decomposition at all, which is exactly the class the
    replacement algebra cannot reach.
    """
    if not f.is_submodular():
        raise ValueError("reduce_quartic needs a submodular quartic")
    for sign_rows, min_rows in ((True, False), (True, True)):
        sol = lpsolver.solve(_reduced_feasibility_lp(f, sign_rows, min_rows))
        if sol.status == lpsolver.OPTIMAL:
            joint = _assemble(f, sol.values)
            if verify_reduction(f.poly, joint.to_quadratic()).passed:
                return joint
    joint = _try_states(f, FORWARD_SET, BACKWARD_SET)
    if joint is not None:
        return joint
    parts = decompose_over_generators(f)
    if parts is None:
        raise NotRepresentable("no non-negative generator decomposition exists")
    for on1, on2 in _candidate_states(parts):
        joint = _try_states(f, on1, on2)
        if joint is not None:
            return joint
    for on1, on2 in _restricted_zoo():
        joint = _try_states(f, on1, on2)
        if joint is not None:
            return joint
    raise lpsolver.LpInternalError(
        "decomposable quartic with no two-variable prescription in the search space"
    )


def nearest_quartic(f: QuarticFunction) -> tuple[JointQuadratic, Fraction]:
    """L1-nearest joint quadratic when the exact program fails (or not):
    returns the assembled form and the oracle-confirmed distance."""
    if not f.is_submodular():
        raise ValueError("nearest_quartic needs a submodular quartic")
    try:
        return reduce_quartic(f), Fraction(0)
    except NotRepresentable:
        pass
    lp = build_quartic_lp(f, exact=False)
    sol = lpsolver.solve(lp)
    if sol.status != lpsolver.OPTIMAL:
        raise lpsolver.LpInternalError(f"nearest program reported {sol.status}")
    av1 = AvParams(sol.values["g1"], tuple(sol.values[f"w1_{i}"] for i in range(1, 5)))
    av2 = AvParams(sol.values["g2"], tuple(sol.values[f"w2_{i}"] for i in range(1, 5)))
    joint = JointQuadratic(
        sol.values["b0"],
        tuple(sol.values[f"b{i}"] for i in range(1, 5)),
        {pm: sol.values[f"bp_{indices_of(pm)[0]}{indices_of(pm)[1]}"] for pm in PAIR_MASKS},
        av1,
        av2,
        sol.values["j12"],
    )
    report = verify_reduction(f.poly, joint.to_quadratic())
    distance = sum((abs(g) for g in report.gaps.values()), Fraction(0))
    if distance == 0:
        raise lpsolver.LpInternalError("exact fit slipped past the exact program")
    return joint, distance


# ---------------------------------------------------------------------------
# Generator catalog


def _pattern_poly(terms, pattern):
    mapping = {pos + 1: var for pos, var in enumerate(pattern)}
    return MultilinearPoly.from_terms(
        4, [([mapping[i] for i in idxs], c) for idxs, c in terms]
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
    f = QuarticFunction(_pattern_poly(f_terms, pattern))
    if h_terms is None:
        return f, None
    mapping = {pos + 1: var for pos, var in enumerate(pattern)}
    mapping[5] = 5
    mapping[6] = 6
    if any(6 in idxs for idxs, _ in h_terms):
        n_z = 2
    elif any(5 in idxs for idxs, _ in h_terms):
        n_z = 1
    else:
        n_z = 0
    hp = MultilinearPoly.from_terms(
        4 + n_z, [([mapping[i] for i in idxs], c) for idxs, c in h_terms]
    )
    return f, QuadraticPoly(hp, 4, n_z)


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


def _has_complementary_pair(pair_masks) -> bool:
    s = set(pair_masks)
    return any(FULL4 ^ pm in s for pm in s)


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


def _split_lp(p: AvParams, t_negatives: tuple[int, ...]):
    """Exact search for residual-pair magnitudes plus one variable bound to
    each threshold; t_negatives fixes which size >= 3 labelings the forward
    variable is allowed to act on."""
    lp = lpsolver.LinearProgram()
    for pm in PAIR_MASKS:
        lp.add_variable(f"rho_{pm}")
    lp.add_variable("gt", lower=None)
    lp.add_variable("gr", lower=None)
    for i in range(4):
        lp.add_variable(f"wt_{i}")
        lp.add_variable(f"wr_{i}")

    def kt(mask):
        row = {"gt": Fraction(1)}
        for i in range(4):
            if mask >> i & 1:
                row[f"wt_{i}"] = Fraction(-1)
        return row

    def kr(mask):
        row = {"gr": Fraction(1)}
        for i in range(4):
            if mask >> i & 1:
                row[f"wr_{i}"] = Fraction(-1)
        return row

    for pm in PAIR_MASKS:
        lp.add_constraint(kt(pm), ">=", 0)
        lp.add_constraint(kr(pm), "<=", 0)
    for e in range(4):
        lp.add_constraint(kr(1 << e), ">=", 0)
        lp.add_constraint(kt(1 << e), ">=", 0)
    for top in TRIPLES + (FULL4,):
        rel = "<=" if top in t_negatives else ">="
        lp.add_constraint(kt(top), rel, 0)

    for pm in PAIR_MASKS:
        row = dict(kr(pm))
        row[f"rho_{pm}"] = Fraction(-1)
        lp.add_constraint(row, "==", min_contribution(p, pm))
    for top in TRIPLES + (FULL4,):
        row = dict(kr(top))
        if top in t_negatives:
            for name, c in kt(top).items():
                row[name] = row.get(name, Fraction(0)) + c
        for pm in PAIR_MASKS:
            if pm & top == pm:
                row[f"rho_{pm}"] = row.get(f"rho_{pm}", Fraction(0)) - 1
        lp.add_constraint(row, "==", min_contribution(p, top))

    lp.set_objective({f"wt_{i}": 1 for i in range(4)} | {f"wr_{i}": 1 for i in range(4)})
    sol = lpsolver.solve(lp)
    if sol.status != lpsolver.OPTIMAL:
        return None
    residual = MultilinearPoly(4, {pm: -sol.values[f"rho_{pm}"] for pm in PAIR_MASKS})
    avs = []
    for prefix in ("t", "r"):
        a = AvParams(
            sol.values[f"g{prefix}"], tuple(sol.values[f"w{prefix}_{i}"] for i in range(4))
        )
        if any(min_contribution(a, m) != 0 for m in range(16)):
            avs.append(a)
    return residual, avs


def case_split(p: AvParams) -> tuple[MultilinearPoly, list[AvParams]]:
    """Trade on-states at pair labelings for bilinear residual terms.

    Output variables are each bound to one threshold: every pair labeling
    coefficient is non-negative (feeds the forward normalization) or every
    one is non-positive (already on the size-2 sign pattern).  Dispatch
    tries the printed single-pair / adjacent / star / triangle
    transformations first, widening the on-pair set across ties; those
    tables do not cover every valid input, so failures fall through to an
    exact feasibility search, and an input whose on pairs contain a
    complementary pair is handled through the complement reflection, which
    provably lands back in the table-shaped regime.
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

    if _has_complementary_pair(neg):
        return _reflected_split(p)

    for shape in _shape_candidates(neg, zero):
        out = _apply_shape(p, shape)
        if out is not None and _preserves_min(p, *out):
            return out[0], _drop_trivial(out[1])

    tops = TRIPLES + (FULL4,)
    for keep_size in range(len(tops), -1, -1):
        for t_negatives in combinations(tops, keep_size):
            out = _split_lp(p, t_negatives)
            if out is not None and _preserves_min(p, *out):
                return out[0], _drop_trivial(out[1])
    raise ForbiddenConfiguration(f"no decomposition found for {p}")


def _drop_trivial(avs: list[AvParams]) -> list[AvParams]:
    return [a for a in avs if any(min_contribution(a, m) != 0 for m in range(16))]


def _reflected_split(p: AvParams) -> tuple[MultilinearPoly, list[AvParams]]:
    # min(0, coeff(p, S)) = coeff-poly(p)(S) + min(0, coeff(refl, S-complement))
    # and the reflected instance has no complementary on-pair, so it takes
    # the table path.  Forward-side outputs are normalized before
    # reflecting back: that pins their size >= 3 coefficients non-positive,
    # which the reflection turns into the singleton-free guarantee.
    total = sum(p.weights, Fraction(0))
    refl = AvParams(total - p.g, p.weights)
    sub_res, sub_avs = case_split(refl)
    _require(
        not _has_complementary_pair([pm for pm in PAIR_MASKS if partition_coefficient(refl, pm) < 0]),
        "reflection kept a complementary on-pair",
    )
    residual = _kappa_poly(p) + sub_res.substitute_complement()
    out = []
    for a in sub_avs:
        if all(partition_coefficient(a, pm) >= 0 for pm in PAIR_MASKS):
            a = normalize_to_reference(a, "forward")
        residual = residual + _kappa_poly(a).substitute_complement()
        out.append(AvParams(sum(a.weights, Fraction(0)) - a.g, a.weights))
    out = _drop_trivial(out)
    _require(_preserves_min(p, residual, out), "reflected split broke the minimum")
    return residual, out


# ---------------------------------------------------------------------------
# Whole-function pipeline


def _decompose_linear_in_aux(h: QuadraticPoly) -> tuple[MultilinearPoly, list[AvParams]]:
    k = h.n_x
    xterms: dict[int, Fraction] = {}
    g = [Fraction(0)] * h.n_z
    w = [[Fraction(0)] * k for _ in range(h.n_z)]
    for mask, coeff in h.poly.terms.items():
        zpart = mask >> k
        if zpart == 0:
            xterms[mask] = coeff
            continue
        if zpart.bit_count() > 1:
            raise ValueError("auxiliary variables must enter linearly")
        a = zpart.bit_length() - 1
        xmask = mask & ((1 << k) - 1)
        if xmask == 0:
            g[a] = coeff
        elif xmask.bit_count() == 1:
            if coeff > 0:
                raise ValueError("positive original-to-auxiliary coupling is not submodular")
            w[a][xmask.bit_length() - 1] = -coeff
        else:
            raise ValueError("degree > 2 term involving an auxiliary variable")
    return MultilinearPoly(k, xterms), [AvParams(g[a], tuple(w[a])) for a in range(h.n_z)]


def _build_joint(k: int, residual: MultilinearPoly, avs: list[AvParams]) -> QuadraticPoly:
    n = k + len(avs)
    terms = {m: c for m, c in residual.terms.items()}
    for pos, a in enumerate(avs):
        zbit = 1 << (k + pos)
        if a.g:
            terms[zbit] = a.g
        for i in range(k):
            if a.weights[i]:
                terms[zbit | (1 << i)] = -a.weights[i]
    return QuadraticPoly(MultilinearPoly(n, terms), k, len(avs))


def merge_duplicate_avs(h: QuadraticPoly) -> QuadraticPoly:
    """Collapse auxiliary variables with identical induced partitions by
    adding their coefficients; sound because equal partitions mean equal
    optimal states on every labeling."""
    residual, avs = _decompose_linear_in_aux(h)
    groups: dict[frozenset, AvParams] = {}
    order = []
    for a in avs:
        key = partition_from_params(a).b_family
        if key in groups:
            prev = groups[key]
            groups[key] = AvParams(
                prev.g + a.g, tuple(x + y for x, y in zip(prev.weights, a.weights))
            )
        else:
            groups[key] = a
            order.append(key)
    merged = [groups[key] for key in order]
    out = _build_joint(h.n_x, residual, merged)
    _require(
        all(out.min_over_aux(x)[0] == h.min_over_aux(x)[0] for x in range(1 << h.n_x)),
        "merging auxiliaries broke the minimum",
    )
    return out


def reduce_av_count(h: QuadraticPoly) -> QuadraticPoly:
    """Rewrite an interaction-free quadratic so at most two auxiliary
    variables remain, one per threshold pattern; min over the auxiliary
    block is preserved on every original labeling."""
    if h.n_x != 4:
        raise ValueError("the pipeline is specific to 4 original variables")
    residual, avs = _decompose_linear_in_aux(h)
    forward: list[AvParams] = []
    backward: list[AvParams] = []
    for p in avs:
        res1, p1 = remove_singletons(p)
        residual = residual + res1
        if p1 is None:
            continue
        res2, parts = case_split(p1)
        residual = residual + res2
        for a in parts:
            if all(partition_coefficient(a, pm) >= 0 for pm in PAIR_MASKS):
                forward.append(normalize_to_reference(a, "forward"))
            else:
                backward.append(normalize_to_reference(a, "backward"))
    final = []
    for group in (forward, backward):
        if not group:
            continue
        total = group[0]
        for a in group[1:]:
            total = AvParams(
                total.g + a.g, tuple(x + y for x, y in zip(total.weights, a.weights))
            )
        if any(min_contribution(total, m) != 0 for m in range(16)):
            final.append(total)
    out = _build_joint(4, residual, final)
    _require(
        all(out.min_over_aux(x)[0] == h.min_over_aux(x)[0] for x in range(16)),
        "pipeline broke the minimum",
    )
    return out
