import random
from fractions import Fraction

import pytest

from subquad.lpsolver import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, solve
from subquad.pbf import format_rational


def lp_of(variables, constraints, objective, lowers=None):
    lp = LinearProgram()
    lowers = lowers or {}
    for v in variables:
        lp.add_variable(v, lower=lowers.get(v, 0))
    for coeffs, rel, rhs in constraints:
        lp.add_constraint(coeffs, rel, rhs)
    lp.set_objective(objective)
    return lp


class TestBasics:
    def test_lower_bound_binds(self):
        sol = solve(lp_of(["x"], [({"x": 1}, ">=", 3)], {"x": 1}))
        assert sol.status == OPTIMAL
        assert sol.values["x"] == 3 and sol.objective_value == 3

    def test_infeasible(self):
        sol = solve(lp_of(["x"], [({"x": 1}, ">=", 1), ({"x": 1}, "<=", 0)], {}))
        assert sol.status == INFEASIBLE

    def test_textbook_simplex(self):
        sol = solve(
            lp_of(["x", "y"], [({"x": 1, "y": 1}, "<=", 1)], {"x": -1, "y": -1})
        )
        assert sol.status == OPTIMAL and sol.objective_value == -1

    def test_unbounded(self):
        sol = solve(lp_of(["x"], [], {"x": -1}))
        assert sol.status == UNBOUNDED

    def test_free_variable(self):
        sol = solve(
            lp_of(["x"], [({"x": 1}, ">=", Fraction(-7, 2))], {"x": 1}, {"x": None})
        )
        assert sol.status == OPTIMAL and sol.values["x"] == Fraction(-7, 2)

    def test_equality_mix(self):
        sol = solve(
            lp_of(
                ["x", "y", "z"],
                [
                    ({"x": 1, "y": 2, "z": 1}, "==", 4),
                    ({"x": 1, "y": 1}, ">=", 1),
                    ({"z": 1}, "<=", 2),
                ],
                {"x": 2, "y": 3, "z": 1},
            )
        )
        assert sol.status == OPTIMAL
        lhs = sol.values["x"] + 2 * sol.values["y"] + sol.values["z"]
        assert lhs == 4

    def test_shifted_lower_bound(self):
        sol = solve(lp_of(["x"], [({"x": 1}, "<=", 9)], {"x": 1}, {"x": Fraction(5, 2)}))
        assert sol.values["x"] == Fraction(5, 2)

    def test_degenerate_redundant_rows(self):
        sol = solve(
            lp_of(
                ["x", "y"],
                [
                    ({"x": 1, "y": 1}, "==", 2),
                    ({"x": 2, "y": 2}, "==", 4),
                    ({"x": 1}, "<=", 2),
                ],
                {"x": 1},
            )
        )
        assert sol.status == OPTIMAL and sol.objective_value == 0

    def test_duplicate_variable_rejected(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(ValueError):
            lp.add_variable("x")

    def test_unknown_variable_rejected(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(ValueError):
            lp.add_constraint({"y": 1}, "<=", 0)


class TestExactness:
    def _random_feasible(self, rng):
        n = rng.randint(2, 6)
        names = [f"x{i}" for i in range(n)]
        point = [Fraction(rng.randint(0, 5), rng.choice([1, 2, 3])) for _ in range(n)]
        lp = LinearProgram()
        for v in names:
            lp.add_variable(v)
        for _ in range(rng.randint(2, 7)):
            coeffs = {
                v: Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
                for v in rng.sample(names, rng.randint(1, n))
            }
            lhs = sum(coeffs[v] * point[names.index(v)] for v in coeffs)
            slack = Fraction(rng.randint(0, 3))
            if rng.random() < 0.5:
                lp.add_constraint(coeffs, "<=", lhs + slack)
            else:
                lp.add_constraint(coeffs, ">=", lhs - slack)
        lp.set_objective({v: Fraction(rng.randint(0, 3)) for v in names})
        return lp

    def test_zero_residual_on_random_programs(self):
        rng = random.Random(43)
        for _ in range(40):
            lp = self._random_feasible(rng)
            sol = solve(lp)
            assert sol.status == OPTIMAL
            for con in lp.constraints:
                lhs = sum(c * sol.values[v] for v, c in con.coeffs.items())
                if con.rel == "<=":
                    assert lhs <= con.rhs
                elif con.rel == ">=":
                    assert lhs >= con.rhs
                else:
                    assert lhs == con.rhs

    def test_weak_duality_spot_check(self):
        # min c x s.t. A x >= b, x >= 0: any y >= 0 with yA <= c gives
        # y b <= optimum.
        rng = random.Random(47)
        for _ in range(25):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            a = [[Fraction(rng.randint(0, 4)) for _ in range(n)] for _ in range(m)]
            b = [Fraction(rng.randint(0, 5)) for _ in range(m)]
            y = [Fraction(rng.randint(0, 3), rng.choice([1, 2])) for _ in range(m)]
            c = [
                sum(y[i] * a[i][j] for i in range(m)) + Fraction(rng.randint(0, 2))
                for j in range(n)
            ]
            lp = LinearProgram()
            for j in range(n):
                lp.add_variable(f"x{j}")
            for i in range(m):
                lp.add_constraint({f"x{j}": a[i][j] for j in range(n)}, ">=", b[i])
            lp.set_objective({f"x{j}": c[j] for j in range(n)})
            sol = solve(lp)
            if sol.status == OPTIMAL:
                bound = sum(y[i] * b[i] for i in range(m))
                assert sol.objective_value >= bound

    def test_determinism(self):
        rng = random.Random(53)
        lp = self._random_feasible(rng)
        first = solve(lp)
        for _ in range(3):
            again = solve(lp)
            assert again.values == first.values
            assert again.objective_value == first.objective_value


def test_dump_is_textual():
    lp = lp_of(["x", "y"], [({"x": 1, "y": -2}, "<=", Fraction(1, 2))], {"x": 1}, {"y": None})
    text = lp.dump()
    assert "min 1*x" in text
    assert "1*x + -2*y <= 1/2" in text
    assert "y free" in text


# Exact outputs of a seeded corpus of small programs, recorded from the
# solver as it is.  Where a program has several optimal vertices, the one
# returned is fixed by Bland's rule and the ratio-test tie-break, so a
# change to the tableau layout that alters either shows up here.  The corpus
# flips rows of every relation with negative rhs, shifts positive and
# negative lower bounds, splits free variables, has empty objectives, and
# adds redundant equalities; after phase 1 some of their artificials pivot
# out and some rows are dropped.
def golden_lp(seed):
    """Small seeded LP mixing every relation, rhs sign and bound kind."""
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    names = [f"x{i}" for i in range(n)]
    lp = LinearProgram()
    lowers = {}
    for v in names:
        kind = rng.randrange(4)
        lowers[v] = (None, 0, Fraction(rng.randint(1, 5), rng.choice([1, 2])),
                     Fraction(-rng.randint(1, 5), rng.choice([1, 2])))[kind]
        lp.add_variable(v, lower=lowers[v])
    # Feasible cases pass every row through a point that respects the bounds.
    feasible = rng.random() < 0.7
    point = {v: (lowers[v] or 0) + Fraction(rng.randint(0, 3), rng.choice([1, 2])) for v in names}
    eqs = []
    for _ in range(rng.randint(1, 5)):
        coeffs = {v: Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
                  for v in rng.sample(names, rng.randint(1, n))}
        rel = rng.choice(("<=", ">=", "=="))
        if feasible:
            rhs = sum(c * point[v] for v, c in coeffs.items())
            if rel == "<=":
                rhs += rng.randint(0, 2)
            elif rel == ">=":
                rhs -= rng.randint(0, 2)
            else:
                eqs.append((coeffs, rhs))
        else:
            rhs = Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
        lp.add_constraint(coeffs, rel, rhs)
    # A redundant equality: a combination of the equalities already present.
    if eqs and rng.random() < 0.6:
        combo, total = {}, Fraction(0)
        for coeffs, rhs in eqs:
            m = Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 2]))
            for v, c in coeffs.items():
                combo[v] = combo.get(v, 0) + m * c
            total += m * rhs
        lp.add_constraint(combo, "==", total)
    if rng.random() < 0.15:
        lp.set_objective({})
    else:
        lp.set_objective({v: Fraction(rng.randint(-2, 3), rng.choice([1, 2])) for v in names})
    return lp


GOLDEN = {
    0: ("optimal", "x0=-5/2 x1=-3 x2=0 x3=0", "5/2"),
    1: ("unbounded", "", None),
    2: ("optimal", "x0=1", "0"),
    3: ("optimal", "x0=0 x1=3", "3"),
    4: ("infeasible", "", None),
    5: ("optimal", "x0=5 x1=0 x2=0", "0"),
    6: ("optimal", "x0=1/2", "3/4"),
    7: ("optimal", "x0=2 x1=5 x2=0", "0"),
    8: ("optimal", "x0=4 x1=3/2", "-1"),
    9: ("unbounded", "", None),
    10: ("optimal", "x0=-1/3", "1/6"),
    11: ("optimal", "x0=8/11 x1=0 x2=21/22 x3=-183/44", "0"),
    12: ("unbounded", "", None),
    13: ("infeasible", "", None),
    14: ("optimal", "x0=1", "1/2"),
    15: ("unbounded", "", None),
    16: ("optimal", "x0=-7/2 x1=-5/2 x2=0", "-6"),
    17: ("optimal", "x0=3/2 x1=1 x2=5/2 x3=1/2", "9/4"),
    18: ("optimal", "x0=10/3 x1=-2", "-4"),
    19: ("infeasible", "", None),
    20: ("optimal", "x0=1/2 x1=0", "0"),
    21: ("optimal", "x0=1/2 x1=-3", "0"),
    22: ("unbounded", "", None),
    23: ("optimal", "x0=0 x1=2 x2=-4", "-4"),
    24: ("optimal", "x0=0 x1=0 x2=-5 x3=-4", "0"),
    25: ("unbounded", "", None),
    26: ("unbounded", "", None),
    27: ("infeasible", "", None),
    28: ("optimal", "x0=3", "3"),
    29: ("optimal", "x0=5/2", "5/2"),
    30: ("optimal", "x0=3/4 x1=9/5 x2=2/5", "33/5"),
    31: ("optimal", "x0=-2", "0"),
    32: ("optimal", "x0=0", "0"),
    33: ("infeasible", "", None),
    34: ("optimal", "x0=-3 x1=1/2 x2=0", "0"),
    35: ("infeasible", "", None),
    36: ("unbounded", "", None),
    37: ("infeasible", "", None),
    38: ("unbounded", "", None),
    39: ("unbounded", "", None),
    40: ("infeasible", "", None),
    41: ("unbounded", "", None),
    42: ("optimal", "x0=2", "3"),
    43: ("optimal", "x0=4", "-8"),
    44: ("unbounded", "", None),
    45: ("optimal", "x0=-1/2 x1=1 x2=-15/4", "0"),
    46: ("optimal", "x0=-5", "-5"),
    47: ("infeasible", "", None),
    48: ("optimal", "x0=0 x1=1/6 x2=0", "-1/6"),
    49: ("optimal", "x0=6", "18"),
    50: ("unbounded", "", None),
    51: ("optimal", "x0=3 x1=-5/2", "-4"),
    52: ("optimal", "x0=14/5 x1=1/5 x2=31/5", "33/10"),
    53: ("optimal", "x0=-5/2 x1=6", "-11"),
    54: ("infeasible", "", None),
    55: ("optimal", "x0=1", "1/2"),
    56: ("infeasible", "", None),
    57: ("infeasible", "", None),
    58: ("infeasible", "", None),
    59: ("optimal", "x0=2 x1=2", "5"),
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_golden_vertex(seed):
    sol = solve(golden_lp(seed))
    values = " ".join(f"{n}={format_rational(v)}" for n, v in sol.values.items())
    objective = None if sol.objective_value is None else format_rational(sol.objective_value)
    assert (sol.status, values, objective) == GOLDEN[seed]


# Feasibility programs whose ratio tests tie a slack basic against an
# artificial basic.  The tie goes to the smaller original column number, so
# a layout that numbers artificials differently (all alike, or after every
# slack) returns another vertex.
TIE_BREAK_CASES = [
    (
        {"x0": None, "x1": 0, "x2": None, "x3": -5},
        [({"x0": 1}, ">=", Fraction(-1, 2)), ({"x1": -1}, "<=", -1),
         ({"x0": 1, "x1": -1, "x2": 1, "x3": -1}, "==", Fraction(9, 2))],
        "x0=-1/2 x1=1 x2=1 x3=-5",
    ),
    (
        {"x0": -4, "x1": 0, "x2": 0, "x3": Fraction(3, 2)},
        [({"x0": 1, "x2": -1, "x3": 1}, ">=", Fraction(-3, 2)),
         ({"x0": -1, "x1": 1, "x2": -1}, ">=", 3), ({"x1": -3}, "==", -3)],
        "x0=-3 x1=1 x2=0 x3=3/2",
    ),
]


@pytest.mark.parametrize("lowers, constraints, expected", TIE_BREAK_CASES, ids=["free", "shifted"])
def test_ratio_ties_follow_original_column_numbers(lowers, constraints, expected):
    sol = solve(lp_of(list(lowers), constraints, {}, lowers))
    assert sol.status == OPTIMAL
    assert " ".join(f"{n}={format_rational(v)}" for n, v in sol.values.items()) == expected
