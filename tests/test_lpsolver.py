import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gen import random_generator_combination, random_submodular_cubic
from subquad import lpsolver
from subquad.lpsolver import EQUAL, GREATER, INFEASIBLE, LESS, OPTIMAL, UNBOUNDED, LinearProgram, solve
from subquad.mbf import enumerate_mbfs, prune_mbf_set
from subquad.pbf import format_rational
from subquad.reduce_general import ReductionProblem, build_reduction_lp
from subquad.reduce_quartic import BACKWARD_SET, _states_lp


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


# Programs whose redundant equalities leave an artificial basic after phase
# 1 and whose objective ties along an edge: the column the artificial is
# driven out on (its row's first nonzero) fixes the basis phase 2 starts
# from, and so the optimal vertex it returns.
DRIVE_OUT_CASES = [
    (
        {"x0": -1, "x1": 0, "x2": -1, "x3": None, "x4": 0},
        [({"x0": 1, "x2": -1}, "==", 0),
         ({"x0": -1, "x1": -1, "x2": 2, "x3": -2, "x4": -1}, ">=", -1),
         ({"x0": -1, "x2": 1}, "==", 0)],
        {"x0": -1, "x2": -1, "x4": -1},
        "x0=4 x1=4 x2=4 x3=-3/2 x4=4",
    ),
    (
        {"x0": 0, "x1": None, "x2": None, "x3": 0, "x4": -1},
        [({"x3": 1}, "==", 2), ({"x0": 1, "x1": -2, "x3": -2, "x4": 2}, ">=", -3),
         ({"x1": 2, "x2": 1, "x3": -1, "x4": -1}, "==", -1),
         ({"x0": 1, "x1": 1, "x2": 1, "x4": 1}, "==", 3),
         ({"x0": -1, "x1": 1, "x3": 1, "x4": -2}, "==", 0)],
        {"x0": 1, "x1": 1, "x4": 1},
        "x0=2 x1=-2 x2=4 x3=2 x4=-1",
    ),
]


@pytest.mark.parametrize("lowers, constraints, objective, expected", DRIVE_OUT_CASES,
                         ids=["tied_edge", "free_columns"])
def test_artificial_leaves_on_its_first_nonzero_column(lowers, constraints, objective, expected):
    boxed = constraints + [({v: 1}, "<=", 4) for v in lowers]
    sol = solve(lp_of(list(lowers), boxed, objective, lowers))
    assert sol.status == OPTIMAL
    assert " ".join(f"{n}={format_rational(v)}" for n, v in sol.values.items()) == expected


# Benchmark-sized programs: the 56-row, 47-column nearest-quadratic
# programs that a cubic target gives with one pruned k = 3 table (entries
# grow to 38 bits while pivoting), and the quartic search programs (up to
# 91 rows over the 11 auxiliary coefficients) at the threshold pattern pair,
# with sign rows, dominance rows or both.
# Each digest covers the status, the exact values sorted by name and the
# objective, recorded from the dense fraction-free tableau.
def _solution_digest(sol) -> str:
    values = " ".join(f"{n}={format_rational(v)}" for n, v in sorted(sol.values.items()))
    objective = None if sol.objective_value is None else format_rational(sol.objective_value)
    return hashlib.sha256(f"{sol.status}|{values}|{objective}".encode()).hexdigest()


def _cubic_program(index):
    rng = random.Random(700 + index)
    tables = tuple(prune_mbf_set(enumerate_mbfs(3)))
    problem = ReductionProblem(random_submodular_cubic(rng), (tables[index % len(tables)],))
    return build_reduction_lp(problem)


def _quartic_program(index):
    rng = random.Random(800 + index)
    sign_rows, dominance = ((True, False), (True, True), (False, True))[index % 3]
    return _states_lp(random_generator_combination(rng), BACKWARD_SET, sign_rows, dominance)


BENCH_GOLDEN = {
    ("cubic", 0): "9c9929ecd7ceee0fc9b93569f3b7c61d197178054e267450efd802c83d820439",
    ("cubic", 1): "d6ab99a137213030641142c0c54d6b415e5ea0c1bbae19cd828dcb93e931305a",
    ("cubic", 2): "0c49c59e7043b416e03905f92ca47b55d599eb289dbfe0fd4d0de8961e84768f",
    ("cubic", 3): "458a938a4522c1989e67d2ca753034ebe7a2cf277893e4b3c19dbf587e76bbde",
    ("cubic", 4): "d12038229a5481a2cf06115b1f70cce0e3c3d7afcedef348dae3a7243614189a",
    ("cubic", 5): "3ccce4ca78601ab843f13ce862888e77a3db8dd7e0a9cf6b31268119008e8d51",
    ("cubic", 6): "01f262ed308be78189c84c42b743a238618c62b14b6ab292323f0c1f995a4e71",
    ("cubic", 7): "f9ad77a3ea09320edf075342281bb4d4e2d0c3043db610636d8c337c44349308",
    ("cubic", 8): "dbde8859c40c3b4de8c61e4a101fa25febbb4e99e8f3741f060df0fbef5cb48d",
    ("cubic", 9): "43de57fe1e158872b587b4d8e484a950a55dcf3e18860b385e01a70d8db8e19a",
    ("cubic", 10): "4779bdb06817d705fbaa4130e022b4bcad31def57982ef2a273e22a5720ebc50",
    ("cubic", 11): "2095fdb5e2950c3955c9daa7c3b72ffc62049efba082d98b42270a2aaf527cfa",
    ("cubic", 12): "8c1410d4aedbee451fadc842190d33af20c90a8e527862c85c9b81a8c2ba8e74",
    ("cubic", 13): "8dd74a8c21db9e3062afaffff752546aa227e26ddd64e660bb3230e3405b53cc",
    ("cubic", 14): "d0e6aacc9d85019f0c1dd2c408ee0376ed461729056bb49ac82283c9603bbdfc",
    ("cubic", 15): "d5929ee3c5c543ee9631da7fc818cfa5fa9a1d70f359f90d8e1eb23b010e7103",
    ("cubic", 16): "f1bcfceec2c621df7ff38bee5416f89bb17fd7b661f581a16d440c36e0cbac7d",
    ("cubic", 17): "933ddbb42a286b84163ec5ad40df72b5a1a6ffbc057ba5241512796b777e7d8b",
    ("cubic", 18): "5f18d636a776dc2c503e34400fdb1ef4de3a55b586fd2491ba634bea4a819ef0",
    ("cubic", 19): "01f126c141da50b3eb84ba31215c9749d2dbacc4d9717b2ff266536d8eaa4679",
    ("quartic", 0): "43d7225f6a29ef7b6bd86377cec93d3728c8fae3ffbfaa67b03dbf79c56edc97",
    ("quartic", 1): "de86a09e388b98d1d258a88fc96c3479c35e47a068af0cb3e35ec43c32e71289",
    ("quartic", 2): "f8f76ac84b6f58d3d2384871567ce4b6d9ad6fd9e2fddca586fa973e27f9b2d7",
    ("quartic", 3): "38f075c5a896b8894a28e9aec992934f33f70f2052e7aa97dd1f221781609729",
    ("quartic", 4): "7de9358a6d0198b0a3cfd14326a0de6aa231f06ea33ac4dfcccf83a9ee60d7c7",
    ("quartic", 5): "0cee20e84704f997034efdfd1179ee094fea13d094af24b4ccc9343990822b14",
    ("quartic", 6): "1eef94b1593b62e4d9ac79352ef7d839a3c3302d0e13cabb219a5013d1fafd38",
    ("quartic", 7): "2129d74afcb4cfdd44c12a1a1a844517a6bdc58f2b24daa4d6bec01404f7cff4",
    ("quartic", 8): "12123cb612f4cb2eb926903987558402a1f70e38da2d7b7edb5d67e146b1a100",
    ("quartic", 9): "43d7225f6a29ef7b6bd86377cec93d3728c8fae3ffbfaa67b03dbf79c56edc97",
    ("quartic", 10): "ac1b54c793fa47ebbb0192f6362738eabbd6357c84f071cc33175bb55bb1cc65",
    ("quartic", 11): "dfb2cdf055e8b1804a37998756cad364e64e20b6d05c226fd136843d9d1783df",
    ("quartic", 12): "42e486d7869529920a448c52fd457966fd50562484d2d57da73bc27d9175e538",
    ("quartic", 13): "59da46c2505e65a9fe1f69d4a28d13197ff17e0badad8da7419f8af762982170",
    ("quartic", 14): "1d9ab31f265d273454cf4d96758fbaa890a0c5a07c5a87ade07d3f4d99f08fec",
    ("quartic", 15): "3eaae6fca2cb064d7e1c73c1f73def31737fc798849df4dfb470f91ff14e242b",
    ("quartic", 16): "4851685bbe6eb1ff556e518334fbdaa0ae411e425ea8d582d76e9361cb6bcf9f",
    ("quartic", 17): "25bbab1f3ef91b3613e5f40b0eb4142a68ff3f2646be020a6dbc58eecfc8fd25",
    ("quartic", 18): "e9042b9d183aa37909d0734470e967d6898667b9e8cc1e718032b1459d1942e0",
    ("quartic", 19): "3ebfb41dcfa299f2e7d52b4b349f3ecfe11a2c390c81dcb0bf4a6f07424d63e9",
}


@pytest.mark.parametrize("kind, index", sorted(BENCH_GOLDEN))
def test_benchmark_sized_vertex(kind, index):
    lp = (_cubic_program if kind == "cubic" else _quartic_program)(index)
    assert _solution_digest(solve(lp)) == BENCH_GOLDEN[kind, index]


# Tiny programs over a box: every variable has a lower and an upper bound
# (the lower one as a variable bound or, for a free variable, as a >= row),
# so the program is infeasible or has an optimal vertex, which brute force
# finds among the intersections of n of the bounding hyperplanes.  Most
# rows pass on the right side of a point in the box, so that programs with
# several rows are still often feasible; right-hand sides of both signs.
def _fraction(draw, lo, hi, dens=(1, 2, 3)):
    return Fraction(draw(st.integers(lo, hi)), draw(st.sampled_from(dens)))


@st.composite
def box_programs(draw):
    n = draw(st.integers(1, 3))
    box = []
    for _ in range(n):
        lo = _fraction(draw, -6, 6, (1, 2))
        box.append((lo, lo + draw(st.integers(0, 4)), draw(st.booleans())))
    point = [lo + _fraction(draw, 0, hi - lo) for lo, hi, _ in box]
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        coeffs = {i: _fraction(draw, -3, 3) for i in range(n)}
        rel = draw(st.sampled_from((LESS, GREATER, EQUAL)))
        if draw(st.booleans()):
            rhs = sum(c * v for c, v in zip(coeffs.values(), point))
            rhs += {LESS: 1, GREATER: -1, EQUAL: 0}[rel] * draw(st.integers(0, 2))
        else:
            rhs = _fraction(draw, -4, 4, (1, 2))
        rows.append((coeffs, rel, rhs))
    return box, rows, [_fraction(draw, -3, 3) for _ in range(n)]


def _box_lp(box, rows, objective, form=lambda c: c):
    """The box program, every number passed through ``form`` on its way in."""
    lp = LinearProgram()
    names = [f"x{i}" for i in range(len(box))]
    for name, (lo, hi, free) in zip(names, box):
        lp.add_variable(name, lower=None if free else form(lo))
        if free:
            lp.add_constraint({name: 1}, GREATER, form(lo))
        lp.add_constraint({name: 1}, LESS, form(hi))
    for coeffs, rel, rhs in rows:
        lp.add_constraint({names[i]: form(c) for i, c in coeffs.items()}, rel, form(rhs))
    lp.set_objective({name: form(c) for name, c in zip(names, objective)})
    return lp


def _solve_square(a, b):
    """The unique solution of a x = b by exact elimination, or None."""
    n = len(a)
    m = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                k = m[r][col] / m[col][col]
                m[r] = [u - k * v for u, v in zip(m[r], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]


def _brute_force_minimum(box, rows, objective):
    """Least objective over the feasible vertices; None when there are none."""
    n = len(box)
    planes = [([Fraction(i == j) for j in range(n)], bound)
              for i, (lo, hi, _) in enumerate(box) for bound in (lo, hi)]
    planes += [([coeffs[j] for j in range(n)], rhs) for coeffs, _, rhs in rows]

    def feasible(x):
        if any(not lo <= v <= hi for v, (lo, hi, _) in zip(x, box)):
            return False
        for coeffs, rel, rhs in rows:
            lhs = sum(coeffs[j] * x[j] for j in range(n))
            if not (lhs <= rhs if rel == LESS else lhs >= rhs if rel == GREATER else lhs == rhs):
                return False
        return True

    best = None
    for chosen in itertools.combinations(planes, n):
        x = _solve_square([a for a, _ in chosen], [b for _, b in chosen])
        if x is not None and feasible(x):
            value = sum(c * v for c, v in zip(objective, x))
            best = value if best is None else min(best, value)
    return best


class TestBruteForceVertices:
    @settings(max_examples=300)
    @given(box_programs())
    def test_status_and_objective_match_vertex_enumeration(self, program):
        sol = solve(_box_lp(*program))
        best = _brute_force_minimum(*program)
        if best is None:
            assert sol.status == INFEASIBLE
        else:
            assert sol.status == OPTIMAL and sol.objective_value == best


class TestInputForms:
    # The same numbers given as ints (where integral), Fractions or strings.
    FORMS = {
        "int": lambda c: c.numerator if c.denominator == 1 else c,
        "fraction": lambda c: c,
        "str": str,
    }

    @settings(max_examples=200)
    @given(box_programs())
    def test_int_fraction_and_str_coefficients_agree(self, program):
        sols = [solve(_box_lp(*program, form=form)) for form in self.FORMS.values()]
        assert sols[0] == sols[1] == sols[2]
        for sol in sols:
            assert all(type(v) is Fraction for v in sol.values.values())
            assert sol.objective_value is None or type(sol.objective_value) is Fraction

    def test_integral_coefficients_are_kept_as_ints(self):
        lp = lp_of(["x", "y"], [({"x": 2, "y": "3/2"}, LESS, 4)], {"x": -1})
        (con,) = lp.constraints
        assert con.coeffs == {"x": 2, "y": Fraction(3, 2)}
        assert type(con.coeffs["x"]) is int and type(con.coeffs["y"]) is Fraction
        assert type(lp.objective["x"]) is int


def _snapshot(lp):
    return [(dict(con.coeffs), con.rel, con.rhs) for con in lp.constraints], dict(lp.objective)


@pytest.mark.parametrize(
    "build",
    [lambda: golden_lp(12), lambda: golden_lp(58), lambda: _cubic_program(3)]
    + [lambda index=index: _quartic_program(index) for index in range(3)],
)
def test_solving_twice_changes_nothing(build):
    lp = build()
    before = _snapshot(lp)
    first = solve(lp)
    assert solve(lp) == first
    assert _snapshot(lp) == before


def _skewed_pivot(monkeypatch, delta):
    """Make every pivot move its row's basic value by delta, as a tableau
    bug would; the exact re-validation must catch the point."""
    real = lpsolver._pivot

    def pivot(rows, pr, pc):
        real(rows, pr, pc)
        rows[pr][lpsolver._RHS] = rows[pr].get(lpsolver._RHS, 0) + delta * rows[pr][pc]

    monkeypatch.setattr(lpsolver, "_pivot", pivot)


@pytest.mark.parametrize(
    "constraints, objective, lowers, delta, message",
    [
        ([({"x": 1}, LESS, 3)], {"x": -1}, {}, 1, r"violates \{'x': 1\} <= 3"),
        ([({"x": 2}, GREATER, 3)], {"x": 1}, {}, -1, r"violates \{'x': 2\} >= 3"),
        ([({"x": 1, "y": "1/2"}, EQUAL, 2)], {"x": 1}, {}, 1, r"violates .* == 2"),
        ([({"x": 1}, LESS, 1)], {"x": -1}, {"x": 1}, -1, r"violates bound on x"),
    ],
)
def test_revalidation_catches_a_wrong_point(monkeypatch, constraints, objective, lowers, delta, message):
    lp = lp_of(["x", "y"], constraints, objective, lowers)
    assert solve(lp).status == OPTIMAL
    _skewed_pivot(monkeypatch, delta)
    with pytest.raises(lpsolver.LpInternalError, match=message):
        solve(lp)
