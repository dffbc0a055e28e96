import hashlib
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subquad.mbf import MbfTable, enumerate_mbfs, induced_mbf, is_monotone, prune_mbf_set
from subquad.pbf import MultilinearPoly, format_polynomial, format_rational
from subquad.reduce_general import (
    MAX_COLUMNS,
    ReductionProblem,
    _candidate_subsets,
    _capacities,
    _capacity_from_solution,
    _column_count,
    _cut_terms,
    _solve,
    build_reduction_lp,
    nearest_quadratic,
    overestimate,
)
from subquad import lpsolver
from subquad.reduce_quartic import generator_catalog, generator_patterns

from _gen import program_digest, random_submodular_cubic, random_submodular_quadratic

AND3 = MbfTable.threshold(3, 3)
MAJ3 = MbfTable.threshold(3, 2)
NEG_CUBE = MultilinearPoly.from_terms(3, [((1, 2, 3), -1)])


def pruned3():
    return tuple(prune_mbf_set(enumerate_mbfs(3)))


class TestProblemValidation:
    def test_accepts_degenerate_tables(self):
        ReductionProblem(NEG_CUBE, (MbfTable(3, 0),))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ReductionProblem(NEG_CUBE, (AND3, AND3))

    def test_refuses_an_impossible_k_before_the_audit(self):
        # Even with no tables k = 16 needs more than MAX_COLUMNS columns; the
        # monotonicity audit of these 14 tables alone takes about 20 s.
        tables = tuple(MbfTable.threshold(16, r) for r in range(2, 16))
        start = time.monotonic()
        with pytest.raises(ValueError, match=r"^refusing --k 16: "):
            ReductionProblem(MultilinearPoly.zero(16), tables)
        assert time.monotonic() - start < 2.0

    def test_rejects_non_monotone(self):
        parity = MbfTable.from_function(3, lambda m: m.bit_count() % 2 == 1)
        with pytest.raises(ValueError):
            ReductionProblem(NEG_CUBE, (parity,))

    def test_size_guard(self):
        target = MultilinearPoly.zero(5)
        tables = tuple(enumerate_mbfs(5)[100:141])
        problem = ReductionProblem(target, tables)
        with pytest.raises(ValueError):
            build_reduction_lp(problem)

    def test_column_count_matches_program(self):
        cases = [
            (NEG_CUBE, pruned3()),
            (NEG_CUBE, ()),
            (MultilinearPoly.zero(4), (MbfTable.threshold(4, 3), MbfTable.threshold(4, 2))),
        ]
        for target, tables in cases:
            lp = build_reduction_lp(ReductionProblem(target, tables))
            assert len(lp.variables) == _column_count(target.n_vars, len(tables))

    def test_refuses_oversized_program_at_once(self):
        # The pruned k = 4 set would need a program of about 228k columns;
        # it must be refused before any of it is built.
        g10, _ = generator_catalog(10, (1, 2, 3, 4))
        problem = ReductionProblem(g10.poly, tuple(prune_mbf_set(enumerate_mbfs(4))))
        assert _column_count(4, len(problem.mbf_set)) > MAX_COLUMNS
        start = time.monotonic()
        with pytest.raises(ValueError, match="--mbfs generators"):
            build_reduction_lp(problem)
        assert time.monotonic() - start < 5.0


    def test_generators_advice_only_for_larger_sets(self):
        generators = tuple(MbfTable.threshold(7, r) for r in range(2, 7))
        with pytest.raises(ValueError, match=r"\(limit 2500\); use fewer tables$"):
            build_reduction_lp(ReductionProblem(MultilinearPoly.zero(7), generators))
        with pytest.raises(ValueError, match="use --mbfs generators or fewer tables$"):
            build_reduction_lp(ReductionProblem(MultilinearPoly.zero(4), tuple(enumerate_mbfs(4))))


class TestExactCases:
    def test_quadratic_target_no_avs(self):
        rng = random.Random(3)
        target = random_submodular_quadratic(rng, 2).poly
        result = nearest_quadratic(ReductionProblem(target, ()))
        assert result.l1_distance == 0
        assert result.report.passed

    def test_neg_cube_with_pruned_set(self):
        result = nearest_quadratic(ReductionProblem(NEG_CUBE, pruned3()))
        assert result.l1_distance == 0
        for x in range(8):
            assert result.report.gaps[x] == 0

    def test_supermodular_cube_has_positive_distance(self):
        sup = MultilinearPoly.from_terms(3, [((1, 2, 3), 1)])
        result = nearest_quadratic(ReductionProblem(sup, (AND3, MAJ3)))
        assert result.l1_distance > 0
        # cross-check against an exhaustive search over tiny integer-capacity
        # quadratics: nothing reaches the LP distance's lower side
        assert result.l1_distance == sum(abs(g) for g in result.report.gaps.values())

    def test_exact_fit_f2_zero_avs(self):
        target = MultilinearPoly.from_terms(2, [((1, 2), -1)])
        result = nearest_quadratic(ReductionProblem(target, (MbfTable.threshold(2, 2),)))
        assert result.l1_distance == 0
        assert result.quadratic.n_z == 0

    def test_exact_fit_neg_cube_present(self):
        result = nearest_quadratic(ReductionProblem(NEG_CUBE, pruned3()))
        assert result.l1_distance == 0

    def test_exact_fit_supermodular_absent(self):
        target = MultilinearPoly.from_terms(2, [((1, 2), 1)])
        result = nearest_quadratic(ReductionProblem(target, (MbfTable.threshold(2, 2),)))
        assert result.l1_distance > 0

    def test_g10_on_generator_pair_positive_distance(self):
        g10 = MultilinearPoly.from_terms(
            4,
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
        )
        tables = (MbfTable.threshold(4, 3), MbfTable.threshold(4, 2))
        result = nearest_quadratic(ReductionProblem(g10, tables))
        assert result.l1_distance > 0

    @pytest.mark.parametrize("pattern", generator_patterns(9), ids=lambda p: "".join(map(str, p)))
    def test_g9_fit_needs_the_auxiliary_coupling(self, pattern):
        # G9's closed form couples its two auxiliaries (-z1 z2).  With the
        # state tables it induces, the program finds an exact fit only
        # through its auxiliary-to-auxiliary capacity: with that capacity
        # held at 0 the distance is 1 on every pattern.
        f, h = generator_catalog(9, pattern)
        tables = (induced_mbf(h, 5), induced_mbf(h, 6))
        problem = ReductionProblem(f.poly, tables)
        assert nearest_quadratic(problem).l1_distance == 0
        lp = build_reduction_lp(problem)
        lp.add_constraint({"zz_2_1": 1}, "<=", 0)
        assert lpsolver.solve(lp).objective_value == 1


class TestSoundness:
    def test_random_cubics_reduce_exactly(self):
        rng = random.Random(7)
        tables = pruned3()
        for _ in range(25):
            f = random_submodular_cubic(rng)
            result = nearest_quadratic(ReductionProblem(f, tables))
            assert result.l1_distance == 0
            assert result.report.passed
            h = result.quadratic
            for av in range(h.n_x + 1, h.n_vars + 1):
                assert is_monotone(induced_mbf(h, av))

    def test_lp_distance_matches_oracle_gaps(self):
        rng = random.Random(15)
        for _ in range(10):
            f = random_submodular_cubic(rng) + MultilinearPoly.from_terms(
                3, [((1, 2, 3), Fraction(rng.randint(0, 3)))]
            )
            problem = ReductionProblem(f, (AND3, MAJ3))
            lp = build_reduction_lp(problem)
            sol = lpsolver.solve(lp)
            result = nearest_quadratic(problem)
            assert sol.status == lpsolver.OPTIMAL
            assert result.l1_distance == sol.objective_value

    def test_monotone_set_growth_never_hurts(self):
        rng = random.Random(31)
        tables = pruned3()
        for _ in range(6):
            f = random_submodular_cubic(rng) + MultilinearPoly.from_terms(
                3, [((1, 2, 3), Fraction(rng.randint(1, 3)))]
            )
            prev = None
            for size in (0, 1, 2, 3):
                result = nearest_quadratic(ReductionProblem(f, tables[:size]))
                if prev is not None:
                    assert result.l1_distance <= prev
                prev = result.l1_distance


fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


@st.composite
def program_points(draw):
    """A problem on k <= 3 variables with M <= 2 threshold tables, and a
    point of its program: a constant c0 and a non-negative value for every
    capacity."""
    k = draw(st.integers(1, 3))
    ranks = draw(st.lists(st.integers(0, k + 1), max_size=2, unique=True))
    problem = ReductionProblem(MultilinearPoly.zero(k), tuple(MbfTable.threshold(k, r) for r in ranks))
    values = {"c0": draw(fractions)}
    for name, _ in _capacities(k, len(ranks)):
        values[name] = abs(draw(fractions))
    return problem, values


class TestArcRule:
    @settings(max_examples=150)
    @given(program_points())
    def test_value_rows_and_read_back_agree(self, point):
        # the program's value row for y is c0 plus the capacities _cut_terms
        # names; the capacity form read back must charge y the same
        problem, values = point
        caps = _capacities(problem.k, len(problem.mbf_set))
        cf = _capacity_from_solution(problem, values)
        for y in range(1 << cf.n_nodes):
            assert cf.value(y) == values["c0"] + sum(values[n] for n in _cut_terms(caps, y))


class TestProgressiveSubsets:
    @staticmethod
    def counted_solves(monkeypatch):
        programs = []
        real = lpsolver.solve

        def counting(lp):
            programs.append(lp)
            return real(lp)

        monkeypatch.setattr(lpsolver, "solve", counting)
        return programs

    def test_cubic_target_skips_the_empty_subset(self, monkeypatch):
        rng = random.Random(7)
        tables = pruned3()
        targets = [f for f in (random_submodular_cubic(rng) for _ in range(12)) if f.degree == 3]
        assert len(targets) >= 8
        # with no auxiliaries the fit misses, so trying it first changed nothing
        assert all(_solve(ReductionProblem(f, ())).l1_distance > 0
                   for f in targets)
        first = [next(_candidate_subsets(ReductionProblem(f, tables))) for f in targets]
        expected = [_solve(ReductionProblem(f, sub))
                    for f, sub in zip(targets, first)]
        programs = self.counted_solves(monkeypatch)
        for f, want in zip(targets, expected):
            del programs[:]
            assert nearest_quadratic(ReductionProblem(f, tables)) == want
            assert len(programs) == 1

    @pytest.mark.parametrize("fit", [nearest_quadratic, lambda problem: overestimate(problem, 0)])
    def test_size_guard_refuses_before_any_solve(self, monkeypatch, fit):
        # the test_size_guard inputs: without the guard the progressive
        # subsets would be solved, and overestimate would fail on columns
        problem = ReductionProblem(MultilinearPoly.zero(5), tuple(enumerate_mbfs(5)[100:141]))
        programs = self.counted_solves(monkeypatch)
        with pytest.raises(ValueError, match=r"^refusing k > 4 with more than 40 tables$"):
            fit(problem)
        assert programs == []

    def test_anchor_is_checked_before_the_size(self):
        # an oversized problem with an out-of-range anchor reports the anchor
        problem = ReductionProblem(MultilinearPoly.zero(5), tuple(enumerate_mbfs(5)[100:141]))
        with pytest.raises(ValueError, match=r"^anchor labeling outside the target's variable range$"):
            overestimate(problem, 1 << 5)

    def test_quadratic_target_tries_the_empty_subset_first(self, monkeypatch):
        target = random_submodular_quadratic(random.Random(3), 3).poly
        assert target.terms.get(0b111, 0) == 0
        programs = self.counted_solves(monkeypatch)
        result = nearest_quadratic(ReductionProblem(target, pruned3()))
        assert len(programs) == 1
        assert not any(v.startswith("src_z") for v in programs[0].variables)
        assert result.l1_distance == 0 and result.quadratic.n_z == 0

    @pytest.mark.parametrize("top,hinted", [(-1, (AND3, MAJ3)), (1, (MAJ3, AND3))])
    def test_candidate_order_is_pinned(self, top, hinted):
        # the threshold the top coefficient hints at leads, the other
        # singletons follow in table order, and the hinted pair comes last
        tables = pruned3()
        target = MultilinearPoly.from_terms(3, [((1, 2, 3), top)] + [((i, j), -2) for i, j in ((1, 2), (1, 3), (2, 3))])
        rest = [t.bits for t in tables if t not in hinted]
        assert rest == [136, 160, 168, 192, 200, 224, 234, 236, 238, 248, 250, 252, 254]
        got = [tuple(t.bits for t in subset) for subset in _candidate_subsets(ReductionProblem(target, tables))]
        assert got == [(hinted[0].bits,), (hinted[1].bits,)] + [(b,) for b in rest] + [(hinted[0].bits, hinted[1].bits)]


class TestOverestimate:
    def test_exact_target_is_fixed_point(self):
        rng = random.Random(11)
        target = random_submodular_quadratic(rng, 2).poly
        result = overestimate(ReductionProblem(target, ()), anchor=0)
        assert result.l1_distance == 0

    def test_supermodular_pair_anchor_full(self):
        target = MultilinearPoly.from_terms(2, [((1, 2), 1)])
        result = overestimate(ReductionProblem(target, ()), anchor=0b11)
        gaps = result.report.gaps
        assert gaps[0b11] == 0
        assert all(g <= 0 for g in gaps.values())

    def test_g10_anchor_empty(self):
        g10 = MultilinearPoly.from_terms(
            4,
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
        )
        tables = (MbfTable.threshold(4, 3), MbfTable.threshold(4, 2))
        result = overestimate(ReductionProblem(g10, tables), anchor=0)
        gaps = result.report.gaps
        assert gaps[0] == 0
        assert all(g <= 0 for g in gaps.values())
        assert result.l1_distance > 0


class TestAnswerGolden:
    # SHA-256 over the quadratic and the L1 distance nearest_quadratic gives
    # for the first 50 criterion-05 cubics, recorded before the LP point was
    # read back through the integer capacity form.
    GOLDEN = "5ca390f3c9ad40fa419c18829410e30e46f4a76e96648deaab735e421422120a"

    def test_first_criterion_05_answers(self):
        rng = random.Random(53)
        digest = hashlib.sha256()
        for _ in range(50):
            result = nearest_quadratic(ReductionProblem(random_submodular_cubic(rng), pruned3()))
            digest.update(format_polynomial(result.quadratic.poly).encode())
            digest.update(f"l1={format_rational(result.l1_distance)}\n".encode())
        assert digest.hexdigest() == self.GOLDEN


class TestProgramGolden:
    # Row order decides which vertex Bland's rule reaches.  This digest of
    # the variable order, bounds and rows of multi-table programs (and of
    # two overestimate programs) was recorded from the builder that spelled
    # every capacity out by hand, before the capacity table replaced it.
    GOLDEN = "b3d18d1b59d8fd56cdcfababe1cf9b1c60b797f4e72b8575fb1e49c1a0d14431"

    def test_golden_multi_table_programs(self, monkeypatch):
        target = random_submodular_cubic(random.Random(90))
        problems = [ReductionProblem(target, pruned3()[:M]) for M in range(5)]
        problems.append(ReductionProblem(target, pruned3()))
        for pattern in generator_patterns(9):
            f, h = generator_catalog(9, pattern)
            problems.append(ReductionProblem(f.poly, (induced_mbf(h, 5), induced_mbf(h, 6))))
        thresholds = tuple(MbfTable.threshold(4, r) for r in (2, 3, 4))
        for pattern in generator_patterns(10):
            problems.append(ReductionProblem(generator_catalog(10, pattern)[0].poly, thresholds))
        programs = [build_reduction_lp(problem) for problem in problems]

        # overestimate's programs are captured unsolved, so it refuses them
        def capture(lp):
            programs.append(lp)
            return lpsolver.LpSolution(lpsolver.INFEASIBLE, {}, None)

        monkeypatch.setattr(lpsolver, "solve", capture)
        for problem, anchor in ((ReductionProblem(target, (AND3, MAJ3)), 0b101), (problems[-1], 0)):
            with pytest.raises(ValueError):
                overestimate(problem, anchor)
        assert len(programs) == 20
        assert program_digest(programs) == self.GOLDEN


@pytest.mark.parametrize("k, table_k", [(3, 2), (2, 3)])
def test_problem_refuses_a_table_of_another_arity(k, table_k):
    with pytest.raises(ValueError, match="every table must match the target's variable count"):
        ReductionProblem(MultilinearPoly.zero(k), (MbfTable.threshold(table_k, 2),))
