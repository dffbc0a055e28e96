import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from subquad import lpsolver
from subquad.mbf import AvParams, min_contribution, partition_coefficient
from subquad.oracle import verify_reduction
from subquad.pbf import MultilinearPoly, QuadraticPoly
from subquad.reduce_quartic import (
    PAIR_MASKS,
    ForbiddenConfiguration,
    JointQuadratic,
    NotRepresentable,
    QuarticFunction,
    build_quartic_lp,
    case_split,
    complement_form,
    decompose_over_generators,
    generator_catalog,
    generator_patterns,
    interaction_active,
    matrix_determinant,
    merge_duplicate_avs,
    nearest_quartic,
    normalize_to_reference,
    reduce_av_count,
    reduce_quartic,
    reference_system_matrix,
    remove_singletons,
)
from subquad.reduce_quartic import _preserves_min

from _gen import random_av_params, random_generator_combination, random_multi_av_quadratic


def P(g, w):
    return AvParams.of(g, w)


class TestInteraction:
    def test_triple_active(self):
        assert interaction_active(0b0111) == 1

    def test_pair_inactive(self):
        assert interaction_active(0b0011) == 0

    def test_empty_inactive(self):
        assert interaction_active(0) == 0


class TestRemoveSingletons:
    def test_fig_example(self):
        res, out = remove_singletons(P(3, (4, 1, 1, 1)))
        assert res == MultilinearPoly.from_terms(4, [((1,), -1)])
        assert out == P(3, (3, 1, 1, 1))

    def test_untouched_params(self):
        res, out = remove_singletons(P(5, (1, 1, 1, 1)))
        assert res == MultilinearPoly.zero(4)
        assert out == P(5, (1, 1, 1, 1))

    def test_constant_on_folds_away(self):
        res, out = remove_singletons(P(-2, (1, 0, 0, 3)))
        assert out is None
        assert res == MultilinearPoly.from_terms(4, [((), -2), ((1,), -1), ((4,), -3)])

    def test_randomized_min_preservation(self):
        rng = random.Random(5)
        for _ in range(200):
            p = random_av_params(rng)
            res, out = remove_singletons(p)
            avs = [out] if out is not None else []
            assert _preserves_min(p, res, avs)
            if out is not None:
                assert out.g >= 0
                assert all(partition_coefficient(out, 1 << e) >= 0 for e in range(4))


class TestCaseSplit:
    def test_single_pair_print(self):
        res, avs = case_split(P(6, (1, 2, 3, 4)))
        assert res == MultilinearPoly.from_terms(4, [((3, 4), -1)])
        assert avs == [P(5, (1, 2, 2, 3))]

    def test_adjacent_pairs_print(self):
        res, avs = case_split(P(5, (1, 2, 3, 4)))
        assert res == MultilinearPoly.from_terms(4, [((2, 4), -1), ((3, 4), -2)])
        assert avs == [P(2, (1, 1, 1, 1))]

    def test_star_print(self):
        res, avs = case_split(P(5, (4, 2, 2, 2)))
        assert res == MultilinearPoly.from_terms(
            4, [((1, 2), -1), ((1, 3), -1), ((1, 4), -1)]
        )
        assert avs == [P(2, (1, 1, 1, 1))]

    def test_triangle_two_avs(self):
        res, avs = case_split(P(8, (4, 5, 6, 0)))
        assert res == MultilinearPoly.from_terms(4, [((1, 3), -1), ((2, 3), -2)])
        assert avs == [P(4, (2, 2, 2, 0)), P(1, (1, 1, 1, 0))]

    def test_triangle_complement_presentation(self):
        # the second triangle output, rendered with complemented activation,
        # carries the affine head into the residual
        res, avs = case_split(P(8, (4, 5, 6, 0)))
        head, comp = complement_form(avs[1])
        assert comp == P(2, (1, 1, 1, 0))
        assert res + head == MultilinearPoly.from_terms(
            4,
            [((), 1), ((1,), -1), ((2,), -1), ((3,), -1), ((1, 3), -1), ((2, 3), -2)],
        )

    def test_pure_passthroughs(self):
        res, avs = case_split(P(3, (1, 1, 1, 1)))
        assert res == MultilinearPoly.zero(4) and avs == [P(3, (1, 1, 1, 1))]
        res, avs = case_split(P(5, (2, 3, 4, 5)))
        assert res == MultilinearPoly.zero(4) and avs == [P(5, (2, 3, 4, 5))]

    def test_never_on_variable_drops(self):
        res, avs = case_split(P(9, (1, 1, 1, 1)))
        assert res == MultilinearPoly.zero(4) and avs == []

    def test_printed_table_gap_falls_back(self):
        # one on-pair but a triple outside it is on as well: the printed
        # one-pair transformation is wrong here and the exact search takes over
        p = P(10, (2, 3, 6, 5))
        res, avs = case_split(p)
        assert _preserves_min(p, res, avs)

    def test_reflection_regime(self):
        p = P(20, (2, 12, 10, 19))
        res, avs = case_split(p)
        assert _preserves_min(p, res, avs)
        assert len(avs) <= 2

    def test_requires_singleton_free(self):
        with pytest.raises(ValueError):
            case_split(P(3, (4, 1, 1, 1)))

    def test_randomized_min_preservation(self):
        rng = random.Random(6)
        for _ in range(250):
            p = random_av_params(rng)
            _, p1 = remove_singletons(p)
            if p1 is None:
                continue
            res, avs = case_split(p1)
            assert _preserves_min(p1, res, avs)
            for a in avs:
                sides = [partition_coefficient(a, pm) for pm in PAIR_MASKS]
                assert all(v >= 0 for v in sides) or all(v <= 0 for v in sides)


class TestNormalize:
    def test_fixed_point_forward(self):
        p = P(5, (1, 2, 2, 3))
        assert normalize_to_reference(p, "forward") == p

    def test_all_off_goes_to_zero(self):
        assert normalize_to_reference(P(6, (1, 1, 1, 1)), "forward") == P(0, (0, 0, 0, 0))

    def test_fixed_point_backward(self):
        p = P(2, (1, 1, 1, 1))
        assert normalize_to_reference(p, "backward") == p

    def test_forward_rejects_on_pairs(self):
        with pytest.raises(ValueError):
            normalize_to_reference(P(5, (4, 2, 2, 2)), "forward")

    def test_system_matrix_nonsingular(self):
        assert matrix_determinant(reference_system_matrix()) != 0

    def test_randomized_forward_landing(self):
        rng = random.Random(8)
        done = 0
        while done < 100:
            p = random_av_params(rng)
            if p.g < 0 or any(partition_coefficient(p, 1 << e) < 0 for e in range(4)):
                continue
            if any(partition_coefficient(p, pm) < 0 for pm in PAIR_MASKS):
                continue
            out = normalize_to_reference(p, "forward")
            for m in range(16):
                k = partition_coefficient(out, m)
                assert k <= 0 if m.bit_count() >= 3 else k >= 0
                assert min_contribution(out, m) == min_contribution(p, m)
            done += 1


class TestMergeAndPipeline:
    def test_merge_two_copies_of_same_av(self):
        # two copies of the |S| >= 2 auxiliary: coefficients add up
        base = P(1, (1, 1, 1, 1))
        terms = {}
        for zbit in (1 << 4, 1 << 5):
            terms[zbit] = base.g
            for i in range(4):
                terms[zbit | (1 << i)] = -base.weights[i]
        h = QuadraticPoly(MultilinearPoly(6, terms), 4, 2)
        out = merge_duplicate_avs(h)
        assert out.n_z == 1
        assert out.poly.terms[1 << 4] == 2
        assert all(out.poly.terms[(1 << 4) | (1 << i)] == -2 for i in range(4))

    def test_merge_keeps_distinct_partitions(self):
        terms = {
            1 << 4: Fraction(1),
            (1 << 4) | 1: Fraction(-2),
            1 << 5: Fraction(1),
            (1 << 5) | 2: Fraction(-2),
        }
        h = QuadraticPoly(MultilinearPoly(6, terms), 4, 2)
        assert merge_duplicate_avs(h).n_z == 2

    def test_merge_rejects_interactions(self):
        terms = {(1 << 4) | (1 << 5): Fraction(-1)}
        h = QuadraticPoly(MultilinearPoly(6, terms), 4, 2)
        with pytest.raises(ValueError):
            merge_duplicate_avs(h)

    def test_reduce_av_count_randomized(self):
        rng = random.Random(10)
        for _ in range(40):
            h = random_multi_av_quadratic(rng, rng.randint(0, 5))
            out = reduce_av_count(h)
            assert out.n_z <= 2
            for x in range(16):
                assert out.min_over_aux(x)[0] == h.min_over_aux(x)[0]

    def test_reduce_av_count_forward_only(self):
        parts = [P(2, (1, 1, 1, 1)), P(5, (2, 2, 2, 2))]
        terms = {}
        for pos, a in enumerate(parts):
            zbit = 1 << (4 + pos)
            terms[zbit] = a.g
            for i in range(4):
                terms[zbit | (1 << i)] = -a.weights[i]
        h = QuadraticPoly(MultilinearPoly(6, terms), 4, 2)
        out = reduce_av_count(h)
        assert out.n_z == 1

    def test_reduce_av_count_no_avs(self):
        h = QuadraticPoly(MultilinearPoly.from_terms(4, [((1, 2), -1)]), 4, 0)
        out = reduce_av_count(h)
        assert out.n_z == 0 and out.poly == h.poly


class TestCatalog:
    @pytest.mark.parametrize("group", range(1, 10))
    def test_rows_verify(self, group):
        for pattern in generator_patterns(group):
            f, h = generator_catalog(group, pattern)
            assert f.is_submodular()
            assert verify_reduction(f.poly, h).passed

    def test_g6_shape(self):
        f, h = generator_catalog(6, (1, 2, 3, 4))
        assert f.poly == MultilinearPoly.from_terms(
            4, [((1, 2, 3), 1), ((1, 2), -1), ((1, 3), -1), ((2, 3), -1)]
        )
        assert h.n_z == 1

    def test_g1_is_its_own_reduction(self):
        f, h = generator_catalog(1, (1, 2, 3, 4))
        assert h.n_z == 0 and h.poly == f.poly

    def test_g9_needs_two(self):
        _, h = generator_catalog(9, (1, 2, 3, 4))
        assert h.n_z == 2

    def test_g10_has_none(self):
        f, h = generator_catalog(10, (1, 2, 3, 4))
        assert h is None and f.is_submodular()

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            generator_catalog(6, (1, 1, 2, 3))
        with pytest.raises(ValueError):
            generator_catalog(11, (1, 2, 3, 4))


class TestReduceQuartic:
    def test_neg_quartic_monomial(self):
        f = QuarticFunction.from_terms([((1, 2, 3, 4), -1)])
        joint = reduce_quartic(f)
        assert verify_reduction(f.poly, joint.to_quadratic()).passed

    def test_zero(self):
        joint = reduce_quartic(QuarticFunction.from_terms([]))
        assert verify_reduction(MultilinearPoly.zero(4), joint.to_quadratic()).passed

    def test_g8_value_table(self):
        f, _ = generator_catalog(8, (1, 2, 3, 4))
        joint = reduce_quartic(f)
        h = joint.to_quadratic()
        for mask in range(16):
            expect = min(Fraction(0), Fraction(2 - mask.bit_count()))
            assert h.min_over_aux(mask)[0] == expect

    def test_rejects_non_submodular(self):
        with pytest.raises(ValueError):
            reduce_quartic(QuarticFunction.from_terms([((1, 2), 1)]))

    def test_value_at_prescribed_states_matches_target(self):
        f, _ = generator_catalog(4, (1, 2, 3, 4))
        joint = reduce_quartic(f)
        for mask in range(16):
            assert joint.value_at_prescribed(mask) == f.value(mask)

    def test_g9_plus_g6_representable(self):
        f9, _ = generator_catalog(9, (1, 2, 3, 4))
        f6, _ = generator_catalog(6, (1, 2, 3, 4))
        f = f9 + f6
        joint = reduce_quartic(f)
        assert verify_reduction(f.poly, joint.to_quadratic()).passed

    def test_g10_not_representable(self):
        f, _ = generator_catalog(10, (1, 2, 3, 4))
        with pytest.raises(NotRepresentable):
            reduce_quartic(f)

    def test_g10_exact_lp_infeasible(self):
        for pattern in generator_patterns(10):
            f, _ = generator_catalog(10, pattern)
            sol = lpsolver.solve(build_quartic_lp(f, exact=True))
            assert sol.status == lpsolver.INFEASIBLE

    def test_g10_nearest_positive(self):
        f, _ = generator_catalog(10, (1, 2, 3, 4))
        joint, distance = nearest_quartic(f)
        assert distance > 0
        report = verify_reduction(f.poly, joint.to_quadratic())
        assert sum(abs(g) for g in report.gaps.values()) == distance

    def test_decomposition_matches_membership(self):
        rng = random.Random(14)
        f = random_generator_combination(rng)
        assert decompose_over_generators(f) is not None
        g10, _ = generator_catalog(10, (1, 2, 3, 4))
        assert decompose_over_generators(g10) is None

    def test_random_combinations(self):
        rng = random.Random(16)
        for _ in range(30):
            f = random_generator_combination(rng)
            joint = reduce_quartic(f)
            assert verify_reduction(f.poly, joint.to_quadratic()).passed


def test_invariant_check_survives_optimize_flag():
    # Under python -O every assert is stripped; the replacement algebra's
    # min-preservation checks must still raise.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys\n"
        "from subquad import reduce_quartic as rq\n"
        "from subquad.mbf import AvParams\n"
        "assert False  # fails here unless -O strips asserts\n"
        "rq._preserves_min = lambda *args: False\n"
        "try:\n"
        "    rq.remove_singletons(AvParams.of(3, (4, 1, 1, 1)))\n"
        "except rq.InvariantError:\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
