import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subquad.pbf import (
    MultilinearPoly,
    NotSubmodularQuadratic,
    PolyParseError,
    QuadraticPoly,
    format_polynomial,
    from_capacity_form,
    indices_of,
    is_submodular,
    is_submodular_lattice,
    mask_of,
    parse_polynomial,
    to_capacity_form,
)

from _gen import random_submodular_quadratic

G6 = MultilinearPoly.from_terms(3, [((1, 2, 3), 1), ((1, 2), -1), ((1, 3), -1), ((2, 3), -1)])
NEG_QUARTIC = MultilinearPoly.from_terms(4, [((1, 2, 3, 4), -1)])

rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 9))


@st.composite
def polynomials(draw):
    n = draw(st.integers(0, 8))
    return MultilinearPoly(n, draw(st.dictionaries(st.integers(0, (1 << n) - 1), rationals, max_size=24)))


@st.composite
def submodular_quadratics(draw):
    n_x, n_z = draw(st.integers(1, 6)), draw(st.integers(0, 3))
    n = n_x + n_z
    terms = {0: draw(rationals)}
    for i in range(n):
        terms[1 << i] = draw(rationals)
    for i, j in combinations(range(n), 2):
        terms[1 << i | 1 << j] = -abs(draw(rationals))
    return QuadraticPoly(MultilinearPoly(n, terms), n_x, n_z)


class TestEvaluate:
    def test_single_monomial_all_ones(self):
        assert NEG_QUARTIC.evaluate(0b1111) == -1

    def test_single_monomial_not_covered(self):
        assert NEG_QUARTIC.evaluate(0b0111) == 0

    def test_g6_at_full(self):
        assert G6.evaluate(0b111) == -2

    def test_linear_in_addition(self):
        rng = random.Random(3)
        f = random_submodular_quadratic(rng, 5).poly
        g = random_submodular_quadratic(rng, 5).poly
        h = f + g
        for x in range(1 << 5):
            assert h.evaluate(x) == f.evaluate(x) + g.evaluate(x)

    def test_evaluate_all_matches_pointwise(self):
        rng = random.Random(5)
        f = random_submodular_quadratic(rng, 6).poly
        vals = f.evaluate_all()
        for x in range(1 << 6):
            assert vals[x] == f.evaluate(x)

    def test_from_values_round_trip(self):
        rng = random.Random(11)
        f = random_submodular_quadratic(rng, 5).poly
        assert MultilinearPoly.from_values(5, f.evaluate_all()) == f


class TestDerivative:
    def test_pair_term(self):
        f = MultilinearPoly.from_terms(2, [((1, 2), -1)])
        assert f.derivative(1) == MultilinearPoly.from_terms(2, [((2,), -1)])

    def test_absent_variable(self):
        f = MultilinearPoly.from_terms(3, [((1,), 1), ((2,), 1)])
        assert f.derivative(3) == MultilinearPoly.zero(3)

    def test_monomial(self):
        assert NEG_QUARTIC.derivative(1) == MultilinearPoly.from_terms(4, [((2, 3, 4), -1)])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            G6.derivative(4)


class TestSecondDerivative:
    def test_constant_mixed_term(self):
        f = MultilinearPoly.from_terms(2, [((1, 2), -1)])
        for x in range(4):
            assert f.second_derivative(1, 2, x) == -1

    def test_separable(self):
        f = MultilinearPoly.from_terms(2, [((1,), 1), ((2,), 1)])
        assert f.second_derivative(1, 2, 0) == 0

    def test_quartic_four_point(self):
        assert NEG_QUARTIC.second_derivative(1, 2, 0b1100) == -1
        assert NEG_QUARTIC.second_derivative(1, 2, 0b0100) == 0

    def test_same_index_rejected(self):
        with pytest.raises(ValueError):
            G6.second_derivative(2, 2, 0)

    def test_matches_iterated_derivative(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randint(2, 6)
            terms = []
            for _ in range(rng.randint(1, 8)):
                size = rng.randint(0, n)
                subset = tuple(rng.sample(range(1, n + 1), size))
                terms.append((subset, Fraction(rng.randint(-4, 4), rng.choice([1, 2]))))
            f = MultilinearPoly.from_terms(n, terms)
            i, j = rng.sample(range(1, n + 1), 2)
            dd = f.derivative(i).derivative(j)
            for x in range(1 << n):
                assert f.second_derivative(i, j, x) == dd.evaluate(x)


class TestIsSubmodular:
    def test_neg_quartic_monomial(self):
        assert is_submodular(NEG_QUARTIC)

    def test_positive_pair(self):
        assert not is_submodular(MultilinearPoly.from_terms(2, [((1, 2), 1)]))

    def test_g10_instance(self):
        f = MultilinearPoly.from_terms(
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
        assert is_submodular(f)

    def test_degree_one_always(self):
        f = MultilinearPoly.from_terms(25, [((7,), 3), ((21,), -2)])
        assert is_submodular(f)

    def test_agrees_with_lattice_oracle(self):
        rng = random.Random(23)
        agree = 0
        for _ in range(60):
            n = rng.randint(2, 5)
            terms = []
            for _ in range(rng.randint(1, 7)):
                size = rng.randint(0, n)
                subset = tuple(rng.sample(range(1, n + 1), size))
                terms.append((subset, Fraction(rng.randint(-3, 3))))
            f = MultilinearPoly.from_terms(n, terms)
            assert is_submodular(f) == is_submodular_lattice(f)
            agree += 1
        assert agree == 60


class TestRestrict:
    def test_pair_at_one(self):
        f = MultilinearPoly.from_terms(2, [((1, 2), -1)])
        assert f.restrict({1: 1}) == MultilinearPoly.from_terms(2, [((2,), -1)])

    def test_pair_at_zero(self):
        f = MultilinearPoly.from_terms(2, [((1, 2), -1)])
        assert f.restrict({1: 0}) == MultilinearPoly.zero(2)

    def test_g6_at_x3(self):
        got = G6.restrict({3: 1})
        assert got == MultilinearPoly.from_terms(3, [((1,), -1), ((2,), -1)])

    def test_pointwise_equality(self):
        rng = random.Random(31)
        f = random_submodular_quadratic(rng, 6).poly
        r = f.restrict({2: 1, 5: 0})
        for x in range(1 << 6):
            if x & 0b10010:
                continue
            assert r.evaluate(x) == f.evaluate(x | 0b00010)


class TestCapacityForm:
    def test_pair_round_trip_values(self):
        h = QuadraticPoly(MultilinearPoly.from_terms(2, [((1, 2), -1)]), 2)
        cf = to_capacity_form(h)
        for x in range(4):
            assert cf.value(x) == h.poly.evaluate(x)
        assert from_capacity_form(cf).poly == h.poly

    def test_zero(self):
        cf = to_capacity_form(QuadraticPoly(MultilinearPoly.zero(3), 3))
        assert cf.c_empty == 0 and not cf.src and not cf.sink and not cf.pairs
        assert from_capacity_form(cf).poly == MultilinearPoly.zero(3)

    def test_single_unary(self):
        cf = to_capacity_form(QuadraticPoly(MultilinearPoly.from_terms(1, [((1,), 1)]), 1))
        assert cf.sink == {1: Fraction(1)} and not cf.src and not cf.pairs

    def test_constant_only(self):
        cf = to_capacity_form(QuadraticPoly(MultilinearPoly.from_terms(1, [((), 5)]), 1))
        assert from_capacity_form(cf).poly == MultilinearPoly.from_terms(1, [((), 5)])

    def test_rejects_supermodular(self):
        h = QuadraticPoly(MultilinearPoly.from_terms(2, [((1, 2), 1)]), 2)
        with pytest.raises(NotSubmodularQuadratic):
            to_capacity_form(h)

    def test_random_round_trip(self):
        rng = random.Random(41)
        for _ in range(40):
            h = random_submodular_quadratic(rng, rng.randint(1, 12))
            cf = to_capacity_form(h)
            assert all(v >= 0 for v in cf.src.values())
            assert all(v >= 0 for v in cf.sink.values())
            assert all(v >= 0 for v in cf.pairs.values())
            back = from_capacity_form(cf)
            assert back.poly == h.poly

    @settings(max_examples=300)
    @given(submodular_quadratics())
    def test_round_trip_property(self, h):
        assert from_capacity_form(to_capacity_form(h)).poly == h.poly


class TestTextFormat:
    def test_round_trip(self):
        text = "# target\n-1 : 1 2 3\n1/2 : 2\n5\n"
        f = parse_polynomial(text)
        assert f.coefficient((1, 2, 3)) == -1
        assert f.coefficient((2,)) == Fraction(1, 2)
        assert f.coefficient(()) == 5
        assert parse_polynomial(format_polynomial(f)) == f

    @settings(max_examples=300)
    @given(polynomials())
    def test_round_trip_property(self, p):
        assert parse_polynomial(format_polynomial(p), p.n_vars) == p

    def test_duplicates_sum(self):
        f = parse_polynomial("1 : 1 2\n1/3 : 2 1\n")
        assert f.coefficient((1, 2)) == Fraction(4, 3)

    def test_zero_poly(self):
        assert parse_polynomial(format_polynomial(MultilinearPoly.zero(3)), 3) == MultilinearPoly.zero(3)

    def test_bad_rational_reports_position(self):
        with pytest.raises(PolyParseError) as err:
            parse_polynomial("1 : 1\nx2 : 2\n")
        assert err.value.line == 2

    def test_bad_index(self):
        with pytest.raises(PolyParseError):
            parse_polynomial("1 : 0\n")

    def test_repeated_variable(self):
        with pytest.raises(PolyParseError):
            parse_polynomial("1 : 2 2\n")


def test_mask_helpers():
    assert mask_of([1, 3]) == 0b101
    with pytest.raises(ValueError):
        mask_of([0])


def _indices_bit_by_bit(mask):
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def test_indices_of_matches_bit_by_bit_on_wide_masks():
    rng = random.Random(41)
    masks = [0, 1, 1 << 699, (1 << 700) - 1, (1 << 699) | 1, 0b1010 << 640]
    for _ in range(200):
        width = rng.randint(1, 700)
        density = rng.choice([0.002, 0.01, 0.1, 0.5, 0.9])
        masks.append(sum(1 << i for i in range(width) if rng.random() < density))
    for mask in masks:
        assert indices_of(mask) == _indices_bit_by_bit(mask)


def test_mask_indices_round_trip():
    rng = random.Random(43)
    for _ in range(200):
        indices = tuple(sorted(rng.sample(range(1, 701), rng.randint(0, 40))))
        assert indices_of(mask_of(indices)) == indices
        mask = rng.getrandbits(700)
        assert mask_of(indices_of(mask)) == mask
