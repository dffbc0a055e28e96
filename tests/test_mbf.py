import hashlib
import random
from fractions import Fraction

import pytest

from subquad.mbf import (
    DEDEKIND,
    MBF_ENUMERATION_CAP,
    AvParams,
    MbfTable,
    enumerate_mbfs,
    induced_mbf,
    is_monotone,
    min_contribution,
    parse_tables,
    partition_coefficient,
    prune_mbf_set,
)
from subquad.pbf import MultilinearPoly, QuadraticPoly

from _gen import random_av_params, random_multi_av_quadratic


class TestIsMonotone:
    def test_constant_zero(self):
        assert is_monotone(MbfTable(3, 0))

    def test_majority_of_three(self):
        assert is_monotone(MbfTable.threshold(3, 2))

    def test_parity_is_not(self):
        t = MbfTable.from_function(2, lambda m: m.bit_count() % 2 == 1)
        assert not is_monotone(t)


class TestEnumeration:
    @pytest.mark.parametrize("k,count", [(1, 3), (2, 6), (3, 20), (4, 168)])
    def test_dedekind_counts(self, k, count):
        tables = enumerate_mbfs(k)
        assert len(tables) == count == DEDEKIND[k]
        assert len({t.bits for t in tables}) == count
        assert all(is_monotone(t) for t in tables)

    def test_k1_is_constants_and_identity(self):
        got = {t.bits for t in enumerate_mbfs(1)}
        zero = MbfTable.from_function(1, lambda m: 0).bits
        one = MbfTable.from_function(1, lambda m: 1).bits
        x1 = MbfTable.from_function(1, lambda m: m & 1).bits
        assert got == {zero, one, x1}

    def test_k2_contains_and_or(self):
        bits = {t.bits for t in enumerate_mbfs(2)}
        assert MbfTable.from_function(2, lambda m: m == 0b11).bits in bits
        assert MbfTable.from_function(2, lambda m: m != 0).bits in bits

    def test_tables_and_order_are_pinned(self):
        # SHA-256 of every table for k = 0..5 in enumeration order
        digest = hashlib.sha256()
        for k in range(MBF_ENUMERATION_CAP + 1):
            for t in enumerate_mbfs(k):
                digest.update(f"{k}:{t.bits:x}\n".encode())
        assert digest.hexdigest() == "5fffafb73947ea65ca78aee56e9ae303956c89a9da4b1a026f4369e900a321a3"

    @pytest.mark.parametrize("k", range(5))
    def test_text_round_trip(self, k):
        tables = enumerate_mbfs(k)
        assert parse_tables("".join(t.as_bitstring() + "\n" for t in tables), k) == tables

    def test_cap(self):
        with pytest.raises(ValueError):
            enumerate_mbfs(6)

    @pytest.mark.parametrize("k,kept", [(2, 2), (3, 15), (4, 162)])
    def test_prune_counts(self, k, kept):
        assert len(prune_mbf_set(enumerate_mbfs(k))) == kept


class TestComplementaryPairs:
    def test_complementary_pair_sum_identity(self):
        rng = random.Random(77)
        for _ in range(100):
            p = random_av_params(rng)
            sums = set()
            for pair in (0b0011, 0b0101, 0b1001):
                sums.add(
                    partition_coefficient(p, pair) + partition_coefficient(p, 0b1111 ^ pair)
                )
            assert len(sums) == 1
            # an on complementary pair plus a strictly positive off pair
            # cannot coexist: both would pin the same sum
            total = sums.pop()
            on = [pm for pm in (0b0011, 0b0101, 0b1001, 0b1100, 0b1010, 0b0110)
                  if partition_coefficient(p, pm) <= 0 and partition_coefficient(p, 0b1111 ^ pm) <= 0]
            if on:
                assert total <= 0


class TestInducedMbf:
    def test_two_of_three_threshold(self):
        # z * (2 - x1 - x2 - x3): on only when at least two variables are 1
        # strictly; the tie at exactly two resolves off.
        h = QuadraticPoly(
            MultilinearPoly.from_terms(
                4, [((4,), 2), ((1, 4), -1), ((2, 4), -1), ((3, 4), -1)]
            ),
            3,
            1,
        )
        t = induced_mbf(h, 4)
        assert t.value(0b111) == 1
        assert t.value(0b011) == 0
        assert t.value(0b001) == 0

    def test_no_aux_terms(self):
        h = QuadraticPoly(MultilinearPoly.from_terms(3, [((1,), 1)]), 2, 1)
        assert induced_mbf(h, 3).bits == 0

    def test_g4_row_states(self):
        # z * (1 - x1 - x2 - x3 - x4): on for |S| >= 2, tied off at singletons
        terms = [((5,), 1)] + [((i, 5), -1) for i in range(1, 5)]
        h = QuadraticPoly(MultilinearPoly.from_terms(5, terms), 4, 1)
        t = induced_mbf(h, 5)
        for m in range(16):
            assert t.value(m) == (1 if m.bit_count() >= 2 else 0)

    def test_monotone_on_random_submodular(self):
        rng = random.Random(21)
        for _ in range(40):
            h = random_multi_av_quadratic(rng, rng.randint(1, 3))
            for av in range(5, 5 + h.n_z):
                assert is_monotone(induced_mbf(h, av))

    def test_rejects_non_submodular(self):
        h = QuadraticPoly(MultilinearPoly.from_terms(3, [((1, 3), 1)]), 2, 1)
        with pytest.raises(ValueError):
            induced_mbf(h, 3)

    def test_refuses_more_than_20_variables(self):
        h = QuadraticPoly(MultilinearPoly.from_terms(21, [((21,), 1)]), 20, 1)
        with pytest.raises(ValueError, match="refuses n > 20"):
            induced_mbf(h, 21)


def test_min_contribution_matches_direct():
    rng = random.Random(2)
    for _ in range(50):
        p = random_av_params(rng)
        for m in range(16):
            k = partition_coefficient(p, m)
            assert min_contribution(p, m) == min(Fraction(0), k)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: MbfTable(2, 1 << 4), r"table wider than 2\^k bits"),
        (lambda: AvParams(1, (1, -1)), "weights must be non-negative"),
        (lambda: induced_mbf(QuadraticPoly(MultilinearPoly.zero(3), 2, 1), 2), "av must index the auxiliary block"),
        (lambda: induced_mbf(QuadraticPoly(MultilinearPoly.zero(3), 2, 1), 4), "av must index the auxiliary block"),
    ],
    ids=["wide-table", "negative-weight", "av-in-x-block", "av-past-the-end"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()
