import ast
import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subquad import lpsolver
from subquad import reduce_quartic as rq
from subquad.mbf import AvParams, enumerate_mbfs, induced_mbf, is_monotone, min_contribution, partition_coefficient
from subquad.oracle import verify_reduction
from subquad.pbf import MultilinearPoly, format_polynomial, is_submodular
from subquad.reduce_quartic import (
    BACKWARD_SET,
    PAIR_MASKS,
    NotRepresentable,
    QuarticFunction,
    case_split,
    complement_form,
    decompose_over_generators,
    generator_catalog,
    generator_patterns,
    matrix_determinant,
    nearest_quartic,
    normalize_to_reference,
    reduce_quartic,
    reference_system_matrix,
    remove_singletons,
)
from subquad.pbf import indices_of
from subquad.reduce_quartic import _nearest_lp, _preserves_min, _second_onsets, _states_lp

from _gen import program_digest, random_av_params, random_generator_combination


def P(g, w):
    return AvParams(g, w)


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


def _check_split(p):
    """case_split keeps the minimum with at most two variables, each wholly
    on one side of the pair labelings and accepted by
    normalize_to_reference."""
    res, avs = case_split(p)
    assert _preserves_min(p, res, avs)
    assert len(avs) <= 2
    for a in avs:
        sides = [partition_coefficient(a, pm) for pm in PAIR_MASKS]
        assert all(v >= 0 for v in sides) or all(v <= 0 for v in sides)
        normalize_to_reference(a)


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
        # one-pair transformation would be wrong here; the exact program
        # splits it all the same
        p = P(10, (2, 3, 6, 5))
        res, avs = case_split(p)
        assert _preserves_min(p, res, avs)

    def test_complementary_on_pairs(self):
        # on-pairs {1,4} and {2,3} are complementary: no printed table
        # shape holds both, the exact program splits them
        _check_split(P(20, (2, 12, 10, 19)))

    def test_exhaustive_small_integer_grid(self):
        # every singleton-free integer (g, w) with 0 <= w_i <= g <= 4
        nontrivial = 0
        for g in range(5):
            for w in product(range(g + 1), repeat=4):
                p = P(g, w)
                if any(partition_coefficient(p, pm) < 0 for pm in PAIR_MASKS) and any(
                    partition_coefficient(p, pm) > 0 for pm in PAIR_MASKS
                ):
                    nontrivial += 1
                _check_split(p)
        assert nontrivial == 592

    @settings(max_examples=200)
    @given(st.data())
    def test_rational_params_property(self, data):
        den = data.draw(st.integers(1, 6))
        g = Fraction(data.draw(st.integers(0, 12 * den)), den)
        weights = []
        for _ in range(4):
            d = data.draw(st.integers(1, 6))
            weights.append(Fraction(data.draw(st.integers(0, g.numerator * d // g.denominator)), d))
        _check_split(AvParams(g, tuple(weights)))

    def test_requires_singleton_free(self):
        with pytest.raises(ValueError):
            case_split(P(3, (4, 1, 1, 1)))

    def test_undecomposed_input_is_an_invariant_breach(self, monkeypatch):
        # with the exact program failing, nothing else decomposes the input
        calls = []
        monkeypatch.setattr(rq, "_split_lp", lambda p: calls.append(p))
        with pytest.raises(rq.InvariantError, match="no decomposition found"):
            case_split(P(10, (2, 3, 6, 5)))
        assert calls == [P(10, (2, 3, 6, 5))]

    @pytest.mark.parametrize(
        "p", [P(6, (1, 2, 3, 4)), P(5, (1, 2, 3, 4)), P(5, (4, 2, 2, 2)), P(8, (4, 5, 6, 0))]
    )
    def test_caption_inputs_take_one_program(self, monkeypatch, p):
        split_lp, calls = rq._split_lp, []

        def recording(q):
            calls.append(q)
            return split_lp(q)

        monkeypatch.setattr(rq, "_split_lp", recording)
        case_split(p)
        assert calls == [p]

    def test_randomized_min_preservation(self):
        rng = random.Random(6)
        for _ in range(250):
            p = random_av_params(rng)
            _, p1 = remove_singletons(p)
            if p1 is None:
                continue
            _check_split(p1)


class TestNormalize:
    def test_fixed_point_forward(self):
        p = P(5, (1, 2, 2, 3))
        assert normalize_to_reference(p) == p

    def test_all_off_goes_to_zero(self):
        assert normalize_to_reference(P(6, (1, 1, 1, 1))) == P(0, (0, 0, 0, 0))

    def test_fixed_point_backward(self):
        p = P(2, (1, 1, 1, 1))
        assert normalize_to_reference(p) == p

    def test_forward_rejects_on_pairs(self):
        with pytest.raises(ValueError, match="size-2 pattern"):
            normalize_to_reference(P(5, (4, 2, 2, 2)))

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
            out = normalize_to_reference(p)
            for m in range(16):
                k = partition_coefficient(out, m)
                assert k <= 0 if m.bit_count() >= 3 else k >= 0
                assert min_contribution(out, m) == min_contribution(p, m)
            done += 1


class TestCatalog:
    @pytest.mark.parametrize("group", range(1, 10))
    def test_rows_verify(self, group):
        for pattern in generator_patterns(group):
            f, h = generator_catalog(group, pattern)
            assert is_submodular(f.poly)
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
        assert h is None and is_submodular(f.poly)

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            generator_catalog(6, (1, 1, 2, 3))
        with pytest.raises(ValueError):
            generator_catalog(11, (1, 2, 3, 4))


class TestReduceQuartic:
    def test_neg_quartic_monomial(self):
        f = QuarticFunction.from_terms([((1, 2, 3, 4), -1)])
        result = reduce_quartic(f)
        assert verify_reduction(f.poly, result.quadratic).passed

    def test_zero(self):
        result = reduce_quartic(QuarticFunction.from_terms([]))
        assert verify_reduction(MultilinearPoly.zero(4), result.quadratic).passed

    def test_g8_value_table(self):
        f, _ = generator_catalog(8, (1, 2, 3, 4))
        h = reduce_quartic(f).quadratic
        for mask in range(16):
            expect = min(Fraction(0), Fraction(2 - mask.bit_count()))
            assert h.min_over_aux(mask)[0] == expect

    def test_rejects_non_submodular(self):
        with pytest.raises(ValueError):
            reduce_quartic(QuarticFunction.from_terms([((1, 2), 1)]))

    def test_prescribed_states_reproduce_target(self):
        f, _ = generator_catalog(4, (1, 2, 3, 4))
        h = reduce_quartic(f).quadratic
        for mask in range(16):
            z = (mask.bit_count() >= 3) | (mask.bit_count() >= 2) << 1
            assert h.evaluate(mask, z) == f.poly.evaluate(mask)

    def test_g9_plus_g6_representable(self):
        f9, _ = generator_catalog(9, (1, 2, 3, 4))
        f6, _ = generator_catalog(6, (1, 2, 3, 4))
        f = f9 + f6
        result = reduce_quartic(f)
        assert verify_reduction(f.poly, result.quadratic).passed

    def test_g10_not_representable(self):
        f, _ = generator_catalog(10, (1, 2, 3, 4))
        with pytest.raises(NotRepresentable):
            reduce_quartic(f)

    def test_g10_exact_lp_infeasible(self):
        for pattern in generator_patterns(10):
            f, _ = generator_catalog(10, pattern)
            sol = lpsolver.solve(_states_lp(f, BACKWARD_SET, sign_rows=True, dominance=False))
            assert sol.status == lpsolver.INFEASIBLE

    def test_g10_nearest_positive(self):
        f, _ = generator_catalog(10, (1, 2, 3, 4))
        result = nearest_quartic(f)
        assert result.l1_distance > 0
        assert result.report == verify_reduction(f.poly, result.quadratic)
        assert sum(abs(g) for g in result.report.gaps.values()) == result.l1_distance

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
            result = reduce_quartic(f)
            assert result.report == verify_reduction(f.poly, result.quadratic)
            assert result.report.passed

    def test_used_auxiliaries_on_criterion_10_stream(self):
        # Criterion 10 counts two auxiliaries per clique by construction;
        # on the same stream, count the ones each reduction really uses.
        rng = random.Random(101)
        used = []
        for _ in range(100):
            f = random_generator_combination(rng, max_parts=3)
            used.append(reduce_quartic(f).quadratic.drop_unused_aux().n_z)
        assert max(used) <= 2
        assert sum(used) == 130


def _reference_exact_lp(f):
    """The retired exact program, ``build_quartic_lp(f, exact=True)`` as it
    was written: 16 value rows at the threshold states in the full joint
    coefficients, the sign rows and non-negative bilinear magnitudes.
    ``reduce_quartic``'s first presolve is this program with the x-part
    folded away."""

    def prescribed_states(mask):
        return (1 if mask.bit_count() >= 3 else 0, 1 if mask.bit_count() >= 2 else 0)

    if not is_submodular(f.poly):
        raise ValueError("the exact program only applies to submodular quartics")
    lp = lpsolver.LinearProgram()
    lp.add_variable("b0", lower=None)
    for i in range(1, 5):
        lp.add_variable(f"b{i}", lower=None)
    for pm in PAIR_MASKS:
        i, j = indices_of(pm)
        lp.add_variable(f"bp_{i}{j}")
    rq._add_av_variables(lp)

    for mask in range(16):
        row = {"b0": Fraction(1)}
        for i in range(1, 5):
            if mask >> (i - 1) & 1:
                row[f"b{i}"] = Fraction(1)
        for pm in PAIR_MASKS:
            if mask & pm == pm:
                i, j = indices_of(pm)
                row[f"bp_{i}{j}"] = Fraction(-1)
        row.update(rq._zpart_form(mask, *prescribed_states(mask)))
        lp.add_constraint(row, "==", f.poly.evaluate(mask))
    rq._add_sign_rows(lp, BACKWARD_SET)
    lp.set_objective({})
    return lp


class TestSearchPrograms:
    # Row order decides which vertex Bland's rule reaches, and so every
    # reduction the search returns: these digests of the variable order,
    # bounds and rows on 40 seeded cliques were recorded from the three
    # separately written builders the shared ones replaced.
    GOLDEN = {
        "exact": "a1cddb7985a449ed2f5031efeded4aac69be517e157666a97aed2c41aee13d9f",
        "nearest": "a2ac5675391d61bc0d5c1187cf185f17e18ee8bdd66300acf5d233df65d0435b",
        "sign": "8df661cbf4f6ba1a30ffde404aaa20219fb59a95b0ccebc45949fb47d42cc2fd",
        "sign_dominance": "fec0d1d7ca015d411227ce10c3aabe7e000dac535ea3f719180b997724eb2177",
        "dominance": "d2ab8e44bb84ccd01868bcb8fed94021738bac5161e34a5e79b1ede67ca8f08d",
    }

    def test_golden_programs(self):
        rng = random.Random(40)
        cliques = [random_generator_combination(rng) for _ in range(40)]
        builders = {
            "exact": _reference_exact_lp,
            "nearest": _nearest_lp,
            "sign": lambda f: _states_lp(f, BACKWARD_SET, sign_rows=True, dominance=False),
            "sign_dominance": lambda f: _states_lp(f, BACKWARD_SET, sign_rows=True),
            "dominance": lambda f: _states_lp(f, BACKWARD_SET),
        }
        got = {name: program_digest(build(f) for f in cliques) for name, build in builders.items()}
        assert got == self.GOLDEN

    # Digests of every states program the search can build for two fixed
    # cliques: all 114 second on-sets under the three flag combinations,
    # recorded when each program was still built row by row.  The rows now
    # come from a shared per-(on2, flags) cache with only the right-hand
    # sides read off f, and must reproduce the same rows, order, relations
    # and right-hand sides.
    ONSET_GOLDEN = {
        (900, True, False): "dd521435f02a2b2bc4db3abc03bc73bbba1c2b78f5c4c2f9588db46116da40d4",
        (900, False, True): "2ee9e9f94ae0ec3cca7acc7097a540cbb30628c993911ca2ce489c307713eac2",
        (900, True, True): "4a3c9d8b50c64760e71da735e41fe079686f544aa2699f1dcc83010cdd796713",
        (901, True, False): "60f185555eac972c3605450858bd99ab436e486388b5f7fb3a8a3ecf740d9d85",
        (901, False, True): "5addc49dc74dad1493aba802033aae0219577732d3fed80ba671eba5b673a28b",
        (901, True, True): "7422b701b87b2c9f1b36b06a4bb8788936be4da8fbdbf235adde2e359ce2da25",
    }

    @pytest.mark.parametrize("seed, sign_rows, dominance", sorted(ONSET_GOLDEN))
    def test_every_onset_program_is_pinned(self, seed, sign_rows, dominance):
        f = random_generator_combination(random.Random(seed))
        got = program_digest(_states_lp(f, on2, sign_rows, dominance) for on2 in _second_onsets())
        assert got == self.ONSET_GOLDEN[seed, sign_rows, dominance]

    def test_programs_share_rows_but_not_right_hand_sides(self):
        rng = random.Random(902)
        f, g = random_generator_combination(rng), random_generator_combination(rng)
        on2 = _second_onsets()[7]
        shared = rq._states_rows(on2, True, True)
        before = [(dict(con.coeffs), con.rel, con.rhs) for con in shared]
        first = _states_lp(f, on2, True, True)
        dump = first.dump()
        solutions = [lpsolver.solve(first), lpsolver.solve(_states_lp(g, on2, True, True)), lpsolver.solve(first)]
        assert solutions[0] == solutions[2]
        assert first.dump() == dump
        assert [(dict(con.coeffs), con.rel, con.rhs) for con in shared] == before
        assert all(con.rhs == 0 for con in shared)

    def test_sweep_templates_hold_each_distinct_row_once(self):
        # The 113 sweep on-sets' dominance-only templates repeat 200
        # distinct rows across 6667; each is held once.
        onsets = _second_onsets()[1:]
        for on2 in onsets:
            rq._moebius(on2)  # also cached for _assemble; not the templates' memory
        rq._states_rows.cache_clear()
        rq._shared_row.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            templates = [rq._states_rows(on2, False, True) for on2 in onsets]
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sum(map(len, templates)) == 6667
        assert len({id(con) for rows in templates for con in rows}) == 200
        assert held < 500_000

    def test_first_presolve_decides_like_the_exact_program(self):
        # Criterion 03 and the G10 tests solve reduce_quartic's first
        # presolve; the exact program in the full joint coefficients must
        # reach the same status on every kind of input.
        rng = random.Random(66)
        g10s = [generator_catalog(10, p)[0] for p in generator_patterns(10)]
        cliques = [random_generator_combination(rng) for _ in range(300)] + g10s
        for n in range(60):
            part = random_generator_combination(rng, max_parts=3)
            weight = Fraction(rng.randint(1, 3), rng.choice((1, 2, 4)))
            cliques.append(g10s[n % len(g10s)] + part.scaled(weight))
        statuses = []
        for f in cliques:
            exact = lpsolver.solve(_reference_exact_lp(f)).status
            presolve = lpsolver.solve(_states_lp(f, BACKWARD_SET, sign_rows=True, dominance=False)).status
            assert exact == presolve
            statuses.append(exact)
        assert {lpsolver.OPTIMAL, lpsolver.INFEASIBLE} <= set(statuses)

    def test_sweep_covers_every_second_onset_once(self):
        nosing = {t for t in enumerate_mbfs(4) if not any(t.value(m) for m in range(16) if m.bit_count() < 2)}
        second = _second_onsets()
        assert len(second) == len(set(second)) == 114
        assert set(second) == nosing
        assert second[0] == BACKWARD_SET

    def test_sweep_order_is_pinned(self):
        # recorded from the earlier frozenset on-sets as sorted mask lists;
        # the sweep order decides which prescription a reduction lands on
        onsets = [[m for m in range(16) if t.value(m)] for t in _second_onsets()]
        digest = hashlib.sha256(repr(onsets).encode()).hexdigest()
        assert digest == "d36db91e118412a1371282e52ed25bf20d9f03a3b75abc16afcf7b9c4b4b2d7f"

    @pytest.mark.parametrize("index", [405, 495])
    def test_search_bound(self, monkeypatch, index):
        # The two criterion-04 cliques that reached deepest into the old
        # candidate and pattern-pair rungs (325 and 212 LP solves).
        rng = random.Random(20260810)
        for _ in range(index):
            random_generator_combination(rng)
        f = random_generator_combination(rng)
        solve = lpsolver.solve
        calls = []
        monkeypatch.setattr(lpsolver, "solve", lambda lp: calls.append(lp) or solve(lp))
        result = reduce_quartic(f)
        # the whole search: two presolves, one decomposition and the 113
        # further on-sets of the second auxiliary
        assert len(calls) <= 116
        assert verify_reduction(f.poly, result.quadratic).passed

    @settings(max_examples=300)
    @given(st.data())
    def test_generator_sums_reduce_within_the_search(self, data):
        # Any non-negative generator sum needing a prescription outside the
        # search (the first auxiliary off |S| >= 3) would fail here.
        f = QuarticFunction.from_terms([])
        for _ in range(data.draw(st.integers(1, 6))):
            group = data.draw(st.integers(1, 9))
            part, _ = generator_catalog(group, data.draw(st.sampled_from(generator_patterns(group))))
            weight = Fraction(data.draw(st.integers(1, 9)), data.draw(st.sampled_from((1, 2, 3, 5))))
            f = f + part.scaled(weight)
        # swapped by hand: a function-scoped monkeypatch fixture would be
        # shared by every example
        solve = lpsolver.solve
        calls = []
        lpsolver.solve = lambda lp: calls.append(lp) or solve(lp)
        try:
            h = reduce_quartic(f).quadratic
        finally:
            lpsolver.solve = solve
        report = verify_reduction(f.poly, h)
        assert report.passed
        assert all(is_monotone(induced_mbf(h, av)) for av in range(5, 5 + h.n_z))
        assert h.drop_unused_aux().n_z <= 2
        assert len(calls) <= 116

    def test_not_representable_costs_two_solves(self, monkeypatch):
        # the first presolve is infeasible, so the second one, which only
        # adds rows to it, is skipped
        f, _ = generator_catalog(10, (1, 2, 3, 4))
        solve = lpsolver.solve
        calls = []
        monkeypatch.setattr(lpsolver, "solve", lambda lp: calls.append(lp) or solve(lp))
        with pytest.raises(NotRepresentable):
            reduce_quartic(f)
        assert len(calls) == 2

    def test_dominance_alone_decides_threshold_pair_like_sign_rows(self):
        # reduce_quartic skips the threshold pair in its sweep because the
        # program with dominance rows alone is feasible exactly when the
        # one with sign rows as well is (the argument is in its comment).
        rng = random.Random(61)
        cliques = [random_generator_combination(rng) for _ in range(100)]
        cliques += [generator_catalog(10, p)[0] for p in generator_patterns(10)]
        statuses = []
        for f in cliques:
            with_sign = lpsolver.solve(_states_lp(f, BACKWARD_SET, sign_rows=True)).status
            alone = lpsolver.solve(_states_lp(f, BACKWARD_SET)).status
            assert with_sign == alone
            statuses.append(alone)
        assert {lpsolver.OPTIMAL, lpsolver.INFEASIBLE} <= set(statuses)

    def test_answer_reader_refuses_what_is_not_a_submodular_quadratic(self):
        # Every answer goes through one reader; a point whose quadratic is
        # not submodular (or not quadratic) means a solver or builder bug.
        f, _ = generator_catalog(4, (1, 2, 3, 4))
        values = lpsolver.solve(_states_lp(f, BACKWARD_SET, sign_rows=True, dominance=False)).values
        assert rq._assemble(f, values).is_submodular()
        with pytest.raises(lpsolver.LpInternalError, match="quadratic"):
            rq._answer(values, {0b0111: Fraction(-1)})
        with pytest.raises(lpsolver.LpInternalError, match="submodular"):
            rq._answer(values, {0b0011: Fraction(1)})
        with pytest.raises(lpsolver.LpInternalError, match="submodular"):
            rq._answer(values | {"j12": Fraction(-1)}, {})
        with pytest.raises(lpsolver.LpInternalError, match="submodular"):
            rq._answer(values | {"w2_3": Fraction(-1, 2)}, {})

    def test_failing_dominance_point_raises(self, monkeypatch):
        # A point that satisfies the dominance rows but fails the oracle
        # means a solver or builder bug: the second presolve raises at once
        # instead of falling through to the sweep.
        f, _ = generator_catalog(4, (1, 2, 3, 4))
        solve = lpsolver.solve
        calls = []
        monkeypatch.setattr(lpsolver, "solve", lambda lp: calls.append(lp) or solve(lp))
        monkeypatch.setattr(rq, "verify_reduction", lambda *args: SimpleNamespace(passed=False))
        with pytest.raises(lpsolver.LpInternalError):
            reduce_quartic(f)
        assert len(calls) == 2


# Sums led by the two-sided interacting generator that miss both presolves
# and are resolved by the sweep (5 to 22 LP solves each).
SWEEP_SUMS = (
    ((9, (2, 3, 1, 4), 1),),
    ((9, (3, 4, 1, 2), 1), (2, (1, 2, 3, 4), 2)),
    ((1, (1, 3, 2, 4), 1), (9, (2, 3, 1, 4), 1), (9, (2, 4, 1, 3), 2)),
    ((9, (3, 4, 1, 2), 2), (5, (1, 2, 3, 4), 1), (9, (1, 4, 2, 3), 1)),
    ((9, (3, 4, 1, 2), 2), (9, (2, 3, 1, 4), 2)),
)


def test_answers_are_pinned():
    # The bench digests record only auxiliary counts and pass/fail; this
    # one covers the exact quadratic of every answer: the first 200
    # criterion-04 cliques, the sweep sums above, and the nearest quadratic
    # and distance of every G10 pattern.
    h = hashlib.sha256()
    rng = random.Random(20260810)
    cliques = [random_generator_combination(rng) for _ in range(200)]
    for parts in SWEEP_SUMS:
        f = QuarticFunction.from_terms([])
        for group, pattern, weight in parts:
            f = f + generator_catalog(group, pattern)[0].scaled(weight)
        cliques.append(f)
    for f in cliques:
        h.update(format_polynomial(reduce_quartic(f).quadratic.poly).encode() + b"\n")
    for pattern in generator_patterns(10):
        result = nearest_quartic(generator_catalog(10, pattern)[0])
        h.update(format_polynomial(result.quadratic.poly).encode() + f"{result.l1_distance}\n".encode())
    assert h.hexdigest() == "8b0661755ca4ea9f8e8e080d5f6cf50320c1d763ed3f77986ee98c69bb732dfd"


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
        "    rq.remove_singletons(AvParams(3, (4, 1, 1, 1)))\n"
        "except rq.InvariantError:\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def _modules(*dirs):
    """(path, syntax tree) of every module in the given directories of the
    repository."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for d in dirs:
        for name in sorted(os.listdir(os.path.join(root, d))):
            if name.endswith(".py"):
                path = os.path.join(d, name)
                with open(os.path.join(root, path), encoding="utf-8") as fh:
                    yield path, ast.parse(fh.read(), path)


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no invariant of the package
    # may rest on one: each check raises an exception of its own.
    found = []
    for name, tree in _modules(os.path.join("src", "subquad")):
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_package_has_no_unused_imports():
    # An import nothing reads is left over from a deletion.  A deliberate
    # re-export is spelled ``X as X`` or listed in the module's __all__.
    # The test modules are held to the same rule.
    found = []
    for name, tree in _modules(os.path.join("src", "subquad"), "tests"):
        imported = {}
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    if alias.asname != alias.name:
                        imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used |= {elt.value for elt in node.value.elts}
        found += [f"{name}:{line} {bound}" for bound, line in imported.items() if bound not in used]
    assert found == []


_FOUR = "the replacement algebra is specific to 4 variables"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: QuarticFunction(MultilinearPoly.zero(3)), "quartic functions live on exactly 4 variables"),
        (lambda: nearest_quartic(QuarticFunction.from_terms([((1, 2), 1)])), "nearest_quartic needs a submodular quartic"),
        (lambda: remove_singletons(AvParams(1, (1, 1, 1))), _FOUR),
        (lambda: case_split(AvParams(1, (1, 1, 1))), _FOUR),
        (lambda: case_split(AvParams(-1, (1, 1, 1, 1))), "remove singletons before splitting"),
        (lambda: case_split(AvParams(1, (2, 0, 0, 0))), "remove singletons before splitting"),
        (lambda: normalize_to_reference(AvParams(1, (1, 1, 1))), "reference normalization is specific to 4 variables"),
        (lambda: normalize_to_reference(AvParams(-1, (1, 1, 1, 1))), "remove singletons before normalizing"),
        (lambda: normalize_to_reference(AvParams(1, (0, 0, 2, 0))), "remove singletons before normalizing"),
    ],
    ids=[
        "quartic-arity",
        "nearest-not-submodular",
        "singletons-arity",
        "split-arity",
        "split-empty-on",
        "split-singleton-on",
        "normalize-arity",
        "normalize-empty-on",
        "normalize-singleton-on",
    ],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def _scaled_pair():
    """The 14th criterion draw of seed 1, led by -5/2 : 1 2 3 4, and its
    reductions at scale 1 and 2."""
    rng = random.Random(1)
    f = [random_generator_combination(rng) for _ in range(14)][-1]
    return f, reduce_quartic(f), reduce_quartic(f.scaled(2))


def test_scaled_pair_answers_verify():
    f, plain, doubled = _scaled_pair()
    assert f.poly.terms[0b1111] == Fraction(-5, 2)
    assert plain.report.passed and doubled.report.passed


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: the phase-1 row weights each artificial by its row's integer scale, "
    "so the vertex reached can move when f is scaled",
)
def test_reduction_commutes_with_scaling():
    _, plain, doubled = _scaled_pair()
    assert doubled.quadratic.poly == plain.quadratic.poly.scaled(2)
