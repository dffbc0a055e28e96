import ast
import hashlib
import os
import random
import subprocess
import sys
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
from subquad.pbf import MultilinearPoly, is_submodular
from subquad.reduce_quartic import (
    BACKWARD_SET,
    PAIR_MASKS,
    ForbiddenConfiguration,
    JointQuadratic,
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
    return AvParams.of(g, w)


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
    on one side of the pair labelings."""
    res, avs = case_split(p)
    assert _preserves_min(p, res, avs)
    assert len(avs) <= 2
    for a in avs:
        sides = [partition_coefficient(a, pm) for pm in PAIR_MASKS]
        assert all(v >= 0 for v in sides) or all(v <= 0 for v in sides)


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

    def test_complementary_on_pairs(self):
        # on-pairs {1,4} and {2,3} are complementary: no printed table
        # shape holds both, so the exact program decides
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

    def test_prescribed_states_reproduce_target(self):
        f, _ = generator_catalog(4, (1, 2, 3, 4))
        h = reduce_quartic(f).to_quadratic()
        for mask in range(16):
            z = (mask.bit_count() >= 3) | (mask.bit_count() >= 2) << 1
            assert h.evaluate(mask, z) == f.poly.evaluate(mask)

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
            sol = lpsolver.solve(_states_lp(f, BACKWARD_SET, sign_rows=True, dominance=False))
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

    def test_used_auxiliaries_on_criterion_10_stream(self):
        # Criterion 10 counts two auxiliaries per clique by construction;
        # on the same stream, count the ones each reduction really uses.
        rng = random.Random(101)
        used = []
        for _ in range(100):
            f = random_generator_combination(rng, max_parts=3)
            used.append(reduce_quartic(f).to_quadratic().drop_unused_aux().n_z)
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
        joint = reduce_quartic(f)
        # the whole search: two presolves, one decomposition and the 113
        # further on-sets of the second auxiliary
        assert len(calls) <= 116
        assert verify_reduction(f.poly, joint.to_quadratic()).passed

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
            h = reduce_quartic(f).to_quadratic()
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


def _package_modules():
    """(file name, syntax tree) of every module of the package."""
    package = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "subquad")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), name)


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no invariant of the package
    # may rest on one: each check raises an exception of its own.
    found = []
    for name, tree in _package_modules():
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_package_has_no_unused_imports():
    # An import nothing reads is left over from a deletion.  A deliberate
    # re-export is spelled ``X as X`` or listed in the module's __all__.
    found = []
    for name, tree in _package_modules():
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
