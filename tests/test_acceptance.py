"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Tests run in definition order; the Lemma-1 criterion (09) audits
every exact reduction produced by the earlier criteria, so running it in
isolation checks nothing.
"""

import random
import time

from subquad import lpsolver
from subquad.maxflow import minimize_quadratic
from subquad.mbf import (
    DEDEKIND,
    enumerate_mbfs,
    induced_mbf,
    is_monotone,
    min_contribution,
    partition_coefficient,
    prune_mbf_set,
)
from subquad.oracle import brute_min, verify_reduction
from subquad.pbf import MultilinearPoly, QuadraticPoly
from subquad.reduce_general import ReductionProblem, nearest_quadratic
from subquad.reduce_quartic import (
    BACKWARD_SET,
    PAIR_MASKS,
    AvParams,
    case_split,
    complement_form,
    generator_catalog,
    generator_patterns,
    matrix_determinant,
    nearest_quartic,
    normalize_to_reference,
    reduce_quartic,
    reference_system_matrix,
    remove_singletons,
)
from subquad.reduce_quartic import _states_lp

from _gen import (
    random_av_params,
    random_generator_combination,
    random_submodular_cubic,
    random_submodular_quadratic,
)

# exact reductions produced while the suite runs, audited by criterion 09
EXACT_REDUCTIONS: list[tuple[MultilinearPoly, QuadraticPoly]] = []


def _report(number: int, label: str):
    print(f"ACCEPTANCE {number:02d} PASS - {label}")


def test_criterion_01_dedekind_counts():
    start = time.monotonic()
    for k in range(1, 6):
        tables = enumerate_mbfs(k)
        assert len(tables) == DEDEKIND[k]
        assert len({t.bits for t in tables}) == DEDEKIND[k]
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"enumeration took {elapsed:.1f}s"
    _report(1, f"Dedekind counts 3,6,20,168,7581 in {elapsed:.2f}s")


def test_criterion_02_catalog_equivalence():
    start = time.monotonic()
    checked = 0
    for group in range(1, 10):
        patterns = generator_patterns(group)
        assert len(patterns) <= 24
        for pattern in patterns:
            f, h = generator_catalog(group, pattern)
            report = verify_reduction(f.poly, h)
            assert report.passed, (group, pattern)
            EXACT_REDUCTIONS.append((f.poly, h))
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"catalog check took {elapsed:.1f}s"
    _report(2, f"{checked} catalog instances verified exactly in {elapsed:.2f}s")


def test_criterion_03_g10_not_representable():
    patterns = generator_patterns(10)
    for pattern in patterns:
        f, _ = generator_catalog(10, pattern)
        sol = lpsolver.solve(_states_lp(f, BACKWARD_SET, sign_rows=True, dominance=False))
        assert sol.status == lpsolver.INFEASIBLE, pattern
        joint, distance = nearest_quartic(f)
        assert distance > 0, pattern
    _report(3, f"exact program (x-part folded away) infeasible and nearest distance > 0 on {len(patterns)} patterns")


def test_criterion_04_two_av_sufficiency():
    rng = random.Random(20260810)
    start = time.monotonic()
    for trial in range(500):
        f = random_generator_combination(rng)
        joint = reduce_quartic(f)
        h = joint.to_quadratic()
        report = verify_reduction(f.poly, h)
        assert report.passed, trial
        EXACT_REDUCTIONS.append((f.poly, h))
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"500 reductions took {elapsed:.1f}s"
    _report(4, f"500 random generator combinations reduced onto 2 auxiliaries in {elapsed:.1f}s")


def test_criterion_05_cubic_completeness():
    rng = random.Random(53)
    tables = tuple(prune_mbf_set(enumerate_mbfs(3)))
    assert len(tables) == 15
    start = time.monotonic()
    for trial in range(200):
        f = random_submodular_cubic(rng)
        result = nearest_quadratic(ReductionProblem(f, tables))
        assert result.l1_distance == 0, trial
        assert result.report.passed, trial
        EXACT_REDUCTIONS.append((f, result.quadratic))
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"200 cubics took {elapsed:.1f}s"
    _report(5, f"200 random submodular cubics reduced exactly in {elapsed:.1f}s")


def test_criterion_06_maxflow_vs_oracle():
    rng = random.Random(61)
    for trial in range(200):
        h = random_submodular_quadratic(rng, rng.randint(1, 12))
        value, argmin = minimize_quadratic(h)
        best, _ = brute_min(h.poly)
        assert value == best, trial
        assert h.poly.evaluate(argmin) == best, trial
    _report(6, "200 max-flow minimizations equal brute force exactly")


def _caption_parameter_sets():
    # singleton removal figure: (3,(4,1,1,1)) -> -x1 and (3,(3,1,1,1))
    res, out = remove_singletons(AvParams(3, (4, 1, 1, 1)))
    assert res == MultilinearPoly.from_terms(4, [((1,), -1)])
    assert out == AvParams(3, (3, 1, 1, 1))
    # one-on-pair transition figure: residual -x3x4, parameters (5,(1,2,2,3))
    res, avs = case_split(AvParams(6, (1, 2, 3, 4)))
    assert res == MultilinearPoly.from_terms(4, [((3, 4), -1)])
    assert avs == [AvParams(5, (1, 2, 2, 3))]
    # adjacent-pairs transition figure: -x2x4 - 2x3x4 and (2,(1,1,1,1))
    res, avs = case_split(AvParams(5, (1, 2, 3, 4)))
    assert res == MultilinearPoly.from_terms(4, [((2, 4), -1), ((3, 4), -2)])
    assert avs == [AvParams(2, (1, 1, 1, 1))]
    # star transition figure: -x1x2 - x1x3 - x1x4 and (2,(1,1,1,1))
    res, avs = case_split(AvParams(5, (4, 2, 2, 2)))
    assert res == MultilinearPoly.from_terms(4, [((1, 2), -1), ((1, 3), -1), ((1, 4), -1)])
    assert avs == [AvParams(2, (1, 1, 1, 1))]
    # triangle figure: two outputs (4,(2,2,2,0)) and, in the complemented
    # rendering, (2,(1,1,1,0)) with residual 1-x1-x2-x3-x1x3-2x2x3
    res, avs = case_split(AvParams(8, (4, 5, 6, 0)))
    assert avs[0] == AvParams(4, (2, 2, 2, 0))
    head, comp = complement_form(avs[1])
    assert comp == AvParams(2, (1, 1, 1, 0))
    assert res + head == MultilinearPoly.from_terms(
        4, [((), 1), ((1,), -1), ((2,), -1), ((3,), -1), ((1, 3), -1), ((2, 3), -2)]
    )


def test_criterion_07_pipeline_preservation():
    rng = random.Random(71)
    for trial in range(300):
        p = random_av_params(rng)
        res1, p1 = remove_singletons(p)
        avs: list[AvParams] = []
        res2 = MultilinearPoly.zero(4)
        if p1 is not None:
            res2, parts = case_split(p1)
            avs += [normalize_to_reference(a) for a in parts]
        for mask in range(16):
            total = res1.evaluate(mask) + res2.evaluate(mask)
            total += sum(min_contribution(a, mask) for a in avs)
            assert total == min_contribution(p, mask), (trial, mask)
    _caption_parameter_sets()
    _report(7, "300 pipeline runs preserve minima; caption parameter sets match verbatim")


def test_criterion_08_reference_system():
    det = matrix_determinant(reference_system_matrix())
    assert det != 0
    rng = random.Random(83)
    landed = 0
    while landed < 100:
        p = random_av_params(rng)
        if p.g < 0 or any(partition_coefficient(p, 1 << e) < 0 for e in range(4)):
            continue
        if any(partition_coefficient(p, pm) < 0 for pm in PAIR_MASKS):
            continue
        out = normalize_to_reference(p)
        for mask in range(16):
            value = partition_coefficient(out, mask)
            if mask.bit_count() >= 3:
                assert value <= 0
            else:
                assert value >= 0
            assert min_contribution(out, mask) == min_contribution(p, mask)
        landed += 1
    _report(8, f"system determinant {det} != 0; 100 normalizations land on the reference pattern")


def test_criterion_09_induced_states_monotone():
    assert EXACT_REDUCTIONS, "earlier criteria must run first"
    audited = 0
    for f, h in EXACT_REDUCTIONS:
        for av in range(h.n_x + 1, h.n_vars + 1):
            assert is_monotone(induced_mbf(h, av)), (f, av)
            audited += 1
    _report(9, f"{audited} induced auxiliary state functions are monotone across {len(EXACT_REDUCTIONS)} reductions")


def test_criterion_10_av_count_workload():
    # Count the auxiliaries each reduction really uses, not the two slots
    # every joint quadratic carries; the classical baseline spends ~30.
    rng = random.Random(101)
    cliques = 100
    used = []
    for _ in range(cliques):
        f = random_generator_combination(rng, max_parts=3)
        h = reduce_quartic(f).to_quadratic().drop_unused_aux()
        assert verify_reduction(f.poly, h).passed
        used.append(h.n_z)
    baseline = 30 * cliques
    assert max(used) <= 2
    assert sum(used) < baseline
    _report(10, f"workload of {cliques} cliques used {sum(used)} auxiliaries (at most 2 each) vs {baseline} baseline")
