import random
from fractions import Fraction

import pytest

from subquad.mbf import induced_mbf, is_monotone
from subquad.oracle import LabelingRow, VerificationReport, brute_min, format_report, verify_reduction
from subquad.pbf import MultilinearPoly, QuadraticPoly


G6 = MultilinearPoly.from_terms(3, [((1, 2, 3), 1), ((1, 2), -1), ((1, 3), -1), ((2, 3), -1)])


class TestBruteMin:
    def test_neg_quartic(self):
        f = MultilinearPoly.from_terms(4, [((1, 2, 3, 4), -1)])
        assert brute_min(f) == (Fraction(-1), 0b1111)

    def test_zero(self):
        assert brute_min(MultilinearPoly.zero(2)) == (Fraction(0), 0)

    def test_g6(self):
        assert brute_min(G6) == (Fraction(-2), 0b111)

    def test_tie_takes_smallest_mask(self):
        f = MultilinearPoly.from_terms(2, [((1,), 0)])
        assert brute_min(f) == (Fraction(0), 0)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            brute_min(MultilinearPoly.zero(21))


class TestVerifyReduction:
    def test_cubic_reduction_passes(self):
        f = MultilinearPoly.from_terms(3, [((1, 2, 3), -1)])
        h = QuadraticPoly(
            MultilinearPoly.from_terms(
                4, [((4,), 2), ((1, 4), -1), ((2, 4), -1), ((3, 4), -1)]
            ),
            3,
            1,
        )
        report = verify_reduction(f, h)
        assert report.passed
        assert is_monotone(induced_mbf(h, 4))
        assert all(row.gap == 0 for row in report.rows)

    def test_no_aux(self):
        f = MultilinearPoly.from_terms(2, [((1, 2), -1)])
        h = QuadraticPoly(f, 2, 0)
        assert verify_reduction(f, h).passed

    def test_deliberate_mismatch(self):
        f = MultilinearPoly.from_terms(3, [((1, 2, 3), -1)])
        h = QuadraticPoly(MultilinearPoly.zero(3), 3, 0)
        report = verify_reduction(f, h)
        assert not report.passed
        assert report.gaps[0b111] == -1
        assert all(report.gaps[x] == 0 for x in range(7))
        assert report.distance == 1

    def test_width_mismatch_rejected(self):
        f = MultilinearPoly.from_terms(2, [((1, 2), -1)])
        h = QuadraticPoly(MultilinearPoly.zero(3), 3, 0)
        with pytest.raises(ValueError):
            verify_reduction(f, h)

    def test_format_report_stable(self):
        f = MultilinearPoly.from_terms(2, [((1, 2), -1)])
        text = format_report(verify_reduction(f, QuadraticPoly(f, 2, 0)))
        lines = text.splitlines()
        assert lines[0] == "labeling f min_h gap z_argmin"
        assert lines[1] == "- 0 0 0 -"
        assert lines[-1] == "1,2 -1 -1 0 -"


def reference_report(f, h):
    """verify_reduction as per-labeling loops: one evaluation of h per
    (x, z) for the minimum."""
    rows = []
    for x in range(1 << f.n_vars):
        fv = f.evaluate(x)
        hmin, zarg = h.min_over_aux(x)
        rows.append(LabelingRow(x, fv, hmin, fv - hmin, zarg))
    return VerificationReport(tuple(rows), all(row.gap == 0 for row in rows))


def reference_induced_bits(h, av):
    """induced_mbf as per-labeling loops: one evaluation of h per (x, z),
    the better state of auxiliary ``av`` (1-based in the auxiliary block),
    a tie resolved to 0."""
    bits = 0
    a_bit = 1 << (av - 1)
    for x in range(1 << h.n_x):
        best0 = best1 = None
        for z in range(1 << h.n_z):
            v = h.evaluate(x, z)
            if z & a_bit:
                if best1 is None or v < best1:
                    best1 = v
            elif best0 is None or v < best0:
                best0 = v
        if best1 < best0:
            bits |= 1 << x
    return bits


def random_reduction(rng, n_z):
    """A quadratic with small coefficients (so minima tie often) and a
    target that is its minimum over the auxiliaries, sometimes perturbed;
    sometimes the last auxiliary appears in no term, so it ties on every
    labeling."""
    n_x = rng.randint(1, 4)
    n = n_x + n_z
    idle = n_z and rng.random() < 0.3
    terms = {}
    for i in range(n - idle):
        for j in range(i, n - idle):
            if rng.random() < 0.5:
                terms[1 << i | 1 << j] = Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2)))
    h = QuadraticPoly(MultilinearPoly(n, terms), n_x, n_z)
    f = MultilinearPoly.from_values(n_x, [h.min_over_aux(x)[0] for x in range(1 << n_x)])
    if rng.random() < 0.3:
        f = f + MultilinearPoly(n_x, {rng.randrange(1 << n_x): Fraction(rng.choice((-1, 1)), 2)})
    return f, h


@pytest.mark.parametrize("n_z", [0, 1, 2, 3])
def test_report_matches_per_labeling_loops(n_z):
    rng = random.Random(60 + n_z)
    ties = induced = 0
    for _ in range(60):
        f, h = random_reduction(rng, n_z)
        report = verify_reduction(f, h)
        assert report == reference_report(f, h)
        ties += sum(list(h.poly.evaluate_all()[row.x::1 << h.n_x]).count(row.h_min) > 1
                    for row in report.rows)
        if h.is_submodular():
            for a in range(1, h.n_z + 1):
                assert induced_mbf(h, h.n_x + a).bits == reference_induced_bits(h, a)
                induced += 1
    if n_z:
        assert ties > 0  # the tie rules were exercised
        assert induced > 0
