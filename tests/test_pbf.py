import random
import re
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subquad.maxflow import minimize_quadratic
from subquad.oracle import brute_min
from subquad.pbf import (
    CapacityForm,
    MultilinearPoly,
    NotSubmodularQuadratic,
    PolyParseError,
    QuadraticPoly,
    add_into,
    format_polynomial,
    format_rational,
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

    def test_refuses_more_than_20_variables_above_degree_2(self):
        with pytest.raises(ValueError):
            is_submodular(MultilinearPoly.from_terms(21, [((1, 2, 21), -1)]))

    def test_agrees_with_lattice_oracle(self):
        rng = random.Random(23)
        outcomes = []
        for _ in range(300):
            n = rng.randint(2, 7)
            terms = []
            for _ in range(rng.randint(1, 8)):
                size = rng.randint(0, n)
                subset = tuple(rng.sample(range(1, n + 1), size))
                c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                if size >= 2 and rng.random() < 0.7:
                    c = -abs(c)
                terms.append((subset, c))
            f = MultilinearPoly.from_terms(n, terms)
            outcome = is_submodular(f)
            assert outcome == is_submodular_lattice(f)
            outcomes.append(outcome)
        assert outcomes.count(True) >= 50 and outcomes.count(False) >= 50


class TestCapacityForm:
    def test_pair_round_trip_values(self):
        h = QuadraticPoly(MultilinearPoly.from_terms(2, [((1, 2), -1)]), 2)
        cf = to_capacity_form(h)
        for x in range(4):
            assert cf.value(x) == h.poly.evaluate(x)
        assert from_capacity_form(cf).poly == h.poly

    def test_zero(self):
        cf = to_capacity_form(QuadraticPoly(MultilinearPoly.zero(3), 3))
        assert cf.c_empty == 0 and not cf.arcs
        assert from_capacity_form(cf).poly == MultilinearPoly.zero(3)

    def test_single_unary(self):
        cf = to_capacity_form(QuadraticPoly(MultilinearPoly.from_terms(1, [((1,), 1)]), 1))
        assert (cf.scale, cf.arcs) == (1, {(1, 2): 1})

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
            assert all(v > 0 for v in cf.arcs.values())
            back = from_capacity_form(cf)
            assert back.poly == h.poly

    def test_validation(self):
        # one x and one auxiliary node: source 0, sink 3.  Self-loops, arcs
        # into the source or out of the sink, the direct source-to-sink arc
        # and nodes past the sink are refused.
        for arc in (2, 2), (0, 0), (1, 0), (3, 1), (3, 0), (0, 3), (1, 4), (-1, 1):
            with pytest.raises(ValueError, match=re.escape(f"bad arc {arc}")):
                CapacityForm(1, 1, 1, 0, {arc: 1})

    @pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(1), "1", 0, -1, True])
    def test_refuses_anything_but_positive_int_capacities(self, bad):
        for arc in (0, 1), (1, 3), (1, 2):
            with pytest.raises(ValueError, match="is not a positive int"):
                CapacityForm(2, 0, 1, 0, {arc: bad})

    @pytest.mark.parametrize("scale", [0, -3, Fraction(2), "6"])
    def test_refuses_a_scale_that_is_not_a_positive_int(self, scale):
        with pytest.raises(ValueError, match="scale .* is not a positive int"):
            CapacityForm(1, 0, scale, 0, {(0, 1): 1})

    def test_refuses_a_c_empty_that_is_not_an_int(self):
        with pytest.raises(ValueError, match="c_empty .* is not an int"):
            CapacityForm(1, 0, 2, Fraction(-1, 2), {})

    def test_keeps_the_dicts_it_is_given(self):
        # x1 = 0 cuts (0, 1), x2 = 1 cuts (2, 3), and x2 = 1, x1 = 0 cuts (2, 1)
        arcs = {(0, 1): 2, (2, 3): 3, (2, 1): 1}
        cf = CapacityForm(2, 0, 6, -5, arcs)
        assert cf.arcs is arcs
        assert [cf.value(m) for m in range(4)] == [Fraction(-3, 6), Fraction(-5, 6), Fraction(1, 6), Fraction(-2, 6)]

    @pytest.mark.parametrize("mask", [0b100, 0b1000, -1])
    def test_value_refuses_a_mask_wider_than_its_nodes(self, mask):
        # bit n would put the sink on the source side
        cf = CapacityForm(2, 0, 1, 0, {(0, 1): 1, (2, 3): 1})
        with pytest.raises(ValueError, match="labeling mask wider than the polynomial"):
            cf.value(mask)
        with pytest.raises(ValueError, match="labeling mask wider than the polynomial"):
            from_capacity_form(cf).poly.evaluate(mask)

    @settings(max_examples=300)
    @given(submodular_quadratics())
    def test_round_trip_property(self, h):
        assert from_capacity_form(to_capacity_form(h)).poly == h.poly

    @settings(max_examples=200)
    @given(submodular_quadratics())
    def test_int_form_property(self, h):
        cf = to_capacity_form(h)
        assert all(type(v) is int for v in (cf.n_x, cf.n_z, cf.scale, cf.c_empty))
        assert all(type(v) is int and v > 0 for v in cf.arcs.values())
        assert cf.scale == lcm(*[c.denominator for c in h.poly.terms.values()])
        assert [cf.value(x) for x in range(1 << h.n_vars)] == [h.poly.evaluate(x) for x in range(1 << h.n_vars)]


def _reference_capacity_form(h):
    """``to_capacity_form`` as it was written on Fraction sums, before the
    integer front end, with the zero filter ``CapacityForm`` then applied;
    kept as the golden reference.  Returns (c_empty, src, sink, pairs)."""
    linear = {}
    pairs = {}
    c_empty = Fraction(0)
    for mask, coeff in sorted(h.poly.terms.items()):
        k = mask.bit_count()
        if k == 0:
            c_empty += coeff
        elif k == 1:
            add_into(linear, mask.bit_length(), coeff)
        else:
            if coeff > 0:
                raise NotSubmodularQuadratic(
                    f"bilinear coefficient {format_rational(coeff)} on {indices_of(mask)} is positive"
                )
            lo, hi = indices_of(mask)
            add_into(pairs, (hi, lo), -coeff)
            add_into(linear, hi, coeff)
    src = {}
    sink = {}
    for i, v in sorted(linear.items()):
        if v >= 0:
            sink[i] = v
        else:
            src[i] = -v
            c_empty += v
    return c_empty, *({k: v for k, v in d.items() if v != 0} for d in (src, sink, pairs))


mixed_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


@st.composite
def mixed_quadratics(draw):
    """Submodular quadratics over an x block and an auxiliary block, with
    denominators 1 to 9; some linear coefficients cancel the corrections
    the pair terms make, so their capacity is 0.  At most 12 variables,
    so brute force can check the minimum."""
    n_x = draw(st.integers(1, 12))
    n_z = draw(st.integers(0, min(3, 12 - n_x)))
    n = n_x + n_z
    terms = {0: draw(mixed_rationals)}
    for i, j in combinations(range(n), 2):
        if draw(st.booleans()):
            terms[1 << i | 1 << j] = -abs(draw(mixed_rationals))
    for i in range(n):
        if draw(st.booleans()):
            terms[1 << i] = -sum(
                (c for m, c in terms.items() if m.bit_count() == 2 and m.bit_length() == i + 1),
                Fraction(0),
            )
        else:
            terms[1 << i] = draw(mixed_rationals)
    return QuadraticPoly(MultilinearPoly(n, terms), n_x, n_z)


class TestCapacityFormGolden:
    @settings(max_examples=300)
    @given(mixed_quadratics())
    def test_matches_the_fraction_reference(self, h):
        cf = to_capacity_form(h)
        c_empty, src, sink, pairs = _reference_capacity_form(h)
        arcs = {(0, i): v for i, v in src.items()}
        arcs.update(((i, h.n_vars + 1), v) for i, v in sink.items())
        arcs.update(pairs)
        assert Fraction(cf.c_empty, cf.scale) == c_empty
        assert {arc: Fraction(v, cf.scale) for arc, v in cf.arcs.items()} == arcs

    @settings(max_examples=200)
    @given(mixed_quadratics(), st.data())
    def test_positive_bilinear_message_matches(self, h, data):
        terms = dict(h.poly.terms)
        pairs = list(combinations(range(h.n_vars), 2))
        if not pairs:
            return
        for i, j in data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3)):
            terms[1 << i | 1 << j] = Fraction(data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9)))
        bad = QuadraticPoly(MultilinearPoly(h.n_vars, terms), h.n_x, h.n_z)
        with pytest.raises(NotSubmodularQuadratic) as ref:
            _reference_capacity_form(bad)
        with pytest.raises(NotSubmodularQuadratic) as got:
            to_capacity_form(bad)
        assert str(got.value) == str(ref.value)

    @settings(max_examples=150)
    @given(mixed_quadratics())
    def test_minimum_and_argmin_match_brute_force(self, h):
        assert minimize_quadratic(h) == brute_min(h.poly)


def _reference_parse(text, n_vars=None):
    """``parse_polynomial`` as it was written on ``Fraction(str)``, before
    the integer front end; kept as the differential reference.  An index
    error points at its token, counted from the colon; a repeated variable
    at its second occurrence; an undeclared index at the first occurrence
    of the largest index."""
    acc = {}
    max_index, max_at = 0, (1, 1)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, tail = line.partition(":")
        head = head.strip()
        try:
            coeff = Fraction(head)
        except (ValueError, ZeroDivisionError):
            raise PolyParseError(f"bad rational {head!r}", lineno, raw.index(head) + 1 if head else 1)
        colon = raw.index(":") if ":" in line else len(raw)
        tokens = [(m.group(), colon + 2 + m.start()) for m in re.finditer(r"\S+", raw[colon + 1 :].split("#", 1)[0])]
        indices, columns = [], []
        for tok, column in tokens:
            try:
                i = int(tok)
            except ValueError:
                raise PolyParseError(f"bad variable index {tok!r}", lineno, column)
            if i < 1:
                raise PolyParseError(f"variable index {i} must be >= 1", lineno, column)
            indices.append(i)
            columns.append(column)
        if len(set(indices)) != len(indices):
            second = next(c for n, c in enumerate(columns) if indices[n] in indices[:n])
            raise PolyParseError("repeated variable in one term", lineno, second)
        add_into(acc, mask_of(indices), coeff)
        if indices and max(indices) > max_index:
            max_index = max(indices)
            max_at = (lineno, columns[indices.index(max_index)])
    n = max_index if n_vars is None else n_vars
    if n < max_index:
        raise PolyParseError(f"index {max_index} exceeds declared {n} variables", *max_at)
    return MultilinearPoly(n, acc)


HEADS = ["+3", "-0", " 3/4", "0003/06", "1.5", "1e2", "1_0", "3/0", "3/-4", "²", "x",
         "", " ", "-7/9", "+2/4", "3 /4", "- 1", "0/5", "12345678901234567890/3"]
INDICES = ["0", "1", "2", "3", "5", "007", "-2", "+4", "x", "1.0"]


@st.composite
def polynomial_texts(draw):
    """Term lines, comments, blank lines and a bare ':' line, with heads
    and indices that both parse and fail."""
    head = st.one_of(
        st.sampled_from(HEADS),
        st.builds(str, st.integers(-99, 99)),
        st.builds(lambda p, q: f"{p}/{q}", st.integers(-99, 99), st.integers(0, 12)),
    )
    term = st.builds(
        lambda h, sep, idx, gap, note: h + (sep + gap.join(idx) if sep else "") + note,
        head,
        st.sampled_from(["", ":", " : ", ":  "]),
        st.lists(st.sampled_from(INDICES), max_size=4),
        st.sampled_from([" ", "  ", "\t"]),
        st.sampled_from(["", " # note", "#: 1 2"]),
    )
    line = st.one_of(term, term, term, st.sampled_from(["# comment", "", "   ", ":", " : ", "#"]))
    text = "\n".join(draw(st.lists(line, max_size=8)))
    return text, draw(st.one_of(st.none(), st.integers(0, 7)))


def _parse_outcome(parse, text, n_vars):
    try:
        return "ok", parse(text, n_vars)
    except PolyParseError as err:
        return "error", str(err), err.line, err.column


class TestParseDifferential:
    @settings(max_examples=400)
    @given(polynomial_texts())
    def test_matches_the_fraction_reference(self, case):
        text, n_vars = case
        assert _parse_outcome(parse_polynomial, text, n_vars) == _parse_outcome(_reference_parse, text, n_vars)

    @settings(max_examples=300)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["1", " -2/3", "  +4"]),
                st.sampled_from([":", " : ", " :\t"]),
                st.lists(st.sampled_from(["1", "2", "3", "5", "8", "13"]), max_size=4),
                st.sampled_from([" ", "  "]),
                st.sampled_from(["", " # 99", "#: 7"]),
            ),
            max_size=6,
        ),
        st.one_of(st.none(), st.integers(0, 13)),
    )
    def test_index_positions_match_the_reference(self, lines, n_vars):
        # Heads that always parse, so the repeated-variable and declared-count
        # rules are reached far more often than in the mixed texts above.
        text = "\n".join(h + sep + gap.join(idx) + note for h, sep, idx, gap, note in lines)
        assert _parse_outcome(parse_polynomial, text, n_vars) == _parse_outcome(_reference_parse, text, n_vars)

    @settings(max_examples=300)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["1/2", " 1/2", "+1/2", "2/4", "0.5", "-0", "0", "-3", "x", "1/0", "", "1 /2"]),
                st.sampled_from(["", " :", ": "]),
                st.lists(st.sampled_from(["1", "2", "3", "4"]), max_size=3),
            ),
            max_size=40,
        ),
        st.one_of(st.none(), st.integers(0, 4)),
    )
    def test_repeated_heads_match_the_reference(self, lines, n_vars):
        # Few distinct heads over many lines, so most lines reuse a head
        # already read in the same call: spellings of one value, zeros that
        # cancel, and bad heads that come back.
        text = "\n".join(head + sep + " ".join(idx) if sep else head for head, sep, idx in lines)
        assert _parse_outcome(parse_polynomial, text, n_vars) == _parse_outcome(_reference_parse, text, n_vars)

    @pytest.mark.parametrize("line", ["1 : 0 x", "1 : 2 2 x", "1 : 2 2 0", "1 : x 0", "1 : 3 -1 3"])
    def test_index_error_precedence_matches_the_reference(self, line):
        # A bad or out-of-range token wins over a repeat before it.
        text = f"1 : 1\n{line}\n"
        got = _parse_outcome(parse_polynomial, text, None)
        assert got[0] == "error"
        assert got == _parse_outcome(_reference_parse, text, None)

    def test_parses_sharing_a_head_do_not_share_terms(self):
        first = parse_polynomial("1/2 : 1\n1/2 : 2\n")
        second = parse_polynomial("1/2 : 1\n1/2 : 2\n")
        assert first == second and first.terms is not second.terms
        first.terms[0b11] = Fraction(1)
        assert second.terms == {0b01: Fraction(1, 2), 0b10: Fraction(1, 2)}

    def test_bare_colon_line_is_an_error(self):
        with pytest.raises(PolyParseError) as err:
            parse_polynomial("1 : 1\n:\n")
        assert (err.value.line, err.value.column) == (2, 1)
        assert "bad rational ''" in str(err.value)

    def test_index_error_points_at_its_token(self):
        with pytest.raises(PolyParseError) as err:
            parse_polynomial("0 : 0\n")
        assert (err.value.line, err.value.column) == (1, 5)

    def test_repeated_variable_points_at_the_repeat(self):
        with pytest.raises(PolyParseError) as err:
            parse_polynomial("1 : 2 3  2 3\n")
        assert (err.value.line, err.value.column) == (1, 10)
        assert "repeated variable" in str(err.value)

    def test_undeclared_index_points_at_its_line(self):
        with pytest.raises(PolyParseError) as err:
            parse_polynomial("1 : 2\n3 : 5\n", 2)
        assert (err.value.line, err.value.column) == (2, 5)
        assert "index 5 exceeds declared 2 variables" in str(err.value)

    def test_plain_heads(self):
        f = parse_polynomial("+3\n-0 : 1\n0003/06 : 2\n-7/9 : 1 2\n")
        assert f.terms == {0: 3, 0b10: Fraction(1, 2), 0b11: Fraction(-7, 9)}
        assert all(type(c) is Fraction for c in f.terms.values())


class TestTextFormat:
    def test_round_trip(self):
        text = "# target\n-1 : 1 2 3\n1/2 : 2\n5\n"
        f = parse_polynomial(text)
        assert f.terms[mask_of((1, 2, 3))] == -1
        assert f.terms[mask_of((2,))] == Fraction(1, 2)
        assert f.terms[mask_of(())] == 5
        assert parse_polynomial(format_polynomial(f)) == f

    @settings(max_examples=300)
    @given(polynomials())
    def test_round_trip_property(self, p):
        assert parse_polynomial(format_polynomial(p), p.n_vars) == p

    def test_duplicates_sum(self):
        f = parse_polynomial("1 : 1 2\n1/3 : 2 1\n")
        assert f.terms[mask_of((1, 2))] == Fraction(4, 3)

    def test_duplicates_summing_to_zero_drop_out(self):
        f = parse_polynomial("1 : 1\n-1 : 1\n")
        assert f == MultilinearPoly.zero(1) and f.terms == {}

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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: MultilinearPoly(-1), "n_vars must be non-negative"),
        (lambda: MultilinearPoly(2, {0b100: 1}), r"term \(3,\) exceeds 2 variables"),
        (lambda: MultilinearPoly(2, {0b11: 1}).evaluate(0b100), "labeling mask wider than the polynomial"),
        (lambda: MultilinearPoly.from_values(2, [0, 0, 0]), "need one value per labeling"),
        (lambda: MultilinearPoly(3, {0b101: 1}).with_vars(2), "cannot shrink below the support"),
        (lambda: QuadraticPoly(MultilinearPoly.zero(3), 2, 0), "variable blocks must cover the polynomial"),
        (lambda: QuadraticPoly(MultilinearPoly(3, {0b111: -1}), 3), "quadratic polynomial has degree > 2"),
    ],
    ids=["negative-n", "term-too-wide", "mask-too-wide", "value-count", "shrink", "blocks", "cubic"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()
