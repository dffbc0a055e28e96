import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subquad import maxflow
from subquad.maxflow import build_network, max_flow, minimize_quadratic
from subquad.oracle import brute_min
from subquad.pbf import (
    CapacityForm,
    InvariantError,
    MultilinearPoly,
    NotSubmodularQuadratic,
    QuadraticPoly,
    to_capacity_form,
)

from _gen import random_submodular_quadratic


def _form(n, scale=1, c_empty=0, src=None, sink=None, pairs=None):
    """Capacity form on n original nodes; capacities count units of 1/scale.
    ``src[i]`` is the arc (0, i), ``sink[i]`` the arc (i, n + 1), and
    ``pairs`` holds the arcs between nodes, in that order."""
    arcs = {(0, i): v for i, v in (src or {}).items()}
    arcs.update(((i, n + 1), v) for i, v in (sink or {}).items())
    arcs.update(pairs or {})
    return CapacityForm(n, 0, scale, c_empty, arcs)


def _flow(cf):
    return max_flow(build_network(cf)).flow_value


def _cut_capacity(net, side):
    """Capacity of the arcs leaving ``side``, in the network's units."""
    return Fraction(sum(c for (u, v), c in net.arcs.items() if u in side and v not in side), net.scale)


class TestMaxFlow:
    def test_single_arc(self):
        # one node between source and sink: the cheaper side is cut
        assert _flow(_form(1, src={1: 5}, sink={1: 7})) == 5

    def test_two_paths(self):
        assert _flow(_form(2, src={1: 3, 2: 2}, sink={1: 4, 2: 7})) == 5

    def test_zero_network(self):
        assert _flow(_form(3)) == 0

    def test_rational_capacities(self):
        # 1/3 on the source arc and 5/7 on the sink arc, at scale 21
        assert _flow(_form(1, scale=21, src={1: 7}, sink={1: 15})) == Fraction(1, 3)

    def test_flow_equals_cut_capacity(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(2, 7)
            cap = lambda: rng.randint(1, 6)
            nodes = range(1, n + 1)
            cf = _form(
                n,
                scale=rng.choice([1, 2, 3, 6]),
                src={i: cap() for i in rng.sample(nodes, rng.randint(0, n))},
                sink={i: cap() for i in rng.sample(nodes, rng.randint(0, n))},
                pairs={(u, v): cap() for u, v in (rng.sample(nodes, 2) for _ in range(rng.randint(1, 12)))},
            )
            net = build_network(cf)
            res = max_flow(net)
            side = {0} | {v for v in nodes if res.labeling >> (v - 1) & 1}
            assert _cut_capacity(net, side) == res.flow_value == cf.value(res.labeling)

    def test_rejects_negative_capacity(self):
        # The network's one input path refuses a negative capacity.
        with pytest.raises(ValueError, match="positive int"):
            build_network(_form(1, src={1: -1}))

    def test_value_is_reduced_over_mixed_denominators(self):
        # sources 1/3 and 1/7, sinks 1 and 1, at scale 21: the flow 10/21
        value = _flow(_form(2, scale=21, src={1: 7, 2: 3}, sink={1: 21, 2: 21}))
        assert (value.numerator, value.denominator) == (10, 21)

    def test_long_path_needs_no_recursion(self):
        # source -> 1 -> 2 -> ... -> n -> sink, arc v -> v + 1 at (2 + v % 3) / 3
        n = 5000
        cap = lambda v: 2 + v % 3
        cf = _form(n, scale=3, src={1: cap(0)}, sink={n: cap(n)}, pairs={(v, v + 1): cap(v) for v in range(1, n)})
        res = max_flow(build_network(cf))
        assert res.flow_value == Fraction(2, 3)
        assert res.labeling == 0

    def test_certificate_rejects_a_wrong_flow(self, monkeypatch):
        blocking_flow = maxflow._blocking_flow

        def overcounted(*args):
            return blocking_flow(*args) + 1

        monkeypatch.setattr(maxflow, "_blocking_flow", overcounted)
        net = build_network(_form(1, src={1: 1}, sink={1: 2}))
        with pytest.raises(InvariantError, match="max-flow"):
            max_flow(net)


@st.composite
def networks(draw):
    """Capacity forms on up to 8 nodes at a scale up to 9, with capacities
    from 1 and antiparallel pairs."""
    n = draw(st.integers(0, 8))
    scale = draw(st.integers(1, 9))
    c_empty = draw(st.integers(-12, 12))
    if not n:
        return _form(0, scale, c_empty)
    nodes = st.integers(1, n)
    caps = st.integers(1, 12)
    pairs = {}
    for _ in range(draw(st.integers(0, 24))):
        u, v = draw(nodes), draw(nodes)
        if u == v:
            continue
        pairs[u, v] = draw(caps)
        if draw(st.booleans()):
            pairs[v, u] = draw(caps)
    src = draw(st.dictionaries(nodes, caps))
    return _form(n, scale, c_empty, src, draw(st.dictionaries(nodes, caps)), pairs)


class TestMaxFlowProperties:
    @settings(max_examples=300)
    @given(networks())
    def test_value_and_cut_match_brute_force(self, cf):
        res = max_flow(build_network(cf))
        values = [cf.value(m) - Fraction(cf.c_empty, cf.scale) for m in range(1 << cf.n_nodes)]
        best = min(values)
        assert res.flow_value == best
        assert (res.flow_value.numerator, res.flow_value.denominator) == (
            best.numerator,
            best.denominator,
        )
        smallest = (1 << cf.n_nodes) - 1
        for m, v in enumerate(values):
            if v == best:
                smallest &= m
        assert res.labeling == smallest
        assert values[smallest] == best


class TestBuildNetwork:
    def test_zero_capacities(self):
        assert max_flow(build_network(_form(2))).flow_value == 0

    def test_single_pair_arc(self):
        cf = _form(2, pairs={(1, 2): 2})
        net = build_network(cf)
        assert (net.arcs, net.scale, net.sink) == ({(1, 2): 2}, 1, 3)
        assert net.arcs is cf.arcs

    def test_capacities_become_ints_at_one_scale(self):
        # -5/11 - 1/2 x1 + 17/12 x2 - 3/4 x1 x2: to_capacity_form picks the
        # scale 132 once, and build_network wraps its arcs without a copy;
        # each node's source or sink arc comes before the pair arcs
        terms = [((), Fraction(-5, 11)), ((1,), Fraction(-1, 2)), ((2,), Fraction(17, 12)), ((1, 2), Fraction(-3, 4))]
        cf = to_capacity_form(QuadraticPoly(MultilinearPoly.from_terms(2, terms), 2))
        assert (cf.scale, cf.c_empty) == (132, -60 - 66)
        assert cf.arcs == {(0, 1): 66, (2, 3): 88, (2, 1): 99}
        assert list(cf.arcs) == [(0, 1), (2, 3), (2, 1)]
        net = build_network(cf)
        assert net.scale == 132
        assert net.arcs is cf.arcs
        assert all(type(c) is int for c in net.arcs.values())

    def test_min_cut_matches_value_min(self):
        rng = random.Random(19)
        for _ in range(25):
            h = random_submodular_quadratic(rng, rng.randint(1, 8))
            cf = to_capacity_form(h)
            res = max_flow(build_network(cf))
            best = min(cf.value(m) for m in range(1 << cf.n_nodes))
            assert Fraction(cf.c_empty, cf.scale) + res.flow_value == best


class TestMinimizeQuadratic:
    def test_pair(self):
        h = QuadraticPoly(MultilinearPoly.from_terms(2, [((1, 2), -1)]), 2)
        assert minimize_quadratic(h) == (Fraction(-1), 0b11)

    def test_zero_ties_to_empty(self):
        h = QuadraticPoly(MultilinearPoly.zero(3), 3)
        assert minimize_quadratic(h) == (Fraction(0), 0)

    def test_g6_quadratized(self):
        # z * (1 - x1 - x2 - x3) over three originals and one auxiliary
        h = QuadraticPoly(
            MultilinearPoly.from_terms(
                4, [((4,), 1), ((1, 4), -1), ((2, 4), -1), ((3, 4), -1)]
            ),
            3,
            1,
        )
        value, argmin = minimize_quadratic(h)
        assert value == -2
        assert argmin & 0b111 == 0b111

    def test_rejects_supermodular(self):
        h = QuadraticPoly(MultilinearPoly.from_terms(2, [((1, 2), 2)]), 2)
        with pytest.raises(NotSubmodularQuadratic):
            minimize_quadratic(h)

    def test_matches_oracle_on_randoms(self):
        rng = random.Random(29)
        for _ in range(60):
            h = random_submodular_quadratic(rng, rng.randint(1, 10))
            value, argmin = minimize_quadratic(h)
            best, _ = brute_min(h.poly)
            assert value == best
            assert h.poly.evaluate(argmin) == best

    def test_argmin_has_fewest_ones(self):
        rng = random.Random(37)
        for _ in range(30):
            h = random_submodular_quadratic(rng, rng.randint(1, 7))
            value, argmin = minimize_quadratic(h)
            vals = h.poly.evaluate_all()
            best_count = min(
                m.bit_count() for m, v in enumerate(vals) if v == value
            )
            assert argmin.bit_count() == best_count
