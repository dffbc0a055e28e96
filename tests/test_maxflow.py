import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subquad import maxflow
from subquad.maxflow import FlowNetwork, build_network, max_flow, minimize_quadratic
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


def _cut_capacity(net, side):
    return sum(
        (c for (u, v), c in net.arcs.items() if u in side and v not in side),
        Fraction(0),
    )


class TestMaxFlow:
    def test_single_arc(self):
        net = FlowNetwork(0, {(0, 1): Fraction(5)})
        assert max_flow(net).flow_value == 5

    def test_two_paths(self):
        net = FlowNetwork(2)
        net.add(0, 1, Fraction(3))
        net.add(1, 3, Fraction(4))
        net.add(0, 2, Fraction(2))
        net.add(2, 3, Fraction(7))
        assert max_flow(net).flow_value == 5

    def test_zero_network(self):
        net = FlowNetwork(3)
        assert max_flow(net).flow_value == 0

    def test_rational_capacities(self):
        net = FlowNetwork(1)
        net.add(0, 1, Fraction(1, 3))
        net.add(1, 2, Fraction(5, 7))
        assert max_flow(net).flow_value == Fraction(1, 3)

    def test_flow_equals_cut_capacity(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(2, 7)
            net = FlowNetwork(n)
            for _ in range(rng.randint(3, 14)):
                u = rng.randint(0, n)
                v = rng.randint(1, n + 1)
                if u != v:
                    net.add(u, v, Fraction(rng.randint(0, 6), rng.choice([1, 2, 3])))
            res = max_flow(net)
            assert _cut_capacity(net, res.source_side | {0}) == res.flow_value

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            FlowNetwork(1, {(0, 1): Fraction(-1)})

    def test_add_rejects_negative_capacity(self):
        net = FlowNetwork(1)
        with pytest.raises(ValueError, match="non-negative"):
            net.add(0, 1, Fraction(-1))
        assert net.arcs == {}

    def test_add_rejects_self_loop(self):
        net = FlowNetwork(1)
        with pytest.raises(ValueError, match="bad arc"):
            net.add(1, 1, Fraction(1))
        assert net.arcs == {}

    def test_add_rejects_node_out_of_range(self):
        net = FlowNetwork(1)
        with pytest.raises(ValueError, match="bad arc"):
            net.add(0, 3, Fraction(1))
        with pytest.raises(ValueError, match="bad arc"):
            net.add(-1, 1, Fraction(1))
        assert net.arcs == {}

    def test_add_coerces_before_checking(self):
        net = FlowNetwork(2)
        net.add(0, 1, "1/2")
        net.add(0, 1, 1)
        assert net.arcs == {(0, 1): Fraction(3, 2)}
        assert type(net.arcs[(0, 1)]) is Fraction
        with pytest.raises(ValueError, match="non-negative"):
            net.add(1, 3, "-1/2")
        assert max_flow(net).flow_value == 0

    def test_constructor_coerces_before_checking(self):
        net = FlowNetwork(2, {(0, 1): "1/2", (1, 3): 2})
        assert net.arcs == {(0, 1): Fraction(1, 2), (1, 3): Fraction(2)}
        assert all(type(c) is Fraction for c in net.arcs.values())
        assert max_flow(net).flow_value == Fraction(1, 2)
        with pytest.raises(ValueError, match="non-negative"):
            FlowNetwork(2, {(0, 1): "-1/2"})

    def test_add_accumulates(self):
        net = FlowNetwork(1)
        net.add(0, 1, Fraction(1, 3))
        net.add(0, 1, Fraction(1, 6))
        assert net.arcs == {(0, 1): Fraction(1, 2)}

    def test_value_is_reduced_over_mixed_denominators(self):
        net = FlowNetwork(2)
        net.add(0, 1, Fraction(1, 3))
        net.add(1, 3, Fraction(1))
        net.add(0, 2, Fraction(1, 7))
        net.add(2, 3, Fraction(1))
        value = max_flow(net).flow_value
        assert (value.numerator, value.denominator) == (10, 21)

    def test_long_path_needs_no_recursion(self):
        n = 5000
        net = FlowNetwork(n)
        for v in range(n + 1):
            net.add(v, v + 1, Fraction(2 + v % 3, 3))
        res = max_flow(net)
        assert res.flow_value == Fraction(2, 3)
        assert res.source_side == frozenset()

    def test_certificate_rejects_a_wrong_flow(self, monkeypatch):
        blocking_flow = maxflow._blocking_flow

        def overcounted(*args):
            return blocking_flow(*args) + 1

        monkeypatch.setattr(maxflow, "_blocking_flow", overcounted)
        net = FlowNetwork(1, {(0, 1): Fraction(1), (1, 2): Fraction(2)})
        with pytest.raises(InvariantError, match="max-flow"):
            max_flow(net)


@st.composite
def networks(draw):
    n = draw(st.integers(0, 8))
    nodes = st.integers(0, n + 1)
    caps = st.builds(Fraction, st.integers(0, 12), st.integers(1, 9))
    net = FlowNetwork(n)
    for _ in range(draw(st.integers(0, 24))):
        u, v = draw(nodes), draw(nodes)
        if u == v:
            continue
        net.add(u, v, draw(caps))
        if draw(st.booleans()):
            net.add(v, u, draw(caps))
    return net


class TestMaxFlowProperties:
    @settings(max_examples=300)
    @given(networks())
    def test_value_and_cut_match_brute_force(self, net):
        res = max_flow(net)
        internal = range(1, net.sink)
        cuts = {}
        for bits in range(1 << net.n_internal):
            side = frozenset(v for v in internal if bits >> (v - 1) & 1)
            cuts[side] = _cut_capacity(net, side | {net.source})
        best = min(cuts.values())
        assert res.flow_value == best
        assert (res.flow_value.numerator, res.flow_value.denominator) == (
            best.numerator,
            best.denominator,
        )
        smallest = frozenset(internal).intersection(*(s for s, c in cuts.items() if c == best))
        assert res.source_side == smallest
        assert cuts[smallest] == best
        assert res.labeling == sum(1 << (v - 1) for v in smallest)


class TestBuildNetwork:
    def test_zero_capacities(self):
        cf = CapacityForm(2)
        assert max_flow(build_network(cf)).flow_value == 0

    def test_single_pair_arc(self):
        cf = CapacityForm(2, pairs={(1, 2): Fraction(2)})
        net = build_network(cf)
        assert net.arcs == {(1, 2): Fraction(2)}

    def test_min_cut_matches_value_min(self):
        rng = random.Random(19)
        for _ in range(25):
            h = random_submodular_quadratic(rng, rng.randint(1, 8))
            cf = to_capacity_form(h)
            res = max_flow(build_network(cf))
            best = min(cf.value(m) for m in range(1 << cf.n_nodes))
            assert cf.c_empty + res.flow_value == best


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
