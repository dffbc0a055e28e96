"""Seeded inputs, the operation under test and its untimed check, per workload.

Inputs depend only on the workload seed (and the index of the op), never on
the program's behaviour.  Operations reach subquad only through its public
functions, looked up on their module at call time, so the wrappers that the
traced run installs on those module attributes see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from subquad import maxflow, mbf, oracle, pbf, reduce_general, reduce_quartic
from subquad.pbf import MultilinearPoly, QuadraticPoly
from subquad.reduce_quartic import QuarticFunction

DEFAULT_SEED = 1
# Never used while tuning the benchmark or a change; a claimed gain must
# also hold on this seed.
HELD_OUT_SEED = 9001

# Generator groups 1-8 of the reducible catalog.  Group 9 (the two-sided
# interacting generator) is left out: about one in eight sums carrying it
# falls through to the pattern sweep, which costs 22 to 376 LP solves
# (0.4 to 6.4 s), so a 25 s window would hold a seed-dependent handful of
# them and the window's totals would vary by tens of percent between seeds.
CLIQUE_GROUPS = tuple(range(1, 9))
PALETTE_SIZE = 4


@dataclass
class Outcome:
    """What the untimed check learned about one op."""

    ok: bool
    record: str  # canonical text of the exact answer, for the digest
    input_vars: int
    output_vars: int  # variables of the quadratic the op produced or cut
    aux: tuple[int, ...]  # auxiliaries used per reduced clique


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[], object]
    inputs: Callable[[random.Random, int], Iterator]
    op: Callable[[object, object], object]
    check: Callable[[object, object, object], Outcome]
    keys: Callable[[object], list]  # identity of each reduction input
    size: int  # grid side; unused by the clique workloads
    tail_percentile: int
    digest_ops: int
    trace_ops: int


def _rational(rng: random.Random, lo: int, hi: int, dens=(1, 2, 3)) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


# ---------------------------------------------------------------------------
# quartic: one clique reduction per op


def _patterns() -> dict[int, list]:
    return {g: reduce_quartic.generator_patterns(g) for g in CLIQUE_GROUPS}


def random_clique(rng: random.Random, patterns: dict[int, list]) -> QuarticFunction:
    """Non-negative combination of up to five generator instances."""
    f = QuarticFunction.from_terms([])
    for _ in range(rng.randint(1, 5)):
        group = rng.choice(CLIQUE_GROUPS)
        part, _ = reduce_quartic.generator_catalog(group, rng.choice(patterns[group]))
        f = f + part.scaled(Fraction(rng.randint(1, 4), rng.choice([1, 2])))
    return f


def _quartic_inputs(rng: random.Random, size: int) -> Iterator[QuarticFunction]:
    patterns = _patterns()
    while True:
        yield random_clique(rng, patterns)


def _quartic_op(ctx, f: QuarticFunction) -> QuadraticPoly:
    return reduce_quartic.reduce_quartic(f).to_quadratic()


def _quartic_check(ctx, f: QuarticFunction, h: QuadraticPoly) -> Outcome:
    n_z = h.drop_unused_aux().n_z
    passed = oracle.verify_reduction(f.poly, h).passed
    return Outcome(passed and n_z <= 2, f"avs={n_z} passed={passed}", 4, 4 + n_z, (n_z,))


def _poly_key(p: MultilinearPoly):
    return (p.n_vars, frozenset(p.terms.items()))


# ---------------------------------------------------------------------------
# cubic: one nearest-quadratic program on the pruned k=3 tables per op


def _cubic_setup():
    return tuple(mbf.prune_mbf_set(mbf.enumerate_mbfs(3)))


def random_cubic(rng: random.Random) -> MultilinearPoly:
    """Submodular cubic on three variables: a_ij + max(0, a_123) <= 0."""
    a123 = _rational(rng, -6, 6, (1, 1, 2, 3))
    terms = [((1, 2, 3), a123)]
    cap = -max(Fraction(0), a123)
    for pair in ((1, 2), (1, 3), (2, 3)):
        terms.append((pair, cap - abs(_rational(rng, 0, 5, (1, 1, 2, 3)))))
    for i in (1, 2, 3):
        terms.append(((i,), _rational(rng, -5, 5, (1, 1, 2, 3))))
    terms.append(((), _rational(rng, -3, 3, (1, 1, 2, 3))))
    return MultilinearPoly.from_terms(3, terms)


def _cubic_inputs(rng: random.Random, size: int) -> Iterator[MultilinearPoly]:
    while True:
        yield random_cubic(rng)


def _cubic_op(tables, f: MultilinearPoly):
    return reduce_general.nearest_quadratic(reduce_general.ReductionProblem(f, tables))


def _cubic_check(tables, f: MultilinearPoly, result) -> Outcome:
    ok = result.l1_distance == 0 and result.report.passed
    n_z = result.quadratic.drop_unused_aux().n_z
    record = f"avs={n_z} distance={result.l1_distance} passed={result.report.passed}"
    return Outcome(ok, record, 3, 3 + n_z, (n_z,))


# ---------------------------------------------------------------------------
# grid_pairwise: parse a 4-neighbour grid energy and minimize it by max-flow


def grid_index(side: int, r: int, c: int) -> int:
    return r * side + c + 1


def random_pairwise_text(rng: random.Random, side: int) -> str:
    """Energy text with a non-zero unary term on every pixel and a
    non-positive coupling on every 4-neighbour edge."""
    lines = []
    for r in range(side):
        for c in range(side):
            num = rng.choice([v for v in range(-5, 6) if v])
            lines.append(f"{Fraction(num, rng.choice((1, 2, 3)))} : {grid_index(side, r, c)}")
    for r in range(side):
        for c in range(side):
            i = grid_index(side, r, c)
            for j in (grid_index(side, r, c + 1) if c + 1 < side else None,
                      grid_index(side, r + 1, c) if r + 1 < side else None):
                if j is not None:
                    lines.append(f"{-_rational(rng, 1, 4)} : {i} {j}")
    return "\n".join(lines) + "\n"


def _pairwise_inputs(rng: random.Random, side: int) -> Iterator[str]:
    while True:
        yield random_pairwise_text(rng, side)


def _pairwise_op(ctx, text: str):
    poly = pbf.parse_polynomial(text)
    h = QuadraticPoly(poly, poly.n_vars, 0)
    value, argmin = maxflow.minimize_quadratic(h)
    return h, value, argmin


def _minimum_outcome(h: QuadraticPoly, value, argmin, input_vars: int, aux=()) -> Outcome:
    ok = h.poly.evaluate(argmin) == value
    record = f"min={value} argmin={argmin:x} avs={h.n_z}"
    return Outcome(ok, record, input_vars, h.n_vars, tuple(aux))


def _pairwise_check(ctx, text: str, out) -> Outcome:
    h, value, argmin = out
    return _minimum_outcome(h, value, argmin, h.n_x)


# ---------------------------------------------------------------------------
# grid_cliques: an order-4 potential on every 2x2 window, reduced, assembled
# onto one quadratic and minimized by one cut


@dataclass(frozen=True)
class CliqueEnergy:
    unary: MultilinearPoly  # over the side*side pixels
    windows: tuple[tuple[tuple[int, int, int, int], QuarticFunction], ...]

    def as_poly(self) -> MultilinearPoly:
        """The energy itself, for brute-force reference minima."""
        total = self.unary
        for vars_, f in self.windows:
            total = total + f.poly.map_vars(dict(zip((1, 2, 3, 4), vars_)), self.unary.n_vars)
        return total


def random_clique_energy(rng: random.Random, side: int, patterns) -> CliqueEnergy:
    palette: list[QuarticFunction] = []
    while len(palette) < PALETTE_SIZE:
        f = random_clique(rng, patterns)
        if f not in palette:
            palette.append(f)
    n = side * side
    unary = MultilinearPoly(n, {1 << (i - 1): _rational(rng, -6, 6) for i in range(1, n + 1)})
    n_windows = (side - 1) ** 2
    # every palette entry covers the same number of windows (give or take
    # one), so an energy's cost depends on its palette, not on the draw
    assignment = palette * (n_windows // PALETTE_SIZE)
    assignment += rng.sample(palette, n_windows % PALETTE_SIZE)
    rng.shuffle(assignment)
    windows = []
    for r in range(side - 1):
        for c in range(side - 1):
            vars_ = (grid_index(side, r, c), grid_index(side, r, c + 1),
                     grid_index(side, r + 1, c), grid_index(side, r + 1, c + 1))
            # each window owns its potential object; only the coefficients repeat
            shared = assignment[r * (side - 1) + c]
            windows.append((vars_, QuarticFunction(MultilinearPoly(4, dict(shared.poly.terms)))))
    return CliqueEnergy(unary, tuple(windows))


def _cliques_inputs(rng: random.Random, side: int) -> Iterator[CliqueEnergy]:
    patterns = _patterns()
    while True:
        yield random_clique_energy(rng, side, patterns)


def assemble(energy: CliqueEnergy, reductions: list[QuadraticPoly]) -> QuadraticPoly:
    """One quadratic over the pixels followed by every window's auxiliaries."""
    n_x = energy.unary.n_vars
    n_z = sum(h.n_z for h in reductions)
    n = n_x + n_z
    total = energy.unary.with_vars(n)
    next_aux = n_x
    for (vars_, _), h in zip(energy.windows, reductions):
        mapping = dict(zip((1, 2, 3, 4), vars_))
        for a in range(1, h.n_z + 1):
            mapping[4 + a] = next_aux + a
        next_aux += h.n_z
        total = total + h.poly.map_vars(mapping, n)
    return QuadraticPoly(total, n_x, n_z)


def _cliques_op(ctx, energy: CliqueEnergy):
    reductions = [
        reduce_quartic.reduce_quartic(f).to_quadratic().drop_unused_aux()
        for _, f in energy.windows
    ]
    h = assemble(energy, reductions)
    value, argmin = maxflow.minimize_quadratic(h)
    return h, value, argmin, tuple(r.n_z for r in reductions)


def _cliques_check(ctx, energy: CliqueEnergy, out) -> Outcome:
    h, value, argmin, aux = out
    return _minimum_outcome(h, value, argmin, h.n_x, aux)


# ---------------------------------------------------------------------------


WORKLOADS = {
    w.name: w
    for w in (
        Workload("quartic", lambda: None, _quartic_inputs, _quartic_op, _quartic_check,
                 lambda f: [_poly_key(f.poly)], size=0, tail_percentile=98,
                 digest_ops=100, trace_ops=300),
        Workload("cubic", _cubic_setup, _cubic_inputs, _cubic_op, _cubic_check,
                 lambda f: [_poly_key(f)], size=0, tail_percentile=98,
                 digest_ops=50, trace_ops=150),
        Workload("grid_pairwise", lambda: None, _pairwise_inputs, _pairwise_op, _pairwise_check,
                 lambda text: [text], size=24, tail_percentile=90,
                 digest_ops=10, trace_ops=40),
        Workload("grid_cliques", lambda: None, _cliques_inputs, _cliques_op, _cliques_check,
                 lambda e: [_poly_key(f.poly) for _, f in e.windows], size=4,
                 tail_percentile=85, digest_ops=10, trace_ops=40),
    )
}


WARM_UP_SEED = 0


def warm_up(w: Workload, ctx) -> None:
    """One op on a fixed small input, so lazy set-up happens before timing."""
    w.op(ctx, next(w.inputs(random.Random(WARM_UP_SEED), min(w.size, 4))))
