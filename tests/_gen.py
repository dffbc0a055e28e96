"""Seeded random instance generators shared across the test modules."""

import hashlib
from fractions import Fraction

from subquad.mbf import AvParams
from subquad.pbf import MultilinearPoly, QuadraticPoly
from subquad.reduce_quartic import QuarticFunction, generator_catalog, generator_patterns


def rand_rational(rng, lo=-5, hi=5, dens=(1, 1, 2, 3)) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def random_submodular_quadratic(rng, n: int) -> QuadraticPoly:
    """Random quadratic with non-positive bilinear terms, any linear part."""
    terms = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < 0.5:
                c = -abs(rand_rational(rng, 0, 4))
                if c:
                    terms[(1 << (i - 1)) | (1 << (j - 1))] = c
    for i in range(1, n + 1):
        c = rand_rational(rng)
        if c:
            terms[1 << (i - 1)] = c
    c = rand_rational(rng, -3, 3)
    if c:
        terms[0] = c
    return QuadraticPoly(MultilinearPoly(n, terms), n, 0)


def random_submodular_cubic(rng) -> MultilinearPoly:
    """Random submodular function of degree <= 3 on three variables.

    Submodularity of a cubic needs a_ij + max(0, a_123) <= 0 for every
    pair, which the construction enforces directly.
    """
    a123 = rand_rational(rng, -6, 6)
    terms = [((1, 2, 3), a123)]
    cap = -max(Fraction(0), a123)
    for pair in ((1, 2), (1, 3), (2, 3)):
        terms.append((pair, cap - abs(rand_rational(rng, 0, 5))))
    for i in (1, 2, 3):
        terms.append(((i,), rand_rational(rng)))
    terms.append(((), rand_rational(rng, -3, 3)))
    return MultilinearPoly.from_terms(3, terms)


def random_av_params(rng) -> AvParams:
    den = rng.choice([1, 1, 1, 2, 3])
    weights = tuple(Fraction(rng.randint(0, 8), den) for _ in range(4))
    return AvParams(Fraction(rng.randint(-4, 12), den), weights)


def random_multi_av_quadratic(rng, n_avs: int) -> QuadraticPoly:
    """Submodular x-part plus auxiliary terms linear in each z."""
    terms = {}
    for pm in (0b0011, 0b0101, 0b1001, 0b0110, 0b1010, 0b1100):
        c = -abs(rand_rational(rng, 0, 4))
        if c:
            terms[pm] = c
    for i in range(4):
        c = rand_rational(rng, -4, 4)
        if c:
            terms[1 << i] = c
    params = [random_av_params(rng) for _ in range(n_avs)]
    for pos, a in enumerate(params):
        zbit = 1 << (4 + pos)
        if a.g:
            terms[zbit] = a.g
        for i in range(4):
            if a.weights[i]:
                terms[zbit | (1 << i)] = -a.weights[i]
    return QuadraticPoly(MultilinearPoly(4 + n_avs, terms), 4, n_avs)


def random_generator_combination(rng, max_parts=5) -> QuarticFunction:
    """Non-negative rational combination of the nine reducible generator
    groups, random index patterns."""
    f = QuarticFunction.from_terms([])
    for _ in range(rng.randint(1, max_parts)):
        group = rng.randint(1, 9)
        pattern = rng.choice(generator_patterns(group))
        part, _ = generator_catalog(group, pattern)
        f = f + part.scaled(Fraction(rng.randint(1, 4), rng.choice([1, 2])))
    return f


def program_digest(programs) -> str:
    """SHA-256 over each program's variable order, bounds and rows."""
    h = hashlib.sha256()
    for lp in programs:
        h.update("\n".join(f"{v} {lp._lower[v]}" for v in lp.variables).encode())
        h.update(b"\n" + lp.dump().encode() + b"\n\n")
    return h.hexdigest()
