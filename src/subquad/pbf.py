"""Exact multilinear pseudo-Boolean function algebra.

A pseudo-Boolean function on n Boolean variables has a unique multilinear
polynomial, stored here as a map from variable subsets to rational
coefficients.  All arithmetic is exact: coefficients are
fractions.Fraction, bulk sums run on ints over a common denominator, and
zero coefficients are never stored, so structural equality coincides with
functional equality.

Subsets are bitmasks: bit i-1 of a mask corresponds to variable i
(1-based), so the labeling x1=1, x3=1 is mask 0b101.

A submodular quadratic can be rewritten with non-negative capacities

    cost(x) = c_empty + sum_i src[i]*(1-x_i) + sum_i sink[i]*x_i
                      + sum_(i,j) pair[(i,j)]*x_i*(1-x_j)

which is the capacity of an s-t cut (node on the source side <=> x=1)
plus a signed constant.  The normal form chosen by ``to_capacity_form``
is documented there; its correctness is pinned by round-trip tests.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from math import lcm
from typing import Iterable, Mapping

ENUMERATION_CAP = 20


class NotSubmodularQuadratic(ValueError):
    """Raised when a quadratic has a positive bilinear coefficient."""


class InvariantError(RuntimeError):
    """An internal invariant failed (the replacement algebra's minimum
    checks, the max-flow certificate); indicates a bug.  Raised explicitly,
    so the checks also run under ``python -O``."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise InvariantError(what)


class PolyParseError(ValueError):
    """Polynomial text that does not follow the term-per-line format."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def rat(value) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction."""
    return value if isinstance(value, Fraction) else Fraction(value)


def mask_of(indices: Iterable[int]) -> int:
    """Bitmask for a collection of 1-based variable indices."""
    m = 0
    for i in indices:
        if i < 1:
            raise ValueError(f"variable index {i} out of range")
        m |= 1 << (i - 1)
    return m


def indices_of(mask: int) -> tuple[int, ...]:
    """1-based variable indices present in a mask, ascending.

    Peels the lowest set bit each step, so the cost grows with the number
    of variables in the mask, not with the highest index.
    """
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def add_into(acc: dict, key, value) -> None:
    """``acc[key] += value``, without building a zero for a new key."""
    old = acc.get(key)
    acc[key] = value if old is None else old + value


def format_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class MultilinearPoly:
    """Multilinear polynomial over Boolean variables, exact coefficients.

    ``terms`` maps a subset mask S to the coefficient of prod_{i in S} x_i.
    Absent masks mean coefficient zero; zero coefficients are dropped on
    construction, which makes ``==`` a functional equality test.
    """

    __slots__ = ("n_vars", "terms")

    def __init__(self, n_vars: int, terms: Mapping[int, Fraction] | None = None):
        if n_vars < 0:
            raise ValueError("n_vars must be non-negative")
        full = (1 << n_vars) - 1
        clean: dict[int, Fraction] = {}
        for mask, coeff in (terms or {}).items():
            if mask & ~full:
                raise ValueError(f"term {indices_of(mask)} exceeds {n_vars} variables")
            c = rat(coeff)
            if c:
                clean[mask] = c
        self.n_vars = n_vars
        self.terms = clean

    @classmethod
    def zero(cls, n_vars: int) -> "MultilinearPoly":
        return cls(n_vars, {})

    @classmethod
    def from_terms(cls, n_vars: int, items: Iterable[tuple[Iterable[int], object]]) -> "MultilinearPoly":
        """Build from (indices, coefficient) pairs; duplicate subsets add up."""
        acc: dict[int, Fraction] = {}
        for indices, coeff in items:
            add_into(acc, mask_of(indices), rat(coeff))
        return cls(n_vars, acc)

    @property
    def degree(self) -> int:
        return max((m.bit_count() for m in self.terms), default=0)

    def evaluate(self, x: int) -> Fraction:
        """Value at the labeling given by mask x (terms fully inside x)."""
        if x & ~((1 << self.n_vars) - 1):
            raise ValueError("labeling mask wider than the polynomial")
        total = Fraction(0)
        for mask, coeff in self.terms.items():
            if mask & x == mask:
                total += coeff
        return total

    def evaluate_all(self) -> list[Fraction]:
        """Values on all 2^n labelings via the subset-sum transform."""
        n = self.n_vars
        if n > ENUMERATION_CAP:
            raise ValueError(f"evaluate_all refuses n > {ENUMERATION_CAP}")
        # integer sums over the common denominator, one Fraction per value
        den = lcm(*(c.denominator for c in self.terms.values()))
        vals = [0] * (1 << n)
        for mask, coeff in self.terms.items():
            vals[mask] = coeff.numerator * (den // coeff.denominator)
        for i in range(n):
            bit = 1 << i
            for m in range(1 << n):
                if m & bit:
                    vals[m] += vals[m ^ bit]
        return [Fraction(v, den) for v in vals]

    @classmethod
    def from_values(cls, n_vars: int, values: list[Fraction]) -> "MultilinearPoly":
        """Interpolate the unique multilinear polynomial from all 2^n values."""
        if len(values) != 1 << n_vars:
            raise ValueError("need one value per labeling")
        coeffs = [rat(v) for v in values]
        for i in range(n_vars):
            bit = 1 << i
            for m in range(1 << n_vars):
                if m & bit:
                    coeffs[m] -= coeffs[m ^ bit]
        return cls(n_vars, {m: c for m, c in enumerate(coeffs) if c != 0})

    def map_vars(self, mapping: Mapping[int, int], n_vars: int | None = None) -> "MultilinearPoly":
        """Relabel variables (old 1-based index -> new 1-based index)."""
        n = self.n_vars if n_vars is None else n_vars
        acc: dict[int, Fraction] = {}
        for mask, coeff in self.terms.items():
            add_into(acc, mask_of(mapping.get(i, i) for i in indices_of(mask)), coeff)
        return MultilinearPoly(n, acc)

    def with_vars(self, n_vars: int) -> "MultilinearPoly":
        """Same polynomial viewed over a wider (or equal) variable space."""
        if n_vars < self.n_vars and any(m >= 1 << n_vars for m in self.terms):
            raise ValueError("cannot shrink below the support")
        return MultilinearPoly(n_vars, dict(self.terms))

    def scaled(self, c) -> "MultilinearPoly":
        c = rat(c)
        return MultilinearPoly(self.n_vars, {m: c * v for m, v in self.terms.items()})

    def __add__(self, other: "MultilinearPoly") -> "MultilinearPoly":
        n = max(self.n_vars, other.n_vars)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            add_into(acc, m, c)
        return MultilinearPoly(n, acc)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultilinearPoly)
            and self.n_vars == other.n_vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n_vars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"MultilinearPoly({self.n_vars}, {{{', '.join(f'{indices_of(m)}: {format_rational(c)}' for m, c in sorted(self.terms.items()))}}})"


def is_submodular(f: MultilinearPoly) -> bool:
    """Whether every discrete second derivative is non-positive.

    Degree <= 1 is trivially submodular.  Degree 2 reduces to the signs of
    the bilinear coefficients.  Otherwise the mixed derivative of every
    variable pair {i, j} is read off the terms (a term on S contributes its
    coefficient to the monomial S - {i, j}) and enumerated over the
    labelings of its own support, which is refused above ENUMERATION_CAP
    variables.
    """
    deg = f.degree
    if deg <= 1:
        return True
    if deg == 2:
        return all(c <= 0 for m, c in f.terms.items() if m.bit_count() == 2)
    if f.n_vars > ENUMERATION_CAP:
        raise ValueError(f"submodularity enumeration refuses n > {ENUMERATION_CAP}")
    mixed: dict[int, dict[int, Fraction]] = {}  # pair mask -> rest mask -> coefficient
    for mask, coeff in f.terms.items():
        bits = [1 << (i - 1) for i in indices_of(mask)]
        for a, bi in enumerate(bits):
            for bj in bits[a + 1:]:
                add_into(mixed.setdefault(bi | bj, {}), mask ^ bi ^ bj, coeff)
    for derivative in mixed.values():
        support = 0
        for rest, c in derivative.items():
            if c:
                support |= rest
        x = support
        while True:
            if sum(c for rest, c in derivative.items() if rest & x == rest) > 0:
                return False
            if not x:
                break
            x = (x - 1) & support
    return True


def is_submodular_lattice(f: MultilinearPoly) -> bool:
    """Independent oracle: f(X)+f(Y) >= f(X|Y)+f(X&Y) over all pairs.

    Quadratic in 2^n, intended for cross-checking at small n only.
    """
    if f.n_vars > 10:
        raise ValueError("lattice check is quadratic in 2^n; refuses n > 10")
    vals = f.evaluate_all()
    size = len(vals)
    for x in range(size):
        for y in range(x + 1, size):
            if vals[x] + vals[y] < vals[x | y] + vals[x & y]:
                return False
    return True


@dataclass(frozen=True)
class QuadraticPoly:
    """Degree <= 2 polynomial whose variables split into an original block
    x_1..x_{n_x} followed by an auxiliary block z_1..z_{n_z}."""

    poly: MultilinearPoly
    n_x: int
    n_z: int = 0

    def __post_init__(self):
        if self.n_x + self.n_z != self.poly.n_vars:
            raise ValueError("variable blocks must cover the polynomial")
        if self.poly.degree > 2:
            raise ValueError("quadratic polynomial has degree > 2")

    @property
    def n_vars(self) -> int:
        return self.poly.n_vars

    def is_submodular(self) -> bool:
        return is_submodular(self.poly)

    def evaluate(self, x: int, z: int = 0) -> Fraction:
        return self.poly.evaluate(x | (z << self.n_x))

    def min_over_aux(self, x: int) -> tuple[Fraction, int]:
        """Exhaustive min over the auxiliary block at a fixed x labeling.

        Ties go to the smaller z mask, so the all-zeros assignment wins when
        it is among the minimizers.
        """
        best = None
        best_z = 0
        for z in range(1 << self.n_z):
            v = self.evaluate(x, z)
            if best is None or v < best:
                best, best_z = v, z
        return best, best_z

    def drop_unused_aux(self) -> "QuadraticPoly":
        """Remove auxiliary variables that appear in no term."""
        used = []
        for a in range(1, self.n_z + 1):
            bit = 1 << (self.n_x + a - 1)
            if any(m & bit for m in self.poly.terms):
                used.append(a)
        if len(used) == self.n_z:
            return self
        mapping = {self.n_x + a: self.n_x + pos + 1 for pos, a in enumerate(used)}
        poly = self.poly.map_vars(mapping, self.n_x + len(used))
        return QuadraticPoly(poly, self.n_x, len(used))


@dataclass
class CapacityForm:
    """Quadratic submodular cost as non-negative edge capacities.

    Node indices run 1..n_x+n_z (originals first).  ``src[i]`` charges
    x_i = 0, ``sink[i]`` charges x_i = 1, and ``pairs[(i, j)]`` charges
    x_i = 1, x_j = 0; ``c_empty`` may take either sign.
    """

    n_x: int
    n_z: int = 0
    c_empty: Fraction = Fraction(0)
    src: dict[int, Fraction] = field(default_factory=dict)
    sink: dict[int, Fraction] = field(default_factory=dict)
    pairs: dict[tuple[int, int], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        self.c_empty = rat(self.c_empty)
        n = self.n_nodes
        node = (lambda i: 1 <= i <= n, lambda i: f"node {i} out of range")
        self.src = _capacities(self.src, *node)
        self.sink = _capacities(self.sink, *node)
        self.pairs = _capacities(
            self.pairs,
            lambda e: e[0] != e[1] and 1 <= e[0] <= n and 1 <= e[1] <= n,
            lambda e: f"bad edge ({e[0]}, {e[1]})",
        )

    @property
    def n_nodes(self) -> int:
        return self.n_x + self.n_z

    def value(self, mask: int) -> Fraction:
        total = self.c_empty
        for i, v in self.src.items():
            if not mask >> (i - 1) & 1:
                total += v
        for i, v in self.sink.items():
            if mask >> (i - 1) & 1:
                total += v
        for (i, j), v in self.pairs.items():
            if mask >> (i - 1) & 1 and not mask >> (j - 1) & 1:
                total += v
        return total


def _capacities(caps: dict, key_ok, key_error) -> dict:
    """Validate capacities in one pass: keys in range, values non-negative.

    Zero values are dropped and other values coerced to Fraction; the dict
    is copied only when it holds such a value, so a clean one is kept.
    """
    clean = True
    for key, v in caps.items():
        c = rat(v)
        if not c:
            clean = False
            continue
        if not key_ok(key):
            raise ValueError(key_error(key))
        if c.numerator < 0:
            raise ValueError("capacities must be non-negative")
        clean = clean and c is v
    if clean:
        return caps
    return {key: c for key, v in caps.items() if (c := rat(v))}


def to_capacity_form(h: QuadraticPoly) -> CapacityForm:
    """Rewrite a submodular quadratic as non-negative capacities.

    Normal form: each bilinear term a*x_i*x_j (a <= 0, i < j) becomes the
    pair capacity -a on the edge (j -> i) plus the linear correction a*x_j;
    a resulting linear coefficient v goes to sink[i] when v >= 0, and
    otherwise contributes -v to src[i] and v to the constant.

    The sums run on ints: every coefficient is scaled once by the lcm of
    the denominators, and each capacity becomes one Fraction at the end.
    """
    terms = h.poly.terms
    scale = lcm(*{c.denominator for c in terms.values()})
    linear: dict[int, int] = {}
    pairs: dict[tuple[int, int], Fraction] = {}
    c_empty = 0
    for mask, coeff in terms.items():
        a = coeff.numerator * (scale // coeff.denominator)
        if not mask & (mask - 1):  # constant or linear
            if mask:
                add_into(linear, mask.bit_length(), a)
            else:
                c_empty += a
        elif a > 0:
            # name the lowest positive mask, whatever order the terms are in
            bad = min(m for m, c in terms.items() if m.bit_count() == 2 and c > 0)
            raise NotSubmodularQuadratic(
                f"bilinear coefficient {format_rational(terms[bad])} on {indices_of(bad)} is positive"
            )
        else:
            hi = mask.bit_length()
            pairs[(hi, (mask & -mask).bit_length())] = Fraction(-a, scale)
            add_into(linear, hi, a)
    src: dict[int, Fraction] = {}
    sink: dict[int, Fraction] = {}
    for i, a in linear.items():
        if a > 0:
            sink[i] = Fraction(a, scale)
        elif a:
            src[i] = Fraction(-a, scale)
            c_empty += a
    return CapacityForm(h.n_x, h.n_z, Fraction(c_empty, scale), src, sink, pairs)


def from_capacity_form(c: CapacityForm) -> QuadraticPoly:
    """Expand capacities back into a quadratic polynomial (exact inverse
    on values; composition with to_capacity_form is pointwise identity)."""
    acc: dict[int, Fraction] = {0: c.c_empty}
    for i, v in c.src.items():
        acc[0] += v
        add_into(acc, 1 << (i - 1), -v)
    for i, v in c.sink.items():
        add_into(acc, 1 << (i - 1), v)
    for (i, j), v in c.pairs.items():
        mi, mj = 1 << (i - 1), 1 << (j - 1)
        add_into(acc, mi, v)
        add_into(acc, mi | mj, -v)
    return QuadraticPoly(MultilinearPoly(c.n_nodes, acc), c.n_x, c.n_z)


# A head of ASCII digits with an optional sign and denominator is read with
# int(); every other head goes to Fraction(str), whose grammar (underscores,
# decimals, exponents) is that of the running Python version.
_PLAIN_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_TOKEN = re.compile(r"\S+")


def _index_column(raw: str, pos: int) -> int:
    """1-based column of the pos-th index token after the colon of a line
    (1 when there is none)."""
    tokens = _TOKEN.finditer(raw.split("#", 1)[0], raw.find(":") + 1)
    tok = next(islice(tokens, pos, None), None)
    return tok.start() + 1 if tok else 1


def parse_polynomial(text: str, n_vars: int | None = None) -> MultilinearPoly:
    """Parse the term-per-line format: ``<rational> [: i j k ...]``.

    '#' starts a comment, blank lines are skipped, duplicate subsets are
    summed, and term order is irrelevant.  When n_vars is omitted it is
    inferred from the largest index mentioned.
    """
    acc: dict[int, Fraction] = {}
    max_index, max_at = 0, (1, "", 0)  # line number, line and token position of the largest index
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, tail = line.partition(":")
        head = head.strip()
        plain = _PLAIN_RATIONAL.fullmatch(head)
        try:
            if plain is None:
                coeff = Fraction(head)
            else:
                num, den = plain.groups()
                coeff = Fraction(int(num), int(den)) if den else Fraction(int(num))
        except (ValueError, ZeroDivisionError):
            raise PolyParseError(f"bad rational {head!r}", lineno, raw.index(head) + 1 if head else 1)
        mask = 0
        repeated = None
        for pos, tok in enumerate(tail.split()):
            try:
                i = int(tok)
            except ValueError:
                raise PolyParseError(f"bad variable index {tok!r}", lineno, _index_column(raw, pos))
            if i < 1:
                raise PolyParseError(f"variable index {i} must be >= 1", lineno, _index_column(raw, pos))
            bit = 1 << (i - 1)
            if mask & bit and repeated is None:
                repeated = pos
            mask |= bit
            if i > max_index:
                max_index, max_at = i, (lineno, raw, pos)
        if repeated is not None:
            raise PolyParseError("repeated variable in one term", lineno, _index_column(raw, repeated))
        add_into(acc, mask, coeff)
    n = max_index if n_vars is None else n_vars
    if n < max_index:
        lineno, raw, pos = max_at
        raise PolyParseError(f"index {max_index} exceeds declared {n} variables", lineno, _index_column(raw, pos))
    return MultilinearPoly(n, acc)


def format_polynomial(p: MultilinearPoly) -> str:
    """Serialize in the term-per-line format, constant term first."""
    lines = []
    for mask in sorted(p.terms, key=lambda m: (m.bit_count(), indices_of(m))):
        coeff = format_rational(p.terms[mask])
        if mask == 0:
            lines.append(coeff)
        else:
            lines.append(f"{coeff} : {' '.join(map(str, indices_of(mask)))}")
    if not lines:
        lines.append("0")
    return "\n".join(lines) + "\n"
