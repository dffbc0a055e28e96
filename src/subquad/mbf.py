"""Monotone Boolean functions and auxiliary-variable parameter vectors.

An auxiliary variable z with non-negative couplings enters a quadratic as
kappa(x) * z where kappa(x) = g - sum_i w_i x_i.  Its optimal state per
labeling S is 1 exactly when kappa(S) < 0 (a tie at zero resolves to 0),
so each parameter vector induces an upward-closed family of labelings on
which the variable switches on.  Monotone Boolean functions are the same
objects seen as truth tables (``MbfTable``); their count per arity is the
Dedekind number.  ``induced_mbf`` is the package's one derivation of an
auxiliary's optimal states from a quadratic, and ``is_monotone`` audits it.
Tables are written as text by ``MbfTable.as_bitstring`` and read back by
``parse_tables``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .pbf import PolyParseError, QuadraticPoly, rat

DEDEKIND = {0: 2, 1: 3, 2: 6, 3: 20, 4: 168, 5: 7581}

MBF_ENUMERATION_CAP = 5


@dataclass(frozen=True)
class MbfTable:
    """Truth table of a Boolean function of k variables.

    ``bits`` packs the table: bit at position ``mask`` holds the value on
    the labeling ``mask`` (mask bit i-1 <=> variable i is 1).
    """

    k: int
    bits: int

    def __post_init__(self):
        if self.bits >> (1 << self.k):
            raise ValueError("table wider than 2^k bits")

    def value(self, mask: int) -> int:
        return self.bits >> mask & 1

    def as_bitstring(self) -> str:
        return format(self.bits, f"0{1 << self.k}b")[::-1]

    @classmethod
    def from_function(cls, k: int, fn) -> "MbfTable":
        bits = 0
        for mask in range(1 << k):
            if fn(mask):
                bits |= 1 << mask
        return cls(k, bits)

    @classmethod
    def threshold(cls, k: int, r: int) -> "MbfTable":
        """The symmetric table 1 <=> |S| >= r."""
        return cls.from_function(k, lambda m: m.bit_count() >= r)


def is_monotone(t: MbfTable) -> bool:
    """True when no single-bit increase of the input decreases the output."""
    for mask in range(1 << t.k):
        for i in range(t.k):
            bit = 1 << i
            if not mask & bit and t.value(mask) > t.value(mask | bit):
                return False
    return True


def enumerate_mbfs(k: int) -> list[MbfTable]:
    """All monotone tables on k variables, in ascending bits order.

    Dedekind's recurrence: a table on j + 1 variables is monotone exactly
    when its halves with x_{j+1} = 0 and x_{j+1} = 1 are monotone tables on
    j variables and the first implies the second.  Taking the upper half
    in the outer loop keeps every level in ascending bits order.
    """
    if k > MBF_ENUMERATION_CAP:
        raise ValueError(f"enumeration capped at k <= {MBF_ENUMERATION_CAP}")
    level = [0, 1]
    for j in range(k):
        level = [a | b << (1 << j) for b in level for a in level if not a & ~b]
    return [MbfTable(k, b) for b in level]


def parse_tables(text: str, k: int) -> list[MbfTable]:
    """Tables on k variables from text, one ``as_bitstring`` per line.

    ``#`` starts a comment; blank lines are skipped.  A line of the wrong
    width or with a character other than 0 and 1 raises ``PolyParseError``
    at its line and column.  Monotonicity is left to the caller.
    """
    width = 1 << k
    tables = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        start = raw.index(line)
        bad = next((i for i, ch in enumerate(line) if ch not in "01"), None)
        if bad is not None:
            raise PolyParseError(f"bad table character {line[bad]!r}", lineno, start + bad + 1)
        if len(line) != width:
            column = start + min(len(line), width) + 1
            raise PolyParseError(f"table line has {len(line)} bits, expected {width}", lineno, column)
        tables.append(MbfTable(k, int(line[::-1], 2)))
    return tables


def prune_mbf_set(tables: list[MbfTable]) -> list[MbfTable]:
    """Drop the two constants and the per-variable projections.

    Those auxiliary variables never help: a constant is a fixed offset and
    a projection duplicates an original variable.
    """
    if not tables:
        return []
    k = tables[0].k
    full = (1 << (1 << k)) - 1
    skip = {0, full}
    for i in range(k):
        skip.add(MbfTable.from_function(k, lambda m, i=i: m >> i & 1).bits)
    return [t for t in tables if t.bits not in skip]


@dataclass(frozen=True)
class AvParams:
    """Constant and per-variable weights of one auxiliary variable term.

    The weights must be non-negative: they are the magnitudes of the
    (non-positive) x-to-z bilinear coefficients, so non-negativity is
    exactly submodularity of the term.
    """

    g: Fraction
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "g", rat(self.g))
        object.__setattr__(self, "weights", tuple(rat(w) for w in self.weights))
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")

    @property
    def k(self) -> int:
        return len(self.weights)


def partition_coefficient(p: AvParams, mask: int) -> Fraction:
    """g minus the weights selected by the labeling; its sign decides the
    auxiliary variable's optimal state on that labeling."""
    total = p.g
    for i in range(p.k):
        if mask >> i & 1:
            total -= p.weights[i]
    return total


def min_contribution(p: AvParams, mask: int) -> Fraction:
    """min over z in {0,1} of partition_coefficient * z."""
    return min(Fraction(0), partition_coefficient(p, mask))


def induced_mbf(h: QuadraticPoly, av: int) -> MbfTable:
    """Optimal-state table of one auxiliary variable of h.

    ``av`` is the variable's global 1-based index inside h's auxiliary
    block.  For each x labeling the other auxiliary variables are minimized
    out; a tie between the two states of ``av`` resolves to 0.  Requires h
    submodular, otherwise the resulting table need not be monotone.  Reads
    one value table of h, so like every exhaustive check it refuses more
    than ENUMERATION_CAP variables.
    """
    if not h.n_x < av <= h.n_vars:
        raise ValueError("av must index the auxiliary block")
    if not h.is_submodular():
        raise ValueError("induced state is only meaningful for submodular h")
    a_bit = 1 << (av - h.n_x - 1)
    values = h.poly.evaluate_all()  # h(x, z) at index x | z << n_x
    stride = 1 << h.n_x
    bits = 0
    for x in range(stride):
        over_z = values[x::stride]
        best0 = min(v for z, v in enumerate(over_z) if not z & a_bit)
        best1 = min(v for z, v in enumerate(over_z) if z & a_bit)
        if best1 < best0:
            bits |= 1 << x
    return MbfTable(h.n_x, bits)
