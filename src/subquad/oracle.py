"""Brute-force ground truth for every transformation the package produces.

Everything here works by full enumeration of labelings and never shares a
code path with the solvers it checks (evaluation goes through the plain
subset-sum in MultilinearPoly, which is itself pinned by hand-computed
vectors in the tests).  A reduction is checked from one value table of
the target and one of the quadratic over all of its variables, and
reported as one gap per labeling.  The auxiliaries' induced states are
derived in one place only, ``mbf.induced_mbf``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .pbf import ENUMERATION_CAP, MultilinearPoly, QuadraticPoly, indices_of


@dataclass(frozen=True)
class LabelingRow:
    x: int
    f_value: Fraction
    h_min: Fraction
    gap: Fraction
    z_argmin: int


@dataclass(frozen=True)
class VerificationReport:
    """Per-labeling comparison of a target f with min over aux of h."""

    rows: tuple[LabelingRow, ...]
    passed: bool

    @property
    def gaps(self) -> dict[int, Fraction]:
        return {row.x: row.gap for row in self.rows}

    @property
    def distance(self) -> Fraction:
        """L1 distance of the reduction: the sum of |gap| over labelings."""
        return sum((abs(row.gap) for row in self.rows), Fraction(0))


def brute_min(f: MultilinearPoly) -> tuple[Fraction, int]:
    """Exact global minimum by enumeration; ties take the smallest mask."""
    if f.n_vars > ENUMERATION_CAP:
        raise ValueError(f"brute_min refuses n > {ENUMERATION_CAP}")
    values = f.evaluate_all()
    best = values[0]
    best_mask = 0
    for mask in range(1, len(values)):
        if values[mask] < best:
            best, best_mask = values[mask], mask
    return best, best_mask


def verify_reduction(f: MultilinearPoly, h: QuadraticPoly) -> VerificationReport:
    """Check f(x) = min over aux assignments of h(x, z) on every labeling.

    Gap rows report f(x) - min_z h(x, z); the report passes when all gaps
    vanish.
    """
    if h.n_x != f.n_vars:
        raise ValueError("h must have one original variable per variable of f")
    if h.n_vars > ENUMERATION_CAP:
        raise ValueError(f"verify_reduction refuses n > {ENUMERATION_CAP}")
    f_values = f.evaluate_all()
    h_values = h.poly.evaluate_all()  # h(x, z) at index x | z << n_x
    stride = 1 << h.n_x
    rows = []
    for x in range(stride):
        over_z = h_values[x::stride]
        hmin = min(over_z)
        rows.append(LabelingRow(x, f_values[x], hmin, f_values[x] - hmin, over_z.index(hmin)))
    return VerificationReport(tuple(rows), all(row.gap == 0 for row in rows))


def format_report(report: VerificationReport) -> str:
    lines = ["labeling f min_h gap z_argmin"]
    for row in report.rows:
        label = ",".join(map(str, indices_of(row.x))) or "-"
        zlab = ",".join(map(str, indices_of(row.z_argmin))) or "-"
        lines.append(f"{label} {row.f_value} {row.h_min} {row.gap} {zlab}")
    return "\n".join(lines) + "\n"
