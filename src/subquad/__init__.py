"""Exact quadratization of higher-order submodular pseudo-Boolean functions
and their minimization by max-flow/min-cut."""

from .pbf import (
    CapacityForm,
    MultilinearPoly,
    NotSubmodularQuadratic,
    QuadraticPoly,
    from_capacity_form,
    is_submodular,
    to_capacity_form,
)

__all__ = [
    "CapacityForm",
    "MultilinearPoly",
    "NotSubmodularQuadratic",
    "QuadraticPoly",
    "from_capacity_form",
    "is_submodular",
    "to_capacity_form",
]

__version__ = "0.1.0"
