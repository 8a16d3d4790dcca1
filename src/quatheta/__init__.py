"""Ideal classes of definite quaternion orders over totally real fields, their
theta series, Brandt matrices, and span checks against cusp-space dimensions."""

from .basis import classical_dimension, hilbert_consistency, span_rank
from .brandt import brandt, cuspidal_eigenvalues, hecke_property_suite
from .cli import RunConfig, run
from .fields import (
    AlgebraicInteger,
    FieldDescriptor,
    enumerate_totally_positive,
    field,
    prime_splitting,
    primes_above,
)
from .orders import (
    ideal_classes,
    level_one_order,
    mass_formula,
    neighbors,
    standard_order,
    unit_weight,
)
from .quadmod import gram_and_level, hom_module
from .quaternions import construct, verify_ramification
from .theta import theta, theta_difference, theta_matrix

__all__ = [
    "AlgebraicInteger",
    "FieldDescriptor",
    "RunConfig",
    "brandt",
    "classical_dimension",
    "construct",
    "cuspidal_eigenvalues",
    "enumerate_totally_positive",
    "field",
    "gram_and_level",
    "hecke_property_suite",
    "hilbert_consistency",
    "hom_module",
    "ideal_classes",
    "level_one_order",
    "mass_formula",
    "neighbors",
    "prime_splitting",
    "primes_above",
    "run",
    "span_rank",
    "standard_order",
    "theta",
    "theta_difference",
    "theta_matrix",
    "unit_weight",
    "verify_ramification",
]
__version__ = "0.1.0"
