"""Exact rational calculus of characteristic classes.

Multiplicative sequences for the signature and A-hat genera, truncated
cohomology rings of spheres and quaternionic projective spaces, the rational
Pontryagin character and its inverse, and the surgery obstruction pipeline
for normal invariants of bundles over S^4 x HP^n.  Every value is a
`fractions.Fraction`; nothing is approximated.
"""

from .manifolds import (
    ManifoldModel,
    a_hat_genus,
    hp_model,
    parse_descriptor,
    point_model,
    product_model,
    signature,
    sphere_model,
)
from .multseq import (
    GenusTable,
    ahat_genus_table,
    evaluate_genus,
    factored_str,
    genus_table,
    l_genus_table,
    partition_terms,
    pont_character,
    pont_classes_from_character,
)
from .rational import format_rational, parse_rational
from .ring import RingElement, RingPresentation
from .series import Series, ahat_genus_series, l_genus_series
from .surgery import (
    BundleSolution,
    NormalInvariantParams,
    a_hat_total_space,
    ambient_model,
    general_a_hat_coefficient,
    general_obstruction_coefficients,
    p1_cubed_total_space,
    solve_bundle,
    surgery_obstruction,
    xi_total_class,
)

__version__ = "0.1.0"

__all__ = [
    "BundleSolution",
    "GenusTable",
    "ManifoldModel",
    "NormalInvariantParams",
    "RingElement",
    "RingPresentation",
    "Series",
    "a_hat_genus",
    "a_hat_total_space",
    "ahat_genus_series",
    "ahat_genus_table",
    "ambient_model",
    "evaluate_genus",
    "factored_str",
    "format_rational",
    "general_a_hat_coefficient",
    "general_obstruction_coefficients",
    "genus_table",
    "hp_model",
    "l_genus_series",
    "l_genus_table",
    "p1_cubed_total_space",
    "parse_descriptor",
    "parse_rational",
    "partition_terms",
    "point_model",
    "pont_character",
    "pont_classes_from_character",
    "product_model",
    "signature",
    "solve_bundle",
    "sphere_model",
    "surgery_obstruction",
    "xi_total_class",
]
