"""Exact symbolic constructions of commuting Bethe-type families for the
Yangian of gl_N and its orthogonal/symplectic twisted analogues, with
verification suites for the defining relations and the classical
(Poisson) degenerations."""

from .algebra import (AlgebraElement, FreeRule, GlRule, YangianRule,
                      commutator, deserialize_element, filtration_degree,
                      normal_order, serialize_element, symbol)
from .indices import IndexSet, ZMatrix, parse_z_spec
from .poisson import (CurrentPoint, PoissonContext, PoissonPoly, bethe_family,
                      bethe_poly, classical_det_poly, jacobian_rank,
                      poisson_bracket, poisson_rank_at, principal_nilpotent,
                      restrict_to_slice, upper_slice)
from .rationals import Q
from .series import TruncatedSeries
from .twisted import TwistedContext, twisted_bethe_series
from .yangian import bethe_series, hat_bethe_series, quantum_determinant

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement", "CurrentPoint", "FreeRule", "GlRule", "IndexSet",
    "PoissonContext", "PoissonPoly", "Q", "TruncatedSeries",
    "TwistedContext", "YangianRule", "ZMatrix", "bethe_family", "bethe_poly",
    "bethe_series", "classical_det_poly", "commutator", "deserialize_element",
    "filtration_degree", "hat_bethe_series", "jacobian_rank",
    "normal_order", "parse_z_spec", "poisson_bracket", "poisson_rank_at",
    "principal_nilpotent", "quantum_determinant", "restrict_to_slice",
    "serialize_element", "symbol", "twisted_bethe_series", "upper_slice",
]
