"""Exact symbolic constructions of commuting Bethe-type families for the
Yangian of gl_N and its orthogonal/symplectic twisted analogues, with
verification suites for the defining relations and the classical
(Poisson) degenerations.

The names below are loaded on first access (PEP 562), so `import bethe`
and the `bethe` command import only the modules they use."""

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement", "CurrentPoint", "FreeRule", "GlRule", "IndexSet",
    "PoissonContext", "PoissonPoly", "Q", "TruncatedSeries",
    "TwistedContext", "YangianRule", "ZMatrix", "bethe_family",
    "bethe_series", "commutator", "filtration_degree", "hat_bethe_series",
    "jacobian_rank", "parse_z_spec", "poisson_bracket", "principal_nilpotent",
    "quantum_determinant", "serialize_terms", "symbol",
    "twisted_bethe_series", "upper_slice", "verify_bethe_commutativity",
    "verify_sklyanin",
]

# exported name -> the submodule that defines it
_SOURCES = {
    **dict.fromkeys(("AlgebraElement", "FreeRule", "GlRule", "YangianRule",
                     "commutator", "filtration_degree", "symbol"),
                    "algebra"),
    **dict.fromkeys(("IndexSet", "ZMatrix", "parse_z_spec"), "indices"),
    **dict.fromkeys(("CurrentPoint", "PoissonContext", "PoissonPoly",
                     "bethe_family", "jacobian_rank", "poisson_bracket",
                     "principal_nilpotent", "upper_slice"), "poisson"),
    "Q": "rationals",
    "serialize_terms": "reports",
    "TruncatedSeries": "series",
    **dict.fromkeys(("TwistedContext", "twisted_bethe_series",
                     "verify_sklyanin"), "twisted"),
    **dict.fromkeys(("bethe_series", "hat_bethe_series",
                     "quantum_determinant", "verify_bethe_commutativity"),
                    "yangian"),
}


def __getattr__(name):
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
