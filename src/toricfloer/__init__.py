"""Floer cohomology of Lagrangian torus fibers in toric Fano manifolds.

The package computes, from the moment polytope alone: disc areas and the
balancedness test for a torus fiber, the Landau-Ginzburg superpotential
and its critical fiber, the Floer differential and the rank of its
cohomology over the Novikov field, the Clifford-algebra ring structure
at balanced fibers, and a symbolic certificate that corrected classical
cycles are Floer cycles.

Each public name is read from its submodule when it is first used
(PEP 562), so importing the package, or the CLI, imports only what runs.
Nothing is cached in this namespace: a name always resolves to the
submodule's current binding.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name, by the submodule that defines it
_SUBMODULES = {
    "chains": (
        "ChainAlgebra",
        "ChainExpression",
        "ChainMapCertificate",
        "boundary",
        "chain_map_certificate",
        "corrected_cycle",
        "floer_differential",
        "verify_chain_map",
    ),
    "clifford": ("CliffordElement", "cl_grade", "cl_mul"),
    "errors": (
        "DimensionMismatch",
        "InvalidPolytope",
        "NoConvergence",
        "NotBalanced",
        "NotInterior",
        "ParseError",
        "ToricFloerError",
    ),
    "floer": (
        "ExteriorClass",
        "differential_matrix",
        "disc_l_term",
        "boundary_pairing",
        "elimination_rank",
        "hf_rank",
        "l_product",
        "m1_apply",
        "m2_product",
        "novikov_rank",
        "obstruction_form",
        "subsets_graded",
        "wedge",
    ),
    "novikov": ("DEFAULT_CUTOFF", "ONE", "ZERO", "NovikovElement", "monomial"),
    "potential": (
        "QuadraticForm",
        "find_critical_fiber",
        "formal_hessian",
        "superpotential_derivative",
        "theta_of_fiber",
        "twisted_class_sums",
    ),
    "toric": (
        "AreaClass",
        "BalanceResult",
        "DiscClass",
        "Fiber",
        "ToricFano",
        "area_partition",
        "disc_areas",
        "interior_grid",
        "is_balanced",
        "load_toric",
        "make_toric",
    ),
}
_SUBMODULE = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
