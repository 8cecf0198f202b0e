"""Exact rational workbench for linear vector optimization and its duals.

`import vlpdual` loads no submodule. Each public name below is resolved
on first use through the module `__getattr__` (PEP 562), so a caller
compiles and runs only the modules it touches.
"""

import importlib

_EXPORTS = {
    "cone": "ConeError OrderingCone contains in_quasi_interior make_cone orthant strictly_below",
    "duality": """MembershipVerdict check_feasible_D check_feasible_J check_feasible_L
        check_feasible_U construct_dual_solution dual_B_nonempty feasible_dual_point
        h_H_value_membership improve_dual_infeasible_primal u_feasibility_multiplier
        map_D_to_DL map_DH_to_D membership_hB membership_hJ membership_hL recover_primal""",
    "efficiency": """EfficiencyCertificate VertexLimitError efficient_vertices enumerate_vertices
        is_efficient proper_efficiency_certificate recession_image_pointed""",
    "exact": """CertificateError DimensionError LinearSolution QMatrix QVector format_rational
        outer parse_rational qmat qvec solve_linear_system""",
    "harness": """CampaignConfig CheckRecord FIXTURES VerificationReport emit_report
        run_all_fixtures run_fixture run_instance_suite run_random_campaign""",
    "lp": """GeneralProgram Infeasible LinearProgram LpOutcome Optimal Region Unbounded
        solve_feasibility solve_general solve_lp verify_outcome""",
    "model": """DualCandidateD DualCandidateJ DualCandidateL DualCandidateU ProblemFormatError
        VlpProblem load_problem objective_D objective_J objective_L primal_feasible
        serialize_problem""",
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}
# Submodules that `vlpdual.<name>` has always reached without an import of its own.
_SUBMODULES = {*_EXPORTS, "checks", "sampling"}
__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    if name in _ORIGIN:
        return getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
