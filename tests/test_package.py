"""The top-level `vlpdual` names: each resolves, on first use, to the
object its submodule defines."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vlpdual

# Every public name of `vlpdual`, by the submodule that defines it.
PUBLIC = {
    "cone": "ConeError OrderingCone contains in_quasi_interior make_cone orthant strictly_below",
    "duality": """MembershipVerdict check_feasible_D check_feasible_J check_feasible_L
        check_feasible_U construct_dual_solution dual_B_nonempty feasible_dual_point
        h_H_value_membership improve_dual_infeasible_primal u_feasibility_multiplier
        map_D_to_DL map_DH_to_D membership_hB membership_hJ membership_hL recover_primal""",
    "efficiency": """EfficiencyCertificate efficient_vertices enumerate_vertices is_efficient
        proper_efficiency_certificate recession_image_pointed""",
    "exact": """CertificateError DimensionError LinearSolution QMatrix QVector VertexLimitError
        format_rational outer parse_rational qmat qvec solve_linear_system""",
    "harness": """CampaignConfig CheckRecord FIXTURES VerificationReport emit_report
        run_all_fixtures run_fixture run_instance_suite run_random_campaign""",
    "lp": """GeneralProgram Infeasible LinearProgram LpOutcome Optimal Region Unbounded
        solve_feasibility solve_general solve_lp verify_outcome""",
    "model": """DualCandidateD DualCandidateJ DualCandidateL DualCandidateU ProblemFormatError
        VlpProblem load_problem objective_D objective_J objective_L primal_feasible
        serialize_problem""",
}


def test_every_public_name_resolves_to_its_module():
    names = []
    for module, listed in PUBLIC.items():
        source = importlib.import_module(f"vlpdual.{module}")
        for name in listed.split():
            assert getattr(vlpdual, name) is getattr(source, name), (module, name)
            names.append(name)
    assert sorted(vlpdual.__all__) == sorted(names)
    assert set(names) <= set(dir(vlpdual))
    with pytest.raises(AttributeError):
        vlpdual.nope  # noqa: B018
    from vlpdual import harness

    assert harness is sys.modules["vlpdual.harness"]


def test_submodules_resolve_without_their_own_import():
    # `vlpdual.<submodule>` reaches every module the eager imports used to
    # bind; cli was never among them.
    src = str(Path(vlpdual.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import vlpdual; print(vlpdual.sampling.__name__, vlpdual.checks.__name__, hasattr(vlpdual, 'cli'))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.stdout.split() == ["vlpdual.sampling", "vlpdual.checks", "False"], proc.stderr


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from vlpdual import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(vlpdual.__all__)
    assert namespace["solve_lp"] is sys.modules["vlpdual.lp"].solve_lp
