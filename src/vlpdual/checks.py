"""Witness checks by exact vector and matrix products; no solver runs here,
so a check never runs the code it checks (certifying algorithms;
McConnell, Mehlhorn, Naher & Schweitzer 2011). `lp.verify_*` keep the same
rule for LP outcomes and stay in `lp`, since `cone` imports `lp`.

Every dual witness passes one test on (lam, z): lam is in the
quasi-interior of K*, and L^T lam - A^T z >= 0. D^J takes z = U^T lam, as
(L - UA)^T lam = L^T lam - A^T (U^T lam) exactly; D adds lam.v = 0 and D^L
lam.v - b.z <= 0. A scalarization certificate (lam, eta) for xbar is the
point (lam, -eta) with lam.g >= 1 on every generator and
lam.(L xbar) + b.eta = 0.

The (lam, z) test is a pure function of exact inputs, and the campaign
asks it of the same pair many times (hL, hB and hJ witnesses share one,
and probe values share minimizing vertices). So each problem keeps the
verdict of every distinct (lam, z) it was asked, keyed by the integer
(numerator, denominator) pairs, in its instance `__dict__`: the memo
lives and dies with the problem, and every input is still tested once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .cone import in_quasi_interior
from .exact import DimensionError, QVector, _sum_of_products

if TYPE_CHECKING:
    from .model import DualCandidateD, DualCandidateJ, DualCandidateL, EfficiencyCertificate, VlpProblem


def _dual_feasible(problem: VlpProblem, lam: QVector, z: QVector) -> bool:
    """`_lam_z_test` once per distinct (lam, z) of the problem."""
    if z.dim != problem.m:
        raise DimensionError(f"z dim {z.dim} != row count {problem.m}")
    verdicts = vars(problem).setdefault("_dual_feasible", {})
    key = (lam.pairs, z.pairs)
    verdict = verdicts.get(key)
    if verdict is None:
        verdict = verdicts[key] = _lam_z_test(problem, lam, z)
    return verdict


def _lam_z_test(problem: VlpProblem, lam: QVector, z: QVector) -> bool:
    """lam.g > 0 on every generator, and (lam, -z) has a nonnegative
    product with every column of [L; A]: L^T lam - A^T z >= 0."""
    if not in_quasi_interior(problem.cone, lam):
        return False
    weights = lam.pairs + tuple((-a, b) for a, b in z.pairs)
    return all(_sum_of_products(weights, column) >= 0 for column in problem.stacked_columns)


def check_feasible_J(problem: VlpProblem, cand: DualCandidateJ | DualCandidateD) -> bool:
    if cand.lam.dim != problem.k:
        raise DimensionError("candidate dims do not match the problem")
    return _dual_feasible(problem, cand.lam, cand.U.T @ cand.lam)


def check_feasible_D(problem: VlpProblem, cand: DualCandidateD) -> bool:
    if cand.v.dim != problem.k:
        raise DimensionError("candidate dims do not match the problem")
    return check_feasible_J(problem, cand) and cand.lam.dot(cand.v) == 0


def check_feasible_L(problem: VlpProblem, cand: DualCandidateL) -> bool:
    if cand.lam.dim != problem.k or cand.z.dim != problem.m or cand.v.dim != problem.k:
        raise DimensionError("candidate dims do not match the problem")
    return _dual_feasible(problem, cand.lam, cand.z) and cand.lam.dot(cand.v) - cand.z.dot(problem.b) <= 0


def verify_scalarization_certificate(problem: VlpProblem, xbar: QVector, cert: EfficiencyCertificate) -> bool:
    if cert.kind != "efficient-with-scalarization" or cert.lam is None or cert.eta is None:
        return False
    lam, eta = cert.lam, cert.eta
    if any(lam.dot(g) < 1 for g in problem.cone.generators) or not _dual_feasible(problem, lam, -eta):
        return False
    return lam.dot(problem.L @ xbar) + problem.b.dot(eta) == 0
