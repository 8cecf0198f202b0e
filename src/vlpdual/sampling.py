"""Seeded random generators for instances, feasible dual points, and probe
values. All draws are rational and every returned object is exact, so a
fixed seed replays byte-identically.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .cone import ConeError, OrderingCone, in_quasi_interior, make_cone, orthant
from .duality import DualPolyhedron, check_feasible_D, scaled_generator
from .exact import QMatrix, QVector, outer, require, solve_linear_system
from .lp import GeneralProgram, Optimal, Region
from .model import DualCandidateD, VlpProblem, objective_D

def random_rational(rng: random.Random, lo: int = -9, hi: int = 9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice((1, 2, 3)))


def random_vector(rng: random.Random, dim: int, lo: int = -9, hi: int = 9) -> QVector:
    return QVector(tuple(random_rational(rng, lo, hi) for _ in range(dim)))


def random_matrix(rng: random.Random, rows: int, cols: int) -> QMatrix:
    return QMatrix(rows, cols, tuple(random_rational(rng) for _ in range(rows * cols)))


def random_cone(rng: random.Random, k: int) -> OrderingCone:
    """Orthant half the time, otherwise a small random pointed cone."""
    if rng.random() < 0.5:
        return orthant(k)
    for _ in range(20):
        count = rng.randint(2, 4)
        gens = [random_vector(rng, k) for _ in range(count)]
        try:
            return make_cone(k, gens)
        except ConeError:
            continue
    return orthant(k)


def random_problem(rng: random.Random) -> VlpProblem:
    """Desk-scale instance; the right-hand side is biased so that feasible,
    infeasible, and homogeneous primal sets all occur."""
    k = rng.choice((2, 3))
    n = rng.randint(1, 6)
    m = rng.randint(1, 3)
    L = random_matrix(rng, k, n)
    A = random_matrix(rng, m, n)
    roll = rng.random()
    if roll < 0.4:
        seed_point = QVector(tuple(abs(random_rational(rng)) for _ in range(n)))
        b = A @ seed_point
    elif roll < 0.55:
        b = QVector.zeros(m)
    else:
        b = random_vector(rng, m)
    return VlpProblem(L, A, b, random_cone(rng, k))


def sample_quasi_interior(rng: random.Random, cone: OrderingCone, count: int) -> list[QVector]:
    """Points of the dual quasi-interior near the stored witness.

    Candidates are the witness plus nonnegative generator combinations;
    combinations that leave the quasi-interior are rejected, which keeps
    the sampler sound for every pointed cone.
    """
    base = cone.qi_witness
    out = [base]
    attempts = 0
    while len(out) < count and attempts < 8 * count:
        attempts += 1
        lam = base
        for g in cone.generators:
            if rng.random() < 0.5:
                lam = lam + g.scale(abs(random_rational(rng, -4, 4)))
        if in_quasi_interior(cone, lam):
            out.append(lam)
    return out[:count]


def sample_dual_points(
    problem: VlpProblem, rng: random.Random, count: int, polyhedron: DualPolyhedron
) -> list[DualCandidateD]:
    """Feasible points of the vector dual, spread over lam, U, and v.

    The first is `polyhedron.dual_point()`, with polyhedron the problem's
    P. U is built rank-one from a sampled z, optionally bumped by a
    rank-one term orthogonal to lam, which preserves feasibility exactly.
    Each distinct lam's z-set is one Region per call, kept next to a basis
    of lam's orthogonal complement, and a sample is its minimum under a
    random objective: the point one `solve_general` over the same rows
    with that objective gives. Returns fewer than requested (possibly
    none) when the dual is infeasible or nearly so.
    """
    out: list[DualCandidateD] = []
    seeded = polyhedron.dual_point()
    if seeded is None:
        return []
    out.append(seeded)
    lams = sample_quasi_interior(rng, problem.cone, max(4, count // 8))
    per_lam: dict[QVector, tuple[Region, tuple[QVector, ...]]] = {}
    attempts = 0
    while len(out) < count and attempts < 4 * count:
        attempts += 1
        lam = lams[rng.randrange(len(lams))]
        if lam not in per_lam:  # {z : L^T lam - A^T z >= 0} over free z, and {v : lam.v = 0}
            z_set = Region(GeneralProgram(QVector.zeros(problem.m), (-problem.A).T, -(problem.L.T @ lam)))
            ortho = solve_linear_system(QMatrix(1, problem.k, lam.entries), QVector.zeros(1)).nullspace
            per_lam[lam] = (z_set, ortho)
        z_set, ortho = per_lam[lam]
        # drawn also for an empty z-set, so the rng sequence does not depend on it
        objective = random_vector(rng, problem.m, -3, 3)
        if z_set.empty:
            continue
        lowest = z_set.minimize(objective)
        z = lowest.x if isinstance(lowest, Optimal) else lowest.x0
        tilde = scaled_generator(problem.cone, lam)
        U = outer(tilde, z)
        if rng.random() < 0.5:
            w = QVector.zeros(problem.k)
            for vec in ortho:
                w = w + vec.scale(random_rational(rng, -3, 3))
            U = U + outer(w, random_vector(rng, problem.m, -3, 3))
        v = QVector.zeros(problem.k)
        for vec in ortho:
            v = v + vec.scale(random_rational(rng, -4, 4))
        cand = DualCandidateD(lam, U, v)
        require(check_feasible_D(problem, cand), "sampled dual point is feasible for D")
        out.append(cand)
    return out


def sample_primal_points(
    problem: VlpProblem, vertices: list[QVector], rng: random.Random, count: int
) -> list[QVector]:
    """Feasible points: the vertices plus exact convex combinations of them."""
    if not vertices:
        return []
    out = list(vertices)
    while len(out) < count:
        picks = rng.sample(vertices, k=min(len(vertices), rng.randint(1, 3)))
        weights = [rng.randint(1, 9) for _ in picks]
        total = sum(weights)
        point = QVector.zeros(problem.n)
        for w, p in zip(weights, picks):
            point = point + p.scale(Fraction(w, total))
        out.append(point)
    return out[:count]


def sample_probe_values(
    problem: VlpProblem,
    duals: list[DualCandidateD],
    vertices: list[QVector],
    rng: random.Random,
    count: int,
) -> list[QVector]:
    """Image-space values to run the membership oracles on: dual objective
    values, vertex images, and plain random vectors."""
    pool: list[QVector] = []
    for cand in duals:
        pool.append(objective_D(problem, cand))
    for vertex in vertices:
        pool.append(problem.L @ vertex)
    out: list[QVector] = []
    while len(out) < count:
        roll = rng.random()
        if pool and roll < 0.5:
            base = pool[rng.randrange(len(pool))]
            if roll < 0.25:
                base = base + random_vector(rng, problem.k, -2, 2)
            out.append(base)
        else:
            out.append(random_vector(rng, problem.k))
    return out[:count]
