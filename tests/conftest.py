import pytest

from vlpdual.cone import orthant
from vlpdual.exact import QMatrix, qmat, qvec
from vlpdual.model import VlpProblem


@pytest.fixture
def r5_problem():
    # n=1, k=2, m=2, zero objective matrix, infeasible primal
    return VlpProblem(QMatrix.zeros(2, 1), qmat([[1], [1]]), qvec(-1, -1), orthant(2))


@pytest.fixture
def zb_problem():
    # homogeneous rhs; image of the feasible set is the line {(t, -t)}
    return VlpProblem(qmat([[-1, 1], [1, -1]]), QMatrix.zeros(1, 2), qvec(0), orthant(2))


@pytest.fixture
def seg_problem():
    # unit segment; both vertices efficient
    return VlpProblem(QMatrix.identity(2), qmat([[1, 1]]), qvec(1), orthant(2))


@pytest.fixture
def widened_problem():
    # third column dominated: L x for x = (0,0,1) is (1,1)
    return VlpProblem(qmat([[1, 0, 1], [0, 1, 1]]), qmat([[1, 1, 1]]), qvec(1), orthant(2))
