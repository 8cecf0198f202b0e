from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from vlpdual.exact import (
    DimensionError,
    QMatrix,
    QVector,
    format_rational,
    outer,
    parse_rational,
    qmat,
    qvec,
    solve_linear_system,
)

small_fractions = st.fractions(
    min_value=-9, max_value=9, max_denominator=3
)


# Rational normalization: parse_rational("p/q") returns lowest terms with
# the sign on the numerator, and rejects a zero denominator as bad input.

def test_rat_normalize_reduces():
    assert parse_rational("2/4") == Fraction(1, 2)


def test_rat_normalize_sign_on_numerator():
    r = parse_rational("3/-6")
    assert r == Fraction(-1, 2)
    assert r.denominator == 2 and r.numerator == -1


def test_rat_normalize_zero():
    r = parse_rational("0/7")
    assert r.numerator == 0 and r.denominator == 1


def test_rat_normalize_zero_denominator():
    with pytest.raises(ValueError, match="not a rational"):
        parse_rational("1/0")


@given(st.integers(-50, 50), st.integers(-50, 50).filter(bool), st.integers(-20, 20).filter(bool))
def test_rat_normalize_canonical(p, q, r):
    assert parse_rational(f"{p * r}/{q * r}") == parse_rational(f"{p}/{q}")


@given(small_fractions, small_fractions, small_fractions)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize(
    "text,expected",
    [("1/2", Fraction(1, 2)), ("-3/6", Fraction(-1, 2)), ("7", Fraction(7)), ("-7", Fraction(-7)), (4, Fraction(4))],
)
def test_parse_rational(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize("bad", ["0.5", "1.5/2", "x", 0.5, None, True])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@given(small_fractions)
def test_format_parse_roundtrip(a):
    assert parse_rational(format_rational(a)) == a


def test_vector_ops():
    v = qvec(1, 2)
    w = qvec("1/2", -1)
    assert v + w == qvec("3/2", 1)
    assert v - w == qvec("1/2", 3)
    assert (-v) == qvec(-1, -2)
    assert v.dot(w) == Fraction(-3, 2)
    assert v.scale(Fraction(1, 2)) == qvec("1/2", 1)
    assert not w.is_nonneg() and v.is_nonneg()


def test_vector_dim_mismatch():
    with pytest.raises(DimensionError):
        qvec(1, 2) + qvec(1, 2, 3)


def test_matrix_transpose():
    assert qmat([[1, 2], [3, 4]]).T == qmat([[1, 3], [2, 4]])


def test_zero_matrix_rank():
    assert qmat([[0, 0], [0, 0]]).rank() == 0


def test_reduced_map_r5_shape():
    # L - U A with L = 0 (2x1), U = 0 (2x2), A = (1,1)^T stays the 2x1 zero map
    L = QMatrix.zeros(2, 1)
    U = QMatrix.zeros(2, 2)
    A = qmat([[1], [1]])
    assert (L - U @ A) == QMatrix.zeros(2, 1)


def test_identity_matmul():
    m = qmat([[1, 2], [3, 4]])
    assert QMatrix.identity(2) @ m == m
    assert m @ qvec(1, 1) == qvec(3, 7)


@given(st.integers(1, 4), st.integers(0, 4), st.integers(1, 4), st.data())
def test_matmul_matches_entrywise_definition(rows, inner, cols, data):
    # Shapes include 1 x n, n x 1 and inner dimension 0 (an all-zero product).
    def draw(r, c):
        return QMatrix(r, c, tuple(data.draw(st.lists(small_fractions, min_size=r * c, max_size=r * c))))

    a, b = draw(rows, inner), draw(inner, cols)
    product = a @ b
    assert (product.rows, product.cols) == (rows, cols)
    for i in range(rows):
        for j in range(cols):
            expected = sum((a.at(i, t) * b.at(t, j) for t in range(inner)), Fraction(0))
            assert type(product.at(i, j)) is Fraction and product.at(i, j) == expected
    if inner:
        v = QVector(tuple(data.draw(st.lists(small_fractions, min_size=inner, max_size=inner))))
        image = a @ v
        assert all(type(e) is Fraction for e in image)
        assert image.entries == tuple(
            sum((a.at(i, t) * v[t] for t in range(inner)), Fraction(0)) for i in range(rows)
        )


def test_matmul_dim_mismatch():
    with pytest.raises(DimensionError):
        qmat([[1, 2]]) @ qmat([[1, 2]])
    with pytest.raises(DimensionError):
        qmat([[1, 2]]) @ qvec(1, 2, 3)


def test_outer():
    assert outer(qvec(1, 2), qvec(3, 4)) == qmat([[3, 4], [6, 8]])


def test_values_are_immutable():
    import dataclasses

    with pytest.raises(dataclasses.FrozenInstanceError):
        qvec(1, 2).entries = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        qmat([[1]]).rows = 2


@given(st.lists(st.lists(small_fractions, min_size=3, max_size=3), min_size=1, max_size=4))
def test_rank_matches_plain_elimination(rows):
    m = QMatrix.from_rows(rows)
    # reference: plain Gauss elimination over Fraction, no fraction-free tricks
    work = [list(r) for r in m.to_lists()]
    rank = 0
    for c in range(m.cols):
        piv = next((i for i in range(rank, m.rows) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(rank + 1, m.rows):
            f = work[i][c] / work[rank][c]
            work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    assert m.rank() == rank


def test_solve_identity():
    sol = solve_linear_system(QMatrix.identity(2), qvec(3, 5))
    assert sol is not None
    assert sol.particular == qvec(3, 5)
    assert sol.nullspace == ()


def test_solve_underdetermined():
    m = qmat([[1, 1]])
    sol = solve_linear_system(m, qvec(1))
    assert sol is not None
    assert sol.particular == qvec(1, 0)
    assert len(sol.nullspace) == 1
    null = sol.nullspace[0]
    assert not null.is_zero()
    assert (m @ null).is_zero()


def test_solve_inconsistent():
    assert solve_linear_system(qmat([[1, 0], [1, 0]]), qvec(1, 2)) is None


def test_solve_dim_mismatch():
    with pytest.raises(DimensionError):
        solve_linear_system(QMatrix.identity(2), qvec(1, 2, 3))


@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_solve_roundtrip(rows, cols, data):
    entries = data.draw(
        st.lists(small_fractions, min_size=rows * cols, max_size=rows * cols)
    )
    rhs_entries = data.draw(st.lists(small_fractions, min_size=rows, max_size=rows))
    m = QMatrix(rows, cols, tuple(entries))
    rhs = QVector(tuple(rhs_entries))
    sol = solve_linear_system(m, rhs)
    if sol is None:
        # independent consistency oracle: augmenting must raise the rank
        aug = QMatrix(
            rows, cols + 1,
            tuple(v for i in range(rows) for v in (*(m.row(i).entries), rhs[i])),
        )
        assert aug.rank() == m.rank() + 1
    else:
        assert (m @ sol.particular) == rhs
        for null in sol.nullspace:
            assert (m @ null).is_zero()
        assert len(sol.nullspace) == cols - m.rank()
