import random
from math import gcd

import pytest

from gkmcalc.errors import DimensionMismatch, SchemaError, ZeroVector
from gkmcalc.intlinalg import (
    IntMatrix,
    canonical_sign,
    kernel_saturated,
    primitive_part,
    rank,
    smith_normal_form,
    solve_with_snf,
)


@pytest.mark.parametrize("entry", [1.7, "3", True, None], ids=["float", "string", "bool", "null"])
def test_intmatrix_rejects_non_int_entries(entry):
    with pytest.raises(SchemaError, match="must be an integer"):
        IntMatrix(1, 2, [1, entry])


def check_snf(A):
    dec = smith_normal_form(A)
    assert dec.U * A * dec.V == dec.S
    assert dec.U.det() in (1, -1)
    assert dec.V.det() in (1, -1)
    diag = dec.diagonal()
    for i in range(A.rows):
        for j in range(A.cols):
            if i != j:
                assert dec.S.at(i, j) == 0
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    return dec


def test_snf_identity():
    I = IntMatrix.identity(2)
    dec = check_snf(I)
    assert dec.S == I and dec.U == I and dec.V == I


def test_snf_2x2_example():
    A = IntMatrix.from_rows([[2, 4], [6, 8]])
    dec = check_snf(A)
    # oracle: d1 = gcd of entries, d1*d2 = |det|
    d1 = gcd(gcd(2, 4), gcd(6, 8))
    assert dec.diagonal() == (d1, abs(A.det()) // d1) == (2, 4)


def test_snf_zero_matrix():
    dec = check_snf(IntMatrix.from_rows([[0]]))
    assert dec.S == IntMatrix.from_rows([[0]])


def test_snf_rejects_empty():
    with pytest.raises(DimensionMismatch):
        smith_normal_form(IntMatrix(0, 0, []))


def test_snf_random_matrices():
    # acceptance criterion 9: factorization, unimodularity, divisibility
    # chain on 1000 random small matrices
    rng = random.Random(20240611)
    for _ in range(1000):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = IntMatrix(m, n, [rng.randint(-9, 9) for _ in range(m * n)])
        check_snf(A)


def test_kernel_forced_up_to_sign():
    assert kernel_saturated(IntMatrix.from_rows([[1, 1]])) == [(1, -1)]


def test_kernel_saturation():
    ker = kernel_saturated(IntMatrix.from_rows([[2, 4]]))
    assert ker == [(2, -1)]
    # oracle: every integer solution of 2x + 4y = 0 in a box is an integer
    # multiple of the basis vector
    for x in range(-8, 9):
        for y in range(-8, 9):
            if 2 * x + 4 * y == 0 and (x, y) != (0, 0):
                q, r = divmod(x, 2)
                assert r == 0 and (x, y) == (2 * q, -q)


def test_kernel_of_identity_empty():
    assert kernel_saturated(IntMatrix.identity(2)) == []


def test_kernel_without_rows_is_everything():
    assert kernel_saturated(IntMatrix(0, 3, [])) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert kernel_saturated(IntMatrix(2, 0, [])) == []


def test_kernel_random_properties():
    rng = random.Random(998877)
    for _ in range(300):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        A = IntMatrix(m, n, [rng.randint(-6, 6) for _ in range(m * n)])
        ker = kernel_saturated(A)
        for v in ker:
            assert all(x == 0 for x in A.apply(v))
        assert len(ker) == n - rank(A)
        if ker:
            K = IntMatrix.from_columns(ker)
            dec = smith_normal_form(K)
            assert all(d == 1 for d in dec.diagonal()[: len(ker)])


def test_solve_identity():
    assert solve_with_snf(smith_normal_form(IntMatrix.identity(2)), [3, 5]) == (3, 5)


def test_solve_parity_obstruction():
    assert solve_with_snf(smith_normal_form(IntMatrix.from_rows([[2]])), [3]) is None


def test_solve_back_substitution():
    assert solve_with_snf(smith_normal_form(IntMatrix.from_rows([[1, 1], [0, 2]])), [1, 2]) == (0, 1)


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_with_snf(smith_normal_form(IntMatrix.identity(2)), [1, 2, 3])


def test_solve_random_roundtrip():
    rng = random.Random(31337)
    for _ in range(1000):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = IntMatrix(m, n, [rng.randint(-6, 6) for _ in range(m * n)])
        x = [rng.randint(-5, 5) for _ in range(n)]
        b = A.apply(x)
        sol = solve_with_snf(smith_normal_form(A), b)
        assert sol is not None
        assert A.apply(sol) == b


def test_solve_none_is_insoluble():
    # brute-force confirmation on small systems
    rng = random.Random(4242)
    checked = 0
    for _ in range(400):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        A = IntMatrix(m, n, [rng.randint(-4, 4) for _ in range(m * n)])
        b = [rng.randint(-6, 6) for _ in range(m)]
        if solve_with_snf(smith_normal_form(A), b) is not None:
            continue
        checked += 1
        box = range(-12, 13)
        if n == 1:
            sols = [(x,) for x in box]
        elif n == 2:
            sols = [(x, y) for x in box for y in box]
        else:
            sols = [(x, y, z) for x in box for y in box for z in box]
        assert all(A.apply(v) != tuple(b) for v in sols)
    assert checked > 20


def test_primitive_part_xray_directions():
    # the p1->p4 and p6->p2 edge directions of the Eschenburg x-ray
    assert primitive_part((4, -4)) == (1, -1)
    assert primitive_part((0, -2)) == (0, -1)
    assert primitive_part((1, 0)) == (1, 0)


def test_primitive_part_zero_vector():
    with pytest.raises(ZeroVector):
        primitive_part((0, 0))


def test_primitive_part_properties():
    rng = random.Random(7)
    for _ in range(500):
        v = tuple(rng.randint(-20, 20) for _ in range(rng.randint(1, 4)))
        if all(x == 0 for x in v):
            continue
        p = primitive_part(v)
        assert primitive_part(p) == p
        assert primitive_part(tuple(-x for x in v)) == tuple(-x for x in p)
        g = 0
        for x in p:
            g = gcd(g, x)
        assert g == 1


def test_canonical_sign():
    assert canonical_sign((0, -2)) == (0, 2)
    assert canonical_sign((-1, 3)) == (1, -3)
    assert canonical_sign((2, 5)) == (2, 5)


def test_inverse_unimodular():
    rng = random.Random(55)
    for _ in range(50):
        # random unimodular: product of elementary matrices
        n = rng.randint(1, 4)
        M = IntMatrix.identity(n).to_rows()
        for _ in range(8):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            c = rng.randint(-3, 3)
            M[i] = [a + c * b for a, b in zip(M[i], M[j])]
        M = IntMatrix.from_rows(M)
        assert M.is_unimodular()
        inv = M.inverse_unimodular()
        assert M * inv == IntMatrix.identity(n)


@pytest.mark.parametrize(
    "rows",
    [
        [[2, 1], [0, 1]],  # determinant 2
        [[1, 2], [2, 4]],  # singular
        [[1, 0, 0], [0, 1, 0]],  # nonsquare
    ],
)
def test_inverse_unimodular_rejects(rows):
    with pytest.raises(DimensionMismatch):
        IntMatrix.from_rows(rows).inverse_unimodular()


def test_rank_of_empty_and_zero_matrices():
    assert rank(IntMatrix(0, 0, [])) == 0
    assert rank(IntMatrix(0, 3, [])) == 0
    assert rank(IntMatrix(3, 0, [])) == 0
    assert rank(IntMatrix(2, 3, [0] * 6)) == 0
