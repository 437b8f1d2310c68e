import operator
import random
from math import gcd

import pytest

from gkmcalc import intlinalg
from gkmcalc.cohomology import CohomologyRing, FixedPointClass, GeneratorBasis, RingElement
from gkmcalc.charclasses import equivariant_char_class
from gkmcalc.errors import DimensionMismatch, NotInSubalgebra, SchemaError, ZeroVector
from gkmcalc.gkm import ESCHENBURG_GENERATORS, builtin
from gkmcalc.polyring import IntPolynomial
from gkmcalc.intlinalg import (
    IntMatrix,
    canonical_sign,
    det_adjugate,
    kernel_saturated,
    primitive_part,
    smith_normal_form,
    solve_with_snf,
)
from helpers import _load_families, kernel_ring, product_of_spheres, random_unimodular


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


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0)])
def test_snf_of_empty_matrices(rows, cols):
    dec = check_snf(IntMatrix(rows, cols, []))
    assert (dec.U, dec.V) == (IntMatrix.identity(rows), IntMatrix.identity(cols))
    assert dec.diagonal() == ()


def test_empty_matrix_inverse_and_solve():
    assert IntMatrix(0, 0, []).inverse_unimodular() == IntMatrix(0, 0, [])
    dec = smith_normal_form(IntMatrix(3, 0, []))
    assert solve_with_snf(dec, [0, 0, 0]) == ()
    assert solve_with_snf(dec, [0, 1, 0]) is None


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
        assert len(ker) == n - smith_normal_form(A, with_u=False).rank()
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
        rows, b = [A.row(i) for i in range(m)], tuple(b)
        assert all(tuple(sum(map(operator.mul, r, v)) for r in rows) != b for v in sols)
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


def test_adjugate_times_the_matrix_is_det_times_identity():
    """The fraction-free adjugate against its definition, on seeded
    nonsingular matrices with many zero entries, so pivots are swapped."""
    rng = random.Random(2024)
    checked = 0
    for _ in range(600):
        n = rng.randint(0, 6)
        B = IntMatrix(n, n, [rng.choice((0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(n * n)])
        det, adj = det_adjugate(B.to_rows())
        assert det == B.det()
        if det == 0:
            continue
        adj = IntMatrix(n, n, [x for r in adj for x in r])
        assert adj * B == B * adj == IntMatrix(n, n, [det * int(i == j) for i in range(n) for j in range(n)])
        checked += 1
    assert checked > 200


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


def cofactor_det(rows):
    """The determinant by expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * x * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


def test_det_matches_cofactor_expansion():
    """Seeded matrices with many zero entries, so rows are swapped and many
    are singular, from 0 x 0 up to 5 x 5."""
    rng = random.Random(424)
    dets = []
    for _ in range(800):
        n = rng.randint(0, 5)
        rows = [[rng.choice((0, 0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(n)] for _ in range(n)]
        dets.append((n, IntMatrix(n, n, [x for r in rows for x in r]).det()))
        assert dets[-1][1] == cofactor_det(rows), rows
    assert {n for n, d in dets if d == 0} >= {1, 2, 3, 4, 5}
    assert {n for n, d in dets if d} == {0, 1, 2, 3, 4, 5}
    assert IntMatrix(0, 0, []).det() == 1 and IntMatrix(1, 1, [-7]).det() == -7
    with pytest.raises(DimensionMismatch):
        IntMatrix(1, 2, [1, 0]).det()


@pytest.mark.parametrize("rows", [[[0]], [[1, 2], [2, 4]], [[0, 1, 0], [0, 2, 0], [1, 0, 0]], [[1, 1, 1], [1, 1, 1], [0, 0, 0]]])
def test_singular_matrix_has_det_zero_and_no_adjugate(rows):
    assert det_adjugate(rows) == (0, None)
    assert IntMatrix.from_rows(rows).det() == 0


@pytest.mark.parametrize("family, param", [("cp", 4), ("cp1^", 3), ("surface", 8)])
def test_inverse_unimodular_matches_the_smith_inverse(monkeypatch, family, param):
    """On each quotient U that the kernel path inverts for an unsigned
    graph, the inverse is V * U from U's own Smith form, and forming it runs
    no Smith form. These U are sparse with +-1 pivots, so the elimination
    skips most rows at most steps."""
    seen, inverse = [], IntMatrix.inverse_unimodular
    with monkeypatch.context() as patch:
        patch.setattr(IntMatrix, "inverse_unimodular", lambda self: seen.append((self, inverse(self))) or seen[-1][1])
        families = _load_families()
        ring = kernel_ring(families.build(family, param).unsigned())
        assert ring.path == "kernel"
        assert [ring.betti(d) for d in range(0, ring.dim + 1, 2)] == families.oracle(family, param)["betti"]
    assert len(seen) == ring.dim // 2 + 1 and max(u.rows for u, _ in seen) >= 38
    for u, inv in seen:
        dec = smith_normal_form(u)
        assert dec.S == IntMatrix.identity(u.rows)
        assert inv == dec.V * dec.U
    monkeypatch.setattr(intlinalg, "smith_normal_form", lambda *a, **kw: pytest.fail("a Smith form ran"))
    assert all(u.inverse_unimodular() == inv for u, inv in seen)


def test_det_and_inverse_run_no_smith_form(monkeypatch):
    monkeypatch.setattr(intlinalg, "smith_normal_form", lambda *a, **kw: pytest.fail("a Smith form ran"))
    rng = random.Random(99)
    for n in range(5):
        m = random_unimodular(rng, n) if n else IntMatrix(0, 0, [])
        assert m.is_unimodular() and m.det() in (1, -1)
        assert m * m.inverse_unimodular() == IntMatrix.identity(n)
    with pytest.raises(DimensionMismatch):
        IntMatrix.from_rows([[2, 1], [0, 1]]).inverse_unimodular()


def test_generator_basis_rejects_coordinates_of_the_wrong_length():
    esc = builtin("eschenburg")
    ring = CohomologyRing(esc)
    classes = [FixedPointClass.from_strings(esc, ESCHENBURG_GENERATORS[n]) for n in ("X1", "X2")]
    gens = GeneratorBasis(ring, ["X1", "X2"], classes)
    assert gens.to_poly(ring.express(classes[1], 2)) == IntPolynomial.variable(2, 1)
    for coords in [(1,), (1, 0, 0)]:
        with pytest.raises(DimensionMismatch):
            gens.to_poly(RingElement(2, coords))


def test_rank_of_empty_and_zero_matrices():
    assert smith_normal_form(IntMatrix(0, 0, []), with_u=False).rank() == 0
    assert smith_normal_form(IntMatrix(0, 3, []), with_u=False).rank() == 0
    assert smith_normal_form(IntMatrix(3, 0, []), with_u=False).rank() == 0
    assert smith_normal_form(IntMatrix(2, 3, [0] * 6), with_u=False).rank() == 0


# -- the engine against full-work reference implementations -------------------
#
# The engine stops its pivot scan at the first +-1, builds no U for kernels
# and ranks, and forms only the first rank(S) rows of U*b in a solve. The
# references below do all of that work, as the engine once did; every output
# must be identical.


def _full_scan_pivot(s, t, m, n):
    """Smallest |nonzero| entry of s[t:, t:]; ties broken by (row, col)."""
    best = None
    for i in range(t, m):
        for j in range(t, n):
            v = s[i][j]
            if v != 0 and (best is None or abs(v) < abs(s[best[0]][best[1]])):
                best = (i, j)
    return best


def _full_u_solve(dec, b):
    """Some integer x with A*x = b, from every row of U*b, or None."""
    m, n = dec.U.rows, dec.V.rows
    c = dec.U.apply(b)
    y = [0] * n
    for i in range(m):
        d = dec.S.at(i, i) if i < n else 0
        if d:
            if c[i] % d:
                return None
            y[i] = c[i] // d
        elif c[i] != 0:
            return None
    return dec.V.apply(y)


def _row_test_express_mod2(ring, components, degree):
    """express_mod2 testing every row of U*b for parity."""
    from gkmcalc.cohomology import FixedPointClass

    vec = [x % 2 for x in ring._class_to_vec(FixedPointClass(ring.graph, components), degree)]
    basis = ring.gkm_basis(degree)
    ncols = len(basis)
    dec = smith_normal_form(IntMatrix.from_columns([ring._class_to_vec(c, degree) for c in basis]))
    proj = IntMatrix.from_columns([ring.express(c, degree).coords for c in basis])
    diag = dec.diagonal()
    y = [0] * ncols
    for i, c in enumerate(dec.U.apply(vec)):
        if i < len(diag) and diag[i] % 2:
            y[i] = c % 2
        elif c % 2:
            raise NotInSubalgebra("mod-2 class outside the mod-2 subalgebra in degree %d" % degree)
    for j in range(ncols):
        if diag[j] % 2 == 0:
            if any(x % 2 for x in proj.apply(dec.V.column(j))):
                raise NotInSubalgebra(
                    "mod-2 descent is ambiguous in degree %d (imprimitive weights?)" % degree
                )
    return tuple(x % 2 for x in proj.apply(dec.V.apply(y)))


def _random_matrix(rng):
    m, n = rng.randint(1, 9), rng.randint(1, 9)
    density = rng.choice((0.2, 0.5, 1.0))
    spread = rng.choice((1, 3, 9))
    entries = [rng.randint(-spread, spread) if rng.random() < density else 0 for _ in range(m * n)]
    return IntMatrix(m, n, entries)


def test_engine_matches_full_work_reference(monkeypatch):
    rng = random.Random(20261018)
    cases = []
    for _ in range(500):
        A = _random_matrix(rng)
        x = [rng.randint(-4, 4) for _ in range(A.cols)]
        rhs = [A.apply(x), [rng.randint(-9, 9) for _ in range(A.rows)]]
        cases.append((A, rhs, smith_normal_form(A), smith_normal_form(A, with_u=False),
                      kernel_saturated(A)))
    monkeypatch.setattr(intlinalg, "_find_pivot", _full_scan_pivot)
    insoluble = 0
    for A, rhs, dec, lean, kernel in cases:
        ref = smith_normal_form(A)
        assert (dec.U, dec.S, dec.V) == (ref.U, ref.S, ref.V)
        assert (lean.U, lean.S, lean.V) == (None, ref.S, ref.V)
        assert kernel == [canonical_sign(ref.V.column(j)) for j in range(ref.rank(), A.cols)]
        for b in rhs:
            want = _full_u_solve(ref, b)
            insoluble += want is None
            assert solve_with_snf(dec, b) == want
    assert insoluble > 100


def _express_mod2_outcome(express, ring, components, degree):
    try:
        return express(ring, components, degree)
    except NotInSubalgebra as exc:
        return str(exc)


@pytest.mark.parametrize("which", ["eschenburg", "imprimitive"])
def test_express_mod2_matches_row_test(which):
    g = builtin("eschenburg") if which == "eschenburg" else product_of_spheres([(2, 0), (0, 1), (1, 1)])
    ring = CohomologyRing(g)
    sw = equivariant_char_class(g, "stiefel_whitney")
    rng = random.Random(11)
    outcomes = set()
    for d in range(0, ring.dim + 1, 2):
        basis = ring.gkm_basis(d)
        inputs = [c.components for c in basis] + [sw.homogeneous_component(d).components]
        # combinations of basis classes, and each with one vertex moved by a
        # degree-d monomial, which may leave the mod-2 subalgebra
        bump = IntPolynomial.variable(g.torus_rank, 0) ** (d // 2)
        for _ in range(20):
            c = basis[0] * 0
            for b in basis:
                c = c + b * rng.randint(-3, 3)
            comps = list(c.components)
            inputs.append(comps)
            i = rng.randrange(len(comps))
            inputs.append(comps[:i] + [comps[i] + bump] + comps[i + 1:])
        for comps in inputs:
            got = _express_mod2_outcome(CohomologyRing.express_mod2, ring, comps, d)
            assert got == _express_mod2_outcome(_row_test_express_mod2, ring, comps, d)
            outcomes.add(got if isinstance(got, str) else "solved")
    assert "solved" in outcomes
    assert any("outside" in o for o in outcomes)
    if which == "imprimitive":
        assert any("ambiguous" in o for o in outcomes)
