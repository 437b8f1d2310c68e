import random

import pytest

from gkmcalc.errors import DimensionMismatch, SchemaError
from gkmcalc.intlinalg import IntMatrix
from gkmcalc.polyring import (
    MAX_NESTING,
    IntPolynomial,
    PolynomialSyntaxError,
    divide_by_linear,
    int_digit_limit,
    monomials,
    parse_polynomial,
)
from helpers import linear_substitute

YY = ["Y1", "Y2"]


def P(text, names=YY):
    return parse_polynomial(text, names)


def random_poly(rng, k, max_terms=5, max_exp=3, max_coeff=9):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(k))
        terms[exps] = rng.randint(-max_coeff, max_coeff)
    return IntPolynomial(k, terms)


def random_linear(rng, k):
    while True:
        coeffs = [rng.randint(-4, 4) for _ in range(k)]
        if any(coeffs):
            return IntPolynomial.linear_form(coeffs)


def test_add_zero_identity():
    p = P("3*Y1^2 - Y2")
    assert p + IntPolynomial.zero(2) == p


def test_forced_expansion():
    assert P("(1 + Y1)*(1 + Y1 - Y2)") == P("1 + 2*Y1 - Y2 + Y1^2 - Y1*Y2")


def test_degree2_part_of_p1_chern_factors():
    # the three factors at the first Eschenburg fixed point
    prod = P("(1 + Y1)*(1 + Y1 - Y2)*(1 + 2*Y1 - Y2)")
    assert prod.homogeneous_component(2) == P("4*Y1 - 2*Y2")


def test_grading_is_cohomological():
    p = P("Y1*Y2 + Y1^3")
    assert p.degrees() == [4, 6]
    assert p.homogeneous_component(4) == P("Y1*Y2")
    assert not p.is_homogeneous()
    assert P("Y1^2 + Y1*Y2").is_homogeneous(4)


def test_cauchy_product_rule():
    rng = random.Random(11)
    for _ in range(100):
        a = random_poly(rng, 2)
        b = random_poly(rng, 2)
        prod = a * b
        degs = set(a.degrees()) | set(b.degrees()) | set(prod.degrees())
        top = max(degs, default=0)
        for d in range(0, 2 * top + 2, 2):
            expected = IntPolynomial.zero(2)
            for i in range(0, d + 2, 2):
                expected = expected + a.homogeneous_component(i) * b.homogeneous_component(d - i)
            assert prod.homogeneous_component(d) == expected


def test_linear_substitute_identity():
    p = P("5*Y1^2*Y2 - 3*Y2")
    assert linear_substitute(p, IntMatrix.identity(2)) == p


def test_linear_substitute_negation_even_degree():
    p = P("Y1*Y2")
    minus = IntMatrix.from_rows([[-1, 0], [0, -1]])
    assert linear_substitute(p, minus) == p


def test_linear_substitute_shear():
    shear = IntMatrix.from_rows([[1, 0], [1, 1]])  # Y1 -> Y1 + Y2, Y2 -> Y2
    assert linear_substitute(P("Y1"), shear) == P("Y1 + Y2")
    assert linear_substitute(P("Y2"), shear) == P("Y2")


def test_linear_substitute_is_ring_hom():
    rng = random.Random(12)
    for _ in range(60):
        p = random_poly(rng, 2)
        q = random_poly(rng, 2)
        B = IntMatrix(2, 2, [rng.randint(-3, 3) for _ in range(4)])
        assert linear_substitute(p * q, B) == linear_substitute(p, B) * linear_substitute(q, B)
        assert linear_substitute(p + q, B) == linear_substitute(p, B) + linear_substitute(q, B)


def test_pow_is_the_repeated_product():
    rng = random.Random(13)
    polys = [IntPolynomial.zero(2), IntPolynomial.constant(2, -3), P("Y1 - 2*Y2"), P("Y1^2 + 3*Y1*Y2 - 1")]
    polys += [random_poly(rng, k) for k in (0, 1, 2, 3)]
    for p in polys:
        expected = IntPolynomial.constant(p.k, 1)
        for n in range(9):
            assert p ** n == expected
            expected = expected * p
    for n in (True, -1, 2.0):
        with pytest.raises(ValueError):
            P("Y1") ** n


def naive_substitute(p, images, kk):
    """Term by term, each power a chain of products."""
    out = IntPolynomial.zero(kk)
    for exps, c in p.terms.items():
        term = IntPolynomial.constant(kk, c)
        for image, e in zip(images, exps):
            for _ in range(e):
                term = term * image
        out = out + term
    return out


def test_substitute_matches_term_by_term_expansion():
    rng = random.Random(14)
    for _ in range(300):
        k = rng.randint(0, 3)
        kk = rng.randint(0, 3) if k else 0  # no images: a 0-variable target
        p = random_poly(rng, k, max_exp=4) if rng.random() < 0.9 else IntPolynomial.zero(k)
        images = [random_poly(rng, kk, max_terms=3, max_exp=2) for _ in range(k)]
        assert p.substitute(images) == naive_substitute(p, images, kk)
        assert p.substitute(images).k == kk
        assert 0 not in p.substitute(images).terms.values()
    p = P("Y1^4*Y2 - 2*Y2^3 + 5")
    assert p.substitute([IntPolynomial.constant(0, 2), IntPolynomial.constant(0, -1)]) == IntPolynomial.constant(0, -9)
    assert IntPolynomial.constant(0, 7).substitute([]) == IntPolynomial.constant(0, 7)
    assert IntPolynomial.zero(0).substitute([]).terms == {}


def test_substitute_rejects_mismatched_images():
    p = P("Y1*Y2")
    with pytest.raises(DimensionMismatch):
        p.substitute([P("Y1")])
    with pytest.raises(DimensionMismatch):
        p.substitute([P("Y1"), P("Y1"), P("Y2")])
    with pytest.raises(DimensionMismatch):
        p.substitute([P("Y1"), IntPolynomial.variable(3, 0)])


def test_sub_is_adding_the_negation():
    rng = random.Random(15)
    for _ in range(200):
        k = rng.randint(0, 3)
        a, b, n = random_poly(rng, k), random_poly(rng, k), rng.randint(-5, 5)
        assert a - b == a + (-b)
        assert a - n == a + (-n)
        assert n - a == (-a) + n
        assert (a - a).terms == {}
        assert 0 not in (a - b).terms.values()
    with pytest.raises(DimensionMismatch):
        P("Y1") - IntPolynomial.variable(3, 0)
    with pytest.raises(DimensionMismatch):
        IntPolynomial.variable(3, 0) - P("Y1")


def test_divide_difference_of_squares():
    assert divide_by_linear(P("Y1^2 - Y2^2"), P("Y1 - Y2")) == P("Y1 + Y2")


def test_divide_edge_congruence_from_fixed_point_data():
    # components of the first generator class across the p1-p6 edge
    diff = P("(Y1 - Y2) - (-Y2)")
    assert divide_by_linear(diff, P("Y1")) == P("1")


def test_divide_inexact_is_none():
    assert divide_by_linear(P("Y1"), P("Y2")) is None
    assert divide_by_linear(P("Y1^2"), P("2*Y1")) is None


def test_divide_mod2():
    # 3*Y1^2 + Y1*Y2 = Y1 * (Y1 + 3*Y2) over F_2 only
    assert divide_by_linear(P("3*Y1^2 + Y1*Y2"), P("Y1 + 3*Y2")) is None
    assert divide_by_linear(P("3*Y1^2 + Y1*Y2"), P("Y1 + 3*Y2"), mod2=True) == P("Y1")
    with pytest.raises(ValueError):
        divide_by_linear(P("Y1"), P("2*Y1"), mod2=True)
    assert divide_by_linear(P("Y1 + Y2"), P("Y2"), mod2=True) is None


def test_divide_rejects_bad_divisor():
    with pytest.raises(ValueError):
        divide_by_linear(P("Y1"), IntPolynomial.zero(2))
    with pytest.raises(ValueError):
        divide_by_linear(P("Y1"), P("Y1^2"))


def test_divide_roundtrip_1000():
    # acceptance criterion 9
    rng = random.Random(600673)
    done = 0
    while done < 1000:
        k = rng.choice((2, 3))
        q = random_poly(rng, k)
        ell = random_linear(rng, k)
        got = divide_by_linear(q * ell, ell)
        assert got == q
        done += 1


@pytest.mark.parametrize(
    "terms",
    [{(1, 0): 2.7}, {(1, 0): 2.0}, {(1, 0): True}, {(1, 0): "3"},
     {(0.9, 1.2): 3}, {(True, 0): 1}, {"10": 1}, {(1, -1): 1}, {(1, 0, 0): 1}],
    ids=["float-coefficient", "integral-float-coefficient", "bool-coefficient", "string-coefficient",
         "float-exponents", "bool-exponent", "string-exponents", "negative-exponent", "wrong-length"],
)
def test_constructor_rejects_non_integer_terms(terms):
    with pytest.raises(SchemaError):
        IntPolynomial(2, terms)


def test_mod2_examples():
    assert P("2*Y1").mod2().is_zero()
    assert P("1 + Y1 - Y2").mod2() == P("1 + Y1 + Y2").mod2()
    # Prop 5: c1 = 4*X1 + 2*X2 has trivial mod-2 reduction
    assert parse_polynomial("4*X1 + 2*X2", ["X1", "X2"]).mod2().is_zero()


def test_mod2_is_ring_hom():
    rng = random.Random(13)
    for _ in range(80):
        p = random_poly(rng, 2)
        q = random_poly(rng, 2)
        assert (p * q).mod2() == (p.mod2() * q.mod2()).mod2()
        assert (p + q).mod2() == (p.mod2() + q.mod2()).mod2()


def test_mod2_polynomial_basics():
    a = P("Y1 + Y2").mod2()
    assert (a + a).mod2().is_zero()
    sq = (a * a).mod2()
    assert sq == P("Y1^2 + Y2^2")  # Frobenius: cross term cancels


def test_monomials_order():
    assert monomials(2, 4) == [(2, 0), (1, 1), (0, 2)]
    assert monomials(2, 0) == [(0, 0)]
    assert monomials(2, 3) == []


def test_render_canonical():
    assert P("4*Y1 + 2*Y2").render() == "4*Y1 + 2*Y2"
    assert parse_polynomial("-6*X1^2*X2", ["X1", "X2"]).render(["X1", "X2"]) == "-6*X1^2*X2"
    assert P("Y2 + Y1").render() == "Y1 + Y2"
    assert IntPolynomial.zero(2).render() == "0"
    total = P("6*Y1^2 + 1 + 4*Y1 + 6*Y1*Y2")
    assert total.render() == "1 + 4*Y1 + 6*Y1^2 + 6*Y1*Y2"


def test_parse_render_roundtrip():
    rng = random.Random(14)
    for _ in range(200):
        p = random_poly(rng, 2)
        assert parse_polynomial(p.render(), YY) == p


def test_parse_bounds_literals_and_nesting():
    limit = int_digit_limit()
    assert parse_polynomial("1" * limit, YY) == IntPolynomial.constant(2, int("1" * limit))
    assert parse_polynomial("(" * MAX_NESTING + "Y1" + ")" * MAX_NESTING, YY) == parse_polynomial("Y1", YY)
    assert parse_polynomial("Y1*" + "-" * MAX_NESTING + "Y1", YY) == parse_polynomial("Y1^2", YY)
    for text in ("1" * (limit + 1), "(" * (MAX_NESTING + 1) + "Y1" + ")" * (MAX_NESTING + 1),
                 "Y1*" + "-" * (MAX_NESTING + 1) + "Y1"):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial(text, YY)


def test_parse_bounds_coefficients_of_products():
    limit = int_digit_limit()
    big = "9^%d" % (limit // 2)  # about half the limit in digits
    assert parse_polynomial(big + "*Y1", YY) == IntPolynomial.constant(2, 9 ** (limit // 2)) * parse_polynomial("Y1", YY)
    with pytest.raises(PolynomialSyntaxError, match="digits"):
        parse_polynomial("*".join([big] * 3), YY)


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_polynomial("Y1 +", YY)
    with pytest.raises(ValueError):
        parse_polynomial("Z9", YY)
    with pytest.raises(ValueError):
        parse_polynomial("(Y1", YY)
