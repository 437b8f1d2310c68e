"""Graded multivariate polynomial arithmetic over Z.

Each variable carries cohomological degree 2, so a monomial with exponent
sum e sits in degree 2e; every degree argument in the public interface is a
cohomological (even) degree. Terms map exponent tuples to nonzero
coefficients; the zero polynomial has no terms. A mod-2 value, such as a
Stiefel-Whitney class, is carried as its integer lift with coefficients 0
and 1 (`IntPolynomial.mod2`).
"""

import math
import operator
import re

from .errors import DimensionMismatch, GkmError, SchemaError, int_digit_limit


def monomials(k, degree):
    """Exponent tuples of cohomological degree `degree` in k variables,
    in descending lexicographic order (graded-lex within one degree)."""
    if degree < 0 or degree % 2:
        return []
    total = degree // 2

    def gen(nvars, s):
        if nvars == 1:
            yield (s,)
            return
        for first in range(s, -1, -1):
            for rest in gen(nvars - 1, s - first):
                yield (first,) + rest

    if k == 0:
        return [()] if total == 0 else []
    return list(gen(k, total))


def _mul_terms(a, b):
    """The product of two term dicts; zero coefficients may remain."""
    terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(operator.add, e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2
    return terms


def _term_sort_key(exps):
    # ascending total degree, then descending lex inside a degree
    return (sum(exps), tuple(-e for e in exps))


class IntPolynomial:
    """Sparse integer polynomial in k commuting variables."""

    __slots__ = ("k", "terms")

    def __init__(self, k, terms=None):
        self.k = k
        clean = {}
        for exps, c in (terms or {}).items():
            if type(c) is not int:
                raise SchemaError("coefficient %r must be an integer" % (c,))
            if type(exps) is not tuple or len(exps) != k or not all(type(e) is int and e >= 0 for e in exps):
                raise SchemaError("bad exponent tuple %r for %d variables" % (exps, k))
            if c:
                clean[exps] = c
        self.terms = clean

    @classmethod
    def _of(cls, k, terms):
        """A polynomial the library builds itself: zero coefficients are
        dropped, and the per-term checks of the constructor are skipped."""
        p = object.__new__(cls)
        p.k = k
        p.terms = {e: c for e, c in terms.items() if c}
        return p

    @classmethod
    def zero(cls, k):
        return cls._of(k, {})

    @classmethod
    def constant(cls, k, c):
        return cls._of(k, {(0,) * k: c})

    @classmethod
    def variable(cls, k, i):
        exps = [0] * k
        exps[i] = 1
        return cls(k, {tuple(exps): 1})

    @classmethod
    def linear_form(cls, coeffs):
        """Sum c_i * Y_i from an integer vector."""
        coeffs = list(coeffs)
        k = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                exps = [0] * k
                exps[i] = 1
                terms[tuple(exps)] = c
        return cls._of(k, terms)

    def _check(self, other):
        if self.k != other.k:
            raise DimensionMismatch(
                "polynomials in %d and %d variables" % (self.k, other.k)
            )

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPolynomial.constant(self.k, other)
        return (
            isinstance(other, IntPolynomial)
            and self.k == other.k
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.k, frozenset(self.terms.items())))

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPolynomial.constant(self.k, other)
        self._check(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            terms[exps] = terms.get(exps, 0) + c
        return IntPolynomial._of(self.k, terms)

    __radd__ = __add__

    def __neg__(self):
        return IntPolynomial._of(self.k, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPolynomial.constant(self.k, other)
        self._check(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            terms[exps] = terms.get(exps, 0) - c
        return IntPolynomial._of(self.k, terms)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial._of(self.k, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        return IntPolynomial._of(self.k, _mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n):
        if type(n) is not int or n < 0:  # bool is an int, and not an exponent
            raise ValueError("exponent must be a nonnegative integer")
        out, base = IntPolynomial.constant(self.k, 1), self
        while n:
            if n & 1:
                out = out * base
            if n := n >> 1:
                base = base * base
        return out

    def degrees(self):
        """Sorted cohomological degrees with a nonzero part."""
        return sorted({2 * sum(e) for e in self.terms})

    def degree(self):
        """Top cohomological degree, or None for the zero polynomial."""
        ds = self.degrees()
        return ds[-1] if ds else None

    def is_homogeneous(self, degree=None):
        ds = self.degrees()
        if degree is None:
            return len(ds) <= 1
        return ds == [] or ds == [degree]

    def homogeneous_component(self, degree):
        if degree % 2:
            return IntPolynomial.zero(self.k)
        s = degree // 2
        return IntPolynomial._of(self.k, {e: c for e, c in self.terms.items() if sum(e) == s})

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), 0)

    def evaluate(self, point):
        """The value at an integer point, one coordinate per variable."""
        return sum(c * math.prod(map(pow, point, exps)) for exps, c in self.terms.items())

    def substitute(self, images):
        """Substitute images[i] for variable i; images live in any common
        variable count."""
        images = list(images)
        if len(images) != self.k:
            raise DimensionMismatch("need %d images, got %d" % (self.k, len(images)))
        kk = images[0].k if images else 0
        if any(p.k != kk for p in images):
            raise DimensionMismatch("substitution images disagree on variables")
        out, powers = {}, [[None, p.terms] for p in images]  # powers[i][e]: images[i] ** e, grown on demand
        for exps, c in self.terms.items():
            term = {(0,) * kk: c}
            for i, e in enumerate(exps):
                if e:
                    while len(powers[i]) <= e:
                        powers[i].append(_mul_terms(powers[i][-1], powers[i][1]))
                    term = _mul_terms(term, powers[i][e])
            for m, v in term.items():
                out[m] = out.get(m, 0) + v
        return IntPolynomial._of(kk, out)

    def mod2(self):
        """Coefficientwise reduction Z -> Z/2, as the integer lift with
        coefficients 0 and 1 (a ring homomorphism after reducing again)."""
        return IntPolynomial._of(self.k, {e: c % 2 for e, c in self.terms.items()})

    def render(self, names=None):
        return render_terms(self.k, self.terms, names)

    def __repr__(self):
        return "IntPolynomial(%r)" % self.render()


def divide_by_linear(p, ell, mod2=False):
    """Exact quotient p / ell over Z[Y1..Yk], or None; over F_2[Y1..Yk]
    when mod2, with 0/1 lifts in and out.

    ell must be a nonzero homogeneous linear form (cohomological degree 2),
    nonzero mod 2 when mod2. Division proceeds by cancelling leading terms
    in a lex order that puts ell's pivot variable first; any step where the
    leading coefficient is not divisible proves inexactness.
    """
    if mod2:
        p, ell = p.mod2(), ell.mod2()
    if ell.is_zero() or not ell.is_homogeneous(2):
        raise ValueError("divisor must be a nonzero linear form")
    pivot = None
    pivot_coeff = 0
    for exps, c in ell.terms.items():
        j = exps.index(1)
        if pivot is None or j < pivot:
            pivot, pivot_coeff = j, c
    order = [pivot] + [j for j in range(p.k) if j != pivot]

    def key(exps):
        return tuple(exps[j] for j in order)

    quotient = {}
    rem = dict(p.terms)
    while rem:
        lead = max(rem, key=key)
        c = rem[lead]
        if lead[pivot] == 0 or c % pivot_coeff:
            return None
        qexps = list(lead)
        qexps[pivot] -= 1
        qexps = tuple(qexps)
        qc = c // pivot_coeff
        quotient[qexps] = quotient.get(qexps, 0) + qc
        for exps, cc in ell.terms.items():
            e = tuple(a + b for a, b in zip(qexps, exps))
            nv = rem.get(e, 0) - qc * cc
            if mod2:
                nv %= 2
            if nv:
                rem[e] = nv
            else:
                rem.pop(e, None)
    return IntPolynomial._of(p.k, quotient)


def default_names(k, prefix="Y"):
    return ["%s%d" % (prefix, i + 1) for i in range(k)]


def render_terms(k, terms, names=None):
    """Canonical text form: terms by ascending degree, lex-descending
    within a degree, e.g. '4*X1 + 2*X2' or '-6*X1^2*X2'."""
    if names is None:
        names = default_names(k)
    if not terms:
        return "0"
    parts = []
    for exps in sorted(terms, key=_term_sort_key):
        c = terms[exps]
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append("%s^%d" % (name, e))
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts)


_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\^|\*|\+|\-|\(|\))")
# Nesting bound for parentheses and unary minus: a level takes the parser at
# most four stack frames, so this stays far below Python's recursion limit.
MAX_NESTING = 100


class PolynomialSyntaxError(GkmError, ValueError):
    pass


def exceeds_digit_limit(n):
    """Whether the integer n has more decimal digits than int_digit_limit();
    the bit length decides first, so small n build no power of ten."""
    limit = int_digit_limit()
    return n.bit_length() > limit * math.log2(10) and abs(n) >= 10 ** limit


def parse_polynomial(text, names, max_degree=None):
    """Parse the canonical rendering syntax back into an IntPolynomial.

    Supports integers, named variables, +, -, *, ^ and parentheses. With
    `max_degree`, a product or power whose top degree would pass it is
    rejected before it is expanded. Integer literals longer than the
    int-to-str digit limit, products with a coefficient past that limit,
    and parentheses or unary minus signs nested deeper than MAX_NESTING,
    are rejected too.
    """
    if not isinstance(text, str):
        raise PolynomialSyntaxError("a polynomial must be a string, got %r" % (text,))
    names = list(names)
    k = len(names)
    index = {n: i for i, n in enumerate(names)}
    limit = int_digit_limit()
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise PolynomialSyntaxError(
                    "unexpected character %r at position %d" % (text[pos], pos)
                )
            break
        if len(m.group(1)) > limit and m.group(1).isdigit():
            raise PolynomialSyntaxError(
                "integer literal at position %d has more than %d digits" % (m.start(1), limit)
            )
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append(None)  # sentinel
    state = {"i": 0, "depth": 0}

    def peek():
        return tokens[state["i"]]

    def take():
        t = tokens[state["i"]]
        state["i"] += 1
        return t

    def parse_expr():
        neg = False
        while peek() in ("+", "-"):
            if take() == "-":
                neg = not neg
        out = parse_term()
        if neg:
            out = -out
        while peek() in ("+", "-"):
            op = take()
            t = parse_term()
            out = out + (-t if op == "-" else t)
        return out

    def bounded(degree):
        if max_degree is not None and degree > max_degree:
            raise PolynomialSyntaxError(
                "degree %d exceeds the maximum degree %d" % (degree, max_degree)
            )

    def top(p):
        return max(p.degrees(), default=0)

    def parse_term():
        out = parse_factor()
        while peek() == "*":
            take()
            factor = parse_factor()
            bounded(top(out) + top(factor))
            out = out * factor
            # constants that each pass the power check still multiply without bound
            if any(exceeds_digit_limit(c) for c in out.terms.values()):
                raise PolynomialSyntaxError("product has a coefficient with more than %d digits" % limit)
        return out

    def parse_factor():
        base = parse_atom()
        if peek() == "^":
            take()
            e = take()
            if e is None or not e.isdigit():
                raise PolynomialSyntaxError("exponent must be a nonnegative integer")
            e = int(e)
            bounded(top(base) * e)
            # a constant power is checked before it is computed: its value
            # must still print within the int-to-str digit limit
            c = abs(base.coefficient((0,) * k)) if top(base) == 0 else 0
            if c > 1 and e * math.log10(c) >= limit:
                raise PolynomialSyntaxError(
                    "constant power with exponent %d has more than %d digits" % (e, limit)
                )
            return base ** e
        return base

    def parse_atom():
        if state["depth"] > MAX_NESTING:
            raise PolynomialSyntaxError("expression nested deeper than %d levels" % MAX_NESTING)
        state["depth"] += 1
        t = take()
        if t is None:
            raise PolynomialSyntaxError("unexpected end of expression")
        if t == "(":
            out = parse_expr()
            if take() != ")":
                raise PolynomialSyntaxError("missing closing parenthesis")
        elif t == "-":
            out = -parse_atom()
        elif t.isdigit():
            out = IntPolynomial.constant(k, int(t))
        elif t in index:
            out = IntPolynomial.variable(k, index[t])
        else:
            raise PolynomialSyntaxError("unknown symbol %r" % t)
        state["depth"] -= 1
        return out

    out = parse_expr()
    if peek() is not None:
        raise PolynomialSyntaxError("trailing input after expression")
    return out
