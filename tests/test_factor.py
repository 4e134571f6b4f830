"""Differential tests of the factorization over Z (`sextics.factor`), read
through `numfield.factor_rational` and `components.decompose`, against
sympy's `factor_list`: seeded products in one and two variables, inputs
that split modulo every prime and so force recombination, cyclotomic
binomials, repeated factors, lines of x-degree 0, conjugate pairs that
stay irreducible over Q, leading coefficients divisible by the first
primes, and heights up to 10^200.  Both return distinct factors; a curve
with a repeated factor is refused by `decompose`, and its squarefree part
is compared instead.  The 10^400 + 1 curve is checked against its known
factors, which sympy takes minutes to find."""

import random
from fractions import Fraction

import pytest
from sympy_bridge import from_sympy, to_sympy

from sextics import factor, poly
from sextics.components import decompose
from sextics.numfield import factor_rational
from sextics.poly import DomainError, Poly, PolyError, UniPoly, \
    is_squarefree, parse_poly

X = ("x",)
XY = ("x", "y")


def U(coeffs):
    return UniPoly("x", [Fraction(c) for c in coeffs])


def theirs_rational(u: UniPoly) -> list:
    """factor_rational's answer, computed by sympy: the distinct monic
    factors."""
    out = [UniPoly.from_poly(from_sympy(f, X), "x").monic()
           for f, _m in to_sympy(u.to_poly(), X)[0].factor_list()[1]]
    out.sort(key=lambda f: (f.degree(), tuple(
        (c.numerator, c.denominator) for c in f.coeffs)))
    return out


def theirs_decompose(f: Poly) -> tuple:
    """decompose(f).factors for a squarefree f, computed by sympy."""
    out = [from_sympy(q, XY).primitive()
           for q, _m in to_sympy(f, XY)[0].factor_list()[1]]
    out.sort(key=lambda p: (p.degree(), sorted(p.terms.items())))
    return tuple(out)


def assert_decompose_as_sympy(f: Poly):
    """decompose(f) against sympy: the factors of a squarefree f; for an
    f with a repeated factor, a refusal, and the factors of its
    squarefree part."""
    theirs = to_sympy(f, XY)[0]
    if any(m > 1 for _q, m in theirs.factor_list()[1]):
        with pytest.raises(PolyError):
            decompose(f)
        f = from_sympy(theirs.sqf_part(), XY)
    assert decompose(f).factors == theirs_decompose(f)


def random_uni(rng, degree, height):
    cs = [rng.randint(-height, height) for _ in range(degree + 1)]
    cs[-1] = cs[-1] or 1
    return U(cs)


def random_biv(rng, degree, height):
    terms = {(i, j): rng.randint(-height, height)
             for i in range(degree + 1) for j in range(degree + 1 - i)
             if rng.random() < 0.6}
    terms[(degree, 0) if rng.random() < 0.5 else (0, degree)] = 1
    return Poly(XY, terms)


def P(text):
    return parse_poly(text, XY)


# x^4 - 10 x^2 + 1 and its kin are irreducible over Q, but split into
# factors of degree at most 2 modulo every prime
SD_2_3 = U([1, 0, -10, 0, 1])
SD_2_5 = U([9, 0, -14, 0, 1])
SD_2_3_5 = U([576, 0, -960, 0, 352, 0, -40, 0, 1])


class TestFactorRational:
    @pytest.mark.parametrize("height", [9, 10 ** 20, 10 ** 200],
                             ids=["9", "10^20", "10^200"])
    def test_seeded_products(self, height):
        rng = random.Random(height % 1000)
        for _ in range(25 if height < 10 ** 100 else 6):
            u = U([rng.randint(1, 5)])
            for _ in range(rng.randint(1, 4)):
                u = u * random_uni(rng, rng.randint(1, 6), height) \
                    ** rng.randint(1, 3)
            assert factor_rational(u) == theirs_rational(u)

    @pytest.mark.parametrize("u", [
        SD_2_3, SD_2_3_5, SD_2_3 * SD_2_5, SD_2_3 * SD_2_5 * SD_2_3_5,
        SD_2_3 ** 2 * SD_2_5],
        ids=["sd23", "sd235", "sd23*sd25", "sd23*sd25*sd235", "sd23^2*sd25"])
    def test_split_modulo_every_prime(self, u):
        assert factor_rational(u) == theirs_rational(u)

    @pytest.mark.parametrize("n", [6, 9, 12, 15, 30])
    def test_cyclotomic_binomials(self, n):
        for c in (1, -1):
            u = U([c] + [0] * (n - 1) + [1])
            assert factor_rational(u) == theirs_rational(u)

    def test_leading_coefficient_divisible_by_small_primes(self):
        # 3 * 5 * 7 * 11 * 13 divides the leading coefficient, so the
        # first five odd primes cannot be used
        u = U([7, 1, 0, 15015]) * U([-2, 3, 0, 0, 1]) * U([1, 1])
        assert factor_rational(u) == theirs_rational(u)

    def test_repeated_and_rational_factors(self):
        u = (U([Fraction(1, 3), 1]) ** 3 * U([1, 0, 1]) ** 2
             * U([0, 1]) ** 4 * U([-5, 0, 0, 2]))
        assert factor_rational(u) == theirs_rational(u)

    def test_answer_independent_of_prime_and_seed(self, monkeypatch):
        u = SD_2_3 * SD_2_5 * U([-2, 0, 0, 0, 0, 1]) * U([1, 1, 1, 1])
        want = factor_rational(u)
        for compared in (1, 2, 6):
            monkeypatch.setattr(factor, "_PRIMES_COMPARED", compared)
            assert factor_rational(u) == want
        seeded = random.Random
        monkeypatch.setattr(factor.random, "Random",
                            lambda seed: seeded(seed + 12345))
        assert factor_rational(u) == want


class TestDecompose:
    @pytest.mark.parametrize("height", [3, 10 ** 6], ids=["3", "10^6"])
    def test_seeded_products(self, height):
        rng = random.Random(height)
        for _ in range(20):
            f = Poly.const(rng.randint(1, 3), XY)
            for _ in range(rng.randint(1, 3)):
                f = f * random_biv(rng, rng.randint(1, 3), height) \
                    ** rng.randint(1, 2)
            assert_decompose_as_sympy(f)

    @pytest.mark.parametrize("text", [
        # irreducible, though its images split modulo every prime
        "x^8 - 10*x^4*y^4 + y^8 + x + y",
        "(x^4 - 10*x^2*y^2 + y^4)*(x^4 - 14*x^2*y^2 + 9*y^4)",
        # cyclotomic binomials
        "x^9 + y^9 + 1", "x^6 - y^6", "x^12 - y^12 + 1",
        # repeated factors, lines of x-degree 0, a factor free of y
        "(y - x)^2*(y + x)*(y - 1)^3*(y + 2)*(x - 3)^2",
        "(x^2 + y^2 - 1)^2*(y - 2)*(x + 1)",
        # conjugate pairs, irreducible over Q
        "(x^2 + y^2)*(x^2 - 2*y^2)*(x^2 + x*y + y^2)*(x^2 - 3)",
        # a leading coefficient in x that is not constant: sheared
        "(x*y - 1)*(x*y + 2)*(x^2*y + y^3 + 1)",
        # a leading coefficient 3 * 5 * 7 in x: each factor's digits are
        # read off (105 / lc) times its image at y = 2^bits
        "(105*x^3 + y^3 + 7*y + 1)*(105*x^2 + x*y - 5)",
        # images with more factors than the curve: at y = 1 the conics
        # give (x - 1)(x + 1) and (x - 2)(x + 2), x^4 - y^2 (y + 3) gives
        # (x - 2)(x + 2)(x^2 + 4)
        "(x^2 - y)*(x^2 - 4*y)*(y^3 + x + 5)",
        "(x^4 - y^2*(y + 3))*(x^2 - 9*y)",
        "-(-y^2 + y - x^2)^3 - (y^3 - 3*y^2 + 3*y*x^2)^2",
        # a smooth curve of degree 12
        "x^12 + y^12 + 3*x^5*y^2 - 7*x*y^6 + 2*x^3 - y^2 + 1",
        # heights up to 10^200
        "(10^200*y - x^2 + 3)*(x^3 + 10^200*y^2 + 1)",
        # irreducible, though its image at y = 0 is x^8 - 1
        "x^8 + y^8 + x^3*y^2 - 3*x*y^4 + 2*y^2 - 1",
        # factors with larger coefficients than their product
        "x^4 + 4*y^4", "(x^4 + 4*y^4)*(x - 3*y + 1)",
        # factors whose images at y = 2^bits have an integer content
        "(2*x^2 + y^2 + y)*(2*x^2 + y^2 + 3*y)*(x^3 + y - 1)",
    ])
    def test_planted(self, text):
        assert_decompose_as_sympy(P(text))

    def test_height_10_400_irreducible(self):
        # f2 = -(10^400 + 1) y^2, f3 = x^3 + 1: f2^3 + f3^2 is
        # (x^3 + 1)^2 - N^3 y^6 with N = 10^400 + 1, which splits over Q
        # only if N is a square, and 10^400 < N < (10^200 + 1)^2
        n = 10 ** 400 + 1
        f = Poly.const(-n, XY) ** 3 * P("y^6") + P("(x^3 + 1)^2")
        assert decompose(f).factors == (f.primitive(),)

    def test_height_10_400_split(self):
        # with N = (10^200 + 1)^2 a square, it is the product of
        # x^3 + 1 - r y^3 and x^3 + 1 + r y^3, r = (10^200 + 1)^3
        r = (10 ** 200 + 1) ** 3
        f = Poly.const(-r * r, XY) * P("y^6") + P("(x^3 + 1)^2")
        known = [P("x^3 + 1") + Poly.const(s * r, XY) * P("y^3")
                 for s in (-1, 1)]
        got = decompose(f).factors
        assert sorted(str(p) for p in got) \
            == sorted(str(p.primitive()) for p in known)
        assert [p.degree() for p in got] == [3, 3]


class TestKernels:
    def test_univariate_output_form(self):
        # primitive, positive last entry; the integer content is dropped,
        # and x^2 gives x once
        got = factor.factor_univariate([0, 0, -6, 0, 6])
        assert sorted(got) == [[-1, 1], [0, 1], [1, 1]]

    @pytest.mark.parametrize("text", [
        "(x - 1)^3", "x^2*(x^2 - 2)^3*(x + 5)", "(2*x + 3)^2"])
    def test_univariate_distinct_factors(self, text):
        # f / gcd(f, f') has f's distinct factors; a square quadratic gives
        # its root once
        u = P(text).with_vars(X)
        got = factor.factor_univariate(
            [int(c) for c in UniPoly.from_poly(u, "x").coeffs])
        want = sorted([int(c) for c in reversed(q.all_coeffs())]
                      for q, _m in to_sympy(u, X)[0].factor_list()[1])
        assert sorted(got) == want

    def test_bivariate_contents(self):
        # the contents in x and in y are factored in one variable; the
        # repeated factor x - 2 of the content in y comes back once
        f = P("6*(y^2 + 1)*(x - 2)^2*(x^2 + y^2 + 1)")
        got = sorted(sorted(g.items())
                     for g in factor.factor_bivariate(
                         {m: int(c) for m, c in f.terms.items()}))
        assert got == [[((0, 0), -2), ((1, 0), 1)],
                       [((0, 0), 1), ((0, 2), 1)],
                       [((0, 0), 1), ((0, 2), 1), ((2, 0), 1)]]


class TestOneSearchEach:
    """`poly._squarefree_line` is the one search for a line with a
    squarefree image, for `is_squarefree` and for `factor_bivariate`, and
    one generator runs through the primes of a squarefree part."""

    def test_first_two_lines_fail(self, monkeypatch):
        # y = 0 and y = 1 meet the curve in x^2, and the sheared curve
        # q(x, y) = f(x, y + x) that factor_bivariate searches in a double
        # root x = 0; both searches go on to y = -1
        f = P("x^2 - y^2*(y - 1)^2")
        tried = []
        real = poly._squarefree

        def recorded(u):
            tried.append(real(u))
            return tried[-1]
        monkeypatch.setattr(poly, "_squarefree", recorded)
        assert is_squarefree(f)
        assert tried[:3] == [False, False, True]
        tried.clear()
        got = factor.factor_bivariate({m: int(c) for m, c in f.terms.items()})
        assert tried == [False, False, True]
        assert sorted(sorted(g.items()) for g in got) == [
            [((0, 1), -1), ((0, 2), 1), ((1, 0), 1)],
            [((0, 1), 1), ((0, 2), -1), ((1, 0), 1)]]

    def test_no_squarefree_line_is_refused(self):
        square = {(2, 0): 1, (1, 1): 2, (0, 2): 1}   # (x + y)^2
        assert poly._squarefree_line(square, 0) is None
        with pytest.raises(DomainError):
            factor._factor_part(square)

    def test_each_prime_tested_once(self, monkeypatch):
        # g = (x - 1)(x - 106)(x - 211) has a triple root mod 3, 5 and 7,
        # which divide 105, and three roots mod 11: g, and the squarefree
        # part g (x^2 + 1) of g^2 (x^2 + 1), fail their first three primes
        # and fall back to 11
        def ints(text):
            u = UniPoly.from_poly(parse_poly(text, X), "x")
            return [int(c) for c in u.coeffs]
        g = ints("(x - 1)*(x - 106)*(x - 211)")
        f = ints("(x - 1)^2*(x - 106)^2*(x - 211)^2*(x^2 + 1)")
        part = ints("(x - 1)*(x - 106)*(x - 211)*(x^2 + 1)")
        calls = []
        real = factor._mod_squarefree

        def counted(h, p):
            calls.append((tuple(h), p))
            return real(h, p)
        monkeypatch.setattr(factor, "_mod_squarefree", counted)
        roots = [[-211, 1], [-106, 1], [-1, 1]]
        for h, sqf, want in [(f, part, roots + [[1, 0, 1]]),
                             (g, g, roots)]:
            calls.clear()
            assert sorted(factor.factor_univariate(h)) == want
            assert len(calls) == len(set(calls))
            assert [p for u, p in calls if list(u) == sqf] == [3, 5, 7, 11]
