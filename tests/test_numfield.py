import random
from fractions import Fraction

import pytest

from sextics.numfield import (
    NumberField,
    TowerCapError,
    extend_field,
    factor_over_field,
    factor_rational,
)
from sextics.poly import UniPoly, unipoly_gcd


def U(coeffs):
    return UniPoly("x", [Fraction(c) for c in coeffs])


class TestFactorRational:
    def test_simple_split(self):
        # x^2 - 1 = (x-1)(x+1)
        fs = factor_rational(U([-1, 0, 1]))
        assert [(str(f), m) for f, m in fs] == [("x - 1", 1), ("x + 1", 1)]

    def test_irreducible(self):
        assert factor_rational(U([1, 1, 1])) == [(U([1, 1, 1]), 1)]
        assert len(factor_rational(U([-1, 0, 1]))) == 2

    def test_multiplicity(self):
        fs = factor_rational(U([0, 0, 1]) * U([1, 1]) ** 3)
        assert [(str(f), m) for f, m in fs] == [("x", 2), ("x + 1", 3)]


def rational_roots(p):
    """The rational roots of p with multiplicities, from its linear factors
    over Q, sorted by root."""
    return sorted((-f.coeffs[0], m) for f, m in factor_rational(p)
                  if f.degree() == 1)


class TestRationalRoots:
    def test_paper_candidate(self):
        # f(x,0) = x^2 (x^2-1)^2
        p = U([0, 0, 1]) * U([-1, 0, 1]) ** 2
        assert rational_roots(p) == [(-1, 2), (Fraction(0), 2),
                                     (Fraction(1), 2)]

    def test_no_rational_roots(self):
        assert rational_roots(U([1, 0, 1])) == []

    def test_sieve(self):
        assert rational_roots(U([1, -5, 6])) == [(Fraction(1, 3), 1),
                                                 (Fraction(1, 2), 1)]

    def test_reconstruction(self):
        p = U([2, 1]) * U([-3, 1]) ** 2 * U([1, 0, 1]).scale(Fraction(5))
        rebuilt = U([p.lc()])
        for f, m in factor_rational(p):
            rebuilt = rebuilt * f ** m
        assert rebuilt == p
        assert rational_roots(p) == [(Fraction(-2), 1), (Fraction(3), 2)]


class TestNumberField:
    def test_arithmetic(self):
        K = NumberField(U([-2, 0, 1]))  # sqrt(2)
        r = K.generator()
        assert r * r == K.from_rational(2)
        assert (1 / r) * r == K.from_rational(1)
        assert (r + 1) * (r - 1) == K.from_rational(1)

    def test_inverse(self):
        K = NumberField(U([1, 1, 0, 1]))  # w^3 + w + 1
        w = K.generator()
        e = w ** 2 + w - 3
        assert e * e.inverse() == K.from_rational(1)

    @pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
    def test_inverse_large_coefficients(self, degree):
        # w^d - 6w + 3 is irreducible (Eisenstein at 3)
        K = NumberField(U([3, -6] + [0] * (degree - 2) + [1]))
        rng = random.Random(degree)
        for _ in range(3):
            e = K.element([Fraction(rng.randint(-10 ** 30, 10 ** 30),
                                    rng.randint(1, 10 ** 20))
                           for _ in range(degree)])
            assert e * e.inverse() == K.from_rational(1)
            assert e.inverse().inverse() == e

    def test_factor_over_extension(self):
        K = NumberField(U([-2, 0, 1]))
        # x^2 - 2 splits over Q(sqrt 2); its cube has the same distinct factors
        for power in (1, 3):
            fs = factor_over_field(K, U([-2, 0, 1]) ** power)
            assert [f.degree() for f in fs] == [1, 1]
            vals = sorted((-f.coeffs[0]).coeffs for f in fs)
            assert vals == [(Fraction(0), Fraction(-1)),
                            (Fraction(0), Fraction(1))]

    def test_factor_stays_irreducible(self):
        K = NumberField(U([-2, 0, 1]))
        fs = factor_over_field(K, U([-3, 0, 1]))
        assert [f.degree() for f in fs] == [2]

    def test_cyclotomic_roots(self):
        # w^2 + w + 1: cube roots of unity; x^3 - 1 has all roots in Q(w)
        K = NumberField(U([1, 1, 1]))
        fs = factor_over_field(K, U([-1, 0, 0, 1]))
        assert [f.degree() for f in fs] == [1, 1, 1]


class TestExtendField:
    def test_tower_flatten(self):
        # Q -> Q(sqrt 2) -> adjoin sqrt 3: total degree 4
        K, _, r2 = extend_field(None, U([-2, 0, 1]))
        q = UniPoly("y", [K.from_rational(-3), K.from_rational(0),
                          K.from_rational(1)])
        L, embed, r3 = extend_field(K, q)
        assert L.degree == 4
        assert embed(r2) ** 2 == L.from_rational(2)
        assert r3 ** 2 == L.from_rational(3)
        assert (embed(r2) * r3) ** 2 == L.from_rational(6)

    def test_cap(self):
        # a square root over K7 = Q(2^(1/7)) needs a tower of degree 14
        K7, _, _ = extend_field(None, U([-2, 0, 0, 0, 0, 0, 0, 1]))
        q = UniPoly("y", [K7.from_rational(-3), K7.from_rational(0),
                          K7.from_rational(1)])
        with pytest.raises(TowerCapError):
            extend_field(K7, q)

    def test_embed_respects_arithmetic(self):
        K, _, w = extend_field(None, U([1, 1, 1]))  # primitive cube root
        q = UniPoly("y", [w, K.from_rational(0), K.from_rational(1)])  # y^2 + w
        fs = factor_over_field(K, q)
        assert [f.degree() for f in fs] == [2]
        L, embed, eta = extend_field(K, q)
        assert L.degree == 4
        assert eta * eta == -embed(w)
