import random
from fractions import Fraction

import pytest
import sympy

from sextics.numfield import (
    TOWER_CAP,
    NumberField,
    TowerCapError,
    coef_key,
    coerce_unipoly,
    extend_field,
    factor_over_field,
    factor_rational,
)
from sextics.poly import DomainError, UniPoly


def U(coeffs):
    return UniPoly("x", [Fraction(c) for c in coeffs])


def multiplicity(f, p):
    """The largest m with f^m dividing p."""
    m = 0
    while True:
        q, r = p.divmod(f)
        if not r.is_zero():
            return m
        p, m = q, m + 1


class TestFactorRational:
    def test_simple_split(self):
        # x^2 - 1 = (x-1)(x+1)
        fs = factor_rational(U([-1, 0, 1]))
        assert [str(f) for f in fs] == ["x - 1", "x + 1"]

    def test_irreducible(self):
        assert factor_rational(U([1, 1, 1])) == [U([1, 1, 1])]
        assert len(factor_rational(U([-1, 0, 1]))) == 2

    def test_multiplicity(self):
        # the distinct factors, each once
        fs = factor_rational(U([0, 0, 1]) * U([1, 1]) ** 3)
        assert [str(f) for f in fs] == ["x", "x + 1"]


def rational_roots(p):
    """The rational roots of p with multiplicities, from its linear factors
    over Q and the powers of them that divide p, sorted by root."""
    return sorted((-f.coeffs[0], multiplicity(f, p))
                  for f in factor_rational(p) if f.degree() == 1)


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
        for f in factor_rational(p):
            rebuilt = rebuilt * f ** multiplicity(f, p)
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

    def test_inverse_needs_a_row_swap(self):
        # w and w^2 have a zero constant coordinate, so the first pivot of
        # the multiplication matrix is zero; from w^3 = -w - 1,
        # 1/w = -w^2 - 1 and 1/w^2 = (1/w)^2 = w^4 + 2w^2 + 1 = w^2 - w + 1
        K = NumberField(U([1, 1, 0, 1]))
        w = K.generator()
        assert w.inverse() == K.element([-1, 0, -1])
        assert (w ** 2).inverse() == K.element([1, -1, 1])
        assert (w * Fraction(2, 3)).inverse() == K.element(
            [Fraction(-3, 2), 0, Fraction(-3, 2)])

    def test_inverse_with_a_negative_determinant(self):
        # multiplication by sqrt 2 has determinant (norm) -2
        K = NumberField(U([-2, 0, 1]))
        r = K.generator()
        assert r.inverse() == K.element([0, Fraction(1, 2)])
        assert (r * Fraction(-5, 7) + 1).inverse() == K.element(
            [Fraction(-49, 1), Fraction(-35, 1)])

    def test_inverse_of_a_rational_element(self):
        K = NumberField(U([3, -6, 0, 0, 1]))
        for q in (Fraction(-7, 3), Fraction(1), Fraction(5, 1), -1):
            assert K.from_rational(q).inverse() == 1 / Fraction(q)
            assert K.from_rational(q).inverse() == K.from_rational(1 / q)

    def test_inverse_of_zero(self):
        K = NumberField(U([-2, 0, 1]))
        with pytest.raises(ZeroDivisionError):
            K.from_rational(0).inverse()
        with pytest.raises(ZeroDivisionError):
            1 / K.element([0, 0])

    @pytest.mark.parametrize("degree", range(2, TOWER_CAP + 1))
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

    def test_linear_is_its_own_monic_factor(self):
        # 3w*x + (1 - w) over Q(w), w^2 = 2, is x + (1 - w)/(3w)
        K = NumberField(U([-2, 0, 1]))
        w = K.generator()
        lead = w * 3
        fs = factor_over_field(K, UniPoly("x", [1 - w, lead]))
        assert fs == [UniPoly("x", [(1 - w) / lead, 1])]
        assert fs[0].coeffs[0] == K.element([Fraction(-1, 3),
                                             Fraction(1, 6)])
        # a rational linear u is coerced into the field
        assert factor_over_field(K, U([4, 2])) == [
            UniPoly("x", [K.from_rational(2), K.from_rational(1)])]

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

    def test_tower_field_pinned(self):
        # the first shift s = 1 makes the norm of q(y - s*theta) squarefree,
        # so the generator is a multiple of sqrt 3 + sqrt 2
        K, _, r2 = extend_field(None, U([-2, 0, 1]))
        L, embed, r3 = extend_field(K, UniPoly("y", [K.from_rational(-3),
                                                     0, 1]))
        assert L.minpoly == UniPoly("v", [Fraction(c)
                                          for c in (1, 0, -10, 0, 1)])
        assert embed(r2) == L.element([0, Fraction(-9, 2), 0,
                                       Fraction(1, 2)])
        assert r3 == L.element([0, Fraction(11, 2), 0, Fraction(-1, 2)])

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


class TestRationalElements:
    def test_hash_like_the_rational(self):
        K = NumberField(U([-2, 0, 1]))
        for q in (3, Fraction(3), Fraction(-7, 4), 0):
            e = K.from_rational(q)
            assert e == q and hash(e) == hash(q)
        assert len({K.from_rational(3), Fraction(3), 3}) == 1
        assert {K.from_rational(Fraction(1, 2)): "half"}[Fraction(1, 2)] \
            == "half"
        assert K.generator() != 0 and K.element([1, 1]) != 1

    def test_minpoly_must_be_integral(self):
        # w^2 - 1/2 once monic; extend_field rescales it to w^2 - 2
        with pytest.raises(DomainError):
            NumberField(U([-1, 0, 2]))
        with pytest.raises(DomainError):
            NumberField(U([Fraction(1, 3), 1, 0, 1]))
        K, _, r = extend_field(None, U([-1, 0, 2]))
        assert K.minpoly == UniPoly("w", [Fraction(-2), 0, Fraction(1)])
        assert r * r == Fraction(1, 2)


def eisenstein_fields():
    """First extensions of Q of degree 2 to 12, from non-monic rational
    polynomials (2x^d + 6x - 3) / 5, irreducible by Eisenstein at 3, and
    two towers of degree 4 and 6 over Q(sqrt 2)."""
    fields = [extend_field(None, U([Fraction(-3, 5), Fraction(6, 5)]
                                   + [0] * (d - 2) + [Fraction(2, 5)]))[0]
              for d in range(2, 13)]
    K = extend_field(None, U([-2, 0, 1]))[0]
    for q in ([-3, 0, 1], [-3, 0, 0, 1]):
        fields.append(extend_field(K, UniPoly(
            "y", [K.from_rational(c) for c in q]))[0])
    return fields


def random_coords(rng, d):
    """A coordinate vector: large rationals, some zero, sometimes only the
    rational coordinate or nothing at all."""
    kind = rng.randrange(8)
    if kind == 0:
        return [Fraction(0)] * d
    cs = [Fraction(rng.randint(-10 ** 25, 10 ** 25), rng.randint(1, 10 ** 15))
          if rng.randrange(4) else Fraction(0) for _ in range(d)]
    return cs[:1] + [Fraction(0)] * (d - 1) if kind == 1 else cs


class TestDifferentialAgainstFractions:
    """NFElt arithmetic against a reference: coordinate vectors of
    Fractions as UniPolys in the generator, multiplied and reduced modulo
    the minimal polynomial with UniPoly.divmod."""

    @staticmethod
    def check(K, e, ref):
        cs = list(ref.coeffs) + [Fraction(0)] * (K.degree - len(ref.coeffs))
        assert e.coeffs == tuple(cs)
        assert coef_key(e) == (1,) + tuple((c.numerator, c.denominator)
                                           for c in cs)
        assert str(e) == str(ref)
        assert bool(e) == (not ref.is_zero())
        assert e == K.element(cs)
        if not any(cs[1:]):
            assert e == cs[0] and hash(e) == hash(cs[0])
        else:
            assert e != cs[0]

    def test_seeded_elements(self):
        rng = random.Random(20261018)
        for K in eisenstein_fields():
            d, m = K.degree, K.minpoly

            def ref_mul(a, b):
                return (a * b).divmod(m)[1]

            for _ in range(4):
                ca, cb = random_coords(rng, d), random_coords(rng, d)
                a, b = K.element(ca), K.element(cb)
                ra, rb = UniPoly(m.var, ca), UniPoly(m.var, cb)
                q = Fraction(rng.randint(-10 ** 12, 10 ** 12),
                             rng.randint(1, 10 ** 6))
                n = rng.randint(-10 ** 6, 10 ** 6)
                rq, rn = UniPoly(m.var, [q]), UniPoly(m.var, [n])
                self.check(K, a, ra)
                self.check(K, a + b, ra + rb)
                self.check(K, a - b, ra - rb)
                self.check(K, -a, -ra)
                self.check(K, a * b, ref_mul(ra, rb))
                self.check(K, a + q, ra + rq)
                self.check(K, q - a, rq - ra)
                self.check(K, a * q, ra.scale(q))
                self.check(K, n * a, ra.scale(n))
                self.check(K, a - n, ra - rn)
                self.check(K, a ** 3, ref_mul(ref_mul(ra, ra), ra))
                self.check(K, a ** 0, UniPoly(m.var, [1]))
                if q:
                    self.check(K, a / q, ra.scale(1 / q))
                if not b:
                    continue
                inv = b.inverse()
                self.check(K, inv * b, UniPoly(m.var, [1]))
                self.check(K, b * inv, ref_mul(rb, UniPoly(m.var, inv.coeffs)))
                quot = a / b
                self.check(K, quot * b, ra)
                self.check(K, q / b, ref_mul(rq, UniPoly(m.var, inv.coeffs)))
                self.check(K, b ** -2 * b * b, UniPoly(m.var, [1]))


def _sympy_fields():
    """(K, generator as a sympy number, sympy extension): Q(sqrt 2),
    Q(2^(1/3)), Q(i), and the degree-4 tower Q(sqrt 2)(sqrt 3) from
    `extend_field`, whose generator v is the root sqrt 2 + sqrt 3 of
    v^4 - 10 v^2 + 1."""
    r2, r3 = sympy.sqrt(2), sympy.sqrt(3)
    K2 = extend_field(None, U([-2, 0, 1]))[0]
    tower = extend_field(K2, UniPoly("y", [K2.from_rational(-3), 0, 1]))[0]
    assert tower.minpoly.coeffs == (1, 0, -10, 0, 1)
    return [(K2, r2, r2),
            (extend_field(None, U([-2, 0, 0, 1]))[0], sympy.cbrt(2),
             sympy.cbrt(2)),
            (extend_field(None, U([1, 0, 1]))[0], sympy.I, sympy.I),
            (tower, r2 + r3, [r2, r3])]


class TestFactorOverFieldAgainstSympy:
    """factor_over_field against sympy's factor_list over the same
    extension, on seeded products of random factors over K, among them
    the generator's minimal polynomial, which splits over K."""

    @staticmethod
    def to_sympy(K, u, gen):
        y = sympy.Symbol("y")
        u = coerce_unipoly(K, u)
        return sympy.expand(sum(
            sum(a * gen ** i for i, a in enumerate(c.coeffs)) * y ** j
            for j, c in enumerate(u.coeffs)))

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_products(self, seed):
        rng = random.Random(seed)
        for K, gen, extension in _sympy_fields():
            for _ in range(2):
                parts = [UniPoly("y", [K.from_rational(c)
                                       for c in K.minpoly.coeffs])]
                while sum(p.degree() for p in parts) < 4:
                    deg = rng.randint(1, 2)
                    parts.append(UniPoly("y", [
                        K.element([rng.randint(-2, 2)
                                   for _ in range(K.degree)])
                        for _ in range(deg)] + [K.from_rational(1)]))
                if rng.randrange(2):
                    parts.append(parts[-1])
                u = parts[0]
                for p in parts[1:]:
                    u = u * p
                ours = factor_over_field(K, u)
                _, theirs = sympy.factor_list(
                    self.to_sympy(K, u, gen), sympy.Symbol("y"),
                    extension=extension)
                assert sorted(f.degree() for f in ours) == sorted(
                    sympy.degree(f, sympy.Symbol("y")) for f, _ in theirs)
                prod = UniPoly("y", [K.from_rational(1)])
                for f in ours:
                    prod = prod * f
                # the distinct factors divide u, and make up all of a
                # squarefree u
                assert u.divmod(prod)[1].is_zero()
                if all(m == 1 for _, m in theirs):
                    assert prod == u.monic()
