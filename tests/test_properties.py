"""Randomized property suites: ring laws, resultant specialization,
root-finding reconstruction, parse/format round-trips on the corpus, the
intersection-singularity law A_{2 iota - 1} and the metamorphic laws of the
local intersection number.

Everything is exact and seeded; the whole module stays well under the
two-minute budget.
"""

import random
from fractions import Fraction

import pytest

from sextics.catalog import builtin_examples
from sextics.localsing import classify_germ, intersection_multiplicity_origin
from sextics.numfield import rational_roots
from sextics.poly import (
    Poly,
    UniPoly,
    format_poly,
    parse_poly,
    poly_gcd,
    resultant,
)

VARS = ("x", "y", "z", "w")


def random_poly(rng, nvars=2, max_terms=6, max_deg=8, zero_ok=True) -> Poly:
    vs = VARS[:nvars]
    terms = {}
    for _ in range(rng.randint(0 if zero_ok else 1, max_terms)):
        mon = [0] * nvars
        budget = rng.randint(0, max_deg)
        for _ in range(budget):
            mon[rng.randrange(nvars)] += 1
        coef = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        mon = tuple(mon)
        terms[mon] = terms.get(mon, Fraction(0)) + coef
    return Poly(vs, terms)


class TestRingLaws:
    def test_two_hundred_randomized(self):
        rng = random.Random(20260808)
        checked = 0
        while checked < 200:
            nvars = rng.randint(1, 4)
            a = random_poly(rng, nvars)
            b = random_poly(rng, nvars)
            c = random_poly(rng, nvars)
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            if not b.is_zero():
                assert (a * b).divexact(b) == a
            checked += 1

    def test_pow_matches_repeated_mul(self):
        rng = random.Random(7)
        for _ in range(20):
            a = random_poly(rng, 2, max_terms=4, max_deg=4)
            prod = Poly.const(1, a.vars)
            for k in range(4):
                assert a ** k == prod
                prod = prod * a


class TestResultantSpecialization:
    def test_specialize_commutes(self):
        rng = random.Random(99)
        done = 0
        while done < 30:
            p = random_poly(rng, 2, max_terms=5, max_deg=5, zero_ok=False)
            q = random_poly(rng, 2, max_terms=5, max_deg=5, zero_ok=False)
            if p.degree_in("y") < 1 or q.degree_in("y") < 1:
                continue
            r = resultant(p, q, "y")
            x0 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            lead_p = p.coeffs_in("y")[p.degree_in("y")]
            lead_q = q.coeffs_in("y")[q.degree_in("y")]
            if not lead_p.evaluate({"x": x0}) or not lead_q.evaluate({"x": x0}):
                continue
            ps = p.substitute({"x": Poly.const(x0, ())}).with_vars(("y",))
            qs = q.substitute({"x": Poly.const(x0, ())}).with_vars(("y",))
            rs = resultant(ps, qs, "y").constant_value()
            expected = r.evaluate({"x": x0}) if not r.is_constant() \
                else r.constant_value()
            assert rs == expected
            done += 1


class TestRationalRoots:
    def test_reconstruction(self):
        rng = random.Random(4242)
        for _ in range(40):
            factors = []
            for _ in range(rng.randint(0, 3)):
                root = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                factors.append((root, rng.randint(1, 3)))
            residual_part = UniPoly("x", [Fraction(rng.randint(1, 5)),
                                          Fraction(0),
                                          Fraction(rng.randint(1, 4))])
            p = residual_part
            for root, mult in factors:
                p = p * UniPoly("x", [-root, Fraction(1)]) ** mult
            roots, residual = rational_roots(p)
            rebuilt = residual
            for root, mult in roots:
                rebuilt = rebuilt * UniPoly("x", [-root, Fraction(1)]) ** mult
            assert rebuilt == p
            want = {}
            for root, mult in factors:
                want[root] = want.get(root, 0) + mult
            assert dict(roots) == want


class TestParseFormatCorpus:
    def test_roundtrip_every_corpus_polynomial(self):
        for rec in builtin_examples():
            for key, p in rec.doc.all_polys().items():
                if key == "hints":
                    polys = p
                else:
                    polys = (p,)
                for poly in polys:
                    text = format_poly(poly)
                    again = parse_poly(text, poly.vars)
                    assert again == poly, (rec.rid, key)


class TestIntersectionLaw:
    def test_a_2iota_minus_1_on_fifty_germs(self):
        rng = random.Random(31415)
        done = 0
        while done < 50:
            iota = rng.randint(1, 3)
            # two smooth branches y = u(x), y = v(x) with contact iota
            shared = [Fraction(rng.randint(-3, 3)) for _ in range(iota - 1)]
            cs = [Fraction(0)] + shared
            u = cs + [Fraction(rng.randint(-4, 4))]
            v = cs + [Fraction(rng.randint(-4, 4))]
            if u[-1] == v[-1]:
                continue
            up = UniPoly("x", u + [Fraction(rng.randint(-2, 2))]).to_poly(("x", "y"))
            vp = UniPoly("x", v).to_poly(("x", "y"))
            yv = Poly.var("y", ("x", "y"))
            germ = (yv - up) * (yv - vp)
            t = classify_germ(germ)
            assert t.name() == "A_%d" % (2 * iota - 1), (iota, str(germ))
            done += 1


def random_germ(rng, max_deg=3) -> Poly:
    """A nonzero germ through the origin with small integer coefficients."""
    while True:
        terms = {(i, j): Fraction(rng.randint(-3, 3))
                 for i in range(max_deg + 1) for j in range(max_deg + 1 - i)
                 if 0 < i + j and rng.random() < 0.5}
        germ = Poly(("x", "y"), terms)
        if not germ.is_zero():
            return germ


def coprime(p: Poly, q: Poly) -> bool:
    return poly_gcd(p, q).degree() == 0


class TestIntersectionNumberLaws:
    """Symmetry, additivity in a factor and invariance under h -> h + q*g,
    on seeded random germs through the origin with no common factor."""

    def test_metamorphic_laws(self):
        rng = random.Random(27182)
        im = intersection_multiplicity_origin
        done = 0
        while done < 40:
            g, h1, h2 = (random_germ(rng) for _ in range(3))
            if not (coprime(g, h1) and coprime(g, h2)):
                continue
            i1, i2 = im(g, h1), im(g, h2)
            assert im(h1, g) == i1, (str(g), str(h1))
            assert im(g, h1 * h2) == i1 + i2, (str(g), str(h1), str(h2))
            q = random_poly(rng, max_terms=3, max_deg=2)
            assert im(g, h1 + q * g) == i1, (str(g), str(h1), str(q))
            done += 1
