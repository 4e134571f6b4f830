"""Randomized property suites: ring laws, substitution against sympy,
evaluation against substitution, results built without re-validation (`Poly._trusted`), resultant
specialization, gcds of planted common factors, root-finding reconstruction, decomposition of planted factors under an
affine change of coordinates, parse/format round-trips on the corpus, the
intersection-singularity law A_{2 iota - 1}, the metamorphic laws of the
local intersection number and the intersection kernel against a
`Fraction` reference of the reduction algorithm.

Everything is exact and seeded; the whole module stays well under the
two-minute budget.
"""

import importlib
import random
import signal
from fractions import Fraction

import pytest
import sympy
from sympy_bridge import from_sympy, to_sympy
from test_numfield import eisenstein_fields, multiplicity

from sextics.catalog import builtin_examples
from sextics.components import decompose
from sextics.localsing import (
    InfiniteIntersectionError,
    classify_germ,
    intersection_multiplicity_origin,
)
from sextics.numfield import NFElt, NumberField, extend_field, factor_rational
from sextics.poly import (
    DomainError,
    Poly,
    PolyError,
    UniPoly,
    clear_denominators,
    format_poly,
    horner_shift,
    is_squarefree,
    parse_poly,
    poly_gcd,
    rational_content,
    resultant,
    shear,
    _primitive_last,
)

VARS = ("x", "y", "z", "w")
XY = ("x", "y")


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
            checked += 1

    def test_pow_matches_repeated_mul(self):
        rng = random.Random(7)
        for _ in range(20):
            a = random_poly(rng, 2, max_terms=4, max_deg=4)
            prod = Poly.const(1, a.vars)
            for k in range(4):
                assert a ** k == prod
                prod = prod * a


def to_expr(p: Poly, w=None):
    """p as a sympy expression in its variables; a number-field
    coefficient becomes a polynomial in the symbol `w`."""
    def coef(c):
        if isinstance(c, NFElt):
            return sum(coef(a) * w ** i for i, a in enumerate(c.coeffs))
        return sympy.Rational(c.numerator, c.denominator)
    return sum((coef(c) * sympy.Mul(*(sympy.Symbol(v) ** e
                                      for v, e in zip(p.vars, m)))
                for m, c in p.terms.items()), sympy.Integer(0))


class TestSubstituteAgainstSympy:
    """Poly.substitute against sympy's simultaneous subs on seeded
    polynomials in two and three variables."""

    @staticmethod
    def check(p, bindings, w=None, minpoly=None):
        got = p.substitute(bindings)
        want = sympy.expand(to_expr(p, w).subs(
            {sympy.Symbol(v): to_expr(b, w) if isinstance(b, Poly)
             else sympy.Rational(b.numerator, b.denominator)
             for v, b in bindings.items()}, simultaneous=True))
        diff = sympy.expand(to_expr(got, w) - want)
        if minpoly is not None:
            diff = sympy.rem(diff, to_expr(minpoly.to_poly(), w), w)
        assert diff == 0, (str(p), {v: str(b) for v, b in bindings.items()})
        return got

    def test_swap_shear_and_constant(self):
        rng = random.Random(4242)

        def moved_last(p, bound):
            # bindings over p.vars: the unbound variables, then the bound
            # ones, which come back only when some term uses one of them
            rest = tuple(v for v in p.vars if v not in bound)
            used = any(e for m in p.terms for v, e in zip(p.vars, m)
                       if v in bound)
            return rest + tuple(v for v in p.vars if v in bound) * used

        for _ in range(25):
            p = random_poly(rng, rng.randint(2, 3))
            x, y = (Poly.var(v, p.vars) for v in p.vars[:2])
            k = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            got = self.check(p, {"x": y, "y": x})
            assert got.vars == moved_last(p, "xy")
            got = self.check(p, {"x": x + y.scale(k)})
            assert got.vars == moved_last(p, "x")
            got = self.check(p, {"y": k})
            assert got.vars == tuple(v for v in p.vars if v != "y")
            got = self.check(p, {"x": Poly.const(k, p.vars)})
            assert got.vars == moved_last(p, "x")

    def test_binding_brings_in_a_new_variable(self):
        rng = random.Random(777)
        for _ in range(25):
            p = random_poly(rng, 3, zero_ok=False)
            t, y = Poly.var("t", ("t", "y")), Poly.var("y", ("t", "y"))
            b = t * y + Poly.const(rng.randint(-5, 5), ("t", "y"))
            got = self.check(p, {"x": b})
            uses_x = any(m[0] for m in p.terms)
            assert got.vars == (("y", "z", "t") if uses_x else ("y", "z"))
        # new variables come in order of first appearance: by term, then
        # by bound variable; a binding that no term uses brings in nothing
        u, tu = Poly.var("u"), Poly(("t", "u"), {(1, 1): 1})
        y_first = Poly(("x", "y"), {(0, 1): 1, (1, 0): 1})
        x_first = Poly(("x", "y"), {(1, 0): 1, (0, 1): 1})
        assert self.check(y_first, {"x": u, "y": tu}).vars == ("t", "u")
        assert self.check(x_first, {"x": u, "y": tu}).vars == ("u", "t")
        assert self.check(Poly.var("x", ("x", "y")),
                          {"y": Poly.var("s")}).vars == ("x",)

    def test_y_shift_over_a_number_field(self):
        rng = random.Random(99991)
        w = sympy.Symbol("w")
        for q in ([-2, 0, 1], [Fraction(1, 2), -3, 0, 2]):
            K = extend_field(None, UniPoly("w", [Fraction(c) for c in q]))[0]
            for _ in range(10):
                p = random_poly(rng, 2, zero_ok=False)
                p = Poly(p.vars, {m: K.element([c, rng.randint(-9, 9)])
                                  for m, c in p.terms.items()})
                t0 = K.element([Fraction(rng.randint(-9, 9), 7),
                                rng.randint(1, 9)])
                shift = Poly(("x", "y"), {(0, 1): 1, (0, 0): t0})
                got = self.check(p, {"y": shift}, w, K.minpoly)
                uses_y = any(m[1] for m in p.terms)
                assert got.vars == ("x", "y")[:1 + uses_y]


class TestShiftAgainstSubstitute:
    """Poly.shift and UniPoly.shift against Poly.substitute, itself checked
    against sympy (TestSubstituteAgainstSympy.check), on seeded
    polynomials: rational offsets with large denominators, zero offsets,
    some of three variables shifted, and offsets and coefficients in
    number fields of degree 2 to 12 and two towers."""

    @staticmethod
    def check(p, offsets, w=None, minpoly=None):
        got = p.shift(offsets)
        want = TestSubstituteAgainstSympy.check(
            p, {v: Poly.var(v, p.vars) + Poly.const(a, p.vars)
                for v, a in offsets.items()}, w, minpoly)
        assert got.vars == p.vars
        assert got == want
        return got

    def test_rational_offsets(self):
        rng = random.Random(60221)
        for _ in range(40):
            p = random_poly(rng, 3, max_terms=8, max_deg=7)
            offsets = {}
            for v in rng.sample(p.vars, rng.randint(1, 3)):
                offsets[v] = rng.choice([
                    Fraction(rng.randint(-10 ** 12, 10 ** 12),
                             rng.randint(1, 10 ** 15)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                    rng.randint(-5, 5)])
            got = self.check(p, offsets)
            assert all(isinstance(c, Fraction) for c in got.terms.values())

    def test_zero_offsets(self):
        rng = random.Random(17)
        K = extend_field(None, UniPoly("w", [Fraction(-2), 0, 1]))[0]
        for _ in range(10):
            p = random_poly(rng, 3)
            assert p.shift({}) is p
            assert p.shift({"x": 0, "z": Fraction(0)}) is p
            assert p.shift({"y": K.from_rational(0)}) is p
            assert self.check(p, {"x": 0, "y": Fraction(1, 3)}) \
                == p.shift({"y": Fraction(1, 3)})
        with pytest.raises(DomainError):
            Poly.var("x", ("x", "y")).shift({"t": 1})

    def test_number_field_offsets_and_coefficients(self):
        rng = random.Random(4711)

        def element(K):
            return K.element([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                              for _ in range(K.degree)])

        for K in eisenstein_fields():
            w = sympy.Symbol(K.name)
            for field_coeffs in (False, True):
                p = random_poly(rng, 2, max_terms=4, max_deg=3,
                                zero_ok=False)
                if field_coeffs:
                    p = Poly(p.vars, {m: element(K) for m in p.terms})
                offsets = {"x": element(K), "y": element(K)}
                if rng.randrange(2):
                    offsets[rng.choice("xy")] = Fraction(rng.randint(-9, 9),
                                                         rng.randint(1, 9))
                self.check(p, offsets, w, K.minpoly)
            u = UniPoly("x", [element(K) for _ in range(rng.randint(1, 6))])
            x = Poly.var("x")
            for a in (element(K), Fraction(rng.randint(-10 ** 9, 10 ** 9),
                                           10 ** 12 + 1)):
                want = u.to_poly().substitute({"x": x + Poly.const(a)})
                assert u.shift(a).to_poly() == want


    def test_traffic_sized_coordinates_over_degree_four_fields(self):
        # the largest shifts of the resolution: coordinates of about 1,000
        # bits over 300-bit denominators, in the quartic Eisenstein field
        # and the degree-4 tower over Q(sqrt 2), against Poly.substitute
        rng = random.Random(1000)

        def big():
            return Fraction(rng.randint(-2 ** 1000, 2 ** 1000),
                            rng.randint(1, 2 ** 300))

        def element(K):
            return K.element([big() if rng.randrange(4) else 0
                              for _ in range(K.degree)])

        quartics = [K for K in eisenstein_fields() if K.degree == 4]
        assert len(quartics) == 2
        for K in quartics:
            for field_coeffs in (False, True, True):
                p = random_poly(rng, 2, max_terms=6, max_deg=6,
                                zero_ok=False)
                p = Poly(p.vars, {m: element(K) if field_coeffs else big()
                                  for m in p.terms})
                offsets = {"x": element(K), "y": element(K)}
                if rng.randrange(2):
                    offsets[rng.choice("xy")] = big()
                got = p.shift(offsets)
                want = p.substitute({v: Poly.var(v, p.vars)
                                     + Poly.const(a, p.vars)
                                     for v, a in offsets.items()})
                assert got.vars == p.vars and got == want
                assert all(isinstance(c, NFElt) and c.field is K
                           for c in got.terms.values())
            u = UniPoly("x", [element(K) for _ in range(7)])
            x = Poly.var("x")
            for a in (element(K), big()):
                got = u.shift(a)
                assert got.to_poly() == u.to_poly().substitute(
                    {"x": x + Poly.const(a)})
                assert all(isinstance(c, NFElt) and c.field is K
                           for c in got.coeffs)


    def test_horner_shift_stopped_early(self):
        # stopped at `last`, the coefficients of degree <= last are those
        # of the whole shift, itself checked against Poly.substitute
        rng = random.Random(5040)
        t = Poly.var("t")
        for _ in range(60):
            n = rng.randint(0, 12)
            cs = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(n + 1)]
            u = rng.choice([rng.randint(-9, 9),
                            Fraction(rng.randint(-9, 9), rng.randint(1, 9))])
            full = horner_shift(list(cs), u, n)
            want = Poly(("t",), {(e,): c for e, c in enumerate(cs)}) \
                .substitute({"t": t + Poly.const(u)})
            assert {(e,): c for e, c in enumerate(full) if c} \
                == want.with_vars(("t",)).terms
            for last in range(-1, n + 2):
                got = horner_shift(list(cs), u, last)
                assert len(got) == n + 1
                assert got[:last + 1] == full[:last + 1], (cs, u, last)

    def test_shear_against_substitute(self):
        # x -> x + k y and y -> y + k x on integer and Fraction term dicts
        # up to degree 12, undone by the opposite shear
        rng = random.Random(8128)
        x, y = Poly.var("x", XY), Poly.var("y", XY)
        for n in range(40):
            p = random_poly(rng, 2, max_terms=12, max_deg=12)
            terms = p.terms
            if n % 2:
                terms = {m: rng.choice([-1, 1]) * rng.randint(1, 10 ** 12)
                         for m in terms}
                p = Poly(XY, terms)
            k = rng.choice([rng.randint(-9, 9), rng.randint(-9, 9),
                            Fraction(rng.randint(-9, 9), rng.randint(1, 9))])
            for i, image in ((0, x + y.scale(k)), (1, y + x.scale(k))):
                got = shear(terms, k, i)
                want = p.substitute({XY[i]: image}).with_vars(XY)
                assert got == want.terms, (str(p), k, i)
                if n % 2 and isinstance(k, int):
                    assert all(type(c) is int for c in got.values())
                assert shear(got, -k, i) == terms

    def test_field_x_chart_against_shift_then_cut(self):
        # the resolver's x-chart on integer coordinate vectors against the
        # whole germ shifted by Poly.shift and cut at order `keep`
        # afterwards, over Q(sqrt 2) and the degree-4 tower over it: at
        # the slope t0 = A/w the chart of the germ cleared to vectors over
        # den is den * w^m * C(wx, y/w), C the true child
        resolve_module = importlib.import_module("sextics.localsing.resolve")
        rng = random.Random(3141)
        fields = eisenstein_fields()
        sqrt2 = extend_field(None, UniPoly("w", [Fraction(-2), 0, 1]))[0]
        tower = [K for K in fields if K.degree == 4 and K.name != "w"]
        assert len(tower) == 1

        def element(K):
            return K.element([Fraction(rng.randint(-99, 99), rng.randint(1, 9))
                              for _ in range(K.degree)])

        for K in (sqrt2, tower[0]):
            for _ in range(15):
                m = rng.randint(1, 4)
                germ = {}
                for _ in range(rng.randint(1, 10)):
                    i = rng.randint(0, 6)
                    germ[(i, rng.randint(max(m - i, 0), 6))] = element(K)
                m = min(i + j for i, j in germ)
                t0 = element(K)
                top = max(i + j for i, j in germ)
                shifted = Poly(XY, {(i + j - m, j): c
                                    for (i, j), c in germ.items()}) \
                    .shift({"y": t0})
                vectors, den = clear_denominators(germ, K)
                for keep in range(top - m + 1):
                    got = resolve_module._x_chart(vectors, m, keep, t0.nums,
                                                  t0.den, K)
                    assert all(type(v) is list and len(v) == K.degree
                               for v in got.values())
                    assert {mon: K.from_ints(v, den)
                            for mon, v in got.items()} \
                        == {(a, k): c * t0.den ** (m + a - k)
                            for (a, k), c in shifted.terms.items()
                            if a + k <= keep}


class TestEvaluateAgainstSubstitute:
    """Poly.evaluate (nested Horner) against substituting constants with
    Poly.substitute, on seeded polynomials of one to four variables over Q
    and over a cubic field, at rational points and at field points."""

    @staticmethod
    def check(p, point):
        got = p.evaluate(point)
        want = p.substitute({v: Poly.const(a) for v, a in point.items()})
        assert got == want.constant_value()
        return got

    def test_over_q(self):
        rng = random.Random(2718)
        for _ in range(60):
            p = random_poly(rng, rng.randint(1, 4), max_terms=10, max_deg=9)
            point = {v: rng.choice([Fraction(rng.randint(-10 ** 9, 10 ** 9),
                                             rng.randint(1, 10 ** 6)),
                                    rng.randint(-3, 3)])
                     for v in p.vars}
            assert isinstance(self.check(p, point), Fraction)
        # unused variables need no value
        assert Poly(VARS, {(0, 2, 0, 0): 3}).evaluate({"y": 2}) == 12
        assert Poly(XY, {}).evaluate({}) == 0

    def test_over_a_cubic_field(self):
        rng = random.Random(31415)
        K = extend_field(None, UniPoly("w", [Fraction(c)
                                             for c in (-3, 6, 0, 2)]))[0]

        def element():
            return K.element([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                              for _ in range(K.degree)])

        for _ in range(30):
            p = random_poly(rng, rng.randint(1, 3), max_terms=8, max_deg=7,
                            zero_ok=False)
            if rng.randrange(2):
                p = Poly(p.vars, {m: element() for m in p.terms})
            point = {v: element() if rng.randrange(3) else
                     Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                     for v in p.vars}
            self.check(p, point)
        sextic = Poly(XY, {(i, j): Fraction(rng.randint(-9, 9))
                           for i in range(7) for j in range(7 - i)})
        self.check(sextic, {"x": element(), "y": element()})


class TestTrustedConstruction:
    """The methods that build their result through `Poly._trusted` store no
    zero coefficient, answer `is_zero` rightly and hold the terms the
    validating constructor would: seeded polynomials over Q and over number
    fields from `extend_field`, put through `+ - *`, `scale`,
    `derivative`, `substitute`, `shift`, `coeffs_in`, `homogeneous_part`,
    `with_vars` and `from_sympy` in ways that cancel."""

    @staticmethod
    def check(r: Poly, zero: bool = None) -> Poly:
        assert isinstance(r.vars, tuple) and len(set(r.vars)) == len(r.vars)
        assert all(isinstance(m, tuple) and len(m) == len(r.vars)
                   for m in r.terms)
        assert all(r.terms.values()), r.terms
        assert Poly(r.vars, r.terms).terms == r.terms
        if zero is not None:
            assert r.is_zero() == zero
        return r

    def laws(self, rng, coef):
        """Cancelling identities on polynomials whose coefficients `coef`
        draws; `coef` may return 0."""
        def poly():
            p = random_poly(rng, 2, max_terms=5, max_deg=4)
            return Poly(p.vars, {m: coef() for m in p.terms})

        chk = self.check
        p, q = poly(), poly()
        x, y = Poly.var("x", XY), Poly.var("y", XY)
        a, c = coef(), coef()
        chk(p + (-p), True)
        chk(p - p, True)
        assert chk((p + q) - q) == chk(p)
        chk(p * q - q * p, True)
        chk((p + c) * (p - c) - p * p, not c)
        chk(p.scale(0), True)
        chk(p.scale(a), p.is_zero() or not a)
        pq = p * q
        chk(pq.derivative("x") - (p.derivative("x") * q
                                  + p * chk(q.derivative("x"))), True)
        chk(Poly.const(c, XY).derivative("y"), True)
        chk(((x - y) * q).substitute({"y": x}), True)
        sheared = chk(p.substitute({"x": x + y})).with_vars(XY)
        chk(sheared.substitute({"x": x - y}).with_vars(XY) - p, True)
        assert chk(p.shift({"x": a, "y": c}).shift({"x": -a, "y": -c})) == p
        shifted = chk(((x - a) ** 2).shift({"x": a}))
        assert shifted.terms == {(2, 0): 1}
        for part in p.coeffs_in("y").values():
            assert not chk(part).is_zero()
        assert (p - p).coeffs_in("x") == {}
        for d in range(6):
            chk(p.homogeneous_part(d), all(sum(m) != d for m in p.terms))
        chk(p.with_vars(("z", "y", "x")))

    def test_over_q(self):
        rng = random.Random(8086)

        def coef():
            return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

        for _ in range(40):
            self.laws(rng, coef)
        for _ in range(10):
            p = random_poly(rng, 2, max_terms=5, max_deg=4)
            sp, den = to_sympy(p - p, XY)
            self.check(from_sympy(sp, XY), True)
            sp, den = to_sympy(p, XY)
            assert self.check(from_sympy(sp, XY)).scale(Fraction(1, den)) == p

    @pytest.mark.parametrize("minpoly", [[-2, 0, 1], [1, 1, 1],
                                         [-3, 6, 0, 0, 2]])
    def test_over_a_number_field(self, minpoly):
        rng = random.Random(sum(minpoly))
        K = extend_field(None, UniPoly("w", [Fraction(c) for c in minpoly]))[0]

        def coef():
            return K.element([Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                              if rng.randrange(3) else 0
                              for _ in range(K.degree)])

        for _ in range(15):
            self.laws(rng, coef)
        w = K.generator()
        x = Poly.var("x", XY)
        # (x + w)(x - w) is x^2 - w^2: the cross terms cancel
        prod = self.check((x + w) * (x - w))
        assert set(prod.terms) == {(2, 0), (0, 0)}


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


class TestPlantedGcd:
    def test_planted_common_factor(self):
        rng = random.Random(31337)
        for i in range(40):
            a, b = (random_poly(rng, 2, max_terms=4, max_deg=4, zero_ok=False)
                    for _ in range(2))
            # every third c is free of y
            c = random_poly(rng, 1 if i % 3 == 0 else 2, max_terms=3,
                            max_deg=3, zero_ok=False)
            assert poly_gcd(a * c, b * c) == (c * poly_gcd(a, b)).primitive()
            if not c.is_constant():
                assert not is_squarefree(a * c ** 2)
            if "y" not in c.used_vars():
                # the content in y, by `poly._primitive_last`
                cont = _primitive_last(
                    clear_denominators((a * c).with_vars(XY).terms)[0])[0]
                content = Poly(("x",), {m: Fraction(v)
                                        for m, v in cont.items()})
                assert poly_gcd(content, c).degree() == c.degree()


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
            fs = factor_rational(p)
            mults = [multiplicity(f, p) for f in fs]
            rebuilt = UniPoly("x", [p.lc()])
            for f, mult in zip(fs, mults):
                rebuilt = rebuilt * f ** mult
            assert rebuilt == p
            roots = [(-f.coeffs[0], m) for f, m in zip(fs, mults)
                     if f.degree() == 1]
            want = {}
            for root, mult in factors:
                want[root] = want.get(root, 0) + mult
            assert dict(roots) == want

    def test_linear_and_monomial_shapes_against_sympy(self):
        """The shapes answered without sympy: c*x^k and linear u, with
        large-height coefficients, against sympy's `factor_list`."""
        rng = random.Random(1729)
        x = sympy.Symbol("x")
        for _ in range(30):
            c = big_rational(rng, 10 ** 40)
            cases = [UniPoly("x", [0] * rng.randint(1, 9) + [c]),
                     UniPoly("x", [big_rational(rng, 10 ** 40), c]),
                     UniPoly("x", [0, c])]
            for u in cases:
                expr = sum(a * x ** e for e, a in enumerate(u.coeffs))
                want = sorted(
                    (UniPoly("x", [Fraction(int(a.p), int(a.q)) for a in
                                   reversed(sympy.Poly(f, x).monic()
                                            .all_coeffs())])
                     for f, _m in sympy.factor_list(expr, x)[1]),
                    key=lambda f: (f.degree(), f.coeffs))
                assert factor_rational(u) == want, str(u)

    def test_quadratics_against_sympy(self):
        """Quadratics, answered by the discriminant, against sympy's
        `factor_list` in `factor_rational`'s order (by degree, then by
        the (numerator, denominator) pairs of the coefficients): two
        rational roots, a double root, an irrational or complex pair, and
        discriminants whose numerator or denominator alone is a square."""
        rng = random.Random(3141)
        x = sympy.Symbol("x")

        def key(f):
            return (f.degree(),
                    tuple((c.numerator, c.denominator) for c in f.coeffs))

        def root():
            return big_rational(rng, rng.choice((5, 10 ** 30)))

        for _ in range(40):
            c = big_rational(rng, 10 ** 20)
            r1, r2 = root(), root()
            sq = Fraction(rng.randint(1, 30) ** 2, rng.randint(1, 30) ** 2)
            cases = [UniPoly("x", [r1 * r2, -r1 - r2, 1]),
                     UniPoly("x", [r1 * r1, -2 * r1, 1]),
                     UniPoly("x", [root(), root(), 1]),
                     UniPoly("x", [sq, 0, -1]),
                     UniPoly("x", [sq * rng.choice((2, 3, Fraction(1, 2))),
                                   0, -1]),
                     UniPoly("x", [sq, 0, 1])]
            for u in cases:
                u = u.scale(c)
                expr = sum(a * x ** e for e, a in enumerate(u.coeffs))
                want = sorted(
                    (UniPoly("x", [Fraction(int(a.p), int(a.q)) for a in
                                   reversed(sympy.Poly(f, x).monic()
                                            .all_coeffs())])
                     for f, _m in sympy.factor_list(expr, x)[1]),
                    key=key)
                assert factor_rational(u) == want, str(u)


# Q-irreducible curves; several split over a number field
_PLANTED = ("x", "x - 2*y + 1", "y + 3", "x^2 + y^2", "x^2 - 2*y^2",
            "x^2 + y^2 - 3", "y^2 - x^3 - 2", "x^3 + y^3 + 1", "x^4 + y^4 + 1")


class TestDecomposeMetamorphic:
    def test_planted_factors_under_affine_change(self):
        rng = random.Random(2718)
        xy = ("x", "y")
        planted = [parse_poly(t, xy) for t in _PLANTED]
        x, y = Poly.var("x", xy), Poly.var("y", xy)
        for _ in range(30):
            while True:
                a, b, c, d = (Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                              for _ in range(4))
                if a * d != b * c:
                    break
            change = {"x": x.scale(a) + y.scale(b)
                      + Poly.const(rng.randint(-2, 2), xy),
                      "y": x.scale(c) + y.scale(d)
                      + Poly.const(Fraction(rng.randint(-2, 2), 3), xy)}
            want = {}
            budget = 8
            for p in rng.sample(planted, rng.randint(1, 3)):
                m = rng.randint(1, 2)
                if p.degree() * m > budget:
                    continue
                budget -= p.degree() * m
                want[p.substitute(change).with_vars(xy).primitive()] = m
            c = Poly.const(Fraction(rng.randint(1, 9), rng.randint(-4, -1)),
                           xy)
            f, part = c, c
            for p, m in want.items():
                f, part = f * p ** m, part * p
            if max(want.values()) > 1:
                # decompose takes reduced curves: f is refused, and the
                # checks run on its squarefree part
                with pytest.raises(PolyError):
                    decompose(f)
                f = part
            d = decompose(f)
            assert set(d.factors) == set(want), f
            assert len(d.factors) == len(want)
            assert d.degrees() == tuple(sorted(p.degree() for p in want))
            assert d.reconstruct().primitive() == f.primitive()


class TestParseFormatCorpus:
    def test_roundtrip_every_corpus_polynomial(self):
        for rec in builtin_examples():
            for key, poly in rec.doc.polys.items():
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


def reference_intersection(g: Poly, h: Poly) -> int:
    """The reduction algorithm with field division in every step, on any
    coefficients: h <- h - c*x^k*g with c = lc(b) / lc(a), then division
    by the rational content."""
    def scale_reduce(terms):
        c = rational_content(terms.values())
        return terms if c == 1 else {m: v / c for m, v in terms.items()}

    g = g.with_vars(("x", "y"))
    h = h.with_vars(("x", "y"))
    if g.is_zero() or h.is_zero():
        raise InfiniteIntersectionError("zero germ")
    limit = g.degree() * h.degree()
    bound = limit + 2
    G = scale_reduce({m: c for m, c in g.terms.items() if sum(m) < bound})
    H = scale_reduce({m: c for m, c in h.terms.items() if sum(m) < bound})
    total = 0
    while True:
        if (0, 0) in G or (0, 0) in H:
            return total
        a = [i for i, j in G if j == 0]
        b = [i for i, j in H if j == 0]
        if not a and not b:
            raise InfiniteIntersectionError("both divisible by y")
        if not a or not b:
            if not a:
                G = {(i, j - 1): c for (i, j), c in G.items()}
                total += min(b)
            else:
                H = {(i, j - 1): c for (i, j), c in H.items()}
                total += min(a)
            if total > limit:
                raise InfiniteIntersectionError("past the Bezout bound")
            continue
        r, s = max(a), max(b)
        if r > s:
            G, H = H, G
            r, s = s, r
        c = H[(s, 0)] / G[(r, 0)]
        k = s - r
        for (i, j), cg in G.items():
            mon = (i + k, j)
            if i + k + j >= bound:
                continue
            v = H.get(mon, 0) - c * cg
            if v:
                H[mon] = v
            else:
                H.pop(mon, None)
        if not H:
            raise InfiniteIntersectionError("a germ reduces to zero")
        H = scale_reduce(H)


def big_rational(rng, height=10 ** 18) -> Fraction:
    """A nonzero rational with numerator and denominator up to `height`."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, height),
                    rng.randint(1, height))


def linear_change(rng, *polys: Poly) -> list:
    """The polys under one invertible linear change (x, y) -> (a x + b y,
    c x + e y) with large-height rational entries; local intersection
    numbers at the origin keep."""
    while True:
        a, b, c, e = (big_rational(rng) for _ in range(4))
        if a * e != b * c:
            break
    vs = ("x", "y")
    change = {"x": Poly(vs, {(1, 0): a, (0, 1): b}),
              "y": Poly(vs, {(1, 0): c, (0, 1): e})}
    return [p.with_vars(vs).substitute(change) for p in polys]


def intersection_or_raise(g: Poly, h: Poly, im):
    """im(g, h), or the string "shared" when it raises
    InfiniteIntersectionError."""
    try:
        return im(g, h)
    except InfiniteIntersectionError:
        return "shared"


class TestIntersectionKernelAgainstReference:
    """The kernel (integers over Q, field division over a number field)
    against `reference_intersection`, on inputs of large height, shared
    components, mixed rational / number-field pairs and unit multiples."""

    @pytest.fixture(autouse=True)
    def time_limit(self):
        """Fail after 60 s rather than hang: an elimination step that does
        not cancel the leading term makes the reduction loop forever."""
        def expire(signum, frame):
            raise TimeoutError("intersection kernel still running after 60 s")
        if not hasattr(signal, "SIGALRM"):
            yield
            return
        old = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 60)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def agree(self, g: Poly, h: Poly):
        """Both orders of (g, h) give the reference's answer; returns it."""
        want = intersection_or_raise(g, h, reference_intersection)
        for p, q in ((g, h), (h, g)):
            got = intersection_or_raise(p, q, intersection_multiplicity_origin)
            assert got == want, (str(p), str(q))
        return want

    def test_large_heights_over_q(self):
        rng = random.Random(1618)
        seen = set()
        for _ in range(20):
            g0, h0 = random_germ(rng), random_germ(rng)
            if rng.random() < 0.5:
                g0 = g0 * random_germ(rng, max_deg=2)
            g, h = linear_change(rng, g0, h0)
            # unit multiples with large heights; negative leading terms too
            g = g.scale(big_rational(rng))
            h = h.scale(-abs(big_rational(rng)))
            want = self.agree(g, h)
            assert want == intersection_or_raise(
                g0, h0, intersection_multiplicity_origin)
            seen.add(want)
        assert len(seen) >= 4, seen

    def test_large_coefficients_without_a_change(self):
        rng = random.Random(2718)
        for _ in range(30):
            g, h = (Poly(("x", "y"), {m: big_rational(rng)
                                      for m in random_germ(rng).terms})
                    for _ in range(2))
            self.agree(g, h)

    def test_shared_component_raises(self):
        rng = random.Random(1414)
        for _ in range(15):
            p, = linear_change(rng, random_germ(rng, max_deg=2))
            g = p * random_poly(rng, max_terms=3, max_deg=2, zero_ok=False)
            h = p * random_poly(rng, max_terms=3, max_deg=2, zero_ok=False)
            assert self.agree(g.scale(big_rational(rng)), h) == "shared"

    @pytest.mark.parametrize("minpoly", [[-2, 0, 1], [-2, 0, 0, 1]],
                             ids=["sqrt2", "cbrt2"])
    def test_mixed_pairs_over_a_number_field(self, minpoly):
        rng = random.Random(1732 + len(minpoly))
        K = NumberField(UniPoly("w", [Fraction(c) for c in minpoly]))
        n = K.degree
        w = K.generator()
        vs = ("x", "y")
        # the rational curve y^n = 2 x^n has the branch y = w x over K
        curve = Poly(vs, {(0, n): 1, (n, 0): -2})
        branch = Poly(vs, {(0, 1): 1, (1, 0): -w})
        seen = set()
        for _ in range(8):
            # a rational germ and a germ with irrational coefficients whose
            # contact depends on the orders of `tail` and `extra`
            low = rng.randint(n + 1, n + 3)
            tail = Poly(vs, {m: c for m, c in random_germ(rng, 5).terms.items()
                             if sum(m) >= low})
            g = (curve + tail).scale(big_rational(rng))
            low = rng.randint(2, 4)
            extra = Poly(vs, {m: K.element([big_rational(rng, 10 ** 6)
                                            for _ in range(n)])
                              for m in random_germ(rng, 5).terms
                              if sum(m) >= low})
            h = (branch + extra) * K.element([big_rational(rng, 10 ** 6)
                                              for _ in range(n)])
            seen.add(self.agree(g, h))
            # the branch is a component of the curve
            shared = branch * (Poly.const(1, vs) + Poly.var("x", vs))
            assert self.agree(curve.scale(big_rational(rng)),
                              shared) == "shared"
            # a rational germ against a random field germ
            r = random_germ(rng).scale(big_rational(rng))
            f = Poly(vs, {m: K.element([c] + [big_rational(rng, 10 ** 6)
                                              for _ in range(n - 1)])
                          for m, c in random_germ(rng).terms.items()})
            self.agree(r, f)
        assert len(seen) >= 2, seen

    @staticmethod
    def coefficient(minpoly):
        """A coefficient over Q, or with every coordinate nonzero over the
        number field with that minimal polynomial."""
        if minpoly is None:
            return Fraction(-3, 7)
        K = NumberField(UniPoly("w", [Fraction(c) for c in minpoly]))
        return K.element([Fraction(2 * i + 1, 5 - i) for i in range(K.degree)])

    @pytest.mark.parametrize("minpoly", [None, [-2, 0, 1], [-2, 0, 0, 1]],
                             ids=["Q", "sqrt2", "cbrt2"])
    def test_contact_around_each_truncation_order(self, minpoly):
        """I at n - 1, n and n + 1 for the order n of the first, second and
        third run, which forces up to three doublings.  Some of these runs
        reach a running sum of exactly n on truncated germs whose I is
        larger."""
        c = self.coefficient(minpoly)
        vs = ("x", "y")
        x, y = Poly.var("x", vs), Poly.var("y", vs)
        one = Poly.const(1, vs)
        for run in range(3):
            for step in (-1, 0, 1):
                # two smooth germs: the runs truncate at 4, 8, 16, ...
                i = (4 << run) + step
                for k in (1, 2, i - 1):
                    g = y - x ** k
                    assert self.agree(g, g - (x ** i).scale(c)) == i
                # a second branch y = x^(k + 2), which meets g with I = k,
                # makes ord h = 2: the runs truncate at 6, 12, 24, ...
                i = (6 << run) + step
                for k in (1, 2, i // 2 - 1):
                    g = y - x ** k
                    h = (y - x ** (k + 2)) * (g - (x ** (i - k)).scale(c))
                    assert self.agree(g, h) == i
                    assert self.agree(g * (one + x), h.scale(c)) == i

    @pytest.mark.parametrize("minpoly", [None, [-2, 0, 1], [-2, 0, 0, 1]],
                             ids=["Q", "sqrt2", "cbrt2"])
    def test_contact_around_the_first_four_orders(self, minpoly):
        """I at n - 1, n and n + 1 for the first four orders n of the
        schedule, which starts at ord g * ord h + 2 and grows to
        n * 5 // 4 + 1: 3, 4, 6, 8 for two smooth germs and 4, 6, 8, 11
        when ord h = 2."""
        c = self.coefficient(minpoly)
        vs = ("x", "y")
        x, y = Poly.var("x", vs), Poly.var("y", vs)
        one = Poly.const(1, vs)
        for n in (3, 4, 6, 8):
            for i in (n - 1, n, n + 1):
                for k in {1, 2, i - 1}:
                    g = y - x ** k
                    assert self.agree(g, g - (x ** i).scale(c)) == i
        for n in (4, 6, 8, 11):
            for i in (n - 1, n, n + 1):
                # y = x^(k + 2) meets g with I = k, and g - c*x^(i - k)
                # meets it with I = i - k
                for k in {1, 2, i // 2 - 1} & set(range(1, i)):
                    g = y - x ** k
                    h = (y - x ** (k + 2)) * (g - (x ** (i - k)).scale(c))
                    assert self.agree(g, h) == i
                    assert self.agree(g * (one + x), h.scale(c)) == i

    @pytest.mark.parametrize("minpoly", [None, [-2, 0, 1], [-2, 0, 0, 1]],
                             ids=["Q", "sqrt2", "cbrt2"])
    def test_contact_after_the_running_sum_grows(self, minpoly):
        """h = y^j * (g*u - c*x^i) + q*g with g = y - x^k and a unit u has
        I = j*k + i: the reduction divides by y j times, each raising the
        running sum t by k and lowering the order to n - t, before the
        elimination that decides the last i.  I is placed at n - 1, n and
        n + 1 for every order n the runs take, so the decisive elimination
        runs just inside and just outside the lowered order.  With
        u = 1 + x^m, g*u has the term x^(m + k) of degree n - t - 1 or
        n - t; dropping it leaves a germ that meets g with I = m + k, so a
        run truncated one degree too low would return a wrong n - 1."""
        c = self.coefficient(minpoly)
        vs = ("x", "y")
        x, y = Poly.var("x", vs), Poly.var("y", vs)
        one, zero = Poly.const(1, vs), Poly.const(0, vs)
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                g = y - x ** k
                n = j + 3    # ord g * ord h + 2, ord h = j + 1
                while n <= 16:
                    edge = n - j * k - k - 1
                    variants = [(one, zero), (one, x * y + (y ** 2).scale(c))]
                    variants += [(one + x ** m, zero) for m in (edge, edge + 1)
                                 if m >= 1]
                    for want in (n - 1, n, n + 1):
                        i = want - j * k
                        if i < 1:
                            continue
                        for u, q in variants:
                            h = (y ** j) * (g * u - (x ** i).scale(c)) + q * g
                            assert self.agree(g, h) == want, (j, k, i, str(u))
                            assert self.agree(g * (one - y),
                                              h.scale(c)) == want
                    n = n * 5 // 4 + 1

    @pytest.mark.parametrize("minpoly", [None, [-2, 0, 1], [-2, 0, 0, 1]],
                             ids=["Q", "sqrt2", "cbrt2"])
    def test_random_germs_against_the_bezout_reduction(self, minpoly):
        """Seeded random germs, times powers of y and x so that the
        running sum grows before and between eliminations, against the
        reduction at the Bezout order with no lowering
        (`reference_intersection`); shared components included."""
        rng = random.Random(16180 + len(minpoly or ()))
        vs = ("x", "y")
        x, y = Poly.var("x", vs), Poly.var("y", vs)
        K = None if minpoly is None else NumberField(
            UniPoly("w", [Fraction(c) for c in minpoly]))

        def coefficient():
            a = Fraction(rng.randint(-3, 3))
            if K is None or rng.random() < 0.5:
                return a
            return K.element([a, Fraction(rng.randint(-2, 2))])

        def germ():
            while True:
                p = Poly(vs, {m: coefficient()
                              for m in random_germ(rng, 4).terms})
                if not p.is_zero():
                    return p

        seen = set()
        for _ in range(25):
            g, h = germ(), germ()
            h = h * y ** rng.randint(0, 3) * x ** rng.randint(0, 1)
            if rng.random() < 0.5:
                g = g * (y - x ** rng.randint(1, 3)) ** rng.randint(1, 2)
            if rng.random() < 0.2:
                h = h * g
            seen.add(self.agree(g, h))
        assert "shared" in seen and len(seen) >= 6, seen

    @pytest.mark.parametrize("minpoly", [None, [-2, 0, 1], [-2, 0, 0, 1]],
                             ids=["Q", "sqrt2", "cbrt2"])
    def test_shared_component_past_the_first_order(self, minpoly):
        """Below degree 9 the shared branch y = c*x^9 looks like y = 0, so
        the truncated runs prove nothing; the run at the Bezout bound
        raises."""
        c = self.coefficient(minpoly)
        vs = ("x", "y")
        x, y = Poly.var("x", vs), Poly.var("y", vs)
        one = Poly.const(1, vs)
        p = y - (x ** 9).scale(c)
        for g, h in ((p * (one + x), p * (y + x)), (p, p * (y + x)),
                     (p * (y - x ** 2), p * (y + x ** 3)),
                     ((p * p).scale(c), p * (one - y))):
            assert self.agree(g, h) == "shared"

    def test_unit_multiples_keep_the_number(self):
        rng = random.Random(577)
        im = intersection_multiplicity_origin
        done = 0
        while done < 20:
            g, h = random_germ(rng), random_germ(rng)
            if not coprime(g, h):
                continue
            want = im(g, h)
            a, b = big_rational(rng), big_rational(rng)
            assert im(g.scale(a), h.scale(b)) == want, (str(g), str(h))
            g2, h2 = linear_change(rng, g, h)
            assert im(g2.scale(a), h2.scale(b)) == want
            done += 1
