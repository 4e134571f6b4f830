import copy
import pickle
import random
from fractions import Fraction

import pytest
import sympy
from sympy_bridge import from_sympy, to_sympy
from test_numfield import _sympy_fields, eisenstein_fields

from sextics import docs, poly
from sextics.catalog import _load_data
from sextics.localsing import classify
from sextics.numfield import NFElt, NumberField
from sextics.poly import (
    MAX_DEGREE,
    MAX_PAREN_DEPTH,
    MAX_POWER_BITS,
    MAX_TERMS,
    DomainError,
    Poly,
    PolySyntaxError,
    UniPoly,
    format_poly,
    is_squarefree,
    parse_poly,
    parse_rational,
    poly_gcd,
    resultant,
    unipoly_gcd,
)
from sextics.torus import TorusPair

X = ("x",)
XY = ("x", "y")


def P(text, variables=XY):
    return parse_poly(text, variables)


class TestParse:
    def test_simple(self):
        p = P("x^2 - 1", X)
        assert p.terms == {(2,): Fraction(1), (0,): Fraction(-1)}

    def test_remark_sextic_degree(self):
        text = ("(y^2 + (x + 1)*y - x^2)^3 + (y^3 + (16/3)*x*y^2 + 1*y^2"
                " + (6*x^2 + 3*x)*y + x^3)^2")
        p = P(text)
        assert p.degree() == 6

    def test_syntax_error_offset(self):
        with pytest.raises(PolySyntaxError) as err:
            P("x + ", X)
        assert err.value.position == 4

    def test_undeclared_symbol(self):
        with pytest.raises(PolySyntaxError):
            P("x + z", XY)

    def test_negative_exponent_rejected(self):
        with pytest.raises(PolySyntaxError):
            P("x^-2", X)

    def test_nesting_at_the_bound(self):
        n = MAX_PAREN_DEPTH
        text = "(" * n + "x" + ")" * n + "*" + "(" * n + "y" + ")" * n
        assert P(text) == P("x*y")

    def test_nesting_past_the_bound(self):
        n = MAX_PAREN_DEPTH + 1
        with pytest.raises(PolySyntaxError) as err:
            P("x + " + "(" * n + "y" + ")" * n)
        # the offset of the first '(' past the bound
        assert err.value.position == 4 + MAX_PAREN_DEPTH

    @pytest.mark.parametrize("text, position", [
        ("(x + y + 1)^999", 12), ("x*y^33", 4), ("1 + (x^2 + y)^17", 14),
        ("2^16385", 2), ("(10^200)^25", 9), ("(1/3)^10500", 6)])
    def test_power_past_the_bounds_refused_at_its_exponent(self, text,
                                                          position):
        with pytest.raises(PolySyntaxError) as err:
            P(text)
        assert err.value.position == position

    @pytest.mark.parametrize("text, position", [
        ("x^20*y^13", 4), ("x*(x^16 + y)*y^16", 12),
        ("*".join(["(x + y + 1)"] * 999), 32 * 12 - 1)],
        ids=["monomials", "third-factor", "999-factors"])
    def test_product_past_the_degree_bound_refused_at_its_star(self, text,
                                                               position):
        # refused before the expansion: 999 factors would take hours
        with pytest.raises(PolySyntaxError) as err:
            P(text)
        assert err.value.position == position

    def test_products_at_the_degree_bound(self):
        assert P("x^16*y^16").degree() == MAX_DEGREE
        assert P("*".join(["(x + y + 1)"] * MAX_DEGREE)).degree() \
            == MAX_DEGREE
        # a zero or constant factor adds no degree
        assert P("x^32*0*5").is_zero()

    def test_powers_at_the_bounds(self):
        assert P("y^%d" % MAX_DEGREE).degree() == MAX_DEGREE
        assert P("(x^2 + y)^%d" % (MAX_DEGREE // 2)).degree() \
            == MAX_DEGREE
        assert P("2^%d" % MAX_POWER_BITS, X).constant_value() \
            == 2 ** MAX_POWER_BITS
        assert P("10^200", X).constant_value() == 10 ** 200

    def test_term_count_bounded_within_the_degree_bound(self):
        five = ("x", "y", "s", "t", "u")
        base = "(x + y + s + t + u + 1)"
        # C(6 + 4 - 1, 4) = 126 terms at most: expanded
        assert len(parse_poly(base + "^4", five).terms) == 126
        # a zero base counts as one term
        assert P("0^0").constant_value() == 1 and P("(x - x)^3").is_zero()
        # C(6 + 16 - 1, 16) = 20349 at ^16, refused at its exponent; and
        # at the seventh '*', 792 terms so far times 6, refused there
        for text, position in [(base + "^16", 24),
                               ("*".join([base] * 16), 167)]:
            with pytest.raises(PolySyntaxError) as err:
                parse_poly(text, five)
            assert err.value.position == position
            assert "exceeds %d" % MAX_TERMS in str(err.value)

    def test_fraction_coefficient(self):
        p = P("3/4*x", X)
        assert p.terms == {(1,): Fraction(3, 4)}
        assert P("(2/3)^2*x", X).terms == {(1,): Fraction(4, 9)}

    @pytest.mark.parametrize("text, position", [
        ("3/2^2*x", 3), ("x + 2/3 ^ 2", 8), ("(1/2)*x - 5/7^0", 13)])
    def test_power_of_bare_fraction_rejected(self, text, position):
        # the usual precedence reads 3/2^2 as 3/4, a fraction atom as 9/4
        with pytest.raises(PolySyntaxError) as err:
            P(text, X)
        assert err.value.position == position

    def test_leading_minus(self):
        p = P("-y^2 + y - x^2")
        assert p == P("0 - y^2 + y - x^2")

    def test_juxtaposition_rejected(self):
        with pytest.raises(PolySyntaxError):
            P("2 x", X)

    @pytest.mark.parametrize("text, position", [
        ("x^\u00b2 + 1", 2),           # superscript two
        ("\u0663*x", 0),               # Arabic-Indic three
        ("x + \uff13", 4),             # fullwidth three
        ("x + 1/\u0663", 6),
        ("x + \u00bd", 4),             # vulgar fraction one half
    ])
    def test_only_ascii_digits_are_digits(self, text, position):
        with pytest.raises(PolySyntaxError) as err:
            P(text, X)
        assert err.value.position == position

    @pytest.mark.parametrize("template", ["x + {}", "x + 1/{}", "{}/7*x",
                                          "x^{}"])
    def test_overlong_literal_refused_at_its_offset(self, template):
        digits = "9" * 5000
        text = template.format(digits)
        with pytest.raises(PolySyntaxError) as err:
            P(text, X)
        assert err.value.position == text.index(digits)
        assert "5000 digits" in str(err.value)


# a sum of the 66 monomials x^i*y^j with i + j <= 10
_SUM66 = "(" + " + ".join("x^%d*y^%d" % (i, d - i)
                          for d in range(11) for i in range(d + 1)) + ")"
_QUADRIC = "(x^2 + x*y + y^2 + x + y + 1)"


class TestParseErrorContract:
    """Each place the parser refuses its input, with the message and the
    offset it reports there."""

    @pytest.mark.parametrize("text, message, offset", [
        (" ", "expected a rational, symbol or '('", 1),
        ("x + ", "expected a rational, symbol or '('", 4),
        ("*x", "expected a rational, symbol or '('", 0),
        ("x*-y", "expected a rational, symbol or '('", 2),
        ("$", "unexpected character '$'", 0),
        ("x^ $", "unexpected character '$'", 3),
        ("(x $", "unexpected character '$'", 3),
        ("(x/2)", "unexpected character '/'", 2),
        ("/2", "unexpected character '/'", 0),
        ("7 / / 3", "unexpected character '/'", 4),
        ("x $", "trailing input", 2),
        ("x/2", "trailing input", 1),
        ("2 x", "trailing input", 2),
        ("x^2^2", "trailing input", 3),
        ("2/x", "denominator must be a positive integer", 2),
        ("2/0", "denominator must be a positive integer", 2),
        ("2/ ", "denominator must be a positive integer", 3),
        ("2/3^2", "a power of a fraction needs parentheses", 3),
        ("1/ 2 ^2", "a power of a fraction needs parentheses", 5),
        ("x^y", "exponent must be a nonnegative integer", 2),
        ("x^", "exponent must be a nonnegative integer", 2),
        ("x + z", "undeclared symbol 'z'", 4),
        ("(x", "expected ')'", 2),
        ("(" * 101 + "x" + ")" * 101, "parentheses nested deeper than 100",
         100),
        ("x^33", "power of degree 33 exceeds 32", 2),
        ("2^16385", "power of 16385 bits exceeds 16384", 2),
        ("(10^200)^25", "power of 16609 bits exceeds 16384", 9),
        # an exponent past the range of a float, and bits past int's digit
        # limit: no OverflowError, no ValueError
        ("x^6 + 2^" + "9" * 400, "power of over 2^64 bits exceeds 16384", 8),
        ("3^" + "9" * 4300, "power of over 2^64 bits exceeds 16384", 2),
        (_QUADRIC + "^16", "power of up to 20349 terms exceeds 4096",
         len(_QUADRIC) + 1),
        ("x^20*y^13", "product of degree 33 exceeds 32", 4),
        (_SUM66 + "*" + _SUM66, "product of up to 4356 terms exceeds 4096",
         len(_SUM66)),
        ("x + " + "9" * 5000, "integer literal of 5000 digits is too long",
         4),
    ], ids=lambda v: v[:12] if isinstance(v, str) else None)
    def test_message_and_offset(self, text, message, offset):
        with pytest.raises(PolySyntaxError) as err:
            P(text)
        assert (str(err.value), err.value.position) \
            == ("%s (at offset %d)" % (message, offset), offset)

    @pytest.mark.parametrize("base", ["1", "-1", "0", "(1)", "(1/1)"])
    def test_huge_exponent_of_a_unit_or_zero(self, base):
        # a power of 1, -1 or 0 has no bits to bound, whatever its exponent
        value = P(base + "^" + "7" * 400)
        assert value == P("-1" if base == "-1" else "1" if base != "0" else "0")

    @pytest.mark.parametrize("head", ["0*", "0/5*", "(x+y+1)^32*0*",
                                      "(x - x)*"])
    def test_zero_product_is_not_multiplied_out(self, head):
        # every bound passes once a product is zero; its later factors
        # are read and checked but not multiplied into a product of
        # degree 320 and tens of thousands of terms
        text = head + "*".join(["(x+y+1)^32"] * 10)
        assert P(text + " + x") == P("x")
        with pytest.raises(PolySyntaxError, match="power of degree 33"):
            P(text + "*x^33")

    @pytest.mark.parametrize("text, expected", [
        ("x ", "x"), (" x + 1 \t", "x + 1"), ("7 / 3*x", "7/3*x"),
        ("7/ 3", "7/3"), ("7 /3", "7/3"), ("2^3 ", "8")])
    def test_white_space_between_tokens(self, text, expected):
        assert P(text) == P(expected)


class TestParseRational:
    @pytest.mark.parametrize("text, value", [
        ("3", Fraction(3)), (" -7/2 ", Fraction(-7, 2)),
        ("+4/6", Fraction(2, 3)), ("-0", Fraction(0)), ("12/1", Fraction(12))])
    def test_literals(self, text, value):
        got = parse_rational(text)
        assert type(got) is Fraction and got == value

    @pytest.mark.parametrize("text, message, offset", [
        ("1e5", "not a rational literal: '1e5'", 0),
        (" 1 / 2", "not a rational literal: '1 / 2'", 1),
        ("", "not a rational literal: ''", 0),
        ("--1", "not a rational literal: '--1'", 0),
        ("1/0", "denominator must be a positive integer", 2),
        (" -" + "9" * 5000, "integer literal of 5000 digits is too long", 2),
        ("1/" + "9" * 5000, "integer literal of 5000 digits is too long", 2),
    ], ids=lambda v: v[:8] if isinstance(v, str) else None)
    def test_refused(self, text, message, offset):
        with pytest.raises(PolySyntaxError) as err:
            parse_rational(text)
        assert (str(err.value), err.value.position) \
            == ("%s (at offset %d)" % (message, offset), offset)


def _random_sum(r, vs, depth):
    """(text, sympy expression, degree) of a seeded random sum of
    products, with an optional leading sign."""
    text, expr, degree = "", 0, 0
    for k in range(r.randint(1, 3)):
        t, e, d = _random_product(r, vs, depth)
        sign = r.choice(["", "", "-", "+"]) if not k else r.choice("+-")
        text += (" %s " % sign if k else sign) + t
        expr = expr - e if sign == "-" else expr + e
        degree = max(degree, d)
    return text, expr, degree


def _random_product(r, vs, depth):
    text, expr, degree = [], 1, 0
    for _ in range(r.randint(1, 3)):
        k = r.randrange(5 if depth < 3 else 3)
        if k == 0:
            v = r.choice(vs)
            t, e, d = v, sympy.Symbol(v), 1
        elif k == 1:
            n = r.randint(0, 30)
            t, e, d = str(n), sympy.Integer(n), 0
        elif k == 2:
            # a fraction literal takes no power
            p, q = r.randint(0, 40), r.randint(1, 12)
            text.append("%d/%d" % (p, q))
            expr *= sympy.Rational(p, q)
            continue
        else:
            t, e, d = _random_sum(r, vs, depth + 1)
            t = "(" + t + ")"
        if r.random() < 0.4:
            n = r.randint(0, 8 // max(d, 1))
            t, e, d = "%s^%d" % (t, n), e ** n, d * n
        if degree + d > 24:
            continue
        text.append(t)
        expr *= e
        degree += d
    if not text:
        return "1", 1, 0
    return "*".join(text), expr, degree


class TestParseAgainstSympy:
    """parse_poly against sympy's expansion, through the bridge: seeded
    random expressions and every shipped polynomial text."""

    @staticmethod
    def agrees(p, expr, vs):
        assert p.vars == tuple(vs)
        assert all(type(c) is Fraction for c in p.terms.values())
        integral, d = to_sympy(p, vs)
        assert sympy.expand(integral.as_expr() - d * expr) == 0

    @pytest.mark.parametrize("nvars", [2, 3, 4, 5])
    def test_random_expressions(self, nvars):
        r = random.Random(nvars)
        vs = ("x", "y", "s", "t", "u")[:nvars]
        for _ in range(60):
            text, expr, _d = _random_sum(r, vs, 0)
            self.agrees(parse_poly(text, vs), sympy.expand(expr), vs)

    def test_shipped_texts(self, monkeypatch):
        texts = []

        def recording(text, variables):
            texts.append((text, tuple(variables)))
            return parse_poly(text, variables)
        monkeypatch.setattr(docs, "parse_poly", recording)
        monkeypatch.setattr(classify, "parse_poly", recording)
        for doc in docs.parse_documents(_load_data("examples.txt")):
            for claim in doc.claims:
                if claim.kind == "restriction-y0":
                    texts.append((claim.payload, doc.varlist()))
                elif claim.kind == "factorization":
                    texts.append((claim.payload, XY))
        corpus = len(texts)
        for t in classify.recognition_types():
            classify.normal_form_germ(t)
        assert corpus >= 72 and len(texts) - corpus >= 48
        for text, vs in texts:
            names = {v: sympy.Symbol(v) for v in vs}
            expr = sympy.parse_expr(text.replace("^", "**"),
                                    local_dict=names)
            self.agrees(parse_poly(text, vs), sympy.expand(expr), vs)


class TestFormat:
    @pytest.mark.parametrize(
        "text",
        [
            "x^2 - 1",
            "-y^2 + y - x^2",
            "x^3 + 3*x^2*y + 3*x*y^2 + y^3",
            "1/2*x - 3/4",
            "0",
            "x*y",
        ],
    )
    def test_roundtrip(self, text):
        p = P(text)
        assert parse_poly(format_poly(p), XY) == p

    def test_graded_lex_order(self):
        p = P("y + x + x*y + 1")
        assert format_poly(p) == "x*y + x + y + 1"


class TestArith:
    def test_pow(self):
        assert P("y") ** 3 == P("y^3")

    def test_b312_product(self):
        # conjugate-conic product quartic times the rational conic
        quartic = P("12*y^4") - P("3*y^2 + y - x^2") ** 2
        sextic = quartic * P("x^2 - y")
        direct = (P("-y^2 + y - x^2") ** 3
                  + P("y^3 - 3*y^2 + 3*y*x^2") ** 2)
        assert sextic == direct

    def test_substitute(self):
        assert P("x^2 + y^2").substitute({"y": Poly.const(0)}) == P("x^2", X)

    def test_substitute_poly(self):
        p = P("y - x^2").substitute({"y": P("x + 1", X)})
        assert p == P("x + 1 - x^2", X)

    def test_derivative(self):
        assert P("y^3 + x^6").derivative("y") == P("3*y^2")
        f = P("x^2*(x^2 - 1)^2", X)
        d = f.derivative("x")
        assert d == P("2*x*(x^2 - 1)*(3*x^2 - 1)", X)
        assert Poly.const(5, X).derivative("x").is_zero()


class TestUniPolyView:
    @pytest.mark.parametrize("text, variables, var, coeffs", [
        ("7/2", XY, "t", [Fraction(7, 2)]),
        ("0", XY, "t", []),
        ("3*y^2 - y", XY, "y", [0, -1, 3]),
        ("3*y^2 - y", XY, "z", [0, -1, 3]),
    ])
    def test_from_poly(self, text, variables, var, coeffs):
        u = UniPoly.from_poly(P(text, variables), var)
        assert u == UniPoly(var, coeffs)

    def test_from_poly_bivariate(self):
        with pytest.raises(DomainError):
            UniPoly.from_poly(P("x*y + 1"), "y")


@pytest.mark.parametrize("minpoly", [[-2, 0, 1], [-2, 0, 0, 1]],
                         ids=["sqrt2", "cbrt2"])
class TestUniPolyOverAField:
    """Every coefficient of a result over K = Q(w) is a field element,
    zeros included."""

    @staticmethod
    def _assert_field(u, field):
        assert u.coeffs and all(isinstance(c, NFElt) and c.field is field
                                for c in u.coeffs), u.coeffs

    def test_product_quotient_and_derivative(self, minpoly):
        field = NumberField(UniPoly("t", minpoly))
        w = field.generator()
        one, zero = field.from_rational(1), field.from_rational(0)
        a = UniPoly("y", [field.from_rational(-2), zero, one])  # y^2 - 2
        b = UniPoly("y", [w, zero, one])                        # y^2 + w
        prod = a * b
        self._assert_field(prod, field)
        self._assert_field(prod.derivative(), field)
        q, r = prod.divmod(b)
        assert q == a and r.is_zero()
        self._assert_field(q, field)
        q, r = (prod + UniPoly("y", [one, w])).divmod(b)
        self._assert_field(q, field)
        self._assert_field(r, field)

    def test_from_poly(self, minpoly):
        field = NumberField(UniPoly("t", minpoly))
        w = field.generator()
        u = UniPoly.from_poly(Poly(("y",), {(3,): w, (0,): w * w}), "y")
        self._assert_field(u, field)
        assert u.degree() == 3

    def test_shift(self, minpoly):
        # rational coefficients shifted by a field element, and field
        # coefficients shifted by a rational: every coefficient of the
        # result is a field element
        field = NumberField(UniPoly("t", minpoly))
        w = field.generator()
        p = P("x^2*y + y^3 + x")
        for q, offsets in ((p, {"y": w}), (p, {"x": w, "y": 1 - w}),
                           (p.scale(w), {"y": Fraction(-2, 3)})):
            got = q.shift(offsets)
            assert got.terms and all(isinstance(c, NFElt) and c.field is field
                                     for c in got.terms.values()), got.terms
            assert got.shift({v: -a for v, a in offsets.items()}) == q
        u = UniPoly("y", [1, 0, 3])
        self._assert_field(u.shift(w), field)
        assert u.shift(w) == UniPoly("y", [1 + 3 * w * w, 6 * w, 3])
        self._assert_field(UniPoly("y", [w, 0, 0, 1]).shift(Fraction(1, 2)),
                           field)


@pytest.mark.parametrize("minpoly", [None, [-2, 0, 1], [-2, 0, 0, 1]],
                         ids=["Q", "sqrt2", "cbrt2"])
class TestUniPolyArithAgainstPoly:
    """UniPoly's +, -, * and ** agree with Poly's on to_poly(), keep no
    zero top coefficient, and agree with the values at a few points."""

    @staticmethod
    def _pairs(minpoly):
        rng = random.Random(35)
        if minpoly is None:
            one, w = Fraction(1), Fraction(1)
        else:
            field = NumberField(UniPoly("t", minpoly))
            one, w = field.from_rational(1), field.generator()

        def coef():
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            return c * one + Fraction(rng.randint(-9, 9)) * w

        def uni(n):
            return UniPoly("y", [coef() for _ in range(n)] + [w + 3])

        pairs = [(uni(rng.randint(0, 4)), uni(rng.randint(0, 4)))
                 for _ in range(6)]
        a = uni(3)
        # the top two coefficients cancel; a times zero is zero
        b = UniPoly("y", [coef(), -a.coeffs[1] + one, -a.coeffs[2],
                          -a.coeffs[3]])
        return pairs + [(a, b), (a, UniPoly("y", [])), (UniPoly("y", []), a)]

    @staticmethod
    def _check(got, want):
        assert got.to_poly() == want
        assert got.degree() == want.degree()
        assert not got.coeffs or got.coeffs[-1]

    def test_sum_difference_product(self, minpoly):
        for a, b in self._pairs(minpoly):
            pa, pb = a.to_poly(), b.to_poly()
            self._check(a + b, pa + pb)
            self._check(a - b, pa - pb)
            self._check(a * b, pa * pb)
            for t in (Fraction(0), Fraction(-2, 3), Fraction(5)):
                at = {"y": t}
                va, vb = pa.evaluate(at), pb.evaluate(at)
                assert (a + b).to_poly().evaluate(at) == va + vb
                assert (a * b).to_poly().evaluate(at) == va * vb

    def test_cancelling_sum_and_zero_product(self, minpoly):
        *_, (a, b), (_, zero), _ = self._pairs(minpoly)
        assert (a + b).degree() == 1
        assert (a * zero).is_zero() and (zero * a).is_zero()
        assert (a - a).is_zero()

    def test_power(self, minpoly):
        for a, _ in self._pairs(minpoly):
            for n in range(4):
                self._check(a ** n, a.to_poly() ** n)
            assert a ** 0 == UniPoly("y", [1])
            assert a ** 3 == a * a * a
        with pytest.raises(DomainError):
            UniPoly("y", [1, 1]) ** -1


class TestResultant:
    def test_eliminate_linear(self):
        r = resultant(P("x^2 - y"), P("x - 1"), "x")
        assert r == P("1 - y", ("y",))

    def test_common_factor_vanishes(self):
        p = P("x^2 - y")
        assert resultant(p, p, "x").is_zero()

    def test_double_contact(self):
        r = resultant(P("y - x^2"), P("y - 2*x + 1"), "y")
        assert r == P("x^2 - 2*x + 1", X)

    def test_constant_in_var(self):
        with pytest.raises(DomainError):
            resultant(P("y", ("y",)), P("1", ("y",)), "x")

    def test_specialization(self):
        p = P("x^2*y^2 + x*y + 1")
        q = P("y^3 - x")
        r = resultant(p, q, "y")
        for x0 in (Fraction(2), Fraction(-1), Fraction(5, 3)):
            ps = UniPoly.from_poly(p.substitute({"x": Poly.const(x0)}), "y")
            qs = UniPoly.from_poly(q.substitute({"x": Poly.const(x0)}), "y")
            rs = resultant(ps.to_poly(("y",)), qs.to_poly(("y",)), "y")
            assert rs.constant_value() == r.substitute({"x": Poly.const(x0)}).constant_value()

    def test_sign_when_first_argument_has_lower_degree(self):
        # lc(p)^3 * q(1) = -3; the swapped order Res(q, p) is +3
        r = resultant(P("y - 1"), P("y^3 + y^2 - 2*y - 3"), "y")
        assert r == Poly.const(-3)

    @pytest.mark.parametrize("nvars", [1, 2, 3])
    @pytest.mark.parametrize("n, m", [(1, 2), (1, 3), (3, 2), (3, 1),
                                      (2, 2), (0, 3), (3, 0)])
    def test_matches_sylvester_determinant(self, nvars, n, m):
        rng = random.Random(1000 * nvars + 10 * n + m)
        vs = ("y", "x", "z")[:nvars]
        p, q = (_random_in(rng, vs, d) for d in (n, m))
        syms = [sympy.Symbol(v) for v in vs]
        pc = [_to_expr(p.coeffs_in("y").get(n - i), syms) for i in range(n + 1)]
        qc = [_to_expr(q.coeffs_in("y").get(m - i), syms) for i in range(m + 1)]
        rows = [[0] * r + pc + [0] * (m - 1 - r) for r in range(m)]
        rows += [[0] * r + qc + [0] * (n - 1 - r) for r in range(n)]
        det = sympy.Matrix(rows).det(method="bareiss")
        r = resultant(p, q, "y")
        assert sympy.expand(_to_expr(r, syms) - det) == 0


def _sympy_resultant(p, q, var):
    """Res_var(p, q) with the Sylvester sign, by sympy's PRS over ZZ: the
    oracle for the integer computation of `resultant`."""
    vs, a, b = p._aligned(q)
    rest = tuple(v for v in vs if v != var)
    n, m = max(a.degree_in(var), 0), max(b.degree_in(var), 0)
    sa, da = to_sympy(a, (var,) + rest)
    sb, db = to_sympy(b, (var,) + rest)
    # sympy puts the higher degree first without the swap's sign
    if n < m:
        r, sign = sb.resultant(sa), (-1) ** (n * m)
    else:
        r, sign = sa.resultant(sb), 1
    if not rest:
        return Poly.const(Fraction(int(r) * sign, da ** m * db ** n), ())
    return from_sympy(r, rest).scale(Fraction(sign, da ** m * db ** n))


def _random_high(rng, variables, degree, height, lead=None):
    """Random rational Poly of exact degree `degree` in the first of
    `variables`, coefficients of up to `height` over denominators up to
    1000, at most three terms per power; `lead`, when given, is the leading
    coefficient, a Poly over the others."""
    rest = variables[1:]
    terms = {}
    for e in range(degree + 1):
        for _ in range(rng.randint(1, 3) if e == degree else rng.randint(0, 3)):
            mon = (e,) + tuple(rng.randint(0, 2) for _ in rest)
            terms[mon] = Fraction(rng.randint(-height, height),
                                  rng.randint(1, 1000))
    if lead is not None:
        terms = {m: c for m, c in terms.items() if m[0] < degree}
        terms.update({(degree,) + m: c
                      for m, c in lead.with_vars(rest).terms.items()})
    if not any(m[0] == degree and c for m, c in terms.items()):
        terms[(degree,) + (0,) * len(rest)] = Fraction(-height)
    return Poly(variables, terms)


class TestResultantAgainstSympy:
    """The integer resultant (Kronecker substitution and subresultant
    PRS) against sympy's, on seeded inputs."""

    @pytest.mark.parametrize("nvars", [1, 2, 3])
    @pytest.mark.parametrize("height", [10, 10 ** 6, 10 ** 50, 10 ** 200],
                             ids=["10", "1e6", "1e50", "1e200"])
    def test_random(self, nvars, height):
        rng = random.Random(7 * nvars + len(str(height)))
        vs = ("y", "x", "z")[:nvars]
        top = 4 if nvars < 3 else 3
        for _ in range(6 if nvars < 3 else 3):
            n, m = rng.randint(0, top), rng.randint(0, top)
            if n == m == 0:
                n = 1
            p, q = (_random_high(rng, vs, d, height) for d in (n, m))
            assert resultant(p, q, "y") == _sympy_resultant(p, q, "y")

    @pytest.mark.parametrize("n, m", [(1, 2), (1, 3), (2, 3), (3, 5),
                                      (2, 4), (3, 3), (4, 1)])
    def test_negative_and_vanishing_leading_coefficients(self, n, m):
        # leading coefficients that are negative, or that vanish at small x
        rng = random.Random(10 * n + m)
        leads = [P("-3", X), P("-x^2 + 1", X), P("(x - 1)*(x + 2)", X),
                 P("x", X), P("-(10^40)*x*(x - 3)", X)]
        for lp in leads:
            for lq in leads:
                p = _random_high(rng, ("y", "x"), n, 10 ** 12, lp)
                q = _random_high(rng, ("y", "x"), m, 10 ** 12, lq)
                want = _sympy_resultant(p, q, "y")
                assert resultant(p, q, "y") == want
                assert resultant(q, p, "y") == want.scale((-1) ** (n * m))

    @pytest.mark.parametrize("nvars", [1, 2, 3])
    def test_degree_zero_sides(self, nvars):
        rng = random.Random(nvars)
        vs = ("y", "x", "z")[:nvars]
        for height in (3, 10 ** 200):
            for d in (1, 2, 3):
                p = _random_high(rng, vs, d, height)
                c = _random_high(rng, vs, 0, height)
                assert resultant(p, c, "y") == _sympy_resultant(p, c, "y")
                assert resultant(c, p, "y") == _sympy_resultant(c, p, "y")

    @pytest.mark.parametrize("text, c, power", [
        ("3*y^2 + y", "-(10^200 + 7)", 2),
        ("y^3 - 5*x*y", "(10^60 + 1)*x^2 - 10^60", 3),
        ("y", "2^64 - 1", 1),
    ])
    def test_bound_attained(self, text, c, power):
        # Res(p, c) = c^deg(p), and |c|_1^deg(p) is the coefficient bound
        # itself: the top coefficient sits just below half the radix
        p, cp = P(text), P(c)
        assert resultant(p, cp, "y") == cp ** power
        assert resultant(cp, p, "y") == cp ** power

    @pytest.mark.parametrize("nvars", [1, 2, 3])
    def test_shared_factor(self, nvars):
        rng = random.Random(100 + nvars)
        vs = ("y", "x", "z")[:nvars]
        for height in (10, 10 ** 30):
            h = _random_high(rng, vs, rng.randint(1, 2), height)
            u = _random_high(rng, vs, rng.randint(0, 2), height)
            w = _random_high(rng, vs, rng.randint(1, 2), height)
            assert resultant(h * u, h * w, "y").is_zero()
            assert resultant(h * w, h, "y").is_zero()

    def test_variables_keep_their_order(self):
        p = Poly(("z", "y", "x"), {(1, 1, 0): 1, (0, 0, 2): 3, (2, 0, 0): 1})
        q = Poly(("x", "y"), {(0, 2): 1, (1, 0): -5})
        r = resultant(p, q, "y")
        assert r.vars == ("z", "x")
        assert r == _sympy_resultant(p, q, "y")

    def test_makes_no_sympy_call(self, monkeypatch):
        def refuse(*_args, **_kw):
            raise AssertionError("resultant called sympy")

        monkeypatch.setattr(sympy.Poly, "resultant", refuse)
        monkeypatch.setattr(sympy.Poly, "from_dict", refuse)
        r = resultant(P("y^3 - x*y + 2"), P("3*y^2 - x"), "y")
        assert r == P("4*x^3 - 108", X).scale(-1)


def _random_in(rng, variables, degree):
    """Random rational Poly of exact degree `degree` in y, the first of
    `variables`, with a leading coefficient that may involve the others."""
    terms = {}
    for e in range(degree + 1):
        for _ in range(rng.randint(1, 2) if e == degree else rng.randint(0, 2)):
            mon = (e,) + tuple(rng.randint(0, 2) for _ in variables[1:])
            terms[mon] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 7),
                                  rng.randint(1, 4))
    return Poly(variables, terms)


def _to_expr(p, syms):
    """p as a sympy expression in `syms`; 0 for a missing coefficient."""
    if p is None:
        return 0
    p = p.with_vars([s.name for s in syms])
    return sum(sympy.Rational(c.numerator, c.denominator)
               * sympy.Mul(*(s ** e for s, e in zip(syms, m)))
               for m, c in p.terms.items())


class TestGcdSquarefree:
    def test_gcd(self):
        g = poly_gcd(P("x^2 - 1", X), P("x^3 - 1", X))
        assert g == P("x - 1", X)

    def test_gcd_bivariate(self):
        g = poly_gcd(P("(x - y)*(x + y)"), P("(x - y)*y"))
        assert g == P("x - y")

    def test_squarefree_detect(self):
        assert is_squarefree(P("x*y*(x + y - 1)"))
        assert not is_squarefree(P("(x + y)^2"))

    def test_unipoly_gcd(self):
        a = UniPoly("x", [-1, 0, 1])
        b = UniPoly("x", [-1, 0, 0, 1])
        assert unipoly_gcd(a, b) == UniPoly("x", [-1, 1])

    @pytest.mark.parametrize("text, content", [
        # (x^2 - 2)(x + 3) is a factor free of y
        ("(x^2 - 2)*(x + 3)*(y^2 - x)", "x^3 + 3*x^2 - 2*x - 6"),
        ("(x^2 - 2)*(2*x + 6)*y^3", "2*x^3 + 6*x^2 - 4*x - 12"),
        ("y^2 - x^3 + x", "1"),
        ("x*y^2 + y - x", "1"),
    ])
    def test_content_in(self, text, content):
        # the content in y of the integer dict, up to sign, and the
        # primitive part that it multiplies back to
        cont, prim = poly._primitive_last(
            poly.clear_denominators(P(text).terms)[0])
        got = Poly(X, {m: Fraction(v) for m, v in cont.items()})
        assert got == P(content, X) or -got == P(content, X)
        assert Poly(XY, {m + (0,): v for m, v in cont.items()}) \
            * Poly(XY, prim) == P(text)


def _content_in_y(p):
    """The content in y of p in (x, y), a Poly in x, up to sign, read by
    `poly._primitive_last` on the cleared integer dict."""
    cont = poly._primitive_last(
        poly.clear_denominators(p.with_vars(XY).terms)[0])[0]
    return Poly(X, {m: Fraction(v) for m, v in cont.items()})


def _sympy_gcd(p, q):
    """gcd over Q by sympy over ZZ, integer-primitive with positive
    leading coefficient: the oracle for `poly_gcd`."""
    vs, a, b = p._aligned(q)
    g = to_sympy(a, vs)[0].gcd(to_sympy(b, vs)[0])
    return from_sympy(g, vs).primitive()


def _form(rng, degree, height):
    """Random binary form of the given degree in (x, y), nonzero."""
    terms = {(i, degree - i): Fraction(rng.randint(-height, height),
                                       rng.randint(1, 9))
             for i in range(degree + 1) if rng.random() < 0.7}
    terms[(degree, 0)] = Fraction(height)
    return Poly(XY, terms)


class TestIntegerGcdAgainstSympy:
    """The integer heuristic gcd kernel behind `poly_gcd`, `unipoly_gcd`
    over Q and `is_squarefree`, checked against sympy's gcd over ZZ."""

    HEIGHTS = [7, 10 ** 12, 10 ** 200]

    @pytest.mark.parametrize("height", HEIGHTS, ids=["7", "1e12", "1e200"])
    @pytest.mark.parametrize("variables", [X, XY, ("y", "x")],
                             ids=["x", "xy", "yx"])
    def test_planted_common_factor(self, variables, height):
        rng = random.Random(len(variables) * 1000 + len(str(height)))
        for _ in range(6):
            a, b, c = (_random_high(rng, variables, rng.randint(1, 3), height)
                       for _ in range(3))
            g = poly_gcd(a * c, b * c)
            assert g == _sympy_gcd(a * c, b * c)
            assert g == (c * poly_gcd(a, b)).primitive()

    @pytest.mark.parametrize("height", HEIGHTS, ids=["7", "1e12", "1e200"])
    def test_factor_free_of_y(self, height):
        rng = random.Random(height % 1000)
        for _ in range(6):
            a, b = (_random_high(rng, ("y", "x"), rng.randint(1, 3), height)
                    for _ in range(2))
            c = _random_high(rng, X, rng.randint(1, 3), height)
            g = poly_gcd(a * c, b * c)
            assert g == _sympy_gcd(a * c, b * c)
            assert poly_gcd(g, c) == c.primitive()
            assert poly_gcd(_content_in_y(a * c), c) == c.primitive()

    @pytest.mark.parametrize("height", HEIGHTS, ids=["7", "1e12", "1e200"])
    def test_binary_forms(self, height):
        # the restrictions to z = 0 that pick the chart are binary forms
        rng = random.Random(height % 997)
        for _ in range(8):
            c = _form(rng, rng.randint(1, 2), height)
            a, b = (_form(rng, rng.randint(1, 4), height) for _ in range(2))
            g = poly_gcd(a * c, b * c)
            assert g == _sympy_gcd(a * c, b * c)
            assert g.degree() >= c.degree()

    def test_candidate_that_fails_the_division(self):
        # at xi = 8 the values of x + 2 and (x + 3)(x^2 + 1) have gcd 5,
        # whose balanced digits read x - 3: only the division refuses it
        assert poly_gcd(P("x + 2", X), P("x^3 + 3*x^2 + x + 3", X)) \
            == P("1", X)
        assert unipoly_gcd(UniPoly("x", [2, 1]),
                           UniPoly("x", [3, 1, 3, 1])) == UniPoly("x", [1])
        # in two variables: at y = 8 the first candidate is wrong too
        assert poly_gcd(P("-x^2 + 2*y"), P("-2*x + y")) == P("1")
        assert poly_gcd(P("2*x - y + 2"), P("-x + 3")) == P("1")

    def test_powers_of_a_variable_need_no_prs(self, monkeypatch):
        # y^k in both operands would put xi^k into both values at every
        # xi = 2^B; with the cofactor's constant term divisible by 2^60,
        # four points would not be enough, so the powers are taken out
        def refuse(*args):
            raise AssertionError("the PRS ran")

        monkeypatch.setattr(poly, "_prs_gcd", refuse)
        assert unipoly_gcd(UniPoly("y", [0, 0, 1]),
                           UniPoly("y", [0, 2 ** 60, 3, 5])) \
            == UniPoly("y", [0, 1])
        # a monomial operand leaves 1 once its power and content are out
        assert unipoly_gcd(UniPoly("y", [0, 0, 0, 6]),
                           UniPoly("y", [0, 4, 2])) == UniPoly("y", [0, 1])
        assert poly_gcd(P("6*y^3"), P("4*y + 2*y^2")) == P("y")
        assert poly_gcd(P("x^2*y^3"), P("x*y*(2^60 + 3*x + 5*y)")) \
            == P("x*y")
        assert poly_gcd(P("y^2*(x - 1)"), P("y*(x - 1)*(2^60 + y)")) \
            == P("y*(x - 1)")

    def test_zero_constant_and_coprime_operands(self):
        zero, p = P("0"), P("6*x^2*y - 4*y")
        assert poly_gcd(zero, zero) == zero
        assert poly_gcd(zero, p) == poly_gcd(p, zero) == P("3*x^2*y - 2*y")
        assert poly_gcd(P("3/7"), p) == poly_gcd(p, P("-2")) == P("1")
        assert poly_gcd(P("3"), zero) == P("1")
        # the same in one variable, where the kernel ends at no variables
        assert poly_gcd(P("0", X), P("6*x^2 - 4", X)) == P("3*x^2 - 2", X)
        assert poly_gcd(P("-2", X), P("x", X)) == P("1", X)
        u0, u1 = UniPoly("x", []), UniPoly("x", [1])
        assert unipoly_gcd(u0, u0) == u0
        assert unipoly_gcd(u0, UniPoly("x", [4, 2])) == UniPoly("x", [2, 1])
        assert unipoly_gcd(UniPoly("x", [-4, -2]), u0) == UniPoly("x", [2, 1])
        assert unipoly_gcd(UniPoly("x", [Fraction(3, 7)]),
                           UniPoly("x", [1, 0, 1])) == u1
        assert unipoly_gcd(UniPoly("x", [5]), u0) == u1
        assert poly._int_gcd({(): 12}, {(): -18}) == {(): 6}
        assert poly._int_gcd({}, {(): -5}) == {(): -5}
        assert poly._int_gcd({}, {}) == {}
        assert poly_gcd(P("x^2 + 1"), P("x^3 - x")) == P("1")
        assert poly_gcd(P("x^2 + y^2 + 1"), P("x*y - 2")) == P("1")
        # variables that neither operand uses stay in the result's tuple
        g = poly_gcd(P("(x - 1)*(x + 2)", ("x", "y", "z")),
                     P("(x - 1)^2", ("x", "y", "z")))
        assert g.vars == ("x", "y", "z") and g == P("x - 1", X)

    @pytest.mark.parametrize("height", HEIGHTS, ids=["7", "1e12", "1e200"])
    def test_rational_unipoly_gcd(self, height):
        rng = random.Random(height % 991)
        for _ in range(6):
            a, b, c = (UniPoly.from_poly(
                _random_high(rng, X, rng.randint(0, 4), height), "x")
                for _ in range(3))
            g = unipoly_gcd(a * c, b * c)
            want = _sympy_gcd((a * c).to_poly(), (b * c).to_poly())
            assert g == UniPoly.from_poly(want, "x").monic()

    @pytest.mark.parametrize("variables", [X, XY, ("x", "y", "z")],
                             ids=["x", "xy", "xyz"])
    def test_prs_fallback(self, monkeypatch, variables):
        """With no evaluation point to try, the primitive PRS alone gives
        every gcd, by pseudo-remainders in the last variable with contents
        from the kernel, down to integers in one variable."""
        rng = random.Random(len(variables))
        cases = []
        for i in range(6):
            a, b, c = (_random_high(rng, variables, rng.randint(0, 3),
                                    10 ** (6 * i))
                       for _ in range(3))
            cases.append((a * c, b * c, poly_gcd(a * c, b * c)))
        monkeypatch.setattr(poly, "_HEU_TRIES", 0)
        for p, q, g in cases:
            assert poly_gcd(p, q) == g
            ints = [poly.clear_denominators(t.terms)[0] for t in (p, q)]
            gi = poly._int_gcd(*ints)
            assert Poly(variables, gi).primitive() == g
            a, b = (poly._primitive_last(t)[1] for t in ints)
            assert Poly(variables, poly._prs_gcd(a, b)).primitive() \
                == poly_gcd(Poly(variables, a), Poly(variables, b))


class TestSquarefree:
    """`is_squarefree` by lines: a line y = c of full x-degree and a line
    x = c of full y-degree with squarefree restrictions."""

    def test_first_five_lines_bad(self):
        f = P("x^2 - y*(y^2 - 1)*(y^2 - 4)")
        for c in (0, 1, -1, 2, -2):
            assert not is_squarefree(f.substitute({"y": c}))
        assert is_squarefree(f)

    def test_square_seen_on_one_axis_only(self):
        # every line y = c with c != 0, 1 cuts (c - 1)^2 (x^2 + c), which
        # is squarefree; only the lines x = c see (y - 1)^2
        f = P("(y - 1)^2*(x^2 + y)")
        assert is_squarefree(f.substitute({"y": -1}))
        assert not is_squarefree(f)
        assert not is_squarefree(P("(x - 1)^2*(y^2 + x)"))

    def test_one_variable_and_constants(self):
        assert is_squarefree(P("x^3 - 2", X))
        assert not is_squarefree(P("(x - 1)^2*(x + 2)", X))
        assert not is_squarefree(P("(2*y - 1)^2", XY))
        assert is_squarefree(P("5"))
        assert not is_squarefree(P("0"))

    def test_more_than_two_variables_refused(self):
        with pytest.raises(DomainError):
            is_squarefree(P("x*y*z + 1", ("x", "y", "z")))

    def test_seeded_products(self):
        rng = random.Random(2024)
        for i in range(30):
            a, c = (_random_high(rng, XY if i % 3 else ("y", "x"),
                                 rng.randint(1, 2), 10 ** (i % 4 * 6 + 1))
                    for _ in range(2))
            assert not is_squarefree(a * c * c)
            ac = a * c
            want = to_sympy(ac, XY)[0].is_sqf
            assert is_squarefree(ac) == want


def _gcd_fields():
    """(K, generator as a sympy number or None, sympy extension or None,
    coordinate digits of the large operands): Q, the fields of
    `_sympy_fields` (Q(sqrt 2), Q(2^(1/3)), Q(i) and the degree-4 tower
    from `extend_field`), and a degree-12 field from `eisenstein_fields`,
    whose large operands are smaller and which sympy is not asked about."""
    return [(None, None, None, 300)] + [f + (300,) for f in _sympy_fields()] \
        + [(next(K for K in eisenstein_fields() if K.degree == 12), None,
            None, 30)]


class TestUnipolyGcdPlanted:
    """unipoly_gcd on seeded planted common factors: gcd(a c, b c) is
    monic(c gcd(a, b)), divides both operands and has coefficients of the
    operands' field only; one small case per field is checked against
    sympy's gcd over the same extension."""

    @staticmethod
    def elt(K, rng, digits):
        """A random nonzero coefficient whose coordinates have up to
        `digits` digits, over denominators of up to a third as many."""
        def q():
            return Fraction(rng.randint(-10 ** digits, 10 ** digits),
                            rng.randint(1, 10 ** (digits // 3 + 1)))
        while True:
            c = q() if K is None else K.element(
                [q() if rng.randrange(3) else 0 for _ in range(K.degree)])
            if c:
                return c

    @classmethod
    def poly(cls, K, rng, deg, digits):
        return UniPoly("y", [cls.elt(K, rng, digits) for _ in range(deg + 1)])

    @staticmethod
    def check(K, g, a, b):
        """g is monic over K and divides a and b."""
        assert g.lc() == 1
        assert all(isinstance(c, NFElt) and c.field == K if K is not None
                   else isinstance(c, Fraction) for c in g.coeffs), g.coeffs
        for u in (a, b):
            assert u.divmod(g)[1].is_zero()

    @staticmethod
    def to_sympy(u, gen):
        y = sympy.Symbol("y")
        return sympy.expand(sum(
            sum(sympy.Rational(x.numerator, x.denominator) * gen ** i
                for i, x in enumerate(c.coeffs)) * y ** j
            for j, c in enumerate(u.coeffs)))

    @pytest.mark.parametrize("which", range(6), ids=[
        "Q", "sqrt2", "cbrt2", "i", "tower4", "degree12"])
    def test_planted_common_factors(self, which):
        K, gen, extension, digits = _gcd_fields()[which]
        rng = random.Random(which)
        for size in (3, digits):
            for case in range(3):
                top = 3 if size == 3 else 2
                a = self.poly(K, rng, rng.randint(0, top), size)
                b = self.poly(K, rng, rng.randint(0, top), size)
                c = self.poly(K, rng, rng.randint(1, top), size)
                if case == 1:
                    # gcd(a, b) is not 1 either
                    h = self.poly(K, rng, 1, size)
                    a, b = a * h, b * h
                ac, bc = a * c, b * c
                g = unipoly_gcd(ac, bc)
                assert g == (c * unipoly_gcd(a, b)).monic()
                self.check(K, g, ac, bc)
                if gen is not None and size == 3 and case == 0:
                    want = sympy.gcd(self.to_sympy(ac, gen),
                                     self.to_sympy(bc, gen),
                                     extension=extension)
                    assert sympy.expand(self.to_sympy(g, gen) - want) == 0

    @pytest.mark.parametrize("which", range(6), ids=[
        "Q", "sqrt2", "cbrt2", "i", "tower4", "degree12"])
    def test_zero_constant_coprime_and_non_monic(self, which):
        K, _, _, digits = _gcd_fields()[which]
        rng = random.Random(100 + which)
        one = Fraction(1) if K is None else K.from_rational(1)
        zero, unit = UniPoly("y", []), UniPoly("y", [one])
        a = self.poly(K, rng, 3, digits)
        const = UniPoly("y", [self.elt(K, rng, digits)])
        assert unipoly_gcd(zero, zero).is_zero()
        for u, v in ((a, zero), (zero, a)):
            g = unipoly_gcd(u, v)
            assert g == a.monic()
            self.check(K, g, u, v)
        for u, v in ((a, const), (const, a), (const, zero)):
            assert unipoly_gcd(u, v) == unit
            self.check(K, unipoly_gcd(u, v), u, v)
        # y - r and y + r are coprime for r != 0
        r = self.elt(K, rng, digits)
        assert unipoly_gcd(UniPoly("y", [-r, one]),
                           UniPoly("y", [r, one])) == unit
        # the last remainder is a multiple of lc * (y - r), with lc far
        # from 1; the gcd is y - r
        c = UniPoly("y", [-r, one]).scale(self.elt(K, rng, digits))
        b = self.poly(K, rng, 1, digits)
        g = unipoly_gcd(b * c, c * c)
        assert g.coeffs == (-r, one)
        self.check(K, g, b * c, c * c)

    def test_rational_operand_against_a_field_operand(self):
        K = _sympy_fields()[0][0]
        w = K.generator()
        a = UniPoly("y", [-2, 0, 1])                   # y^2 - 2 over Q
        b = UniPoly("y", [-w, K.from_rational(1)])     # y - w over Q(w)
        assert unipoly_gcd(a, b) == b
        self.check(K, unipoly_gcd(a, b), a, b)


class TestFrozenValues:
    """The immutable slotted value types copy and pickle to an equal value
    with an equal hash, and still refuse assignment."""

    @staticmethod
    def values():
        K = NumberField(UniPoly("w", [-2, 0, 1]))
        return [
            parse_poly("x^2 - 3/2*x*y + y", XY),
            UniPoly("t", [Fraction(1, 3), 0, -2]),
            K,
            K.element([Fraction(-1, 2), 3]),
            Poly(XY, {(1, 0): K.generator(), (0, 2): K.from_rational(5)}),
            TorusPair(parse_poly("x^2 + y^2 - 1", XY),
                      parse_poly("x^3 - y", XY)),
        ]

    @pytest.mark.parametrize("round_trip", [
        lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"])
    def test_round_trip_is_equal(self, round_trip):
        for value in self.values():
            back = round_trip(value)
            assert type(back) is type(value)
            assert back == value and hash(back) == hash(value), repr(value)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_every_pickle_protocol(self, protocol):
        for value in self.values():
            back = pickle.loads(pickle.dumps(value, protocol))
            assert type(back) is type(value)
            assert back == value and hash(back) == hash(value), repr(value)

    def test_assignment_raises(self):
        for value in self.values():
            with pytest.raises(AttributeError, match="is immutable"):
                value.vars = ()
            with pytest.raises(AttributeError, match="is immutable"):
                pickle.loads(pickle.dumps(value)).field = None
