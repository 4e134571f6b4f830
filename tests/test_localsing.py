import functools
import importlib.util
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest

from sextics.analysis import analyze_curve
from sextics.catalog import builtin_examples, verify_example

from sextics.localsing import (
    AlgebraicPoint,
    ConsistencyError,
    InfiniteIntersectionError,
    NotSquarefreeError,
    Resolution,
    UnresolvedGermError,
    analyze_germ,
    analyze_point,
    build_signature_table,
    classify_germ,
    dual_branch,
    intersection_multiplicity_origin,
    milnor_number_origin,
    normal_form_germ,
    recognition_types,
    resolve,
    singular_points,
    translate_to_origin,
)
from sextics import torus
from sextics.localsing import classify, points
from sextics.localsing._sigdata import SIGNATURES
from sextics.localsing.points import point_on_curve
from sextics.numfield import NFElt, NumberField, extend_field, \
    factor_rational
from sextics.poly import DomainError, Poly, UniPoly, is_squarefree, \
    parse_poly, resultant
from sextics.torus import TorusPair

# the package exports the function `resolve` under the module's name
resolve_module = importlib.import_module("sextics.localsing.resolve")

XY = ("x", "y")


def g(text):
    return parse_poly(text, XY)


def rational_point(x, y):
    return AlgebraicPoint(Fraction(x), Fraction(y))


class TestSingularPoints:
    def test_cusp_at_origin(self):
        pts = singular_points(g("y^2 - x^3"))
        assert len(pts) == 1 and pts[0].x == 0 and pts[0].y == 0

    def test_smooth_conic(self):
        assert singular_points(g("x^2 + y^2 - 1")) == []

    def test_item5_sextic(self):
        f = (g("-y^2 + y - x^2") ** 3
             + g("-2*y^3 + (-3*x + 2)*y^2 + (-2*x^2 + 3*x)*y + x^3") ** 2)
        pts = singular_points(f)
        rational = [(p.x, p.y) for p in pts if p.field is None]
        assert (Fraction(0), Fraction(0)) in rational
        assert len(rational) == 3

    def test_nonsquarefree_rejected(self):
        with pytest.raises(NotSquarefreeError):
            singular_points(g("(x + y)^2"))
        # the shear gives x^2 a y, and then the eliminant vanishes
        with pytest.raises(NotSquarefreeError):
            singular_points(g("x^2*(y^2 - x - 1)"))

    @pytest.mark.parametrize("curve, k", [
        ("y^2 - x^3", 0),             # constant leading coefficient in y
        ("x*y^2 + y + 1", 0),         # x leads, but the content is 1
        ("x*(y^2 - x - 1)", 1),       # the factor x is free of y
        ("(x^2 + 1)*y^3 - x^2 - 1", 1),
    ])
    def test_shear_frees_the_curve_of_vertical_factors(self, curve, k):
        sheared = g(curve).substitute({"x": g("x + %d*y" % k)})
        assert points._choose_shear(g(curve)) == (k, sheared)

    def test_specialize_x_over_a_field(self):
        # theta^2 = 2: f(theta, y) = 2 theta y^2 - y + 7
        field = NumberField(UniPoly("t", [-2, 0, 1]))
        theta = field.generator()
        u = points.specialize_x(g("x^3*y^2 + x^2 - y + 5"), field, theta)
        assert u.coeffs == (field.from_rational(7), field.from_rational(-1),
                            theta * 2)

    def test_conjugate_cluster(self):
        # cusps at the two conjugate points (i, 0), (-i, 0)
        f = g("y^2 - (x^2 + 1)^3")
        pts = singular_points(f)
        assert len(pts) == 1 and pts[0].degree == 2
        ls = analyze_point(f, pts[0])
        assert str(ls.sing_type) == "A_2"

    def test_vertical_line_component(self):
        f = g("x*(y^2 - x - 1)")
        pts = singular_points(f)
        assert len(pts) == 2  # the line meets the conic twice

    def test_tower_cluster(self):
        # x^2 = 2 and y^2 = 3: y is irrational over Q(sqrt 2), so the four
        # nodes form one cluster over a field built as a tower
        f = g("(x^2 - y^2 + 1)*(x^2 + y^2 - 5)")
        pts = singular_points(f)
        assert len(pts) == 1 and pts[0].degree == 4
        p = pts[0]
        assert p.x ** 2 == 2 and p.y ** 2 == 3
        assert str(p) == ("(1/2*v^3 - 9/2*v, -1/2*v^3 + 11/2*v)"
                        " with v^4 - 10*v^2 + 1 = 0")
        analysis = analyze_curve(f)
        assert str(analysis.config) == "[4A_1]"
        assert analysis.degrees() == (2, 2)

    def test_vertical_flex_is_not_singular(self):
        # Res_y(f, f_y) = 27 x^2: the double root is the tangency of the
        # vertical line x = 0 at a smooth point
        f = g("y^3 - x")
        ex = UniPoly.from_poly(resultant(f, f.derivative("y"), "y"), "x")
        assert factor_rational(ex) == [UniPoly("x", [0, 1])]
        assert ex.divmod(UniPoly("x", [0, 0, 1]))[1].is_zero()
        assert not ex.divmod(UniPoly("x", [0, 0, 0, 1]))[1].is_zero()
        assert singular_points(f) == []

    @pytest.mark.parametrize("seed", range(6))
    def test_planted_nodes_of_lines(self, seed):
        rng = random.Random(seed)
        while True:
            lines = [tuple(rng.randint(-4, 4) for _ in range(3))
                     for _ in range(rng.randint(2, 5))]
            nodes = set()
            general = True
            for i, (a1, b1, c1) in enumerate(lines):
                for a2, b2, c2 in lines[:i]:
                    det = a1 * b2 - a2 * b1
                    if not det:
                        general = False
                        break
                    nodes.add((Fraction(b1 * c2 - b2 * c1, det),
                               Fraction(a2 * c1 - a1 * c2, det)))
            # no two lines parallel, no three through one point
            n = len(lines)
            if general and len(nodes) == n * (n - 1) // 2:
                break
        f = Poly.const(1, XY)
        for a, b, c in lines:
            f = f * Poly(XY, {(1, 0): a, (0, 1): b, (0, 0): c})
        pts = singular_points(f)
        assert all(p.field is None and p.degree == 1 for p in pts)
        assert {(p.x, p.y) for p in pts} == nodes and len(pts) == len(nodes)
        _assert_singular(f, pts)

    @pytest.mark.parametrize("seed", range(6))
    def test_planted_nodes_of_two_conics(self, seed):
        rng = random.Random(100 + seed)
        while True:
            c1, c2 = (_random_smooth_conic(rng) for _ in range(2))
            ex = UniPoly.from_poly(resultant(c1, c2, "y"), "x")
            # the y^2 terms are constant: four simple roots are four
            # transversal affine meetings with distinct x
            if ex.degree() == 4 and is_squarefree(ex.to_poly()):
                break
        f = c1 * c2
        pts = singular_points(f)
        assert sum(p.degree for p in pts) == 4
        for p in pts:
            assert point_on_curve(c1, p) and point_on_curve(c2, p)
        _assert_singular(f, pts)


def _random_smooth_conic(rng):
    while True:
        a, b, c, d, e, k = (rng.randint(-3, 3) for _ in range(6))
        # a x^2 + b xy + c y^2 + d x + e y + k is smooth iff its symmetric
        # 3x3 matrix is invertible
        det = (Fraction(a) * (c * k - Fraction(e * e, 4))
               - Fraction(b, 2) * (Fraction(b * k, 2) - Fraction(d * e, 4))
               + Fraction(d, 2) * (Fraction(b * e, 4) - Fraction(c * d, 2)))
        if c and det:
            return Poly(XY, {(2, 0): a, (1, 1): b, (0, 2): c, (1, 0): d,
                             (0, 1): e, (0, 0): k})


def _assert_singular(f, pts):
    for p in pts:
        for h in (f, f.derivative("x"), f.derivative("y")):
            assert point_on_curve(h, p)


# the records that the verify-pairs and verify-families benchmark workloads
# verify; at seed 0 the families are verified at seeds 0 and 4
_PAIR_RECORDS = ("5.2-1", "5.2-2", "5.2-3", "5.2-5", "5.2-7", "5.2-8",
                 "5.2-9", "5.2-12", "5.2-13a", "5.2-18", "remark-c39",
                 "syn-b66")
_FAMILY_RECORDS = ("5.3-5", "app-3a5", "5.3-3")


def _repeated_by_full_factorization(elim):
    """The irreducible factors of elim whose squares divide it."""
    u = UniPoly.from_poly(elim, "x")
    return [p for p in factor_rational(u) if u.divmod(p * p)[1].is_zero()]


class TestRepeatedPartOfEliminant:
    """`singular_points` factors only gcd(E, E') of its eliminant E; the
    factors it keeps are the factors of multiplicity at least 2 of a full
    factorization of E, in the same order."""

    def test_workload_curves(self, monkeypatch):
        seen = []
        original = points._repeated_factors

        def record(elim):
            kept = original(elim)
            seen.append((elim, kept))
            return kept

        monkeypatch.setattr(points, "_repeated_factors", record)
        records = {r.rid: r for r in builtin_examples()}
        for rid in _PAIR_RECORDS:
            verify_example(records[rid], seed=0)
        for rid in _FAMILY_RECORDS:
            for seed in (0, 4):
                verify_example(records[rid], seed=seed)
        assert len(seen) >= 30
        for elim, kept in seen:
            assert kept == _repeated_by_full_factorization(elim), str(elim)

    def test_planted_products(self):
        rng = random.Random(2718)
        mults = set()
        for _ in range(30):
            planted = {}
            for _ in range(rng.randint(2, 4)):
                u = UniPoly("x", [Fraction(rng.randint(-6, 6))
                                  for _ in range(rng.randint(2, 4))]
                            + [Fraction(rng.randint(1, 3))])
                for f in factor_rational(u):
                    planted.setdefault(f, rng.randint(1, 4))
            elim = UniPoly("x", [Fraction(rng.randint(1, 9),
                                          rng.randint(1, 9))])
            for f, m in planted.items():
                elim = elim * f ** m
            elim = elim.to_poly(("x",))
            kept = points._repeated_factors(elim)
            assert kept == _repeated_by_full_factorization(elim)
            assert set(kept) == {f for f, m in planted.items() if m >= 2}
            mults.update(planted.values())
        assert mults == {1, 2, 3, 4}

    def test_vertical_tangents_are_dropped(self):
        # x repeats in E: the smooth points (0, 0) and (0, 3) have vertical
        # tangents; no singular point lies over x = 0
        f = g("(x - y^2)*(x - (y-3)^2)*(y-7)")
        elim = resultant(f, f.derivative("y"), "y")
        assert UniPoly("x", [0, 1]) in points._repeated_factors(elim)
        assert [(p.x, p.y, p.field) for p in singular_points(f)] == [
            (Fraction(9, 4), Fraction(3, 2), None),
            (Fraction(16), Fraction(7), None),
            (Fraction(49), Fraction(7), None)]

    def test_node_beside_a_vertical_tangent(self):
        # x^3 divides E: a node at (0, 0) and a smooth vertical-tangent point
        # at (0, 3); g and g_y both vanish at (0, 3), and g_x drops it
        f = g("(y^2 - x^2 - x^3)*((y-3)^2 - x)")
        elim = UniPoly.from_poly(resultant(f, f.derivative("y"), "y"), "x")
        assert UniPoly("x", [0, 1]) in factor_rational(elim)
        assert elim.divmod(UniPoly("x", [0, 0, 0, 1]))[1].is_zero()
        assert not elim.divmod(UniPoly("x", [0, 0, 0, 0, 1]))[1].is_zero()
        pts = singular_points(f)
        assert [(p.x, p.y, p.degree) for p in pts if p.field is None] \
            == [(0, 0, 1)]
        assert [p.degree for p in pts if p.field is not None] == [6]
        assert len(pts) == 2
        _assert_singular(f, pts)

    def test_node_beside_a_vertical_tangent_over_a_field(self):
        # over x^2 = 2 the two parabolas cross at (x, 0), and the hyperbola
        # has a smooth vertical-tangent point (x, 3): the gcd over Q(sqrt 2)
        # is y, not a constant, so the factor is kept
        f = g("(y - x^2 + 2)*(y + x^2 - 2)*((y-3)^2 - x^2 + 2)")
        over_sqrt2 = [p for p in singular_points(f) if p.degree == 2]
        assert [(p.x ** 2, p.y) for p in over_sqrt2] == [(2, 0)]

    def test_constant_gcd_takes_no_inverse(self, monkeypatch):
        # the one repeated factor of this curve's eliminant has degree 60
        # and carries only vertical tangents: gcd(g, g_x, g_y) over its
        # field is the constant 1, which needs no inverse
        calls = []
        real = NFElt.inverse

        def counted(a):
            calls.append(a.field.degree)
            return real(a)

        monkeypatch.setattr(NFElt, "inverse", counted)
        f = g("x^12 + y^12 + 3*x^5*y^2 - 7*x*y^6 + 2*x^3 - y^2 + 1")
        assert singular_points(f) == []
        assert calls == []


class TestIntersectionMultiplicity:
    def test_tangent_parabola(self):
        assert intersection_multiplicity_origin(g("y - x^2"), g("y")) == 2

    def test_example1_case1(self):
        assert intersection_multiplicity_origin(g("y + x^2"), g("y^2 - x^5")) == 4

    def test_simple_root_of_cubic(self):
        # I(y^2, C_3; P) = 2 at a simple root of f_3(x, 0)
        f3 = g("x^3 - x")
        p = rational_point(1, 0)
        assert intersection_multiplicity_origin(
            translate_to_origin(g("y^2"), p), translate_to_origin(f3, p)) == 2

    def test_common_component(self):
        with pytest.raises(InfiniteIntersectionError):
            intersection_multiplicity_origin(g("x*y"), g("x*(y - x)"))

    def test_shared_non_axis_component(self):
        # a shared component through the origin trips the Bezout guard
        with pytest.raises(InfiniteIntersectionError):
            intersection_multiplicity_origin(g("x*(y - x^2)"),
                                             g("(y - x^2)*(y + x)"))


class TestMilnor:
    @pytest.mark.parametrize("germ,mu", [
        ("y^3 + x^2*y^2 + x^9", 13),      # C_{3,9}
        ("y^4 + x^3*y^2 + x^7", 16),      # D_{4,7} with a=0, b=1
        ("y^3 + x^6", 10),                # B_{3,6}
        ("y^3 + x^7 + x^2*y^2", 11),      # C_{3,7}
        ("y^2 - x^3", 2),
    ])
    def test_paper_values(self, germ, mu):
        assert milnor_number_origin(g(germ)) == mu

    def test_nonisolated(self):
        with pytest.raises(DomainError):
            milnor_number_origin(g("y^2"))

    def test_nonreduced_germ_raises(self):
        with pytest.raises(DomainError):
            milnor_number_origin(g("(y - x^2)^2*(y + x)"))

    def test_number_field_germ(self):
        # corpus record 5.2-1, [B_{3,6},4A_2,A_1]: three of the four cusps
        # form a conjugate cluster over a cubic field
        f = (g("y^2 + (-5*x + 1)*y - x^2") ** 3
             + g("-3/4*y^3 + (15/4*x + 3/4)*y^2 + (-15*x^2 + 9/4*x)*y"
                 " + x^3") ** 2)
        (p,) = [p for p in singular_points(f) if p.field is not None]
        assert p.degree == 3
        germ = translate_to_origin(f, p)
        # the tangent cone lives in the cubic field
        assert all(isinstance(c, NFElt)
                   for m, c in germ.terms.items() if sum(m) == 2)
        assert milnor_number_origin(germ) == 2


class TestNewtonPolygon:
    # branch counts of Newton-nondegenerate germs: one branch per
    # irreducible factor of each face polynomial, summed over the faces
    @pytest.mark.parametrize("germ,count", [
        pytest.param("y^3 + x^6", 3, id="y^3 + x^6"),
        pytest.param("y^3 + y^2*x^2 - x^7", 2, id="y^3 + y^2*x^2 - x^7"),
        pytest.param("y^3 + y^2*x^2 - x^8", 3, id="y^3 + y^2*x^2 - x^8"),
        pytest.param("y^6 + x^6 + x^2*y^2", 4, id="y^6 + x^6 + x^2*y^2"),
        pytest.param("y^6 + x^9 + x^2*y^2", 3, id="y^6 + x^9 + x^2*y^2"),
        pytest.param("x*y", 2, id="x*y"),
        pytest.param("x*(y^2 - x^3)", 2, id="x*(y^2 - x^3)"),
        pytest.param("y^2 - x^5", 1, id="y^2 - x^5"),
    ])
    def test_branch_count_matches_resolution(self, germ, count):
        # the nondegenerate-boundary branch law against the blow-up count
        assert resolve(g(germ)).branch_count == count


class TestResolve:
    def test_a5_two_branches_contact_3(self):
        res = resolve(g("y^2 - x^6"))
        assert res.branch_count == 2
        assert res.delta == 3
        assert res.contacts == (3,)

    def test_c37_anatomy(self):
        res = resolve(g("y^3 + y^2*x^2 - x^7"))
        assert res.branch_count == 2
        assert res.delta == 6
        assert res.contacts == (4,)
        assert res.branches == ((1,), (2, 2))

    def test_b36_three_smooth_contact_2(self):
        res = resolve(g("y^3 + x^6"))
        assert res.branch_count == 3
        assert res.contacts == (2, 2, 2)
        assert res.branches == ((1,),) * 3

    def test_c38_contact_split(self):
        res = resolve(g("y^3 + y^2*x^2 - x^8"))
        assert res.branch_count == 3
        assert res.contacts == (2, 2, 3)

    @pytest.mark.parametrize("germ, branches, contacts", [
        # y = +-sqrt(2)*x^3: one conjugate pair, meeting to order 3
        pytest.param("y^2 - 2*x^6", ((1,), (1,)), (3,), id="conjugate-pair"),
        # y = x^3 beside that pair: every two of the three meet to order 3
        pytest.param("(y^2 - 2*x^6)*(y - x^3)", ((1,),) * 3, (3, 3, 3),
                     id="pair-and-rational"),
        # y = +-sqrt(2)*x and y = +-sqrt(2)*x*(1 + x/4 + ...): branches of
        # opposite tangents meet once, those of one tangent twice
        pytest.param("(y^2 - 2*x^2)*(y^2 - 2*x^2 - x^3)", ((1,),) * 4,
                     (1, 1, 1, 1, 2, 2), id="two-conjugate-pairs"),
        # y = +-sqrt(2)*x + c*x^(3/2) + ...: two conjugate cusps of
        # multiplicity 2 with distinct tangents, meeting 2*2 times
        pytest.param("(y^2 - 2*x^2)^2 - x^5", ((2,), (2,)), (4,),
                     id="conjugate-cusps"),
    ])
    def test_branch_and_contact_multisets(self, germ, branches, contacts):
        res = resolve(g(germ))
        assert res.branches == branches
        assert res.contacts == contacts
        assert res.branch_count == len(branches)

    def test_milnor_consistency(self):
        for text in ("y^3 + x^2*y^2 + x^9", "y^4 + x^3*y^2 + x^7",
                     "(y^2 - x^3)^2 - y^6", "y^6 + x^6 + x^2*y^2"):
            germ = g(text)
            res = resolve(germ)
            mu = milnor_number_origin(germ)
            assert mu == 2 * res.delta - res.branch_count + 1


# a budget no germ of these tests exhausts: the blow-ups keep every term
UNLIMITED = 10 ** 6


def _recorded_germs(monkeypatch, run):
    """[(germ, field)] of every `resolve` call that `run()` makes."""
    seen = []
    real = classify.resolve

    def record(germ, field=None, factors=()):
        seen.append((germ, field))
        return real(germ, field, factors)

    monkeypatch.setattr(classify, "resolve", record)
    run()
    return seen


def _workload_germs(seeds=range(4)):
    """The germs of perfbench's germs workload at the seeds, 0 to 3 by
    default, with the benchmark's module loaded from its file and left
    unchanged."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_germ_workload", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [(germ, None) for seed in seeds
            for _gid, _name, germ in workloads.germ_inputs(seed)]


class TestTruncatedJets:
    """`resolve` on truncated jets against the blow-ups of whole germs."""

    @staticmethod
    def _check(germs):
        assert germs
        for germ, field in germs:
            whole = resolve_module._resolve(germ.with_vars(XY), field,
                                            UNLIMITED)
            assert resolve(germ, field) == whole, str(germ)

    def test_corpus_points(self, monkeypatch):
        # every singular point that `verify --all --seed 0` resolves
        self._check(_recorded_germs(monkeypatch, lambda: [
            verify_example(rec, seed=0) for rec in builtin_examples()]))

    def test_germ_workload(self):
        self._check(_workload_germs())

    def test_large_heights(self, monkeypatch):
        pair = TorusPair(g("10^40*x^2 + 3*y^2 - 7*x*y + 1"),
                         g("x^3 - 10^30*y^3 + 2*x*y + y - 5"))
        germs = _recorded_germs(monkeypatch,
                                lambda: analyze_curve(pair=pair))
        # [6A_2]: one cluster of six conjugate cusps
        assert [f.degree for _g, f in germs] == [6]
        self._check(germs)

    @pytest.fixture
    def budgets(self, monkeypatch):
        """The budget of every run of the tree builder, in order."""
        seen = []
        real = resolve_module._resolve

        def counted(germ, field, budget, factors=()):
            seen.append(budget)
            return real(germ, field, budget, factors)

        monkeypatch.setattr(resolve_module, "_resolve", counted)
        return seen

    def test_exhausted_budget_reruns(self, budgets):
        # Sp_1 has degree 6 and order 4: the first budget, 10, runs out
        germ = g("(y^2 - x^3)^2 + x^3*y^3")
        res = resolve(germ)
        assert budgets == [10, 20]
        assert res == resolve_module._resolve(germ, None, UNLIMITED)
        assert res.branches == ((4, 2, 2, 2),) and res.delta == 9
        budgets.clear()
        resolve(g("y^2 - x^3"))
        assert budgets == [5]

    @pytest.mark.parametrize("germ, runs", [
        ("y^2", 7), ("(y^2 - x^3)^2", 6)])
    def test_nonreduced_germ_is_refused(self, budgets, germ, runs):
        # each rerun doubles the budget, until the tree is too deep
        with pytest.raises(DomainError, match="resolution runaway"):
            resolve(g(germ))
        assert len(budgets) == runs


class TestCarriedFactors:
    """Factor germs carried through the germ's own tree get the
    resolution each has alone."""

    SQRT2 = NumberField(UniPoly("w", [-2, 0, 1]))

    PRODUCTS = [
        ("y", "y^2 - x^3"),
        ("y^2 - x^3", "y^2 - 2*x^3", "x - y"),
        # a node with tangents y = +-sqrt(2)*x: the field extends
        ("y^2 - 2*x^2 + x^3", "y - 3*x"),
        # the line follows the smooth branch y = x^2 past that branch's
        # own leaf, beside the factor's A_10 branch
        ("y - x^2 - x^3", "(y - x^2)*(y^2 - x^11)"),
        ("y^2 - x^3", "y^2 - x^3 - x^4"),
    ]

    @classmethod
    def _embed(cls, germ):
        return Poly(germ.vars, {mon: cls.SQRT2.from_rational(c)
                                for mon, c in germ.terms.items()})

    @pytest.mark.parametrize("texts", PRODUCTS, ids=" * ".join)
    def test_each_factor_resolves_as_alone(self, texts):
        factors = tuple(g(t) for t in texts)
        germ = functools.reduce(lambda a, b: a * b, factors)
        for field, embed in ((None, lambda p: p), (self.SQRT2, self._embed)):
            res = resolve(embed(germ), field, tuple(map(embed, factors)))
            assert res._replace(factors=()) == resolve(embed(germ), field)
            assert len(res.factors) == len(factors)
            for q, qres in zip(factors, res.factors):
                assert qres == resolve(embed(q), field), str(q)

    def test_missing_factor_fails_the_multiplicity_sum(self):
        with pytest.raises(ConsistencyError, match="do not sum"):
            resolve(g("y*(y^2 - x^3)"), None, (g("y^2 - x^3"),))

    def test_factor_off_the_origin_is_refused(self):
        with pytest.raises(DomainError, match="does not vanish"):
            resolve(g("y^2 - x^3"), None, (g("y^2 - x^3"), g("x + 1")))

    def test_node_delta_check_is_a_consistency_error(self, monkeypatch):
        # a root multiplicity one too high breaks delta = sum of branch
        # deltas + contacts: an internal fault, which `verify` propagates
        # instead of calling the claims unverifiable
        real = resolve_module._invariants

        def planted(nodes, leaves, mults, factors=()):
            return real(nodes, leaves, {**mults, 0: mults[0] + 1}, factors)

        monkeypatch.setattr(resolve_module, "_invariants", planted)
        with pytest.raises(ConsistencyError,
                           match="internal resolution inconsistency"):
            resolve(g("y^2 - x^3"))
        [rec] = [r for r in builtin_examples() if r.rid == "5.2-17"]
        with pytest.raises(ConsistencyError):
            verify_example(rec)


class TestSlottedRecords:
    """The point and resolution records compare their carried fields like
    every other field, stay immutable and pickle."""

    CUSP, LINE = g("y^2 - x^3"), g("x - y")

    def _origin(self):
        return analyze_point(self.CUSP * self.LINE, rational_point(0, 0),
                             (self.CUSP, self.LINE))

    def test_carried_field_takes_part_in_equality(self):
        ls = self._origin()
        # the cusp is singular there, the line is not
        [(k, own)] = ls.components
        assert k == 0 and own.sing_type.name() == "A_2"
        assert ls != ls._replace(components=())
        res = resolve(self.CUSP * self.LINE, None, (self.CUSP, self.LINE))
        assert res != resolve(self.CUSP * self.LINE)

    def test_immutable(self):
        ls = self._origin()
        with pytest.raises(AttributeError):
            ls.delta = 0
        with pytest.raises(AttributeError):
            resolve(self.CUSP).delta = 0

    def test_pickle_round_trip(self):
        ls = self._origin()
        back = pickle.loads(pickle.dumps(ls))
        assert back == ls and back.components == ls.components
        res = resolve(self.CUSP * self.LINE, None, (self.CUSP, self.LINE))
        back = pickle.loads(pickle.dumps(res))
        assert back == res and back.factors == res.factors


class TestIntegerNodes:
    """Germs over Q are blown up on primitive integer term dicts; over a
    number field on field elements.  A `Resolution` is geometric, so both
    kinds of node must give the same one."""

    SQRT2 = NumberField(UniPoly("w", [-2, 0, 1]))

    @classmethod
    def _check(cls, germs):
        rational = [germ for germ, field in germs if field is None]
        assert rational
        for germ in rational:
            embedded = Poly(germ.vars, {mon: cls.SQRT2.from_rational(c)
                                        for mon, c in germ.terms.items()})
            assert resolve(germ) == resolve(embedded, cls.SQRT2), str(germ)

    def test_corpus_points_over_sqrt2(self, monkeypatch):
        self._check(_recorded_germs(monkeypatch, lambda: [
            verify_example(rec, seed=0) for rec in builtin_examples()]))

    def test_germ_workload_over_sqrt2(self):
        self._check(_workload_germs())

    def test_field_nodes_shift_without_poly_shift(self, monkeypatch):
        # a node over a number field builds its x-chart like a node over
        # Q, on its own elements: A_4 = (y - a x)^2 - x^5, a the generator
        # of Q(sqrt 2) or of the degree-4 tower over it, shifts by a once
        tower = extend_field(self.SQRT2, UniPoly(
            "y", [self.SQRT2.from_rational(c) for c in (-3, 0, 1)]))[0]
        want = resolve(g("y^2 - x^5"))
        calls = []
        real = Poly.shift

        def counted(p, offsets):
            calls.append(offsets)
            return real(p, offsets)

        monkeypatch.setattr(Poly, "shift", counted)
        for K in (self.SQRT2, tower):
            a = K.generator()
            germ = Poly(XY, {(0, 2): K.from_rational(1), (1, 1): a * -2,
                             (2, 0): a * a, (5, 0): K.from_rational(-1)})
            assert resolve(germ, K) == want
        assert calls == []

    @pytest.mark.parametrize("t", recognition_types(), ids=lambda t: t.name())
    def test_slopes_with_denominators(self, t):
        # y -> y + (u/w) x + (v/w) x^2 is an analytic change of coordinates:
        # the root's tangent slopes get the denominator w, and the x^2 term
        # carries it to the next level
        nf = normal_form_germ(t)
        want = resolve(nf)
        x, y = Poly.var("x", XY), Poly.var("y", XY)
        for u, v, w in [(1, -1, 2), (-2, 5, 3), (3, 1, 7)]:
            germ = nf.substitute({"y": y + x.scale(Fraction(u, w))
                                  + (x * x).scale(Fraction(v, w))})
            assert resolve(germ) == want, (u, v, w)
            assert analyze_germ(germ).sing_type == t, (u, v, w)


@functools.cache
def _corpus_calls():
    """([(germ, field)] of every `resolve` call, [(g2, g3)] the germs of f2
    and f3 of every inner-point iota) that `verify --all --seed 0` makes."""
    germs, pairs = [], []
    real_resolve = classify.resolve
    real_iota = torus.intersection_multiplicity_origin

    def record_germ(germ, field=None, factors=()):
        germs.append((germ, field))
        return real_resolve(germ, field, factors)

    def record_pair(g2, g3, predicted):
        pairs.append((g2, g3))
        return real_iota(g2, g3, predicted)

    classify.resolve, torus.intersection_multiplicity_origin = record_germ, \
        record_pair
    try:
        for rec in builtin_examples():
            verify_example(rec, seed=0)
    finally:
        classify.resolve, torus.intersection_multiplicity_origin = \
            real_resolve, real_iota
    return germs, pairs


class TestFieldVectors:
    """Germs over a number field are resolved and reduced on primitive
    integer coordinate vectors with no denominator.  Every value must be
    the one of the integer path, and a unit of the field must change
    nothing."""

    SQRT2 = NumberField(UniPoly("w", [-2, 0, 1]))
    QUARTIC = NumberField(UniPoly("w", [-3, 1, 0, 0, 1]))

    @staticmethod
    def _embed(germ, K):
        return Poly(germ.vars, {m: K.from_rational(c)
                                for m, c in germ.terms.items()})

    def test_milnor_numbers_of_rational_germs(self):
        germs = [germ for germ, field in _corpus_calls()[0] + _workload_germs()
                 if field is None]
        assert len(germs) > 300
        for germ in germs:
            mu = milnor_number_origin(germ)
            for K in (self.SQRT2, self.QUARTIC):
                assert milnor_number_origin(self._embed(germ, K)) == mu, \
                    (str(germ), K)

    def test_iota_of_rational_inner_points(self):
        pairs = [(g2, g3) for g2, g3 in _corpus_calls()[1]
                 if all(isinstance(c, Fraction)
                        for c in (*g2.terms.values(), *g3.terms.values()))]
        assert len(pairs) > 20
        for g2, g3 in pairs:
            iota = intersection_multiplicity_origin(g2, g3)
            for K in (self.SQRT2, self.QUARTIC):
                assert intersection_multiplicity_origin(
                    self._embed(g2, K), self._embed(g3, K)) == iota, \
                    (str(g2), str(g3), K)

    def test_field_units_change_nothing(self):
        germs = [(germ, K) for germ, K in _corpus_calls()[0]
                 if K is not None]
        assert {K.degree for _germ, K in germs} >= {2, 4}
        for germ, K in germs:
            c = K.element([Fraction(3, 2), -5] + [Fraction(1, 7)]
                          * (K.degree - 2))
            scaled = germ.scale(c)
            assert resolve(scaled, K) == resolve(germ, K), str(germ)
            assert milnor_number_origin(scaled) \
                == milnor_number_origin(germ), str(germ)

    def test_one_inverse_per_pivot(self, monkeypatch):
        # the kernel inverts a leading coefficient only when it changes,
        # never the same one twice in a row, and a field x-chart inverts
        # nothing
        germs_module = importlib.import_module("sextics.localsing.germs")
        inverted = []
        real_inverse = NFElt.inverse

        def counted_inverse(e):
            inverted.append(e)
            return real_inverse(e)

        real_reduce = germs_module._reduce

        def run(G, H, n, cap, field):
            start = len(inverted)
            try:
                return real_reduce(G, H, n, cap, field)
            finally:
                mine = inverted[start:]
                assert all(a != b for a, b in zip(mine, mine[1:]))

        real_chart = resolve_module._x_chart

        def chart(*args):
            start = len(inverted)
            out = real_chart(*args)
            assert len(inverted) == start
            return out

        monkeypatch.setattr(NFElt, "inverse", counted_inverse)
        monkeypatch.setattr(germs_module, "_reduce", run)
        monkeypatch.setattr(resolve_module, "_x_chart", chart)
        germs = [(germ, K) for germ, K in _corpus_calls()[0]
                 if K is not None]
        for germ, K in germs:
            inverted.clear()
            analyze_germ(germ, K)
        # the A_60 germ below takes 61 elimination steps, not 61 inverses
        germ = self._a60(self.SQRT2)
        inverted.clear()
        assert milnor_number_origin(germ) == 60
        assert 0 < len(inverted) < 20

    @staticmethod
    def _a60(K):
        w = K.generator()
        one = K.from_rational(1)
        x, y = Poly.var("x", XY), Poly.var("y", XY)
        branch = y + (x * x).scale(w * 7 + 5) \
            + (x * x * x).scale(w * w + 3)
        return branch * branch + (x ** 61).scale(w + 11 * one)

    @pytest.mark.parametrize("K", [SQRT2, QUARTIC], ids=["sqrt2", "quartic"])
    def test_a60(self, K):
        # (y + (7w+5)x^2 + (w^2+3)x^3)^2 + (w+11)x^61 is A_60
        germ = self._a60(K)
        assert milnor_number_origin(germ) == 60
        assert milnor_number_origin(germ, 60) == 60
        res = resolve(germ, K)
        assert (res.delta, res.branch_count) == (30, 1)


class TestPredictedMilnorOrder:
    """`analyze_germ` starts the Milnor reduction at the order that
    mu = 2*delta - r + 1 predicts from the resolution.  A run proves the
    value it returns, so the prediction chooses only where the first run
    truncates: it never changes mu, and a wrong delta still fails."""

    @staticmethod
    def _check(germs):
        assert germs
        for germ, _field in germs:
            mu = milnor_number_origin(germ)
            bezout = (germ.degree() - 1) ** 2
            for hint in (0, mu - 2, mu - 1, mu, mu + 1, 3 * mu, bezout + 10):
                assert milnor_number_origin(germ, hint) == mu, (str(germ),
                                                                hint)

    def test_hints_keep_mu_on_corpus_points(self, monkeypatch):
        germs = _recorded_germs(monkeypatch, lambda: [
            verify_example(rec, seed=0) for rec in builtin_examples()])
        assert any(field is not None for _germ, field in germs)
        self._check(germs)

    def test_hints_keep_mu_on_germ_workload(self):
        self._check(_workload_germs())

    @pytest.fixture
    def runs(self, monkeypatch):
        """The truncation order of every reduction run, in order."""
        germs_module = importlib.import_module("sextics.localsing.germs")
        seen = []
        real = germs_module._reduce

        def counted(G, H, n, cap, rational):
            seen.append(n)
            return real(G, H, n, cap, rational)

        monkeypatch.setattr(germs_module, "_reduce", counted)
        return seen

    def test_one_run_per_germ(self, runs):
        # the 48 normal forms and their perturbations at seed 0
        for germ, _field in _workload_germs([0]):
            runs.clear()
            analyze_germ(germ)
            assert len(runs) == 1, str(germ)

    def test_unpredicted_reduction_grows_its_order(self, runs):
        # ord f_x * ord f_y + 2 = 6 is far below mu = 14 (D_14): without
        # the prediction, the first runs fail and the order grows
        germ = g("x*y^2 - x^13")
        assert milnor_number_origin(germ) == 14
        assert runs == [6, 8, 11, 14, 18]
        runs.clear()
        assert analyze_germ(germ).mu == 14
        assert runs == [15]

    def test_wrong_delta_still_fails(self, monkeypatch):
        # a delta one too high predicts mu + 2: the run proves the true mu,
        # and the law refuses it
        real = classify.resolve

        def off_by_one(germ, field=None, factors=()):
            res = real(germ, field, factors)
            return Resolution(
                res.delta + 1, res.branch_count, res.mult_sequence,
                res.branches, res.contacts, res.tower_capped, res.factors)

        monkeypatch.setattr(classify, "resolve", off_by_one)
        for t in recognition_types():
            with pytest.raises(ConsistencyError, match="delta mismatch"):
                analyze_germ(normal_form_germ(t))


class TestFiniteDeterminacy:
    """A germ with Milnor number mu is (mu + 1)-determined, so terms of
    order mu + 2 and more keep its topological type."""

    @pytest.mark.parametrize("t", recognition_types(), ids=lambda t: t.name())
    def test_high_order_terms_keep_the_type(self, t):
        rng = random.Random(t.name())
        nf = normal_form_germ(t)
        mu = milnor_number_origin(nf)
        terms = {}
        for _ in range(3):
            d = rng.randint(mu + 2, mu + 4)
            i = rng.randint(0, d)
            terms[(i, d - i)] = rng.choice((-1, 1)) * rng.randint(1, 9)
        germ = nf + Poly(XY, terms)
        assert resolve(germ) == resolve(nf)
        assert analyze_germ(germ).sing_type == t


class TestClassify:
    @pytest.mark.parametrize("germ,name", [
        ("y^2 - x^3", "A_2"),
        ("(y^2 - x^3)^2 - y^6", "Sp_2"),
        ("y^3 + y^2*x^2 - x^8", "C_{3,8}"),
        ("x*y", "A_1"),
        ("y^3 - 2*x^3", "D_4"),
        ("y*(y^2 - x^3)", "E_7"),
        ("y^3 + x^12", "B_{3,12}"),
        ("y^4 + x^6", "B_{4,6}"),
        ("y^6 + x^6", "B_{6,6}"),
        ("y^6 + x^9 + x^2*y^2", "C_{6,9}"),
    ])
    def test_normal_forms(self, germ, name):
        assert classify_germ(g(germ)).name() == name

    @pytest.mark.parametrize("name", [
        "A_6", "A_7", "A_8", "D_8", "D_9", "C_{3,7}", "C_{3,8}", "D_{4,7}",
    ])
    def test_perturbed_normal_form_above_degree_six(self, name):
        # germ * (1 + x - y) under x -> x + y, y -> y - x: a unit factor and
        # an invertible linear change keep the type
        (t,) = [t for t in recognition_types() if t.name() == name]
        x, y = Poly.var("x", XY), Poly.var("y", XY)
        germ = normal_form_germ(t) * (Poly.const(1, XY) + x - y)
        germ = germ.substitute({"x": x + y, "y": y - x})
        assert germ.degree() >= 7
        assert analyze_germ(germ).sing_type == t

    def test_unknown_signature(self):
        t = classify_germ(g("y^4 - x^9"))
        assert t.family == "Unknown"
        assert t.signature is not None

    def test_table_regenerates(self):
        fresh = build_signature_table()
        shipped = {}
        for family, index, sig in SIGNATURES:
            m, mu, r, fps, contacts = sig
            shipped[(m, mu, r, tuple(tuple(f) for f in fps),
                     tuple(contacts))] = (family, tuple(index))
        assert {k: (v.family, tuple(v.index)) for k, v in fresh.items()} \
            == shipped

    def test_all_types_covered(self):
        assert len(recognition_types()) == len(SIGNATURES)

    def test_a2iota_law(self):
        # two smooth branches with contact iota give A_{2 iota - 1}
        u = g("x^2 + x^3")
        v = g("x^2 - 2*x^3")
        germ = (Poly.var("y", XY) - u) * (Poly.var("y", XY) - v)
        assert classify_germ(germ).name() == "A_5"  # contact 3


class TestDelta:
    def test_consistency_error_path(self):
        germ = g("y^2 - x^3")
        ls = analyze_germ(germ)
        assert ls.delta == 1 and ls.mu == 2 and ls.r == 1

    def test_c37_delta(self):
        ls = analyze_germ(g("y^3 + y^2*x^2 - x^7"))
        assert ls.delta == 6

    def test_delta_on_curve_points(self):
        O = rational_point(0, 0)
        assert analyze_point(g("x*y + x^3 + y^3"), O).delta == 1      # A_1
        assert analyze_point(g("y^2 - x^3"), O).delta == 1            # A_2
        assert analyze_point(g("y^3 + y^2*x^2 - x^7"), O).delta == 6  # C_{3,7}


class TestTowerCap:
    # K7 = Q(2^(1/7)); a square root over it needs a tower of degree 14
    K7 = NumberField(UniPoly("w", [-2, 0, 0, 0, 0, 0, 0, 1]))

    def test_capped_resolution_raises(self):
        # the tangents y = +-sqrt(3)*x need K7(sqrt(3)), beyond the cap
        with pytest.raises(UnresolvedGermError):
            resolve(g("y^2 - 3*x^2"), self.K7)

    def test_capped_germ_feeds_no_delta(self):
        # D_4 with tangents y = +-sqrt(2)*x: a cut-off tower once gave
        # Unknown with delta 2 and r 1 (the true values are 3 and 3)
        with pytest.raises(UnresolvedGermError):
            analyze_germ(g("x*y^2 - 2*x^3"), self.K7)

    def test_default_cap_suffices(self):
        res = resolve(g("y^3 + x^6"))
        assert not res.tower_capped and res.branch_count == 3


class TestDualBranch:
    def test_parabola(self):
        t = "t"
        xt = UniPoly(t, [0, 1])
        yt = UniPoly(t, [0, 0, 1])  # y = t^2
        p, q = dual_branch((xt, yt))
        assert list(p.coeffs) == [0, 2]
        assert list(q.coeffs) == [0, 0, -1]

    def test_line_degenerate(self):
        xt = UniPoly("t", [0, 1])
        yt = UniPoly("t", [0, 0, 0])
        with pytest.raises(DomainError):
            dual_branch((xt, yt))

    def test_lemma_e7(self):
        # branches y = -a t^2 and y = -b t^3: the union of the dual branches
        # is an E_7 germ
        a, b = Fraction(1), Fraction(1)
        smooth = (UniPoly("t", [0, 1]), UniPoly("t", [0, 0, -a]))
        cusp = (UniPoly("t", [0, 1]), UniPoly("t", [0, 0, 0, -b]))
        factors = []
        for branch in (smooth, cusp):
            p, q = dual_branch(branch)
            uu = Poly.var("x", XY) - p.to_poly(("t",))
            vv = Poly.var("y", XY) - q.to_poly(("t",))
            factors.append(resultant(uu.with_vars(("x", "y", "t")),
                                     vv.with_vars(("x", "y", "t")), "t"))
        germ = (factors[0] * factors[1]).with_vars(XY)
        assert classify_germ(germ).name() == "E_7"
        assert milnor_number_origin(germ) == 7
