from fractions import Fraction

import pytest

from sextics.localsing import (
    AlgebraicPoint,
    ConsistencyError,
    InfiniteIntersectionError,
    NotSquarefreeError,
    UnresolvedGermError,
    analyze_germ,
    analyze_point,
    build_signature_table,
    classify_germ,
    dual_branch,
    germ_multiplicity,
    intersection_multiplicity,
    intersection_multiplicity_origin,
    milnor_number_origin,
    multiplicity,
    normal_form_germ,
    recognition_types,
    resolve,
    singular_points,
    translate_to_origin,
)
from sextics.localsing._sigdata import SIGNATURES
from sextics.numfield import NFElt
from sextics.poly import DomainError, Poly, UniPoly, parse_poly, resultant

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


class TestMultiplicity:
    def test_cusp(self):
        assert multiplicity(g("y^2 - x^3"), rational_point(0, 0)) == 2

    def test_d4(self):
        assert multiplicity(g("y^2*x + x^3"), rational_point(0, 0)) == 3

    def test_smooth_point(self):
        assert multiplicity(g("y - x^2"), rational_point(1, 1)) == 1

    def test_off_curve(self):
        with pytest.raises(DomainError):
            multiplicity(g("y - x"), rational_point(0, 1))


class TestIntersectionMultiplicity:
    def test_tangent_parabola(self):
        assert intersection_multiplicity_origin(g("y - x^2"), g("y")) == 2

    def test_example1_case1(self):
        assert intersection_multiplicity_origin(g("y + x^2"), g("y^2 - x^5")) == 4

    def test_simple_root_of_cubic(self):
        # I(y^2, C_3; P) = 2 at a simple root of f_3(x, 0)
        f3 = g("x^3 - x")
        p = rational_point(1, 0)
        assert intersection_multiplicity(g("y^2"), f3, p) == 2

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
        assert res.contact_multiset() == (3,)

    def test_c37_anatomy(self):
        res = resolve(g("y^3 + y^2*x^2 - x^7"))
        assert res.branch_count == 2
        assert res.delta == 6
        assert res.contact_multiset() == (4,)
        assert sorted(b.mult_sequence for b in res.branches) == [(1,), (2, 2)]

    def test_b36_three_smooth_contact_2(self):
        res = resolve(g("y^3 + x^6"))
        assert res.branch_count == 3
        assert res.contact_multiset() == (2, 2, 2)
        assert all(b.mult_sequence == (1,) for b in res.branches)

    def test_c38_contact_split(self):
        res = resolve(g("y^3 + y^2*x^2 - x^8"))
        assert res.branch_count == 3
        assert res.contact_multiset() == (2, 2, 3)

    def test_milnor_consistency(self):
        for text in ("y^3 + x^2*y^2 + x^9", "y^4 + x^3*y^2 + x^7",
                     "(y^2 - x^3)^2 - y^6", "y^6 + x^6 + x^2*y^2"):
            germ = g(text)
            res = resolve(germ)
            mu = milnor_number_origin(germ)
            assert mu == 2 * res.delta - res.branch_count + 1


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
    def test_capped_resolution_raises(self):
        # two of the three branches need Q(sqrt(-3)), beyond the cap
        with pytest.raises(UnresolvedGermError):
            resolve(g("y^3 + x^6"), tower_cap=1)

    def test_capped_germ_feeds_no_delta(self):
        # D_4 with tangents y = +-sqrt(2)*x: a cut-off tower once gave
        # Unknown with delta 2 and r 1 (the true values are 3 and 3)
        with pytest.raises(UnresolvedGermError):
            analyze_germ(g("x*y^2 - 2*x^3"), tower_cap=1)

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
