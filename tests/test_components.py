import pytest

from sextics import analysis, factor, poly
from sextics.analysis import analyze_curve
from sextics.catalog import ExampleRecord, builtin_examples, verify_example
from sextics.cli import main
from sextics.components import decompose
from sextics.docs import parse_document
from sextics.localsing import ConsistencyError, analyze_point, classify
from sextics.poly import DomainError, PolyError, parse_poly
from sextics.torus import TorusPair

XY = ("x", "y")


def g(text):
    return parse_poly(text, XY)


# The classes below are decompose cases grouped by the factors they plant.
def _factors(f):
    """decompose(f) as factor texts, in its order."""
    if isinstance(f, str):
        f = g(f)
    return [str(p) for p in decompose(f).factors]


class TestLinearFactors:
    def test_horizontal_line(self):
        assert _factors("y*(x^2 + y^2 - 1)") == ["y", "x^2 + y^2 - 1"]

    def test_no_rational_lines(self):
        assert _factors("x^2 + y^2 + 1") == ["x^2 + y^2 + 1"]

    def test_item5_line(self):
        f = (g("-y^2 + y - x^2") ** 3
             + g("-2*y^3 + (-3*x + 2)*y^2 + (-2*x^2 + 3*x)*y + x^3") ** 2)
        assert decompose(f).degrees() == (1, 5)
        assert _factors(f)[0] == "y"

    def test_vertical_and_slanted(self):
        assert _factors("x*(y - 2*x + 1)*(y + x)") == [
            "2*x - y - 1", "x + y", "x"]

    def test_repeated_line_refused(self):
        # the repeated line has positive degree in x and in y, so no line
        # meets the rest in a squarefree image; the squarefree part splits
        with pytest.raises(DomainError):
            decompose(g("(y - x)^2*(y + 1)"))
        assert _factors("(y - x)*(y + 1)") == ["y + 1", "x - y"]


class TestConicFactors:
    def test_seeded_product(self):
        assert _factors("(y - x^2)*(y^3 + x + 5)") == ["x^2 - y",
                                                       "y^3 + x + 5"]

    def test_b312_one_rational_conic(self):
        f = g("-y^2 + y - x^2") ** 3 + g("y^3 - 3*y^2 + 3*y*x^2") ** 2
        assert _factors(f) == [
            "x^2 - y", "x^4 - 6*x^2*y^2 - 3*y^4 - 2*x^2*y + 6*y^3 + y^2"]

    def test_irreducible_sextic(self):
        assert _factors("x^6 + y^6 + x*y + 1") == ["x^6 + y^6 + x*y + 1"]

    def test_circle(self):
        assert _factors("(x^2 + y^2 - 1)*(x + y + 3)") == [
            "x + y + 3", "x^2 + y^2 - 1"]

    def test_conic_linear_in_y(self):
        assert _factors("(x*y + x^2 - 2)*(y^2 + x + 1)") == [
            "x^2 + x*y - 2", "y^2 + x + 1"]

    def test_line_pair_excluded(self):
        # (x - y)(x + y) is two lines, not a conic
        assert _factors("(x^2 - y^2)*(y - 7)") == ["y - 7", "x - y", "x + y"]

    def test_conjugate_line_pair_kept(self):
        # x^2 + y^2 is irreducible over Q
        assert _factors("(x^2 + y^2)*(y - 1)") == ["y - 1", "x^2 + y^2"]


class TestLinearTorusSplit:
    """f2 = -ell^2 makes f = (f3 - ell^3)(f3 + ell^3): two cubics."""

    def test_generic_split(self):
        pair = TorusPair(g("-y^2"), g("x^3 - x + y^2"))
        assert _factors(pair.expand()) == ["x^3 - y^3 + y^2 - x",
                                           "x^3 + y^3 + y^2 - x"]

    def test_three_a5_on_line(self):
        pair = TorusPair(g("-y^2"), g("x^3 - x"))
        assert _factors(pair.expand()) == ["x^3 - y^3 - x", "x^3 + y^3 - x"]

    def test_rank_two_not_applicable(self):
        pair = TorusPair(g("x*y"), g("x^3 + y^3 + 1"))
        assert decompose(pair.expand()).degrees() == (6,)


class TestDecompose:
    def test_item2_degrees(self):
        f = (g("-y^2 + y - 4*x^2") ** 3
             + g("y^3 + (-4*x - 1)*y^2 + 4*y*x - 8*x^3") ** 2)
        assert decompose(f).degrees() == (1, 1, 4)

    def test_item16_generic_split(self):
        f3 = g("y^3 + (x + 1)*y^2 + (x^2 + x)*y + 4*x^3")
        pair = TorusPair(g("-y^2"), f3)
        assert decompose(pair.expand()).degrees() == (3, 3)

    def test_irreducible_no_hints(self):
        f = g("x^6 + y^6 + x*y + 1")
        assert decompose(f).factors == (f,)

    def test_reconstruction(self):
        f = g("-2*(y - x)*(x^2 + y^2 - 2)*(y^3 - x + 1)")
        assert decompose(f).reconstruct().primitive() == f.primitive()

    def test_multiplicity(self):
        # decompose takes reduced curves: a repeated factor is refused
        with pytest.raises(PolyError):
            decompose(g("(y - x)^2*(y + x)"))

    def test_repeated_factor_free_of_y_fails_the_product_check(self):
        # x comes back once from the content in y, so the factors multiply
        # back to x*(y^2 + x^3 + 1) only
        with pytest.raises(PolyError, match="does not multiply back") as err:
            decompose(g("x^2*(y^2 + x^3 + 1)"))
        assert type(err.value) is PolyError

    def test_repeated_factor_in_both_variables_has_no_squarefree_line(self):
        # the refusal prints the part as a polynomial, not its term dict
        f = g("(y - x^2)^2*(x + y)")
        with pytest.raises(DomainError, match="no squarefree line") as exc:
            decompose(f)
        assert str(f) in str(exc.value)
        assert "{(" not in str(exc.value)

    def test_squarefree_sextic_takes_no_bivariate_gcd(self, monkeypatch):
        # squarefreeness is decided before decompose, which computes no
        # gcd of two-variable dicts on 5.2-5's sextic
        [rec] = [r for r in builtin_examples() if r.rid == "5.2-5"]
        inst = rec.doc.instantiate()
        f = TorusPair(inst["f2"], inst["f3"]).expand()
        nvars = []
        real = poly._int_gcd

        def spy(a, b):
            nvars.append(len(next(iter(a or b or {(): 0}))))
            return real(a, b)
        monkeypatch.setattr(poly, "_int_gcd", spy)
        monkeypatch.setattr(factor, "_int_gcd", spy)
        assert decompose(f).degrees() == (1, 5)
        assert nvars and 2 not in nvars

    def test_emitted_factor_idempotent(self):
        f = g("(x^2 + y^2 - 1)*(y - 2*x + 1)*(y^3 + x^3 + 3)")
        d = decompose(f)
        for p in d.factors:
            sub = decompose(p)
            assert sub.degrees() == (p.degree(),)


def _component(an, degree):
    [comp] = [c for c in an.components if c.degree == degree]
    return comp


class TestComponentSingularities:
    """Each component's Sigma comes from the curve's own singular points."""

    def test_point_on_one_component_reuses_the_curve_point(self):
        # the cusp is on the cubic only; the line meets it in three nodes
        an = analyze_curve(f=g("(y^2 - x^3)*(x + y + 5)"))
        [cusp] = [ls for ls in an.sings if ls.point.field is None]
        assert str(cusp.sing_type) == "A_2"
        [own] = _component(an, 3).sings
        assert own is cusp
        assert _component(an, 1).sings == ()

    def test_shared_point_gets_the_component_type(self):
        # the circle passes through the quartic's node: D_4 on the curve,
        # A_1 on the quartic, nothing on the smooth conic
        an = analyze_curve(f=g("(x^4 + y^4 + x^2 - y^2)*(x^2 + y^2 - 2*x)"))
        [origin] = [ls for ls in an.sings if ls.point.field is None]
        assert str(origin.sing_type) == "D_4"
        quartic = _component(an, 4)
        assert [str(ls.sing_type) for ls in quartic.sings] == ["A_1"]
        assert quartic.sings[0].point.sort_key() == origin.point.sort_key()
        assert quartic.genus == 2
        assert _component(an, 2).sings == ()

    def test_conjugate_cluster_shared_by_two_components(self):
        # the conic passes through the quartic's nodes (+-sqrt 2, 0): D_4 on
        # the curve over Q(sqrt 2), one A_1 cluster on the quartic
        an = analyze_curve(f=g("((x^2 - 2)^2 + y^2 - y^3)*(y - x^2 + 2)"))
        [shared] = [ls for ls in an.sings if ls.point.field is not None]
        assert str(shared.sing_type) == "D_4"
        assert shared.cluster_degree == 2
        quartic = _component(an, 4)
        [own] = quartic.sings
        assert str(own.sing_type) == "A_1"
        assert own.cluster_degree == 2
        assert own.point.sort_key() == shared.point.sort_key()
        assert quartic.genus == 1
        assert _component(an, 2).sings == ()

    def test_line_through_a_node_of_the_sextic_component(self):
        # degree 7: the sextic component passes through the origin, so the
        # line is not f there up to a unit; there the sextic has its own node
        an = analyze_curve(f=g("y*(x^6 + y^6 + x^2 - y^2)"))
        assert an.degrees() == (1, 6)
        assert "D_4" in [str(ls.sing_type) for ls in an.sings]
        assert _component(an, 1).sings == ()
        sextic = _component(an, 6)
        assert [str(ls.sing_type) for ls in sextic.sings] == ["A_1"]
        assert sextic.genus == 9
        assert an.delta_star_total == 1
        # Corollary 1 is a statement about sextics
        assert not any("Corollary-1" in n for n in an.notes)


# the fields in which a component's singularity read off the curve's
# resolution must equal a fresh analysis of the component
FIELDS = ("point", "m", "mu", "r", "delta", "mult_sequence",
          "branch_contacts", "sing_type")

# three components through the origin: two cusps and a line
TRIPLE = "(y^2 - x^3)*(y^2 - 2*x^3)*(x - y)"


def _derived(points):
    """[(component, its derived LocalSingularity)] at the points, given as
    (components, curve LocalSingularity) pairs."""
    return [(comps[k], own) for comps, ls in points
            for k, own in ls.components if own is not None]


def _assert_fresh(derived):
    assert derived
    for comp, own in derived:
        fresh = analyze_point(comp, own.point)
        for name in FIELDS:
            assert getattr(own, name) == getattr(fresh, name), \
                (name, str(comp), str(own.point))


class TestCarriedComponents:
    """A component's singularity where other components pass too is read
    off the curve's own resolution; a fresh `analyze_point` of the
    component is the oracle."""

    @pytest.fixture
    def points(self, monkeypatch):
        """(components, LocalSingularity) of every curve point analyzed."""
        seen = []
        real = analysis.analyze_point

        def record(f, point, comps=()):
            ls = real(f, point, comps)
            seen.append((comps, ls))
            return ls

        monkeypatch.setattr(analysis, "analyze_point", record)
        return seen

    @pytest.mark.parametrize("seed", [0, 4])
    def test_corpus_against_fresh_analysis(self, points, seed):
        for rec in builtin_examples():
            verify_example(rec, seed=seed)
        _assert_fresh(_derived(points))

    @pytest.mark.parametrize("text, curve_type, own_types", [
        # a node with conjugate tangents: the field extends inside the
        # carried resolution
        ("(y^2 - 2*x^2 + x^3)*(y - 3*x)", "D_4", ["A_1"]),
        ("(y^2 - 2*x^2 + x^3)*(y^2 - 2*x^2 - x^3)", "C_{6,6}",
         ["A_1", "A_1"]),
        # shared points over Q(sqrt 2)
        ("((x^2 - 2)^2 - y^3)*y", "D_5", ["A_2"]),
        ("((x^2 - 2)^2 + y^2*(x^2 - 3) + y^4)*y", "D_4", ["A_1"]),
        (TRIPLE, "Unknown", ["A_2", "A_2"]),
        ("((y^2 - 2*x^2)^2 - x^5)*(y - x)", "Unknown", ["Unknown"]),
    ])
    def test_number_fields_and_many_components(self, points, text,
                                               curve_type, own_types):
        analyze_curve(f=g(text))
        [(comps, ls)] = [(comps, ls) for comps, ls in points
                         if any(own for _k, own in ls.components)]
        assert str(ls.sing_type) == curve_type
        assert sorted(str(own.sing_type) for _k, own in ls.components) == \
            own_types
        _assert_fresh(_derived([(comps, ls)]))

    @pytest.fixture
    def factors(self, monkeypatch):
        """The factor germs of every `resolve` call."""
        seen = []
        real = classify.resolve

        def record(germ, field=None, factors=()):
            seen.append(factors)
            return real(germ, field, factors)

        monkeypatch.setattr(classify, "resolve", record)
        return seen

    def test_concurrent_lines_are_not_carried(self, factors):
        # three smooth components through D_4: as many as its multiplicity
        an = analyze_curve(f=g("x*y*(x - y)"))
        assert [str(ls.sing_type) for ls in an.sings] == ["D_4"]
        assert factors == [()]
        assert [c.sings for c in an.components] == [(), (), ()]

    def test_cusp_and_line_are_carried(self, factors):
        an = analyze_curve(f=g("(y^2 - x^3)*(x + y)"))
        [origin] = [ls for ls in an.sings if ls.m == 3]
        assert [len(fs) for fs in factors if fs] == [2]
        [own] = _component(an, 3).sings
        assert str(own.sing_type) == "A_2" and own is not origin
        assert own.point is origin.point
        assert _component(an, 1).sings == ()

    def test_dropped_component_fails_the_multiplicity_sum(self, monkeypatch,
                                                          capsys, tmp_path):
        # a membership that misses the line at the origin leaves two cusps
        # of orders 2 + 2 where the curve has multiplicity 5
        real = analysis.singular_points

        def planted(f, comps):
            line = next(k for k, c in enumerate(comps) if c.degree() == 1)
            return [p._replace(components=tuple(k for k in p.components
                                                if k != line))
                    if p.field is None and p.x == 0 and p.y == 0 else p
                    for p in real(f, comps)]

        monkeypatch.setattr(analysis, "singular_points", planted)
        with pytest.raises(ConsistencyError, match="do not sum"):
            analyze_curve(f=g(TRIPLE))
        doc = parse_document("f: %s\nclaim: * :: degrees :: 1,3,3\n"
                             % TRIPLE)
        with pytest.raises(ConsistencyError, match="do not sum"):
            verify_example(ExampleRecord("triple", doc))
        path = tmp_path / "triple.txt"
        path.write_text("f: %s\n" % TRIPLE)
        assert main(["analyze", str(path)]) == 3
        assert capsys.readouterr().out.startswith(
            "internal consistency error: internal resolution inconsistency")
