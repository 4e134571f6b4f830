from fractions import Fraction

import pytest

from sextics.analysis import analyze_curve
from sextics.components import decompose
from sextics.localsing import analyze_point, singular_points
from sextics.poly import DomainError, Poly, parse_poly
from sextics.torus import (
    DegenerateTorusError,
    TorusPair,
    inner_outer_split,
    verify_inner_correspondence,
)

XY = ("x", "y")


def g(text):
    return parse_poly(text, XY)


class TestExpand:
    def test_linear_torus_shape(self):
        pair = TorusPair(g("-y^2"), g("x^3 + x*y + 1"))
        assert pair.expand() == g("(x^3 + x*y + 1)^2 - y^6")

    def test_f3_zero_needs_degree(self):
        with pytest.raises(DomainError):
            TorusPair(g("x*y"), Poly(XY, {}))

    def test_remark_pairs_same_curve(self):
        p1 = TorusPair(g("y^2 + (x + 1)*y - x^2"),
                       g("y^3 + (16/3*x + 1)*y^2 + (6*x^2 + 3*x)*y + x^3"))
        p2 = TorusPair(g("-7*y^2 - 15*y*x - 3*y - 9*x^2"),
                       g("27*x^3 + 9*y*x + 60*y*x^2 + 9*y^2 + 54*y^2*x + 17*y^3"))
        assert p1.normalized_expansion() == p2.normalized_expansion()
        assert p1.expand().scale(-27) == p2.expand()


class TestRotatedPair:
    def test_rotation_computes_the_gcd_once(self, monkeypatch):
        """5.2-2 is analysed in a rotated chart; the rotated pair keeps the
        pair's coprimality, so `poly_gcd` runs once, at construction."""
        from sextics import catalog, torus
        calls = []
        real = torus.poly_gcd

        def counted(a, b):
            calls.append((a, b))
            return real(a, b)
        monkeypatch.setattr(torus, "poly_gcd", counted)
        rec = {r.rid: r for r in catalog.builtin_examples()}["5.2-2"]
        an = catalog.analyze_document(rec.doc, ())
        assert an.chart != (0, 0)
        assert len(calls) == 1

    def test_rotation_finds_the_points_once(self, monkeypatch):
        """5.2-2 rotates, yet squarefreeness is tested once and the
        singular points are found once, in the final chart."""
        from sextics import analysis, catalog
        calls = {"singular_points": 0, "is_squarefree": 0}
        for name in calls:
            real = getattr(analysis, name)

            def counted(f, _name=name, _real=real):
                calls[_name] += 1
                return _real(f)
            monkeypatch.setattr(analysis, name, counted)
        rec = {r.rid: r for r in catalog.builtin_examples()}["5.2-2"]
        an = catalog.analyze_document(rec.doc, ())
        assert an.chart != (0, 0)
        assert calls == {"singular_points": 1, "is_squarefree": 1}

    def test_transformed_checks_the_degrees(self):
        pair = TorusPair(g("-y^2"), g("x^3 + x*y + 1"))
        moved = pair.transformed(lambda p: p.substitute({"x": g("x + y")}))
        assert moved.f3 == g("(x + y)^3 + (x + y)*y + 1")
        with pytest.raises(DomainError):
            pair.transformed(lambda p: p.substitute({"x": g("1")}))


def analyzed_points(pair):
    """The LocalSingularity of every affine singular point of the pair's
    sextic, as `analysis.analyze_curve` hands them to `inner_outer_split`."""
    f = pair.expand()
    return [analyze_point(f, p) for p in singular_points(f)]


class TestInnerOuter:
    def test_item5_origin_inner_iota3(self):
        pair = TorusPair(g("-y^2 + y - x^2"),
                         g("-2*y^3 + (-3*x + 2)*y^2 + (-2*x^2 + 3*x)*y + x^3"))
        split = inner_outer_split(pair, analyzed_points(pair))
        by_xy = {(ls.point.x, ls.point.y): iota
                 for ls, iota, _smooth in split.inner}
        assert by_xy[(Fraction(0), Fraction(0))] == 3

    def test_shared_component_error(self):
        with pytest.raises(DegenerateTorusError):
            TorusPair(g("y*x"), g("y*(x^2 + 1)"))

    def test_linear_torus_inner_on_line(self):
        pair = TorusPair(g("-y^2"), g("x^3 - x + y^2 + y^3"))
        split = inner_outer_split(pair, analyzed_points(pair))
        assert all(ls.point.y == 0 for ls, _i, _smooth in split.inner)

    def test_iota_total_six(self):
        pair = TorusPair(g("-y^2"), g("x^3 - x"))
        split = inner_outer_split(pair, analyzed_points(pair))
        assert split.iota_total() == 6


# (f2, f3) of the two torus pairs of tools/off_corpus_resolve.py that are
# analyzed in a rotated chart
ROTATED_PAIRS = [
    ("-2*x^2 + y", "-2*x^3 - 2*x^2*y + x*y + 2*y^2"),
    ("-x^2 - 4*x - 4", "-x^3 - 2*x^2*y - 6*x^2 + x*y - 12*x + y - 8"),
]


def _recorded_splits():
    """[(pair, sings, split)] of every `inner_outer_split` call that
    `verify --all --seed 0` makes, then those of the family records
    5.3-5, app-3a5 and 5.3-3 at seed 4 and of the two rotated pairs."""
    from sextics import analysis, catalog
    calls = []
    real = analysis.inner_outer_split

    def record(pair, sings):
        split = real(pair, sings)
        calls.append((pair, tuple(sings), split))
        return split

    analysis.inner_outer_split = record
    try:
        records = catalog.builtin_examples()
        for rec in records:
            catalog.verify_example(rec, seed=0)
        for rec in records:
            if rec.rid in ("5.3-5", "app-3a5", "5.3-3"):
                catalog.verify_example(rec, seed=4)
        for f2, f3 in ROTATED_PAIRS:
            assert analyze_curve(pair=TorusPair(g(f2), g(f3))).chart != (0, 0)
    finally:
        analysis.inner_outer_split = real
    return calls


class TestSplitAgainstEvaluation:
    """The split reads C3 and iota off the germs it translates; the rule it
    replaces evaluated f2, f3 and f3's partials at each point."""

    def test_same_inner_points_and_c3_flags(self):
        calls = _recorded_splits()
        assert len(calls) > 60
        flags = []
        for pair, sings, split in calls:
            f3x, f3y = pair.f3.derivative("x"), pair.f3.derivative("y")
            want = {}
            for ls in sings:
                at = {"x": ls.point.x, "y": ls.point.y}
                if not pair.f2.evaluate(at) and not pair.f3.evaluate(at):
                    want[ls.point.sort_key()] = \
                        bool(f3x.evaluate(at) or f3y.evaluate(at))
            got = {ls.point.sort_key(): smooth
                   for ls, _iota, smooth in split.inner}
            assert got == want, str(pair.expand())
            assert [ls for ls, _i, _s in split.inner] == \
                [ls for ls in sings if ls.point.sort_key() in want]
            assert list(split.outer) == \
                [ls.point for ls in sings if ls.point.sort_key() not in want]
            flags += got.values()
        # both flags occur, at rational points and in conjugate clusters
        assert True in flags and False in flags
        fields = {ls.point.field is None for _pair, _sings, split in calls
                  for ls, _i, _s in split.inner}
        assert fields == {True, False}

    def test_f2_evaluated_once_per_point_and_the_law_reads_the_split(
            self, monkeypatch):
        from sextics import analysis
        pair = TorusPair(g("-y^2 + y - x^2"),
                         g("-2*y^3 + (-3*x + 2)*y^2 + (-2*x^2 + 3*x)*y + x^3"))
        stage = [None]
        seen = {"evaluate": [], "shift": []}
        for name in seen:
            real = getattr(Poly, name)

            def counted(p, *args, _name=name, _real=real):
                seen[_name].append((stage[0], p))
                return _real(p, *args)
            monkeypatch.setattr(Poly, name, counted)
        for name in ("inner_outer_split", "verify_inner_correspondence"):
            real = getattr(analysis, name)

            def staged(*args, _name=name, _real=real):
                stage[0] = _name
                try:
                    return _real(*args)
                finally:
                    stage[0] = None
            monkeypatch.setattr(analysis, name, staged)
        an = analyze_curve(pair=pair)
        evaluated = [p for s, p in seen["evaluate"]
                     if s == "inner_outer_split"]
        assert len(evaluated) == len(an.sings)
        assert all(p == pair.f2 for p in evaluated)
        assert any(st == "exempt" for _p, _i, st, _t in an.star_report)
        assert not [s for calls in seen.values() for s, _p in calls
                    if s == "verify_inner_correspondence"]


class TestStarLaw:
    def test_three_a5(self):
        pair = TorusPair(g("-y^2"), g("x^3 - x"))
        an = analyze_curve(pair=pair)
        statuses = {status for _p, _i, status, _t in an.star_report}
        assert statuses == {"ok"}
        iotas = sorted(i for _p, i, _s, _t in an.star_report)
        assert iotas == [2, 2, 2]

    def test_a17_triple_root(self):
        pair = TorusPair(g("-y^2"), g("x^3 + y"))
        an = analyze_curve(pair=pair)
        inner = [(i, str(t), s) for _p, i, s, t in an.star_report]
        assert (6, "A_17", "ok") in inner

    def test_exempt_when_c3_singular(self):
        pair = TorusPair(g("-y^2 + y - x^2"),
                         g("-2*y^3 + (-3*x + 2)*y^2 + (-2*x^2 + 3*x)*y + x^3"))
        an = analyze_curve(pair=pair)
        by_status = {status for _p, _i, status, _t in an.star_report}
        assert "exempt" in by_status and "mismatch" not in by_status


class TestIsLinearTorus:
    """A linear torus f2 = -ell^2 over Q splits into the two cubics
    f3 - ell^3 and f3 + ell^3; decompose finds them from the sextic alone."""

    @staticmethod
    def _split(pair, ell):
        cube = ell ** 3
        want = {(pair.f3 - cube).primitive(), (pair.f3 + cube).primitive()}
        factors = decompose(pair.expand()).factors
        return len(factors) == 2 and set(factors) == want

    def test_minus_y_squared(self):
        pair = TorusPair(g("-y^2"), g("x^3 + 1"))
        assert self._split(pair, g("y"))

    def test_shifted_square(self):
        pair = TorusPair(g("-(x + 2*y - 1)^2"), g("x^3 + y^3 + 2"))
        assert self._split(pair, g("x + 2*y - 1"))

    def test_scaled_square(self):
        pair = TorusPair(g("-4*y^2"), g("x^3 - x"))
        assert self._split(pair, g("2*y"))

    def test_rank_two(self):
        pair = TorusPair(g("y^2 + x"), g("x^3 + 5"))
        assert decompose(pair.expand()).degrees() == (6,)

    def test_positive_square_not_applicable(self):
        pair = TorusPair(g("y^2"), g("x^3 + 5"))
        assert decompose(pair.expand()).degrees() == (6,)

    @pytest.mark.parametrize("root", [2 ** 60 + 12345, 10 ** 200],
                             ids=["2^60+12345", "10^200"])
    def test_large_square(self, root):
        ell = Poly.var("y", XY).scale(root)
        pair = TorusPair(-(ell ** 2), g("x^3 + 1"))
        assert self._split(pair, ell)
