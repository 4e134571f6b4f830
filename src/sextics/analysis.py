"""End-to-end curve analysis: the pipeline behind the CLI and the verifier.

Given a sextic (or a torus pair), `analyze_curve` tests squarefreeness,
chooses an affine chart containing every singular point, decomposes the
curve into components, finds and classifies the singular points (each
resolved once, with the components through it), assembles the
configuration, splits inner/outer when a pair is available, and reports
each component's singularities and global invariants, in that order and
once each.  All output orderings are deterministic.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .components import ComponentDecomposition, decompose
from .globalinv import (
    Configuration,
    DefectTable,
    ImpossibleCurveError,
    assemble_configuration,
    class_degree,
    corollary_ceiling,
    flex_count,
    genus,
    good_affine_chart,
)
from .localsing import NotSquarefreeError, analyze_point, singular_points
from .poly import DomainError, Poly, is_squarefree
from .torus import InnerOuterSplit, TorusPair, inner_outer_split, \
    verify_inner_correspondence

__all__ = ["CurveAnalysis", "ComponentReport", "analyze_curve"]

XY = ("x", "y")


class ComponentReport(NamedTuple):
    poly: Poly
    degree: int
    sings: tuple             # LocalSingularity of the component itself
    genus: Optional[int]
    class_degree: Optional[int]
    delta_star: int
    flexes: Optional[int]
    notes: tuple


class CurveAnalysis(NamedTuple):
    f: Poly                       # curve in the working chart
    chart: tuple                  # (alpha, beta); (0, 0) = original chart
    sings: tuple                  # LocalSingularity list, sorted
    config: Configuration
    decomposition: ComponentDecomposition
    components: tuple             # ComponentReport list
    split: Optional[InnerOuterSplit]
    star_report: Optional[tuple]
    notes: tuple

    def degrees(self) -> tuple:
        return self.decomposition.degrees()

    @property
    def delta_star_total(self) -> int:
        return sum(c.delta_star for c in self.components)

    @property
    def delta_star_ceiling(self) -> int:
        return corollary_ceiling(self.degrees())


def analyze_curve(f: Optional[Poly] = None, pair: Optional[TorusPair] = None,
                  defects: Optional[DefectTable] = None) -> CurveAnalysis:
    """Run the full pipeline; exactly one of `f`, `pair` must be given.

    Squarefreeness is tested before the chart is chosen, since a rotation
    keeps it; the singular points are found once, in the final chart.
    """
    notes = []
    if (f is None) == (pair is None):
        raise DomainError("provide exactly one of f or (f2, f3)")
    if pair is not None:
        f = pair.expand()
    f = f.with_vars(XY)
    if f.is_zero() or f.is_constant():
        raise DomainError("not a curve")

    if not is_squarefree(f):
        raise NotSquarefreeError("curve is not squarefree: %s" % f)
    chart, transform, moved = good_affine_chart(f)
    if chart != (0, 0):
        notes.append("chart rotated by %r to keep all singular points affine"
                     % (chart,))
        f = moved.primitive()
        if pair is not None:
            pair = pair.transformed(transform)
    decomp = decompose(f)
    comps = decomp.factors
    sings = tuple(analyze_point(f, p, comps) for p in singular_points(f))

    split = None
    star_report = None
    if pair is not None:
        split = inner_outer_split(pair, sings)
        star_report = tuple(verify_inner_correspondence(split))
    config = assemble_configuration(sings)

    csings: list = [[] for _ in comps]
    for ls in sings:
        for k, own in ls.components:
            csings[k].append(ls if own is None else own)
    components = tuple(_component_report(comp, tuple(cs), defects)
                       for comp, cs in zip(comps, csings))
    # Corollary 1 bounds delta* of a reducible sextic by its component type
    reducible_sextic = len(components) > 1 and f.degree() == 6
    certified = all(c.genus is not None for c in components)
    if reducible_sextic and not certified:
        notes.append("a component is geometrically reducible (negative"
                     " genus); the Corollary-1 ceiling is not applicable to"
                     " the rational degree multiset")
    analysis = CurveAnalysis(f, chart, sings, config, decomp,
                             components, split, star_report, tuple(notes))
    dstar = analysis.delta_star_total
    ceiling = analysis.delta_star_ceiling
    if reducible_sextic and certified and dstar > ceiling:
        analysis = analysis._replace(notes=analysis.notes + (
            "delta* %d exceeds the Corollary-1 ceiling %d" % (dstar, ceiling),))
    return analysis


def _component_report(comp: Poly, csings: tuple,
                      defects) -> ComponentReport:
    """Genus, class, flexes and delta* of a component with singularities
    `csings`, read off the curve's points by `analyze_curve`."""
    cdeg = comp.degree()
    notes = []
    g = None
    nstar = None
    flexes = None
    try:
        g = genus(cdeg, csings)
    except ImpossibleCurveError as err:
        notes.append(str(err))
    if cdeg == 6 and g == 1:
        # k conjugate components of genus g_e make a Q-irreducible curve of
        # genus k*g_e - (k - 1); in degree <= 6 that is negative except for
        # two conjugate smooth cubics, which give exactly 1
        notes.append("genus 1 in degree 6: may be two conjugate smooth"
                     " cubics")
        g = None
    if cdeg >= 2:
        try:
            nstar = class_degree(cdeg, csings)
        except ImpossibleCurveError as err:
            notes.append(str(err))
        if defects is not None:
            try:
                flexes = flex_count(cdeg, csings, defects)
            except DomainError as err:
                notes.append("flex count: %s" % err)
    dstar = sum(ls.delta * ls.cluster_degree for ls in csings)
    return ComponentReport(comp, cdeg, csings, g, nstar, dstar, flexes,
                           tuple(notes))
