"""Decomposing reduced curves into their irreducible components over Q.

One complete factorization of f over Z (`factor.factor_bivariate`, which
factors one univariate image at y = 2^bits and reads the factors back from
its digits) gives the components.  Each factor is accepted there only when
it divides exactly, and is Q-irreducible because every smaller combination
of the image's factors failed first (see that module); the product of the
factors is checked exactly against f once more here.  A Q-irreducible
factor may still split over a number field into conjugate components; the
genus rules of `analysis` flag those.  Every emitted factor is
integer-primitive with positive leading coefficient.

f must be squarefree: `analysis.analyze_curve` tests that before it
chooses a chart, and it is not decided again here.  A repeated factor is
refused, not answered wrongly: one free of x or of y comes back once from
its content, so the product check raises `PolyError`, and one of positive
degree in both variables leaves no squarefree line, so `factor_bivariate`
raises `DomainError`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .factor import factor_bivariate
from .poly import DomainError, Poly, PolyError, clear_denominators

# Unused here; perfbench/tracer.py patches resultant and factor_rational in
# this namespace.
from .numfield import factor_rational  # noqa: F401
from .poly import resultant  # noqa: F401

__all__ = ["ComponentDecomposition", "decompose"]

XY = ("x", "y")


class ComponentDecomposition(NamedTuple):
    factors: tuple        # (Poly, ...)

    def degrees(self) -> tuple:
        return tuple(sorted(p.degree() for p in self.factors))

    def reconstruct(self) -> Poly:
        prod = Poly.const(1, XY)
        for p in self.factors:
            prod = prod * p
        return prod


def decompose(f: Poly) -> ComponentDecomposition:
    """The Q-irreducible factors of the squarefree f, sorted by (degree,
    terms); their product is f up to a nonzero rational constant.

    A repeated factor raises: `PolyError` from the product check when it
    is free of x or of y, `DomainError` from `factor_bivariate` when not.
    """
    f = f.with_vars(XY)
    if f.is_zero():
        raise DomainError("zero polynomial")
    factors = []
    for g in factor_bivariate(clear_denominators(f.terms)[0]):
        p = Poly._trusted(XY, {m: Fraction(c) for m, c in g.items()})
        factors.append(p.primitive())
    factors.sort(key=lambda p: (p.degree(), sorted(p.terms.items())))
    decomp = ComponentDecomposition(tuple(factors))
    if decomp.reconstruct().primitive() != f.primitive():
        raise PolyError("factorization of %s does not multiply back" % f)
    return decomp
