"""The bridge from `Poly` to sympy and back, for the tests that use sympy
as an independent oracle; the package itself never imports sympy."""

from fractions import Fraction
from typing import Sequence

import sympy

from sextics.poly import Poly, clear_denominators


def to_sympy(p: Poly, variables: Sequence[str]):
    """(P, d): the integer sympy Poly P in `variables`, in that generator
    order, and the least positive integer d with p = P / d."""
    ints, d = clear_denominators(p.with_vars(variables).terms)
    return sympy.Poly.from_dict(ints, *map(sympy.Symbol, variables),
                                domain="ZZ"), d


def from_sympy(sp, variables: Sequence[str]) -> Poly:
    """The Poly of an integer sympy Poly sp in `variables`."""
    return Poly._trusted(tuple(variables),
                         {m: Fraction(int(c))
                          for m, c in sp.as_dict(native=True).items()})
