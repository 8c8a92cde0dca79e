"""Polynomial helpers that only the tests use: Chebyshev U at the negative
degrees of a recurrence's boundary, and monic scaling of a family."""

import operator

import numpy as np

from freejacobi import Poly, chebyshev_U


def chebyshev_U_ext(n):
    """chebyshev_U extended by the convention U_{-1} = U_{-2} = 0."""
    n = operator.index(n)
    if n in (-1, -2):
        return Poly([0.0])
    return chebyshev_U(n)


def monicize(polys):
    """Divide each polynomial by its leading coefficient.

    Returns (monic list, array of the removed leading scales).
    """
    monic = []
    scales = []
    for p in polys:
        s = p.leading
        if s == 0.0:
            raise ValueError("cannot monicize the zero polynomial")
        scales.append(s)
        monic.append(p * (1.0 / s))
    return monic, np.asarray(scales)
