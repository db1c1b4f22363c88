"""Finite-difference stencils with optional Richardson extrapolation.

All derivatives of exactly evaluable functions in this package go through
these helpers, so accuracy behavior is uniform: central stencils of second
order, refined where a caller asks for it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# central stencil offsets (in units of h) and weights for d^k/dx^k, O(h^2)
_CENTRAL = {
    0: ((0,), (1.0,)),
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
    4: ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)),
}

# default step scale (relative to a length scale) per derivative order;
# larger steps for higher orders keep the u/h^k rounding term in check
DEFAULT_STEP = {1: 1e-4, 2: 2e-3, 3: 8e-3, 4: 2e-2}

MAX_ORDER = max(_CENTRAL)


def central_difference(fn: Callable[[float], complex], x: float, order: int,
                       h: float) -> complex:
    """k-th derivative of fn at x by the second-order central stencil; for
    arrays of points x and steps h, each point's, bit for bit (libm's h^k)."""
    if order == 0:
        return fn(x)
    offsets, weights = _CENTRAL[order]
    acc = 0.0
    for o, w in zip(offsets, weights):
        acc = acc + w * fn(x + o * h)
    if isinstance(h, np.ndarray):
        return acc / np.array([step**order for step in h.tolist()])
    return acc / h**order


def richardson_derivative(fn: Callable[[float], complex], x: float,
                          order: int, base_step: float,
                          levels: int) -> complex:
    """Richardson-extrapolated central difference.

    ``levels`` extrapolation levels on top of the base stencil; the error
    order improves by 2 per level (h^2 -> h^4 -> h^6).
    """
    if order == 0:
        return fn(x)
    n = levels + 1
    tab = [central_difference(fn, x, order, base_step / 2**j) for j in range(n)]
    fac = 4.0
    for _ in range(levels):
        tab = [(fac * tab[j + 1] - tab[j]) / (fac - 1.0) for j in range(len(tab) - 1)]
        fac *= 4.0
    return tab[0]


def stencil_halfwidth(order: int) -> int:
    """Largest |offset| of the central stencil for the given order."""
    offsets, _ = _CENTRAL[order]
    return max(abs(o) for o in offsets)

