import numpy as np
import pytest

from gfn_lab.testfunc import build_mollifier, support_grid


@pytest.fixture(scope="session")
def moll0():
    return build_mollifier(0)


@pytest.fixture(scope="session")
def moll2():
    return build_mollifier(2)


@pytest.fixture(scope="session")
def moll2_offset():
    # center-offset member: asymmetric, first unconstrained moment nonzero
    return build_mollifier(2, center=0.15)


def sup_abs(tf, n: int = 1024) -> float:
    """max |tf| over its support grid on ``n`` panels."""
    pts, _ = support_grid(tf, n)
    return float(np.max(np.abs(tf.fn(pts))))


_np_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2


def oracle_trapezoid(fn, a: float, b: float, n: int = 8192) -> float:
    """Independent quadrature oracle (numpy trapezoid, not the library's)."""
    x = np.linspace(a, b, n + 1)
    return float(_np_trapezoid(fn(x), x))


def simpson(v: np.ndarray, h: float) -> float:
    """Composite Simpson on the samples ``v`` at spacing ``h`` (an even
    panel count)."""
    return h / 3.0 * (v[0] + v[-1] + 4.0 * v[1:-1:2].sum()
                      + 2.0 * v[2:-1:2].sum())


def half_line_simpson(fn, lo: float, hi: float, panels: int = 4096):
    """The integral of ``fn`` over [max(0, lo), hi], by composite Simpson
    on ``panels`` panels, and its error estimate: the difference from
    Simpson on half the panels, over every other sample.  (0.0, 0.0) when
    hi <= 0."""
    a = max(0.0, lo)
    if hi <= a:
        return 0.0, 0.0
    v, h = fn(np.linspace(a, hi, panels + 1)), (hi - a) / panels
    fine = simpson(v, h)
    return fine, abs(fine - simpson(v[::2], 2.0 * h))
