"""Representatives of generalized functions and the embeddings into them.

A representative is a smooth map (test function, point) -> value on the set
of admissible pairs U(Omega) = {(phi, x) : supp phi subset Omega - x}.  Two
equivalent conventions are supported and tagged on each representative:

* C-formalism: distributions embed by anticonvolution, <w, phi(. - x)>;
* J-formalism: distributions act on the test function directly, <w, phi>.

The two are exchanged by ``translate_formalism``.  Whether a representative
is moderate or negligible is never decided here; the asymptotics module
probes it with scaled test objects.
"""

from __future__ import annotations

import operator
from typing import Callable, Optional

import numpy as np

from . import numdiff
from .distributions import (Distribution, _fn_name, _pullback, pair,
                            pair_row, pullback_test_function)
from .testfunc import (TAU_M, Box, DomainError, TestFunction, translate,
                       union_box)
from .testfunc import scale  # noqa: F401  (a binding perfbench traces)


class FormalismError(ValueError):
    """Mixed C/J operands where a single formalism is required."""


class PreconditionError(ValueError):
    """A directional derivative was requested outside the zero-mass tangent."""


class Representative:
    """Element of the basic space: evaluator (phi, x) -> complex.

    ``linear`` marks evaluators that are linear in the test-function slot
    (every embedded distribution is), so d_1 R(phi)(psi) = R(psi).
    ``omega`` is the ambient open set realizing the domain predicate.
    ``phi_independent`` marks representatives whose value does not depend
    on the test function, so their directional derivatives vanish.  These
    are the representatives ``d1_derivative`` differentiates exactly.
    ``row((coeffs, terms, eps), xs)``, where set, is ``eval_fn`` at each
    (S_eps tf_lincomb(coeffs[:, k], terms), xs[k]), bit for bit, unchecked.
    It is what sweeps read, over coefficient-form paths only; a
    representative without one is evaluated point by point, and a sweep
    of it raises ``TypeError``.  The constructors that build the lab's
    representatives also set their pullback in closed form, as they set
    ``row`` (``compose_pullback``), and name what they built (``_label``),
    which the repr prints with the open set.
    """

    has_log_channel = False
    phi_independent = False
    row = None
    _pulled = None  # (mu, omega) -> the pullback along mu, on omega

    def __init__(self, eval_fn: Callable[[TestFunction, float], complex],
                 formalism: str = "C", linear: bool = False,
                 omega: Optional[Box] = None):
        if formalism not in ("C", "J"):
            raise ValueError("formalism must be 'C' or 'J'")
        self.eval_fn = eval_fn
        self.formalism = formalism
        self.linear = bool(linear)
        self.omega = omega
        self._label = f"Representative({_fn_name(eval_fn)}, {formalism})"

    def __call__(self, phi: TestFunction, x):
        if self.omega is not None:
            self.check_domain(phi, x)
        return self.eval_fn(phi, x)

    def in_domain(self, phi: TestFunction, x) -> bool:
        """(phi, x) in U(Omega); elementwise for arrays of x and phi's box."""
        if self.omega is None:
            return True
        if self.formalism == "C":
            return self.omega.contains_ball(phi.center + x, phi.radius)
        return (self.omega.contains_ball(phi.center, phi.radius)
                & self.omega.contains_point(x))

    def check_domain(self, phi: TestFunction, x):
        if not self.in_domain(phi, x):
            raise DomainError(
                f"(phi, x) with x={x!r}, support B({phi.center}, "
                f"{phi.radius:g}) is outside U(Omega)")

    def compose_pullback(self, mu) -> "Representative":
        """(phi~, x~) -> self(T(phi~, x~)), T the transform
        ``pullback_pair_transform(mu)``, in the closed form its constructor
        set, with a row where this has one; it lives on mu's source set
        ``mu.omega_src`` within mu^{-1}(omega), a ``Box`` as mu is
        monotone.  A representative without a closed form (hand-built, or
        from ``translate_formalism``) raises ``TypeError``."""
        if self._pulled is None:
            raise TypeError(f"no closed-form pullback of {self!r}")
        src, om = mu.omega_src, self.omega
        if om is not None:
            src = _meet(Box.interval(*sorted((mu.inverse(om.lo),
                                              mu.inverse(om.hi)))), src)
        out = self._pulled(mu, src)
        out._label = f"pullback({self._label}, {mu.name})"
        return out

    def __repr__(self):
        om = self.omega
        return self._label + ("" if om is None else f" on ({om.lo!r}, "
                                                    f"{om.hi!r})")


class ExpExpRepresentative(Representative):
    """R(phi, x) = exp(i exp(I(phi, x))) for a real inner functional I.

    The plain value overflows once I exceeds ~700 and then raises, so all
    asymptotic work runs through the log-magnitude channel: |R| = 1
    identically, and the magnitudes of x- or phi-derivatives are I + log |dI|.
    The phi-derivatives need the inner's exact directional derivative
    ``inner.d1(phi, psi)``, which ``squared_mass_inner`` provides; an inner
    with ``d1`` reads phi alone, not x.  Sweeps read I on a row of members
    by ``inner.row``, and an inner without one cannot be swept;
    ``log_abs_dx`` and ``log_abs_d1`` turn I's values into log
    magnitudes.  The pullback is the log channel of
    ``inner.pulled(mu)``; an inner without ``pulled`` has none.
    """

    has_log_channel = True

    def __init__(self, inner: Callable[[TestFunction, float], float],
                 omega: Optional[Box] = None):
        self.inner = inner

        def ev(phi, x):
            ival = inner(phi, x)
            if ival > 700.0:
                raise FloatingPointError(
                    f"exp(I) overflows at I = {ival:.6g}; use the log channel")
            return complex(np.exp(1j * np.exp(ival)))

        super().__init__(ev, formalism="C", linear=False, omega=omega)
        self._label = f"ExpExpRepresentative({_fn_name(inner)})"
        if hasattr(inner, "pulled"):
            self._pulled = lambda mu, om: ExpExpRepresentative(
                inner.pulled(mu), omega=om)

    def log_abs_dx(self, ival, up, dn, h: float):
        """log |d/dx R| = I(x) + log |I'(x)| from the values ``ival``, ``up``
        and ``dn`` of I at x, x + h and x - h (floats or arrays, taken
        elementwise), I' by their central difference.

        A difference below the rounding noise of the inner evaluations is
        indistinguishable from zero; reporting it would multiply noise by
        exp(I).  Such points count as exact zeros (-inf).  A NaN among the
        three values gives NaN."""
        di = (up - dn) / (2.0 * h)
        noise = 8.0 * np.finfo(float).eps * np.maximum(
            np.maximum(np.abs(up), np.abs(dn)), 1.0) / (2.0 * h)
        with np.errstate(divide="ignore"):  # log 0 lies below the noise
            logs = np.where(np.abs(di) <= noise, -np.inf, np.log(np.abs(di)))
        return ival + logs  # a NaN I at x stays NaN, also below the noise

    def log_abs_d1(self, ival: float, d1s) -> float:
        """log |d_1^k R(phi,x)(psi_1..psi_k)| ~ k I + sum log |d_1 I(psi_j)|
        from I = ``ival`` and the values ``d1s`` of d_1 I(psi_j), added in
        that order; -inf if one d_1 I is exactly 0.

        Exact up to O(e^{-I}) corrections, which is the regime of interest.
        """
        acc = len(d1s) * ival
        for di in d1s:  # not sum(), which compensates from Python 3.12 on
            if di == 0.0:
                return -np.inf
            acc += float(np.log(abs(di)))
        return acc


# ---------------------------------------------------------------------------
# embeddings


def embed_C(w: Distribution, omega: Optional[Box] = None,
            n: Optional[int] = None) -> Representative:
    """iota in the C-formalism: (phi, x) -> <w, phi(. - x)>, with
    ``pair_row`` as its row, so a sweep over a coefficient-form path builds
    no member.  Its pullback along mu is the embedding of mu^* w, in the
    closed form of ``distributions._pullback``, and pulls back again."""
    return _embedded(w, 1.0, 0.0, omega, n)


def _embedded(w: Distribution, c: float, s: float, omega: Optional[Box],
              n: Optional[int]) -> Representative:
    """(phi, x) -> c <w, phi(. - (x - s))>, the embedding of c w(. - s);
    ``embed_C`` at c = 1, s = 0, which change no bit of its values."""
    rep = Representative(lambda phi, x: c * pair(w, phi, n, shift=x - s),
                         formalism="C", linear=True, omega=omega)
    rep.row = lambda member, xs: c * pair_row(w, *member, np.subtract(xs, s),
                                              n)
    rep._label = f"embed_C({w!r})"
    rep._pulled = lambda mu, om: _embedded(*_pullback(mu, w, c, s), om, n)
    return rep


def embed_J(w: Distribution, n: Optional[int] = None) -> Representative:
    """iota in the J-formalism: (phi, x) -> <w, phi>, independent of x."""

    def ev(phi, x):
        return pair(w, phi, n)

    rep = Representative(ev, formalism="J", linear=True)
    rep._label = f"embed_J({w!r})"
    return rep


def embed_sigma(f: Callable[[float], complex],
                omega: Optional[Box] = None) -> Representative:
    """The constant embedding of a smooth function, in the C-formalism:
    (phi, x) -> f(x).  Its pullback along mu is ``embed_sigma(f o mu)``."""

    def ev(phi, x):
        return f(x)

    rep = Representative(ev, formalism="C", linear=False, omega=omega)
    rep.phi_independent = True
    rep.row = lambda member, xs: np.array([f(x) for x in xs])
    rep._label = f"embed_sigma({_fn_name(f)})"
    rep._pulled = lambda mu, om: embed_sigma(lambda x: f(mu.forward(x)), om)
    return rep


def translate_formalism(rep: Representative) -> Representative:
    """Toggle between the C- and J-formalism presentations.

    J -> C composes with (phi, x) -> (phi(. - x), x); C -> J with its
    inverse.  A round trip reproduces the original evaluator outputs
    bit for bit because opposite translations cancel structurally.
    """
    base, sign = rep.eval_fn, 1.0 if rep.formalism == "J" else -1.0

    def ev(phi, x):
        return base(translate(phi, sign * x), x)

    out = Representative(ev, formalism="C" if sign > 0 else "J",
                         linear=rep.linear, omega=rep.omega)
    out._label = f"translate_formalism({rep._label})"
    return out


def pullback_pair_transform(mu):
    """The test-function/point transform induced by a diffeomorphism.

    Maps (phi~, x~) on the source side to (chi, mu(x~)) with

        chi(xi) = phi~(mu^{-1}(xi + mu x~) - x~) * |det D mu^{-1}(xi + mu x~)|,

    assembled from the pulled test function of the translate
    (``pullback_test_function``).  The identity map reproduces (phi~, x~)
    bit for bit because the two opposite translations cancel structurally.
    No representative calls it: each pulls back in closed form
    (``Representative.compose_pullback``), and this is the definition those
    closed forms are checked against.
    """

    def transform(phi_t: TestFunction, x_t):
        y = mu.forward(x_t)
        shifted = translate(phi_t, x_t)
        chi = translate(pullback_test_function(mu, shifted), -y)
        return chi, y

    return transform


# ---------------------------------------------------------------------------
# algebra operations (pointwise on U(Omega))


def _meet(a: Optional[Box], b: Optional[Box]) -> Optional[Box]:
    """The intersection of two open sets, None standing for the line; two
    equal sets give the first."""
    if b is None or a == b:
        return a
    if a is None:
        return b
    return Box.interval(max(a.lo, b.lo), min(a.hi, b.hi))


def _combined(op, g1, g2):
    """(phi, x) -> op(g1(phi, x), g2(phi, x)); a square evaluates g1 once."""
    if g1 is g2:
        return lambda phi, x: op(v := g1(phi, x), v)
    return lambda phi, x: op(g1(phi, x), g2(phi, x))


def _composite(r1: Representative, r2: Representative, op,
               linear: bool) -> Representative:
    """op of the operands' values on the intersection of their open sets,
    where a ball lies exactly when it lies in both, so the composite's one
    check covers both operands, which run their bare ``eval_fn``.  Its row
    is op of their rows, if both have one; its pullback op of their
    pullbacks onto its own pulled set, if both have one."""
    if r1.formalism != r2.formalism:
        raise FormalismError(f"cannot {op.__name__} across formalisms")
    rep = Representative(_combined(op, r1.eval_fn, r2.eval_fn),
                         formalism=r1.formalism, linear=linear,
                         omega=_meet(r1.omega, r2.omega))
    rep._label = f"{op.__name__}({r1._label}, {r2._label})"
    if r1.row and r2.row:
        rep.row = _combined(op, r1.row, r2.row)
    if r1._pulled and r2._pulled:
        rep._pulled = lambda mu, om: _composite(
            r1._pulled(mu, om), r2._pulled(mu, om), op, linear)
    return rep


def sub(r1: Representative, r2: Representative) -> Representative:
    """r1 - r2 on the intersection of their open sets (``_composite``)."""
    return _composite(r1, r2, operator.sub, r1.linear and r2.linear)


def mul(r1: Representative, r2: Representative) -> Representative:
    """r1 r2 on the intersection of their open sets (``_composite``)."""
    return _composite(r1, r2, operator.mul, linear=False)


# ---------------------------------------------------------------------------
# derivatives


def partial_x(rep: Representative, alpha: int, phi: TestFunction, x: float,
              h: float):
    """d^alpha/dx^alpha of x -> rep(phi, x) by central differences at step
    ``h`` with one Richardson level.  The step shrinks symmetrically near
    the boundary of Omega, and a point outside Omega raises
    ``DomainError``; a sweep's rows apply the same step rule at every
    point of K at once (``asymptotics._insertion_row``).
    """
    if alpha < 0 or alpha > numdiff.MAX_ORDER:
        raise ValueError(f"derivative order {alpha} unsupported")
    hw = numdiff.stencil_halfwidth(alpha)
    if alpha and rep.omega is not None:
        dist = rep.omega.distance_to_boundary(x)
        if dist <= 0:
            raise DomainError(f"derivative point x={x} outside Omega")
        if hw * h >= dist:
            h = 0.5 * dist / hw
    return numdiff.richardson_derivative(lambda y: rep(phi, y), x,
                                         order=alpha, base_step=h, levels=1)


def _check_tangent(directions):  # d_1 acts on the zero-mass tangent space
    for psi in directions:
        if abs(psi.mass()) > TAU_M:
            raise PreconditionError(f"direction has mass {psi.mass():.3e}, "
                                    "not in the zero-mass tangent")


def d1_derivative(rep: Representative, phi: TestFunction, x, directions):
    """Iterated directional derivative in the test-function slot, exact.

    Directions must have vanishing integral, up to ``TAU_M`` (the tangent
    space of the unit-mass constraint).  (phi, x) and then each (psi, x)
    are tested on U(Omega), as rep(phi, x) and rep(psi, x) test them.  A
    linear representative's first order is rep(psi, x), and higher orders
    vanish; a phi-independent one's is v - v, v = rep(phi, x), after the
    test of the box covering phi and the directions.  Any other
    representative raises ``ValueError`` (a log channel's d_1 is
    ``ExpExpRepresentative.log_abs_d1``).
    """
    k = len(directions)
    if k == 0:
        return rep(phi, x)
    if k > 2:
        raise ValueError("directional derivatives implemented up to order 2")
    _check_tangent(directions)

    if rep.linear:
        if rep.omega is not None:
            for f in (phi, *directions):
                rep.check_domain(f, x)
        return rep.eval_fn(directions[0], x) if k == 1 else 0.0
    if rep.phi_independent:
        # d_1^k of a value v = rep(phi, x) that ignores phi is v - v (0,
        # or NaN), tested on the box covering phi and the directions
        rep.check_domain(TestFunction(*union_box([phi, *directions]), phi.fn),
                         x)
        v = rep.eval_fn(phi, x)
        return v - v
    raise ValueError(f"no d_1 rows: {rep!r} is not linear or phi-independent")


def Dj_derivative(rep: Representative, phi: TestFunction, x):
    """Derivative in the J-formalism:

        (D_j R)(phi, x) = -(d_1 R(phi, x))(phi') + (d_x R)(phi, x).

    For the embedded image of a distribution the second term vanishes by
    x-independence and the first is exactly the embedded derivative.
    """
    if rep.formalism != "J":
        raise FormalismError("D_j derivative acts on J-formalism representatives")
    dphi = phi.derivative()
    term1 = -d1_derivative(rep, phi, x, [dphi])
    term2 = partial_x(rep, 1, phi, x, h=1e-5)
    return term1 + term2
