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
from .distributions import (Distribution, pair, pair_row,
                            pullback_test_function)
from .testfunc import (TAU_M, Box, DomainError, TestFunction, tf_lincomb,
                       translate, union_box)
from .testfunc import scale  # noqa: F401  (a binding perfbench traces)


#: d_1 central-difference step, in units of sup |phi| / sup |psi|
D1_REL_STEP = 1e-4


class FormalismError(ValueError):
    """Mixed C/J operands where a single formalism is required."""


class PreconditionError(ValueError):
    """A directional derivative was requested outside the zero-mass tangent."""


class Representative:
    """Element of the basic space: evaluator (phi, x) -> complex.

    ``linear`` marks evaluators that are linear in the test-function slot
    (every embedded distribution is); the directional derivative exploits it.
    ``omega`` is the ambient open set realizing the domain predicate.
    ``x_independent`` marks representatives whose magnitudes do not depend
    on the point x, so a sweep row over a fixed test object may probe them
    once.  ``phi_independent`` marks those whose value does not depend on
    the test function, so their directional derivatives vanish.
    ``row((coeffs, terms, eps), xs)``, where set, is ``eval_fn`` at each
    (S_eps tf_lincomb(coeffs[:, k], terms), xs[k]), bit for bit, unchecked;
    sweeps over coefficient-form paths read it, and otherwise pass each
    member to ``eval_fn``.
    """

    has_log_channel = False
    x_independent = False
    phi_independent = False
    row = None

    def __init__(self, eval_fn: Callable[[TestFunction, float], complex],
                 formalism: str = "C", linear: bool = False,
                 omega: Optional[Box] = None):
        if formalism not in ("C", "J"):
            raise ValueError("formalism must be 'C' or 'J'")
        self.eval_fn = eval_fn
        self.formalism = formalism
        self.linear = bool(linear)
        self.omega = omega

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

    def compose_pullback(self, transform,
                         omega_src: Optional[Box]) -> "Representative":
        """Representative (phi~, x~) -> self(transform(phi~, x~))."""

        def ev(phi_t, x_t):
            chi, y = transform(phi_t, x_t)
            return self(chi, y)  # re-check the base domain at (chi, y)

        return Representative(ev, formalism=self.formalism, linear=self.linear,
                              omega=omega_src)

    def __repr__(self):
        return f"Representative({self.eval_fn}, {self.formalism})"


class ExpExpRepresentative(Representative):
    """R(phi, x) = exp(i exp(I(phi, x))) for a real inner functional I.

    The plain value overflows once I exceeds ~700 and then raises, so all
    asymptotic work runs through the log-magnitude channel: |R| = 1
    identically, and the magnitudes of x- or phi-derivatives are I + log |dI|.
    """

    has_log_channel = True

    def __init__(self, inner: Callable[[TestFunction, float], float],
                 omega: Optional[Box] = None):
        self.inner = inner
        self.x_independent = getattr(inner, "x_independent", False)

        def ev(phi, x):
            ival = inner(phi, x)
            if ival > 700.0:
                raise FloatingPointError(
                    f"exp(I) overflows at I = {ival:.6g}; use the log channel")
            return complex(np.exp(1j * np.exp(ival)))

        super().__init__(ev, formalism="C", linear=False, omega=omega)

    def log_abs(self, phi: TestFunction, x) -> float:
        return 0.0

    def log_abs_dx(self, inner_section: Callable[[float], float], x: float,
                   h: float) -> float:
        """log |d/dx R| = I(x) + log |I'(x)|, I' by central differences.

        A difference below the rounding noise of the inner evaluations is
        indistinguishable from zero; reporting it would multiply noise by
        exp(I).  Such points count as exact zeros (-inf)."""
        ival = inner_section(x)
        up = inner_section(x + h)
        dn = inner_section(x - h)
        di = (up - dn) / (2.0 * h)
        noise = 8.0 * np.finfo(float).eps * max(abs(up), abs(dn), 1.0) / (2.0 * h)
        if abs(di) <= noise:
            return -np.inf
        return ival + float(np.log(abs(di)))

    def log_abs_d1_terms(self, phi: TestFunction, x, directions):
        """I(phi, x), and log |d_1 I(psi)| for each direction psi, with d_1 I
        from ``d1_derivative`` on the inner functional; -inf where it is
        exactly 0."""
        ival = self.inner(phi, x)
        inner = Representative(self.inner)
        logs = []
        for psi in directions:
            di = d1_derivative(inner, phi, x, [psi])
            logs.append(-np.inf if di == 0.0 else float(np.log(abs(di))))
        return ival, logs

    @staticmethod
    def log_abs_d1_from_terms(ival: float, logs) -> float:
        """k I + sum of the k terms log |d_1 I(psi_j)|, in that order."""
        acc = len(logs) * ival
        for lg in logs:
            if lg == -np.inf:
                return -np.inf
            acc += lg
        return acc

    def log_abs_d1(self, phi: TestFunction, x, directions) -> float:
        """log |d_1^k R(phi,x)(psi_1..psi_k)| ~ k I + sum log |d_1 I(psi_j)|.

        Exact up to O(e^{-I}) corrections, which is the regime of interest.
        """
        return self.log_abs_d1_from_terms(
            *self.log_abs_d1_terms(phi, x, directions))

    def compose_pullback(self, transform, omega_src):
        base_inner = self.inner

        def inner2(phi_t, x_t):
            chi, y = transform(phi_t, x_t)
            return base_inner(chi, y)

        return ExpExpRepresentative(inner2, omega=omega_src)


# ---------------------------------------------------------------------------
# embeddings


def embed_C(w: Distribution, omega: Optional[Box] = None,
            n: Optional[int] = None) -> Representative:
    """iota in the C-formalism: (phi, x) -> <w, phi(. - x)>."""

    def ev(phi, x):
        return pair(w, phi, n, shift=x)

    rep = Representative(ev, formalism="C", linear=True, omega=omega)
    if w.kind == "heaviside" or hasattr(getattr(w, "f", None), "form") or \
            w.kind == "dirac" and w.order == 0:  # what pair_row pairs
        rep.row = lambda member, xs: pair_row(w, *member, xs, n)
    return rep


def embed_J(w: Distribution, n: Optional[int] = None) -> Representative:
    """iota in the J-formalism: (phi, x) -> <w, phi>, independent of x."""

    def ev(phi, x):
        return pair(w, phi, n)

    return Representative(ev, formalism="J", linear=True)


def embed_sigma(f: Callable[[float], complex],
                omega: Optional[Box] = None) -> Representative:
    """The constant embedding of a smooth function, in the C-formalism:
    (phi, x) -> f(x)."""

    def ev(phi, x):
        return f(x)

    rep = Representative(ev, formalism="C", linear=False, omega=omega)
    rep.phi_independent = True
    rep.row = lambda member, xs: np.array([f(x) for x in xs])
    return rep


def translate_formalism(rep: Representative) -> Representative:
    """Toggle between the C- and J-formalism presentations.

    J -> C composes with (phi, x) -> (phi(. - x), x); C -> J with its
    inverse.  A round trip reproduces the original evaluator outputs
    bit for bit because opposite translations cancel structurally.
    """
    base = rep.eval_fn
    if rep.formalism == "J":
        def ev(phi, x):
            return base(translate(phi, x), x)

        return Representative(ev, formalism="C", linear=rep.linear,
                              omega=rep.omega)

    def ev(phi, x):
        return base(translate(phi, -x), x)

    return Representative(ev, formalism="J", linear=rep.linear,
                          omega=rep.omega)


def pullback_pair_transform(mu):
    """The test-function/point transform induced by a diffeomorphism.

    Maps (phi~, x~) on the source side to (chi, mu(x~)) with

        chi(xi) = phi~(mu^{-1}(xi + mu x~) - x~) * |det D mu^{-1}(xi + mu x~)|,

    assembled from the classical pullback of the translated test function.
    The identity map reproduces (phi~, x~) bit for bit because the two
    opposite translations cancel structurally.
    """

    def transform(phi_t: TestFunction, x_t):
        y = mu.forward(x_t)
        shifted = translate(phi_t, x_t)
        chi = translate(pullback_test_function(mu, shifted), -y)
        return chi, y

    return transform


# ---------------------------------------------------------------------------
# algebra operations (pointwise on U(Omega))


def _operand(r: Representative, omega: Optional[Box]):
    """Evaluator of an operand of a composite on ``omega``.  Operands share
    the composite's formalism, so the composite's own check covers an
    operand without an open set or on the same one, which then runs its
    bare ``eval_fn``; an operand on another set keeps its own check."""
    return r.eval_fn if r.omega is None or r.omega == omega else r


def _combined(op, g1, g2):
    """(phi, x) -> op(g1(phi, x), g2(phi, x)); a square evaluates g1 once."""
    if g1 is g2:
        return lambda phi, x: op(v := g1(phi, x), v)
    return lambda phi, x: op(g1(phi, x), g2(phi, x))


def _composite(r1: Representative, r2: Representative, op,
               linear: bool) -> Representative:
    """op of the operands' values on the first operand's open set, else the
    second's; and op of their rows if both have one and its check covers."""
    if r1.formalism != r2.formalism:
        raise FormalismError(f"cannot {op.__name__} across formalisms")
    omega = r1.omega if r1.omega is not None else r2.omega
    f1, f2 = _operand(r1, omega), _operand(r2, omega)
    rep = Representative(_combined(op, f1, f2), formalism=r1.formalism,
                         linear=linear, omega=omega)
    if r1.row and r2.row and f1 is r1.eval_fn and f2 is r2.eval_fn:
        rep.row = _combined(op, r1.row, r2.row)
    return rep


def sub(r1: Representative, r2: Representative) -> Representative:
    return _composite(r1, r2, operator.sub, r1.linear and r2.linear)


def mul(r1: Representative, r2: Representative) -> Representative:
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


def d1_derivative(rep: Representative, phi: TestFunction, x, directions):
    """Iterated directional derivative in the test-function slot.

    Directions must have vanishing integral, up to ``TAU_M`` (the tangent
    space of the unit-mass constraint).  Linear representatives take the exact path:
    first order returns rep(psi, x), second and higher vanish.
    """
    k = len(directions)
    if k == 0:
        return rep(phi, x)
    if k > 2:
        raise ValueError("directional derivatives implemented up to order 2")
    for psi in directions:
        if abs(psi.mass()) > TAU_M:
            raise PreconditionError(
                f"direction has mass {psi.mass():.3e}, not in the zero-mass tangent")

    if rep.linear:
        if k == 1:
            return rep(directions[0], x)
        return 0.0
    if rep.phi_independent:
        # every perturbation of phi has the support of their lincomb and
        # the value v = rep(phi, x): the quotient is v - v (0, or NaN)
        rep.check_domain(TestFunction(*union_box([phi, *directions]), phi.fn),
                         x)
        v = rep.eval_fn(phi, x)
        return v - v

    sup_phi = max(phi.sup_abs(), 1e-30)
    steps = [D1_REL_STEP * sup_phi / max(psi.sup_abs(), 1e-30)
             for psi in directions]
    if k == 1:
        t = steps[0]
        psi = directions[0]
        up = rep(tf_lincomb([1.0, t], [phi, psi]), x)
        dn = rep(tf_lincomb([1.0, -t], [phi, psi]), x)
        return (up - dn) / (2.0 * t)

    t1, t2 = steps
    p1, p2 = directions

    def at(s1, s2):
        return rep(tf_lincomb([1.0, s1, s2], [phi, p1, p2]), x)

    return (at(t1, t2) - at(t1, -t2) - at(-t1, t2) + at(-t1, -t2)) / (4 * t1 * t2)


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
