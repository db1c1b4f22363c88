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
from .distributions import (Distribution, _fn_name, _pullback, pair_row,
                            pullback_test_function)
from .distributions import pair  # noqa: F401  (a binding perfbench traces)
from .testfunc import (TAU_M, Box, DomainError, TestFunction, translate,
                       union_box)
from .testfunc import scale  # noqa: F401  (a binding perfbench traces)


class FormalismError(ValueError):
    """Mixed C/J operands where a single formalism is required."""


class PreconditionError(ValueError):
    """A directional derivative was requested outside the zero-mass tangent."""


class Representative:
    """Element of the basic space: its one evaluator is ``row``.

    ``row((coeffs, terms, eps, b), xs)`` gives the values at the pairs
    (phi_k, xs[k]), phi_k the member b + S_eps tf_lincomb(coeffs[:, k],
    terms), that is p -> eps^-1 sum_j coeffs[j, k] terms[j]((p - b) /
    eps); a sweep's members have offset b = 0.  ``rep(phi, x)``, after
    its U(Omega) test, is the row of the one member read from phi's frame
    (base, a, b): a 1 x 1 coefficient array over (base,) at eps = a, with
    offset b (``_value_at``).  So a member's value is the same whether it
    is evaluated alone or in a row, and no representative has a second
    evaluator.

    ``linear`` marks representatives that are linear in the test-function
    slot (every embedded distribution is), so d_1 R(phi)(psi) = R(psi).
    ``omega`` is the ambient open set realizing the domain predicate.
    ``phi_independent`` marks representatives whose value does not depend
    on the test function, so their directional derivatives vanish.  These
    are the representatives ``d1_derivative`` differentiates exactly.  The
    constructors that build the lab's representatives also set their
    pullback in closed form (``compose_pullback``) and their translate to
    the other formalism (``translate_formalism``), and name what they
    built (``_label``), which the repr prints with the open set.
    """

    has_log_channel = False
    phi_independent = False
    _pulled = None  # (mu, omega) -> the pullback along mu, on omega
    _translate = None  # () -> the translate to the other formalism

    def __init__(self, row: Callable[[tuple, list], np.ndarray],
                 formalism: str = "C", linear: bool = False,
                 omega: Optional[Box] = None):
        if formalism not in ("C", "J"):
            raise ValueError("formalism must be 'C' or 'J'")
        self.row = row
        self.formalism = formalism
        self.linear = bool(linear)
        self.omega = omega
        self._label = f"Representative({_fn_name(row)}, {formalism})"

    def __call__(self, phi: TestFunction, x):
        if self.omega is not None:
            self.check_domain(phi, x)
        return _value_at(self.row, phi, x)

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
        set, with its row; it lives on mu's source set
        ``mu.omega_src`` within mu^{-1}(omega), a ``Box`` as mu is
        monotone.  A representative without a closed form (hand-built, or
        in the J-formalism) raises ``TypeError``."""
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


#: the formalism a representative's translate is in
_OTHER = {"C": "J", "J": "C"}

#: the coefficients of the one member read from a test function's frame
_ONE = np.ones((1, 1))
_ONE.flags.writeable = False


def _value_at(row, phi: TestFunction, x):
    """``row`` at (phi, x): the row of the one member read from phi's frame
    (base, a, b), a 1 x 1 coefficient array over (base,) at eps = a, with
    offset b, at the one point x.  An embedding pairs it at x + (b - s),
    as ``pair`` pairs phi shifted by x - s, without building a
    translate."""
    base, a, b = phi.frame
    return row((_ONE, (base,), a, b), [x])[0]


class ExpExpRepresentative(Representative):
    """R(phi, x) = exp(i exp(I(phi, x))) for a real inner functional I.

    The inner is I(phi, x) with its row ``inner.row``, as
    ``squared_mass_inner`` builds it.  R's row is exp(i exp(I)) of each
    value of the inner's row, and raises once I exceeds ~700, where that
    overflows; so all asymptotic work runs through the log-magnitude
    channel: |R| = 1 identically, and the magnitudes of x- or
    phi-derivatives are I + log |dI|.  Sweeps read I by ``inner.row``;
    ``log_abs_dx`` and ``log_abs_d1`` turn I's values into log magnitudes.
    The phi-derivatives need the inner's exact directional derivative
    ``inner.d1(phi, psi)``, which ``squared_mass_inner`` provides; an inner
    with ``d1`` reads phi alone, not x.  The pullback is the log channel of
    ``inner.pulled(mu)``; an inner without ``pulled`` has none.  A log
    channel has no translate to the J-formalism.
    """

    has_log_channel = True

    def __init__(self, inner, omega: Optional[Box] = None):
        self.inner = inner

        def row(member, xs):
            ivals = inner.row(member, xs)
            big = [ival for ival in ivals if ival > 700.0]
            if big:
                raise FloatingPointError(f"exp(I) overflows at I = "
                                         f"{big[0]:.6g}; use the log channel")
            return np.array([complex(np.exp(1j * np.exp(v))) for v in ivals])

        super().__init__(row, formalism="C", linear=False, omega=omega)
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
    closed form of ``distributions._pullback``, and pulls back again.  Its
    translate is ``embed_J(w)`` on omega (``_embedded``)."""
    return _embedded(w, 1.0, 0.0, omega, n, "C")


def embed_J(w: Distribution, n: Optional[int] = None) -> Representative:
    """iota in the J-formalism: (phi, x) -> <w, phi>, independent of x: the
    row of ``embed_C(w)`` at x = 0.  Its translate is ``embed_C(w)``."""
    return _embedded(w, 1.0, 0.0, None, n, "J")


def _embedded(w: Distribution, c: float, s: float, omega: Optional[Box],
              n: Optional[int], formalism: str) -> Representative:
    """The embedding of c w(. - s): (phi, x) -> c <w, phi(. - (x - s))> in
    the C-formalism, and in the J-formalism c <w, phi(. + s)>, the C value
    at x = 0.  A member of offset b pairs by ``pair_row`` at x + (b - s),
    and at b - s in the J-formalism; c = 1 and s = 0, as in ``embed_C``
    and ``embed_J``, change no bit.  Its translate is the same (w, c, s)
    embedding on omega in the other formalism; in the C-formalism, its
    pullback along mu is the embedding of mu^* c w(. - s)."""
    at_zero = formalism == "J"  # the J value is the C value at x = 0

    def row(member, xs):
        coeffs, terms, eps, b = member
        d = b - s  # offsets x + d, and xs at d = 0: pair_row adds 0.0
        at = [d] * len(xs) if at_zero else [x + d for x in xs] if d else xs
        out = pair_row(w, coeffs, terms, eps, at, n)
        return out if c == 1.0 else c * out  # 1.0 * v is v, bit for bit

    rep = Representative(row, formalism=formalism, linear=True, omega=omega)
    rep._label = f"embed_{formalism}({w!r})"
    rep._translate = lambda: _embedded(w, c, s, omega, n, _OTHER[formalism])
    if not at_zero:
        rep._pulled = lambda mu, om: _embedded(*_pullback(mu, w, c, s), om,
                                               n, "C")
    return rep


def embed_sigma(f: Callable[[float], complex],
                omega: Optional[Box] = None) -> Representative:
    """The constant embedding of a smooth function, in the C-formalism:
    (phi, x) -> f(x).  Its pullback along mu is ``embed_sigma(f o mu)``;
    its translate is the same map f(x) in the J-formalism."""
    return _sigma(f, omega, "C")


def _sigma(f, omega: Optional[Box], formalism: str) -> Representative:
    """(phi, x) -> f(x) in ``formalism``, as ``embed_sigma`` describes."""
    rep = Representative(lambda member, xs: np.array([f(x) for x in xs]),
                         formalism=formalism, linear=False, omega=omega)
    rep.phi_independent = True
    rep._label = f"embed_sigma({_fn_name(f)})"
    rep._translate = lambda: _sigma(f, omega, _OTHER[formalism])
    if formalism == "C":
        rep._pulled = lambda m, om: embed_sigma(lambda x: f(m.forward(x)), om)
    return rep


def translate_formalism(rep: Representative) -> Representative:
    """The same element in the other formalism, built once, here.

    J -> C composes with (phi, x) -> (phi(. - x), x), and C -> J with its
    inverse.  Each constructor sets the result as it sets its row: an
    embedding becomes the same embedding in the other formalism, on the
    same open set; sigma(f) the same map f(x); a composite the composite
    of its operands' translates.  So a translate evaluates as any
    representative of its kind does, and translates no test function per
    call.  Translating twice builds a representative equal to ``rep``, not
    ``rep`` itself.  A representative without one (hand-built, or a log
    channel) raises ``TypeError``.
    """
    if rep._translate is None:
        raise TypeError(f"no translate of {rep!r} to the other formalism")
    return rep._translate()


def pullback_pair_transform(mu):
    """The test-function/point transform induced by a diffeomorphism.

    Maps (phi~, x~) on the source side to (chi, mu(x~)) with

        chi(xi) = phi~(mu^{-1}(xi + mu x~) - x~) * |det D mu^{-1}(xi + mu x~)|,

    assembled from the pulled test function of the translate
    (``pullback_test_function``).  Under the identity map chi is phi~'s
    base in the frame at offset (b + x~) - x~, b phi~'s own: phi~'s frame
    bit for bit when that offset rounds back to b, as it does for b = 0.
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
    equal sets give the first, and disjoint ones raise ``ValueError``."""
    if b is None or a == b:
        return a
    if a is None:
        return b
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    if not lo < hi:
        raise ValueError(f"the open sets {a} and {b} do not meet")
    return Box.interval(lo, hi)


def _combined(op, g1, g2):
    """(member, xs) -> op(g1(member, xs), g2(member, xs)); a square
    evaluates g1 once."""
    if g1 is g2:
        return lambda member, xs: op(v := g1(member, xs), v)
    return lambda member, xs: op(g1(member, xs), g2(member, xs))


def _composite(r1: Representative, r2: Representative, op,
               linear: bool) -> Representative:
    """op of the operands' rows on the intersection of their open sets,
    where a ball lies exactly when it lies in both, so the composite's one
    check covers both operands, whose rows run unchecked.  Its translate is
    op of their translates; its pullback op of their pullbacks onto its
    own pulled set, if both have one.  A square translates and pulls back
    its operand once."""
    if r1.formalism != r2.formalism:
        raise FormalismError(f"cannot {op.__name__} across formalisms")
    rep = Representative(_combined(op, r1.row, r2.row),
                         formalism=r1.formalism, linear=linear,
                         omega=_meet(r1.omega, r2.omega))
    rep._label = f"{op.__name__}({r1._label}, {r2._label})"

    def of_operands(act):  # op of act on each operand, once for a square
        v1 = act(r1)
        return _composite(v1, v1 if r2 is r1 else act(r2), op, linear)

    rep._translate = lambda: of_operands(translate_formalism)
    if r1._pulled and r2._pulled:
        rep._pulled = lambda mu, om: of_operands(
            lambda r: r._pulled(mu, om))
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
    if alpha and rep.omega is not None:
        hw = numdiff.stencil_halfwidth(alpha)
        h, outside = _x_steps(rep.omega, x, h, hw)
        if outside:
            raise DomainError(f"derivative point x={x} outside Omega")
        h = float(h)
    return numdiff.richardson_derivative(lambda y: rep(phi, y), x,
                                         order=alpha, base_step=h, levels=1)


def _x_steps(omega: Box, xs, h: float, hw: int) -> tuple:
    """The step of a central stencil of half-width ``hw`` at each point of
    xs (a point or an array): h, shrunk to 0.5 dist / hw where hw h >= dist,
    dist the distance to the boundary of Omega; and where dist <= 0, the
    point lies outside Omega."""
    dist = np.minimum(xs - omega.lo, omega.hi - xs)
    return np.where(hw * h >= dist, 0.5 * dist / hw, h), dist <= 0


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
        return _value_at(rep.row, directions[0], x) if k == 1 else 0.0
    if rep.phi_independent:
        # d_1^k of a value v = rep(phi, x) that ignores phi is v - v (0,
        # or NaN), tested on the box covering phi and the directions
        rep.check_domain(TestFunction(*union_box([phi, *directions]), phi.fn),
                         x)
        v = _value_at(rep.row, phi, x)
        with np.errstate(invalid="ignore"):  # inf - inf is the NaN meant
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
