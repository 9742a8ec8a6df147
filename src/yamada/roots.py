"""Zeros of the twist-family invariants.

The family polynomial is a two-term power sum lambda1^n + sigma * lambda2^n,
so for large n its roots pile up along the equal-modulus set
|lambda1(z)| = |lambda2(z)|.  This module finds all roots of one family
member, samples that limit set, tests membership in the closed region
where |sigma(z)| dominates a small cyclotomic minimum, and hunts through
the (n, s, k) grid for a family root near a requested target, solving
only the members where neither power term provably dominates near it
and h = log(sigma lambda2^n / lambda1^n) does not provably wind zero
times about every odd multiple of i pi along the circle (the argument
principle's count of the zeros inside).

The member n = 1 is -sigma^s b^s exactly, with b of _closed_parts, so
its roots, repeated ones included, are known in closed form: only z^2k
b, of degree at most k + 1, goes through the dense path of _dense_solve,
and its records still carry the structured residual (_first_member).  No
other member is solved through dense coefficients, and none checked has
a repeated root.  Raising the lambdas to the n-th power spreads the
coefficients over hundreds of orders of magnitude, and a double-precision
Horner evaluation of such a polynomial is noise near the unit circle: the
rounding floor (machine epsilon times the largest term) can exceed the
true value by twenty orders.  Any dense method, ours or numpy's, then
returns points that are roots only of a noise-perturbed polynomial.
Instead the two-power structure is evaluated directly: with
E = lambda1^n / (sigma lambda2^n), computed as an exponential of
n log(lambda1/lambda2) - log sigma from the lambdas, each a few
products in the paper's closed forms (_closed_parts), a root is E = -1,
the residual is |E + 1| / (|E| + 1), and the Newton correction follows
from the log derivative.  The simultaneous Aberth-Ehrlich iteration then runs on that
functional form.  It starts a member with n >= 3 from the roots of its n
branches lambda1 = t_j lambda2, t_j^n = -1 (_branch_starts), which is
where the roots gather; the members with n = 2 start from circles
fitted to the exact integer coefficients (_initial_points).

Every member has integer coefficients, so its roots are closed under
conjugation, and a member that starts from its branches is solved on
half of them: the real points and the points
above the real axis, each of the latter standing for itself and its
conjugate.  Only half of the branches are solved, the real starts come
from sign changes of the member on the real axis (_axis_starts), and
the Aberth iteration, the polish and the 240-bit refine move the half
configuration with the repulsion of the mirrored points.  The records
are the points and their exact conjugates.  The real count is proven,
not assumed: the half configuration is kept only when no two of the d
inclusion discs of the full one meet, so that each holds exactly one
root, and a real point's disc, symmetric about the axis, a real one.
Otherwise the member is solved on the full configuration from all of
its branches, and the fallback is counted in COUNTS.  Either
configuration takes the same path (_family_roots_full): one solve and
disc test (_solve), one refine of the points whose disc meets another
or whose residual is above _REFINE_ABOVE, one record assembly.

Everything the module evaluates of the pair lambda1, lambda2 comes from
one record per (s, k, sign) column (_column): the solve, its bounds and
its 240-bit refine (from the closed forms, _closed_parts, on doubles,
on balls and on 240-bit Gaussian floats), the exclusion test, the limit
curve's grid (from the float rows), and the limit curve's gap and the
half solve's real-axis table (from the paper's two-power form,
_two_power).

General Laurent polynomials (without the power-sum structure) still go
through the dense path, with residuals normalized by the largest
evaluated term |c_j z^j|; see _dense_eval.  Both paths share one Aberth
driver with one stall rule (a point is stuck once its residual is at or
below its proven float64 floor: _residual_floor on the family path,
_dense_floor on the dense one), and both report roots in _root_key's
order.  Both floors, the inclusion discs, the zero discs and the
exclusion test's bounds are read from one ball type (_Ball), whose
operations carry their own rounding.  Records for the negative family are the exact reciprocals of
the positive ones (mirror identity), which halves the grid work; the
residual carries over unchanged because E at the reciprocal point of the
mirrored family is the same number.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter, deque
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, partial
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import YamadaError
from .laurent import (
    LaurentPoly,
    PoleAtZero,
    _poly_gcd,
    exact_div,
    sigma,
)
from .replace import family_degree_estimate, family_lambdas, family_polynomial


class ZeroPolynomial(YamadaError):
    pass


class NoConvergence(YamadaError):
    """Raised when some residual is still above tolerance after the full
    iteration budget; carries every root estimate so callers can salvage
    the converged part."""

    def __init__(self, message: str, roots, residuals):
        super().__init__(message)
        self.roots = list(roots)
        self.residuals = list(residuals)


class PoleEncountered(YamadaError):
    pass


@dataclass(frozen=True)
class RootRecord:
    root: complex
    n: int
    s: int
    k: int
    sign: str
    residual: float
    degree: int


@dataclass(frozen=True)
class Witness:
    """Search outcome when a certified root landed inside the epsilon
    disc, with the count of uncertified records (residual above tol) the
    search passed over on the way, in the cells it read (solved or
    cached); cells it ruled out without solving add nothing."""

    target: complex
    epsilon: float
    found: RootRecord
    distance: float
    uncertified: int


@dataclass(frozen=True)
class SearchCaps:
    k_max: int = 12
    s_max: int = 6
    n_max: int = 24
    degree_cap: int = 4000

    def doubled(self) -> "SearchCaps":
        return SearchCaps(
            2 * self.k_max, 2 * self.s_max, 2 * self.n_max, 2 * self.degree_cap
        )


@dataclass(frozen=True)
class NotFound:
    """Search outcome when no certified root landed inside the epsilon
    disc: the closest certified record over the whole capped grid (cells
    ruled out without solving provably hold none closer), the caps, and
    the count of uncertified records in the cells the search read
    (solved or cached)."""

    target: complex
    epsilon: float
    closest: RootRecord | None
    distance: float
    caps: SearchCaps
    uncertified: int


# ---------------------------------------------------------------------------
# polynomial root extraction

_GOLDEN = 0.6180339887498949
_U = np.finfo(float).eps / 2  # unit roundoff of float64
# _aberth stops once the moving set has kept its size this many
# iterations while every moving point is at or below its residual floor
_STALL_ITERS = 20
# the iteration cap of every solve, and the polish rounds after it
_MAX_ITER = 400
_POLISH_ROUNDS = 3
# _aberth sums its repulsions over _CHUNK rows of the pair matrix at a time
_CHUNK = 512
# every radius of a _Ball is pushed up by _UP, and a lower bound in one
# down by _DOWN
_UP = 1 + 128 * _U
_DOWN = 1 - 128 * _U


class _Ball:
    """Arrays of complex discs |x - mid| <= rad, each holding the exact
    value it stands for: the one error model of every proven float64
    bound in this module (midpoint-radius arithmetic as in Rump, Acta
    Numerica 2010, and Arb, Johansson 2017, at one precision).  rad is
    an array of mid's shape or a scalar; exact doubles x are _Ball(x).
    Every operation forms mid by the numpy expression the unbounded code
    uses, so midpoints carry its very bits.

    The rounding model (u = 2^-53; Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 3), away from underflow: a sum, or a
    product by a real, is within u of its value in modulus, a complex
    product within 3 u (lemma 3.5), numpy's complex quotient (Smith's
    algorithm) within 6 u, exp, hypot and the real libm functions within
    4 u, and the complex log within 4 u (1 + |log|).  Each operation's
    radius is what the operands' radii propagate, plus k u |mid| for the
    rounding of mid (k u (1 + |mid|) for log), above the error just
    stated:

    - a + b, a - b: ra + rb; k = 2.  -a: ra, exact.  k a, k integers
      below 2^53: |k| ra; k = 2.  a b: |a| rb + |b| ra + ra rb; k = 4.
    - a / b: (|a / b| rb + ra) / (|b| - rb), infinite unless rb < |b|;
      k = 8.
    - log a: -log(1 - ra / |a|), infinite unless ra < |a|, as |log(1 +
      w)| <= -log(1 - |w|); k = 8.  The disc holds the branch log a +
      log(1 + (x - a) / a), continuous on a's disc, so its imaginary
      part encloses a branch of arg x there.
    - exp a: |mid| expm1(ra), as |exp(w) - 1| <= expm1(|w|); k = 8.
    - arg a, a real ball: asin(ra / |a|), infinite unless ra < |a|, as
      x / a lies in the disc about 1 of radius ra / |a|, whose points
      make an angle of at most asin(ra / |a|) with 1 (the tangents from
      0); k = 8.  The disc holds the branch arg a + arg(x / a), continuous
      on a's disc.
    - horner(stack, z), exact coefficients at exact z: 8 u mu, mu = sum_k
      |s_k| |z|^k over the computed partial sums, the running bound
      (Higham 5.1; first-order constant sqrt5 + 1), valid to degree 10^13.
    - over_disc: see there.

    A radius is formed from nonnegative doubles by sums, products and
    nondecreasing functions of upper bounds (the ratio of log is pushed
    up before -log1p takes it), then multiplied by _UP = 1 + 128 u,
    which covers its fewer than 100 roundings and the use of a float
    |mid| for an exact modulus.  A lower bound X - Y is (X _DOWN - Y)
    _DOWN.  A nan radius (0 times an infinite one) claims nothing: every
    comparison with it fails, and readers needing a number take inf.
    """

    __slots__ = ("mid", "rad")
    # an ndarray on the left of an operator defers to the ball's own
    __array_ufunc__ = None

    def __init__(self, mid, rad=0.0):
        self.mid, self.rad = mid, rad

    def __getitem__(self, i) -> "_Ball":
        # a radius is a scalar or has the midpoints' shape
        rad = self.rad[i] if np.ndim(self.rad) else self.rad
        return _Ball(self.mid[i], rad)

    @staticmethod
    def _rounded(mid, rad, k) -> "_Ball":
        """The ball about mid of the propagated radius rad plus k u
        |mid|, pushed up by _UP."""
        return _Ball(mid, (rad + k * _U * np.abs(mid)) * _UP)

    def __add__(self, other) -> "_Ball":
        if not isinstance(other, _Ball):
            other = _Ball(other)
        return _Ball._rounded(self.mid + other.mid, self.rad + other.rad, 2)

    def __sub__(self, other) -> "_Ball":
        if not isinstance(other, _Ball):
            other = _Ball(other)
        return _Ball._rounded(self.mid - other.mid, self.rad + other.rad, 2)

    def __rsub__(self, other) -> "_Ball":
        return _Ball(other) - self

    def __neg__(self) -> "_Ball":
        return _Ball(-self.mid, self.rad)

    def __mul__(self, other) -> "_Ball":
        if not isinstance(other, _Ball):
            # an integer scale
            rad = np.abs(other) * self.rad
            return _Ball._rounded(other * self.mid, rad, 2)
        rad = (
            np.abs(self.mid) * other.rad
            + np.abs(other.mid) * self.rad
            + self.rad * other.rad
        )
        return _Ball._rounded(self.mid * other.mid, rad, 4)

    __rmul__ = __mul__

    def __truediv__(self, other: "_Ball") -> "_Ball":
        mid = self.mid / other.mid
        low = (np.abs(other.mid) * _DOWN - other.rad) * _DOWN
        rad = (np.abs(mid) * other.rad + self.rad) / low
        return _Ball._rounded(mid, np.where(low > 0, rad, np.inf), 8)

    def log(self) -> "_Ball":
        ratio = np.minimum(self.rad / np.abs(self.mid) * _UP, 1.0)
        return _Ball._rounded(np.log(self.mid), 8 * _U - np.log1p(-ratio), 8)

    def exp(self) -> "_Ball":
        mid = np.exp(self.mid)
        return _Ball._rounded(mid, np.abs(mid) * np.expm1(self.rad), 8)

    def arg(self) -> "_Ball":
        ratio = self.rad / np.abs(self.mid) * _UP
        rad = np.where(ratio < 1, np.arcsin(np.minimum(ratio, 1.0)), np.inf)
        return _Ball._rounded(np.angle(self.mid), rad, 8)

    @staticmethod
    def horner(stack: np.ndarray, z: np.ndarray) -> "_Ball":
        """The polynomials in the columns of the ascending coefficient
        matrix stack at the points z, one row per column, by Horner's
        rule in the order of numpy's polyval, which gives its bits."""
        az = np.abs(z)
        row = stack[-1][:, None] + 0 * z
        mu = np.abs(row)
        for c in stack[-2::-1]:
            row = c[:, None] + row * z
            mu = mu * az + np.abs(row)
        return _Ball(row, 8 * _U * mu * _UP)

    @staticmethod
    def over_disc(table: np.ndarray, c: np.ndarray, rho: float) -> "_Ball":
        """Balls of the polynomials p over the discs |z - c_j| <= rho, one
        row per p: table is the (m, 4q) matrix of the exact coefficients
        (ascending) of q polynomials p, of their derivatives p', of |p|'s
        and of |p'|'s coefficients, and mid is p(c).

        The powers of c, and of the real points a <= |c| and b >= |c| +
        rho, are repeated products (_powers), and p, p', pt and pt' dot
        products of those with the coefficients (einsum, which calls no
        BLAS), pt being the polynomial of the absolute coefficients.  c^k
        is within 3 k u |c|^k of its value and a dot product of m terms
        adds gamma_m, so p(c) and p'(c) are within g1 pt(|c|) and g1
        pt'(|c|) of their float values v and v', g1 = (6 m + 4) u, and
        pt(b), pt(a) and pt'(a) within gamma_2m of theirs.  Over the disc
        p moves from p(c) by at most |p'(c)| rho + pt(|c| + rho) - pt(|c|)
        - pt'(|c|) rho, the centred Taylor bound: for k >= 2 the k-th
        Taylor coefficient of p at c is at most that of pt at |c| in
        modulus.  That remainder is at most pt(b) - pt(a) - pt'(a) (b -
        a), since pt' grows on the positive axis, and the rounding of v
        and v' adds at most g1 (pt(|c|) + pt'(|c|) rho) <= g1 pt(b).  So
        p(z) lies within |v'| rho + (1 + g) pt(b) - pt(a) - pt'(a) (b -
        a) of v, and g = (8 m + 16) u covers g1 and the float values of
        pt(b), pt(a) and pt'(a).
        """
        q, m = table.shape[1] // 4, len(table)
        t = np.abs(c)
        a, b = t * _DOWN, (t + rho) * _UP
        val, slope = np.einsum(
            "km,mc->ck", _powers(c, m), table[:, : 2 * q]
        ).reshape(2, q, len(c))
        real = np.einsum(
            "km,mc->ck", _powers(np.concatenate([b, a]), m), table[:, 2 * q :]
        ).reshape(2, q, 2, len(c))
        hi, lo, dlo = real[0, :, 0], real[0, :, 1], real[1, :, 1]
        g = (8 * m + 16) * _U
        low = (lo + dlo * (b - a) * _DOWN) * (1 - g)
        return _Ball(val, (np.abs(slope) * rho + hi * (1 + g) - low) * _UP)


def _initial_points(coeffs: Sequence) -> np.ndarray:
    """Starting points from the upper convex hull of (i, log|c_i|).

    The dense path starts every solve here (_dense_solve), and so does
    the family path for members with n = 2, or where the branches give
    no starts (_full_branch_starts).

    The coefficients may be exact integers far beyond float range; their
    magnitudes only enter through math.log, which takes ints of any size.
    Each hull edge from index l to u contributes u - l points on the
    circle of radius (|c_l| / |c_u|)^(1/(u-l)), the classical estimate for
    how many roots live near that modulus.  Angles are spread with a
    golden-ratio stagger per edge so no start sits on a symmetry axis.
    """
    pts = [(i, math.log(abs(c))) for i, c in enumerate(coeffs) if c != 0]
    hull: list[tuple[int, float]] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) >= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    out = np.empty(len(coeffs) - 1, dtype=complex)
    pos = 0
    for e in range(len(hull) - 1):
        (lo, alo), (up, aup) = hull[e], hull[e + 1]
        m = up - lo
        radius = math.exp((alo - aup) / m)
        for j in range(m):
            theta = 2 * math.pi * ((j + _GOLDEN * (e + 1)) / m + _GOLDEN)
            out[pos] = radius * cmath.exp(1j * theta)
            pos += 1
    while pos < len(out):
        # end coefficients underflowed in scaling; park the leftovers on
        # a small circle and let the iteration sort them out
        out[pos] = 1e-6 * cmath.exp(2j * math.pi * _GOLDEN * (pos + 1))
        pos += 1
    return out


def _dense_eval(
    cs: np.ndarray, guard: float, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Residual |p(z)| / (guard + max_j |c_j z^j|) and Newton ratio
    p(z)/p'(z) for the ascending coefficient vector cs, from one Horner
    pass that also carries the largest term.

    Dividing by the largest evaluated term makes the residual scale-free:
    a true root sits at a few units of machine epsilon regardless of the
    root's modulus, while a point off by delta reports about
    degree * delta / |z|.  Dividing by the largest plain coefficient
    instead would be unattainably strict for roots outside the unit
    circle: |z|^degree amplification puts the floor far above any useful
    tolerance even in exact arithmetic, because the root itself only
    carries double precision.  The guard keeps the denominator positive;
    callers pass 1/max|coefficient| so the unscaled reading is
    |p| / (1 + largest term).  Outside the unit circle, where the direct
    Horner overflows, everything goes through the reversed polynomial
    q(w) = w^d p(1/w): the identity |p(z)| = |z|^d |q(1/z)| keeps both
    factors of the residual finite without ever exponentiating |z|^d.
    """
    d = len(cs) - 1
    res = np.empty(len(z), dtype=float)
    ratio = np.empty_like(z)
    inner = np.abs(z) <= 1.0
    if inner.any():
        p, dp, _, m = _dense_horner(z[inner], cs[::-1])
        res[inner] = np.abs(p) / (guard + m)
        ratio[inner] = p / dp
    if not inner.all():
        zo = z[~inner]
        w = 1.0 / zo
        q, dq, t, m = _dense_horner(w, cs)
        # both |p(z)| and the largest term carry the common factor
        # |z|^d, which cancels; the guard shrinks by the same factor
        # and t^d underflows harmlessly for large |z|
        res[~inner] = np.abs(q) / (guard * t**d + m)
        ratio[~inner] = zo * q / (d * q - w * dq)
    return res, ratio


def _dense_horner(x: np.ndarray, desc: np.ndarray) -> tuple:
    """Horner's rule for the descending coefficients desc at the points
    x, carrying the derivative and the largest term max_j |c_j x^j|
    along: (value, derivative, |x|, largest term)."""
    t = np.abs(x)
    p = np.full_like(x, desc[0])
    dp = np.zeros_like(x)
    m = np.full_like(t, abs(desc[0]))
    for a in desc[1:]:
        dp = dp * x + p
        p = p * x + a
        m = np.maximum(m * t, abs(a))
    return p, dp, t, m


@np.errstate(all="ignore")
def _dense_floor(cs: np.ndarray, guard: float, z: np.ndarray) -> np.ndarray:
    """The float64 floor of _dense_eval's residual at the points z: at a
    root of the polynomial whose coefficients cs rounds (the exact
    integer one scaled by its largest coefficient), or at the double
    nearest such a root, the residual _dense_eval computes is at most
    this.  A residual at or below its floor is one double precision
    cannot tell from a root's.

    The floor is twice the radius of the Horner ball (_Ball.horner, 8 u
    mu) of the pass at x = z, or four times that of the pass at w = 1/z
    on the reversed branch, over _dense_eval's own denominator (the same
    bits, from _dense_horner; t^0 = 1 inside the unit circle), pushed up
    for the rounding of the quotient.  Besides the Horner pass, the
    scaled coefficients, each within u of its exact value, move the
    value by at most 2 u mu (c_j = s_j - x s_(j+1)), the point, within u
    |x| of the root, by u mu (p'(x) = sum_k s_(k+1) x^k), and w = 1/z,
    within 6 u |w|, by 6 u mu more.
    """
    floor = np.empty(len(z), dtype=float)
    inner = np.abs(z) <= 1.0
    for at, x, desc, k, times in (
        (inner, z[inner], cs[::-1], 0, 2),
        (~inner, 1.0 / z[~inner], cs, len(cs) - 1, 4),
    ):
        _, _, t, m = _dense_horner(x, desc)
        rad = _Ball.horner(desc[::-1, None], x).rad[0]
        floor[at] = times * rad / (guard * t**k + m)
    return floor * _UP


def _aberth(
    evaluate, z: np.ndarray, floor, real: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Simultaneous Aberth-Ehrlich iteration with per-point freezing,
    from the starting points z (updated in place), for at most _MAX_ITER
    iterations.

    evaluate(z) returns (residuals, newton_ratios) at the points z: a
    scale-free residual that reaches machine scale at a root, and the
    Newton correction p/p' of the polynomial whose roots are sought.
    Both are pointwise, so evaluating a subset of the points gives the
    same bits as evaluating all of them.

    real, when given, makes z a half configuration of a polynomial with
    real coefficients: real[i] marks a point on the real axis, and every
    other point stands for itself and its conjugate.  The repulsion sums
    then also run over the conjugates of those points (a point's own
    included), and a real point takes only the real part of its step, so
    it stays on the axis and the configuration stays closed under
    conjugation.  With real None every point stands for itself alone.

    A point whose residual reaches machine scale is frozen: it still
    repels the others but stops moving, so a resonant denominator at a
    near-double root cannot kick settled points loose again.  Every
    point is evaluated once at the start; after that only the points
    the last step moved are, and their values are written into the
    stored residuals and ratios.  A frozen point never moves again, so
    its stored values stay exact (MPSolve's Aberth iteration also stops
    evaluating converged approximations).

    The iteration stops early on a stall: once the number of moving
    points has stayed the same for _STALL_ITERS iterations and every
    moving point is stuck.  floor is a callable giving the proven float64
    rounding floor of evaluate's residual at given points (_residual_floor
    for the family evaluator, _dense_floor for the dense one), and a
    point is stuck when its residual is at or below its floor: double
    precision cannot tell it from a root, so no further step can improve
    it.  The floor is only evaluated, at the moving points, once the
    count has held for _STALL_ITERS iterations.  A stall returns the
    configuration it stopped at: every moving point is then at or below
    its floor, so a worst residual cannot rank it against another one.
    The callers' polish and refine take the stuck points from there.
    Only at the iteration cap does the best configuration seen after a
    step (by worst residual) replace the last one, if it is better, and
    only that fallback is evaluated in full a second time.  The starts
    are never the fallback: where some floor reaches 1 the worst residual
    is about 1 throughout, and branch starts (_branch_starts) would then
    win over every configuration the iteration reaches.  Returns the
    points and their residuals.
    """
    size = len(z) if real is None else 2 * len(z) - int(real.sum())
    freeze_tol = 100.0 * size * np.finfo(float).eps
    best = z.copy()
    best_score = math.inf
    moving, still = -1, 0
    with np.errstate(all="ignore"):
        res, ratio = evaluate(z)
        for it in range(_MAX_ITER):
            score = float(np.max(res))
            if it and score < best_score:
                best_score = score
                best = z.copy()
            idx = np.nonzero(res > freeze_tol)[0]
            if len(idx) == 0:
                return z, res
            still = still + 1 if len(idx) == moving else 0
            moving = len(idx)
            if still >= _STALL_ITERS and np.all(res[idx] <= floor(z[idx])):
                return z, res
            others = _mirrored(z, real)
            rep = np.empty(len(idx), dtype=complex)
            for a in range(0, len(idx), _CHUNK):
                sub = idx[a : a + _CHUNK]
                blk = z[sub, None] - others[None, :]
                blk[np.arange(len(sub)), sub] = np.inf
                rep[a : a + _CHUNK] = (1.0 / blk).sum(axis=1)
            step = ratio[idx] / (1.0 - ratio[idx] * rep)
            bad = ~np.isfinite(step)
            if bad.any():
                # a stalled iterate (p' = 0 or overflow): nudge it off
                step[bad] = 0.1 * (1.0 + np.abs(z[idx[bad]])) * np.exp(
                    2j * math.pi * _GOLDEN * (idx[bad] + it + 1)
                )
            if real is not None:
                step = np.where(real[idx], step.real, step)
            z[idx] = z[idx] - step
            res[idx], ratio[idx] = evaluate(z[idx])
        if float(np.max(res)) > best_score:
            z = best
            res, _ = evaluate(z)
    return z, res


def _polish(
    evaluate, z: np.ndarray, real: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """_POLISH_ROUNDS Newton steps that are only kept when they lower the
    residual; evaluate is the same kind of evaluator _aberth takes, and
    real marks the points of a half configuration that take only the
    real part of their step, as in _aberth.  Returns the points and
    their residuals."""
    with np.errstate(all="ignore"):
        res, ratio = evaluate(z)
        for _ in range(_POLISH_ROUNDS):
            step = ratio if real is None else np.where(real, ratio.real, ratio)
            z2 = z - step
            r2, ratio2 = evaluate(z2)
            better = r2 < res
            z = np.where(better, z2, z)
            res = np.where(better, r2, res)
            ratio = np.where(better, ratio2, ratio)
    return z, res


def _mirrored(z: np.ndarray, real: np.ndarray | None) -> np.ndarray:
    """The full configuration of the half configuration z: its points,
    then the conjugates of those that real does not mark (see _aberth);
    z itself when real is None.  A real array (residuals, radii, a mask)
    takes its values unchanged for the conjugates."""
    return z if real is None else np.concatenate([z, z[~real].conj()])


def _root_key(z: complex) -> tuple:
    """The order roots are reported in, on the family and the dense path
    alike: by angle, then modulus.

    A root with |im| <= 1e-30 |z| counts as real, at angle 0 on the
    positive and -pi on the negative axis.  Its imaginary part is then
    noise (of a 240-bit refine, or a signed zero of the float64 solve),
    and cmath.phase would put a negative real root first or last by the
    sign of that noise.
    """
    if abs(z.imag) <= 1e-30 * abs(z):
        return (-math.pi if z.real < 0 else 0.0, abs(z), z.real, z.imag)
    return (cmath.phase(z), abs(z), z.real, z.imag)


def _ordered(z: Iterable, res: Iterable) -> tuple[list[complex], list[float]]:
    """Roots and residuals in _root_key order."""
    pool = sorted(
        zip(map(complex, z), map(float, res)), key=lambda t: _root_key(t[0])
    )
    return [t[0] for t in pool], [t[1] for t in pool]


def _find_roots_full(p: LaurentPoly) -> tuple[list[complex], list[float], int]:
    """All roots of the Laurent polynomial p with their residuals and the
    degree, each root returned whatever its residual: no tolerance enters.

    The power-of-A shift that clears negative exponents is stripped, so a
    root at zero never appears.  Coefficients are scaled by their max
    absolute value by correctly rounded integer division before any float
    touches them.
    """
    if p.is_zero():
        raise ZeroPolynomial("the zero polynomial has no well-defined roots")
    _, coeffs = p.dense_coeffs()
    d = len(coeffs) - 1
    if d == 0:
        return [], [], 0
    z, res = _dense_solve(coeffs)
    return (*_ordered(z, res), d)


def _dense_solve(coeffs: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The points and dense residuals of the Aberth solve and polish of
    the integer polynomial coeffs (ascending, degree at least 1), its
    coefficients scaled by their max absolute value by correctly rounded
    integer division.  A linear polynomial starts at its root."""
    big = max(abs(c) for c in coeffs)
    cs = np.array([c / big for c in coeffs], dtype=float)
    evaluate = partial(_dense_eval, cs, 1 / big)
    if len(coeffs) == 2:
        z = np.array([complex(-coeffs[0] / coeffs[1])])
    else:
        floor = partial(_dense_floor, cs, 1 / big)
        z, _ = _aberth(evaluate, _initial_points(cs), floor)
    return _polish(evaluate, z)


def find_roots(p: LaurentPoly, tol: float = 1e-9) -> list[complex]:
    """All complex roots of p, each with term-normalized residual
    |p(root)| / (1 + max_j |c_j root^j|) at most tol, or NoConvergence
    carrying the roots and residuals of _find_roots_full when some
    residual is above tol.

    Roots of the A^m shift that clears negative exponents are artifacts
    and never reported.  A nonzero constant has no roots and returns [].
    A tol that is not nonnegative (NaN included) raises ValueError.
    """
    # written so that NaN fails too: no residual is above a NaN tol
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, not {tol}")
    roots, residuals, _ = _find_roots_full(p)
    if any(r > tol for r in residuals):
        raise NoConvergence(
            f"worst residual {max(residuals):.3e} above tolerance {tol:.3e}",
            roots,
            residuals,
        )
    return roots


# ---------------------------------------------------------------------------
# one (s, k, sign) column: the pair lambda1, lambda2 of all its members

_CYCLOTOMIC = LaurentPoly({0: 1, 1: 1, 2: 1})
_CYCLOTOMIC_ROOTS = (
    complex(-0.5, -0.8660254037844386),
    complex(-0.5, 0.8660254037844386),
)


@dataclass(frozen=True, eq=False)
class _Column:
    """What the module evaluates of one (s, k, sign) column, whose members
    lambda1^n + sigma lambda2^n all share the pair lambda1, lambda2;
    _column builds it once per column.

    parts holds (lo, exact coefficients, ascending) of lambda1, lambda2,
    lambda1 / c and sigma / c, where c is z^2 + z + 1: the roots of c are
    zeros of both power terms at once, with no cancellation between the
    terms that a residual could certify.  c divides sigma = z^-1 c, and
    it divides lambda1 in every column: each twist piece has both of its
    invariants divisible by sigma, so the theta numerator is sigma^s M
    and r_theta = sigma M / (1 + sigma); sigma is prime to 1 + sigma =
    z^-1 (1 + z)^2, so sigma divides r_theta, and c divides lambda1 =
    -r_theta; the mirror keeps sigma, so the same holds for sign -.  The
    divisions are exact_div, which raises if that ever fails; the tests
    take these exact parts as the oracle of the closed forms.  s, k and
    sign name the column, and the values of the four parts and of their
    derivatives, in float64, as balls or at 240 bits, come from those
    three alone (_closed_parts).  coprime is False when the lambdas
    share a factor, which puts roots of the family outside every tool
    here; _family_roots_full refuses such a column (no cell this module
    is asked about has one).

    pair is the read-only (2, D + 1) float matrix of the coefficients,
    ascending, of z^-L lambda1 and z^-L lambda2, with L the lower of
    their two low exponents and D their joint exponent span, each row
    zero-padded to that span: the branch rows of _branch_starts.  row(j),
    j = 0 or 1, is lambda(j+1)'s slice of it, without the padding, from
    which the limit curve's grid takes its moduli (_grid_moduli).

    lows and bounds serve the exclusion test, for lambda1, lambda2 and
    sigma written as z^lo p: their low exponents as a (3, 1) column, and
    the (m', 12) table of _Ball.over_disc for the three p, padded the
    same way, or None when an entry is not exact as a double (no bound
    is then claimed).  discs, their zero discs (_zero_discs), and axis,
    the real-axis table of the half solve (_axis_starts), are built on
    first use.
    """

    s: int
    k: int
    sign: str
    parts: tuple
    coprime: bool
    pair: np.ndarray
    lows: np.ndarray
    bounds: np.ndarray | None

    def row(self, j: int) -> tuple[int, np.ndarray]:
        """(lo, float coefficients) of lambda(j+1), without the padding."""
        lo, cs = self.parts[j]
        start = lo - min(self.parts[0][0], self.parts[1][0])
        return lo, self.pair[j, start : start + len(cs)]

    @cached_property
    def discs(self) -> tuple:
        terms = (*self.parts[:2], sigma().dense_coeffs())
        return tuple(_zero_discs(cs) for _, cs in terms)

    @cached_property
    def axis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(x, log |lambda1 / lambda2|, log |sigma|, signs) on the real
        axis at x = -r and r, r = geomspace(0.05, 20, 240), the rays as
        the rows of each (2, 240) array, and the signs of lambda1, lambda2
        and sigma (3, 2, 240), from _two_power, where nothing overflows."""
        x = np.geomspace(0.05, 20.0, 240) * np.array([[-1.0], [1.0]])
        z = x if self.sign == "+" else 1 / x
        sig, over, r, base = _two_power(z, self.s, self.k)
        p, q = _pq(sig, over, r)
        lead = np.sign(1 + sig) * np.sign(base) ** self.s
        signs = np.array([-lead * np.sign(p), lead * np.sign(q), np.sign(sig)])
        with np.errstate(divide="ignore"):
            logs = np.log(np.abs(p)) - np.log(np.abs(q))
            return x, logs, np.log(np.abs(sig)), signs


@lru_cache(maxsize=None)
def _column(s: int, k: int, sign: str) -> _Column:
    """The column record of (s, k, sign); see _Column."""
    l1, l2 = family_lambdas(s, k, sign)
    coprime = len(_poly_gcd(l1.dense_coeffs()[1], l2.dense_coeffs()[1])) == 1
    reduced = (exact_div(l1, _CYCLOTOMIC), exact_div(sigma(), _CYCLOTOMIC))
    parts = tuple(
        (lo, tuple(cs))
        for lo, cs in (p.dense_coeffs() for p in (l1, l2, *reduced))
    )
    (lo1, c1), (lo2, c2) = parts[:2]
    low = min(lo1, lo2)
    pair = np.zeros((2, max(lo1 + len(c1), lo2 + len(c2)) - low))
    for j, (lo, cs) in enumerate(parts[:2]):
        pair[j, lo - low : lo - low + len(cs)] = [float(c) for c in cs]
    pair.flags.writeable = False
    terms = (*parts[:2], sigma().dense_coeffs())
    bounds = None
    if all(abs(c) * max(j, 1) <= 2**53
           for _, cs in terms for j, c in enumerate(cs)):
        coeffs = np.zeros((max(len(cs) for _, cs in terms), 3))
        for j, (_, cs) in enumerate(terms):
            coeffs[: len(cs), j] = [float(c) for c in cs]
        slopes = np.zeros_like(coeffs)
        slopes[:-1] = coeffs[1:] * np.arange(1, len(coeffs))[:, None]
        bounds = np.hstack([coeffs, slopes, np.abs(coeffs), np.abs(slopes)])
    return _Column(
        s=s,
        k=k,
        sign=sign,
        parts=parts,
        coprime=coprime,
        pair=pair,
        lows=np.array([[lo] for lo, _ in terms], dtype=float),
        bounds=bounds,
    )


# ---------------------------------------------------------------------------
# the two-term limit set

def limit_curve_gap(z: complex, s: int, k: int) -> float:
    """|lambda1(z)| - |lambda2(z)| for the two powers competing in the
    family polynomial; its zero set is where roots accumulate as the
    cycle length grows.  It is _bracket's |p|^2 - |q|^2 at z times
    |base|^s / (|1 + sigma| (|p| + |q|)) (_two_power), so its sign is
    the one limit_curve_points bisects.

    Points with sigma(z) = 0 or sigma(z) = -1 are rejected: there the
    second term's coefficient sigma or the theta normalization 1 + sigma
    vanishes and the two-power reading of the family breaks down.  A z
    that is not finite, or s or k below 1, raises ValueError.
    """
    if s < 1 or k < 1 or not cmath.isfinite(z):
        raise ValueError(f"need s, k at least 1 and z finite: {s, k, z}")
    if z == 0:
        raise PoleEncountered("z = 0 is outside the Laurent domain")
    sig, over, r, base = _two_power(np.array([z], dtype=complex), s, k)
    if abs(sig[0]) < 1e-12 or abs(sig[0] + 1.0) < 1e-12:
        raise PoleEncountered(f"sigma({z}) is 0 or -1")
    p, q = _pq(sig, over, r)
    scale = np.abs(base) ** s / (np.abs(1 + sig) * (np.abs(p) + np.abs(q)))
    return float((scale * _bracket(sig, over, r))[0])


def _two_power(z: np.ndarray, s: int, k: int) -> tuple:
    """(sigma, over, r, base): the pair of the (s, k, +) column at the
    points z in the paper's two-power form.  With w and b of _closed_parts
    and a = sigma b, (1 + sigma) lambda2 = w^s - a^s and (1 + sigma)
    lambda1 = -(sigma w^s + a^s) exactly (checked in the tests).  over
    masks |a| > |w|; base is w, or a under the mask, and r = (a / w)^s,
    or (w / a)^s under it, so |r| <= 1 at any s.  Then lambda1 / lambda2
    = -p / q and (1 + sigma) lambda2 = base^s q, with p and q of _pq.
    Sign - is the mirror: its pair at z is this one at 1 / z."""
    u = 1 / z
    powers = [u**j for j in range(2 * k + 2)]
    w, b = (_monomial_sum(terms, powers) for terms in _twist_terms(k)[2:])
    sig = z + 1 + u
    a = sig * b
    over = np.abs(a) > np.abs(w)
    base, top = np.where(over, [a, w], [w, a])
    return sig, over, (top / base) ** s, base


def _pq(sig: np.ndarray, over: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(p, q) of _two_power: p = sigma + r and q = 1 - r, or p = sigma r
    + 1 and q = r - 1 under the mask."""
    return np.where(over, [sig * r + 1, r - 1], [sig + r, 1 - r])


def _bracket(sig: np.ndarray, over: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The sign of |lambda1| - |lambda2|: |p|^2 - |q|^2 of _pq expanded,
    |sigma|^2 - 1 + 2 Re((1 + sigma) conj r), or (|sigma|^2 - 1) |r|^2 +
    2 Re((1 + sigma) r) under the mask (the |r|^2 terms cancel), which
    keeps its accuracy where |r| is tiny and |p| - |q| would cancel."""
    cross = np.where(over, (1 + sig) * r, (1 + sig) * r.conj()).real
    norm = sig.real**2 + sig.imag**2 - 1
    return np.where(over, norm * (r.real**2 + r.imag**2), norm) + 2 * cross


def _grid_moduli(
    row: tuple[int, np.ndarray], thetas: np.ndarray, radii: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """|p(r e^{i theta})| on the polar grid thetas x radii as one matrix
    product, for p the row (lo, c) of a column, and the slack of
    limit_curve_points at each radius (infinite where its bound is not
    claimed).

    For p = sum_j c_j z^(j + lo), |p(r e^{i theta})| is the modulus of
    sum_j e^{i j theta} c_j r^(j + lo), since e^{i lo theta} has modulus
    one: the (angles, D) matrices cos(j theta) and sin(j theta), stacked,
    times the (D, radial) matrix c_j r^(j + lo) give the real and
    imaginary parts at every grid point.
    """
    lo, c = row
    j = np.arange(len(c))
    phase = thetas[:, None] * j
    waves = np.vstack([np.cos(phase), np.sin(phase)])
    powers = radii ** (j + lo)[:, None]
    re, im = np.split(waves @ (c[:, None] * powers), 2)
    weights = np.abs(c) * (1 + np.abs(j + lo))
    slack = 64 * len(c) * _U * (weights @ powers)
    reach = abs(lo) + len(c)
    top = math.log(len(c) * float(np.max(np.abs(c))))
    safe = np.abs(np.log(radii)) * reach + top < 300
    return np.sqrt(re * re + im * im), np.where(safe, slack, np.inf)


def limit_curve_points(
    s: int,
    k: int,
    angles: int = 720,
    radial: int = 240,
    r_lo: float = 0.05,
    r_hi: float = 20.0,
    refine: float = 1e-8,
) -> list[complex]:
    """Sample the gap-zero set on a polar grid, bisecting every sign
    change both along rays and along circles, on the upper half-plane.

    A branch running radially never changes the gap's sign along a ray,
    so a ray-only scan misses it entirely; scanning the circles as well
    catches those.  Both kinds of bracket go into one list: a radius
    interval on a ray, with scale 1, and an angle interval on a circle,
    with scale its radius, so that the scaled width is the length along
    the ray or the arc.  One loop halves them all, each step evaluating
    the midpoints of every open bracket in one _bracket call, and a
    bracket closes once its scaled width is at most refine: a bracket
    that is short enough is not halved again while wider ones still
    are.  Each point is its bracket's midpoint, the same double whatever
    brackets share a step, since _bracket is pointwise.  The points come
    back sorted by angle then radius, deterministically for fixed
    arguments.  The grid needs ints angles >= 1 and radial >= 1
    and finite radii 0 < r_lo < r_hi; anything else raises ValueError,
    and so does a refine that is not positive.

    The lambdas have real coefficients, so the gap at conj z is the gap
    at z, and the grid's rows past the half turn are mirror images of
    the rows up to it.  Only those rows, theta in [0, pi], are evaluated
    and only their brackets bisected: the rays up to the half turn, and
    the circle arcs between two of those rows (for an odd angles, the
    two rows either side of the half turn are mirror images, with no
    sign change between them).  Every point off the real axis then comes
    back with its exact conjugate, at angle 2 pi - theta.  A point on the
    ray at 0, or at the half turn of an even angles, which is the
    negative real axis exactly, has imaginary part 0.0.

    The grid's gaps come from _grid_moduli, one matrix product per
    lambda over the angles up to the half turn.  Only the signs of the
    grid's gaps are used, and a sign is taken from the product only
    where the gap exceeds the slack of both lambdas, 64 D u sum_j (1 +
    |j + lo|) |c_j| r^(j + lo) each (u = 2^-53, D terms).  That bounds,
    with room to spare, the distance of the product's moduli from the
    true ones: the rounding of the phases j theta and of 2 pi / angles,
    of the cosines, sines, powers and D-term sums.  So there the
    product's sign is the true sign.  Every other grid point takes its
    sign from _bracket, the two-power form, as the bisection does
    throughout, and so does every radius where some power or sum could
    leave the range e^{+-300} in which those bounds hold (its slack is
    infinite); the tests check that the points are bit for bit those of
    a grid evaluated by _bracket alone.
    """
    for name, size in (("angles", angles), ("radial", radial)):
        if not isinstance(size, int):
            raise ValueError(f"{name} must be an int, not {size!r}")
    if angles < 1 or radial < 1:
        raise ValueError(
            f"the grid needs angles >= 1 and radial >= 1, not {angles} and"
            f" {radial}"
        )
    if not 0 < r_lo < r_hi < math.inf:
        raise ValueError(
            f"the radii need 0 < r_lo < r_hi < inf, not r_lo = {r_lo!r} and"
            f" r_hi = {r_hi!r}"
        )
    # written so that NaN fails too: no bracket is ever wider than NaN
    if not refine > 0:
        raise ValueError(f"refine must be positive, not {refine!r}")
    column = _column(s, k, "+")
    radii = np.geomspace(r_lo, r_hi, radial)
    step = 2 * math.pi / angles
    # the rows up to the half turn; the others are their mirror images
    thetas = step * np.arange(angles // 2 + 1)
    units = np.exp(1j * thetas)
    if angles % 2 == 0:
        # the ray at the half turn is the negative real axis
        units[-1] = -1.0
    with np.errstate(all="ignore"):
        m1, slack1 = _grid_moduli(column.row(0), thetas, radii)
        m2, slack2 = _grid_moduli(column.row(1), thetas, radii)
        gaps = m1 - m2
        ai, ri = np.nonzero(~(np.abs(gaps) > slack1 + slack2))
        gaps[ai, ri] = _bracket(*_two_power(radii[ri] * units[ai], s, k)[:3])
    # 0 marks a point without a usable sign
    signs = np.where(np.isfinite(gaps), np.sign(gaps), 0.0)

    # the sign changes along each ray (in radius, scale 1), then along
    # each circle between two rows of the half turn (in angle, scale the
    # radius); for an odd angles, the rows on either side of the half
    # turn are mirror images, with no sign change between them
    ray_a, ray_r = np.nonzero(signs[:, :-1] * signs[:, 1:] < 0)
    arc_a, arc_r = np.nonzero(signs[:-1] * signs[1:] < 0)
    ray = np.arange(len(ray_a) + len(arc_a)) < len(ray_a)
    ai, ri = np.concatenate([ray_a, arc_a]), np.concatenate([ray_r, arc_r])
    lo = np.concatenate([radii[ray_r], thetas[arc_a]])
    hi = np.concatenate([radii[ray_r + 1], thetas[arc_a] + step])
    scale = np.concatenate([np.ones(len(ray_a)), radii[arc_r]])
    glo = gaps[ai, ri]
    with np.errstate(all="ignore"):
        for _ in range(80):
            i = np.flatnonzero((hi - lo) * scale > refine)
            if not len(i):
                break
            mid = 0.5 * (lo[i] + hi[i])
            z = np.where(
                ray[i], mid * units[ai[i]], scale[i] * np.exp(1j * mid)
            )
            gm = _bracket(*_two_power(z, s, k)[:3])
            left = np.sign(gm) * np.sign(glo[i]) > 0
            lo[i] = np.where(left, mid, lo[i])
            glo[i] = np.where(left, gm, glo[i])
            hi[i] = np.where(left, hi[i], mid)
    mid = 0.5 * (lo + hi)
    t = np.where(ray, thetas[ai], mid)
    r = np.where(ray, mid, scale)
    real = np.where(ray, units[ai].imag == 0, False)
    z = np.array(
        [b * cmath.exp(1j * a) for a, b in zip(t.tolist(), r.tolist())],
        dtype=complex,
    )
    z[real] = z[real].real
    # each point off the real axis and its conjugate, at angle 2 pi - t
    t = np.concatenate([t, 2 * math.pi - t[~real]])
    r = np.concatenate([r, r[~real]])
    z = np.concatenate([z, z[~real].conj()])
    return z[np.lexsort((r, t))].tolist()


def omega_member(z: complex) -> bool:
    """Membership in the closed region where |sigma(z)| is at least the
    smallest of 1, |z^3 + 2z^2 + z + 1| and its reciprocal-image twin.
    A z that is not finite raises ValueError."""
    if not cmath.isfinite(z):
        raise ValueError(f"z must be finite, not {z}")
    if z == 0:
        raise PoleAtZero("the region test is undefined at zero")
    w = 1.0 / z
    lhs = abs(z + 1.0 + w)
    rhs = min(
        1.0,
        abs(z * z * z + 2 * z * z + z + 1),
        abs(1 + w + 2 * w * w + w * w * w),
    )
    return lhs >= rhs


# ---------------------------------------------------------------------------
# family roots through the two-power structure

_REFINE_ABOVE = 1e-10
# counted in this process since import, for the tests and the audit to
# read: members of n >= 3 whose half configuration
# _family_roots_full kept ("half") or, its discs meeting, replaced by the
# full one ("fallback"), the points it sent to the 240-bit refine
# ("refined") and the 240-bit evaluations of a member (_fixed_terms)
# there ("refine_evals"); and of the exclusion test (_dominated), the
# columns tested ("columns"), the arc discs evaluated ("arcs") and the
# members ruled out by dominance ("ruled_re") or by the argument alone,
# its winding count ("ruled_im")
COUNTS: Counter = Counter()
_PREC = 240
_GUARD = 16
# every 240-bit value but the iterates is a Gaussian float (_Gauss) whose
# mantissa keeps at most _WIDTH bits
_WIDTH = _PREC + _GUARD
# a point of _refine_mp stops once its correction is below 2^-_SETTLED |z|
_SETTLED = 70


class _Gauss:
    """The Gaussian float (a + ib) 2^e of the 240-bit refine, with
    integers a, b and e, its mantissa truncated to _WIDTH bits by every
    operation; an int operand c stands for (c, 0, 0).  + and - align the
    two mantissas exactly before the one truncation, so a sum that
    cancels keeps every bit the two had; / takes one integer division,
    the reciprocal of |v|^2 to _WIDTH bits; ** is by squaring, for
    exponents >= 0.  Only +, -, * and integer constants touch z in
    _closed_parts, which runs on this type unchanged."""

    __slots__ = ("a", "b", "e")

    def __init__(self, a: int, b: int = 0, e: int = 0):
        s, t = a.bit_length(), b.bit_length()
        s = (s if s > t else t) - _WIDTH
        if s > 0:
            a, b, e = a >> s, b >> s, e + s
        self.a, self.b, self.e = a, b, e

    def __add__(self, other) -> "_Gauss":
        a, b, e = self.a, self.b, self.e
        if type(other) is int:
            c, d, f = other, 0, 0
        else:
            c, d, f = other.a, other.b, other.e
        if e > f:
            a, b, e = a << (e - f), b << (e - f), f
        elif f > e:
            c, d = c << (f - e), d << (f - e)
        return _Gauss(a + c, b + d, e)

    __radd__ = __add__

    def __sub__(self, other) -> "_Gauss":
        return self + -other

    def __rsub__(self, other) -> "_Gauss":
        return -self + other

    def __neg__(self) -> "_Gauss":
        return _Gauss(-self.a, -self.b, self.e)

    def __mul__(self, other) -> "_Gauss":
        a, b = self.a, self.b
        if type(other) is int:
            return _Gauss(a * other, b * other, self.e)
        c, d = other.a, other.b
        return _Gauss(a * c - b * d, a * d + b * c, self.e + other.e)

    __rmul__ = __mul__

    def __truediv__(self, other: "_Gauss") -> "_Gauss":
        a, b, c, d = self.a, self.b, other.a, other.b
        m = c * c + d * d
        k = m.bit_length() + _WIDTH
        r = (1 << k) // m
        return _Gauss((a * c + b * d) * r, (b * c - a * d) * r,
                      self.e - other.e - k)

    def __rtruediv__(self, other: int) -> "_Gauss":
        return _Gauss(other) / self

    def __pow__(self, k: int) -> "_Gauss":
        out, u = _Gauss(1), self
        while k:
            if k & 1:
                out = out * u
            k >>= 1
            if k:
                u = u * u
        return out


def _fixed(z: complex) -> tuple[int, int]:
    """The double z as a Gaussian integer on the fixed-point scale
    2^-_PREC: each part exactly from 2^-188 up, floored below that."""
    return (math.floor(math.ldexp(z.real, _PREC)),
            math.floor(math.ldexp(z.imag, _PREC)))


def _double(x: int, y: int) -> complex:
    """The fixed-point Gaussian integer x + iy rounded to the nearest
    complex double (int / int division rounds correctly)."""
    return complex(x / (1 << _PREC), y / (1 << _PREC))


def _repulsion_fixed(
    pts: list[tuple[int, int]], mirrored: Sequence[int] = ()
) -> list[list[int]]:
    """The Aberth repulsion sum over j != i of 1 / (z_i - z_j) among the
    points z = (x + iy) / 2^_PREC, as Gaussian integers on the same
    fixed-point scale; each pair is divided once and used twice.

    The points whose indices are in mirrored also stand for their
    conjugates, and every sum then runs over those conjugates too, a
    point's own included.  Since 1 / (z_j - conj z_i) = -conj(1 / (z_i -
    conj z_j)), a pair's mirror terms also take one division."""
    f2 = 2 * _PREC
    out = [[0, 0] for _ in pts]
    mirror = [False] * len(pts)
    for i in mirrored:
        mirror[i] = True
    for i, (xi, yi) in enumerate(pts):
        if mirror[i]:
            # z_i - conj z_i = 2i y_i
            out[i][1] += (-yi << f2 + 1) // (4 * yi * yi)
        for j in range(i + 1, len(pts)):
            xj, yj = pts[j]
            dx, dy = xi - xj, yi - yj
            m = dx * dx + dy * dy
            tr, ti = (dx << f2) // m, (-dy << f2) // m
            out[i][0] += tr
            out[i][1] += ti
            out[j][0] -= tr
            out[j][1] -= ti
            if mirror[i] or mirror[j]:
                dy = yi + yj
                m = dx * dx + dy * dy
                tr, ti = (dx << f2) // m, (-dy << f2) // m
                if mirror[j]:
                    out[i][0] += tr
                    out[i][1] += ti
                if mirror[i]:
                    out[j][0] -= tr
                    out[j][1] += ti
    return out


def _refine_mp(
    n: int,
    column: _Column,
    flagged: np.ndarray,
    frozen: np.ndarray,
    real: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Aberth refinement of a few flagged points of the member n of the
    column, certified at 240 bits.

    Where the two power terms have near-coincident zeros (the tightest
    pair over the working grid sits 1.2e-5 apart), a family root is
    ill-conditioned: even from the closed forms (_closed_parts) the
    double-precision residual there floors between about 1e-9 and 1e-7
    ((20, 2, 6) near -0.8909), above _REFINE_ABOVE, however good the
    point is.  The points are fine; the certificate needs more bits.
    This refines just the flagged points against the same closed forms at
    240 bits, then rounds each result back to a double and reports the
    residual evaluated at 240 bits at the rounded point, so the record
    stays an honest statement about the root actually returned.

    All of it runs in Python integers.  An iterate is a Gaussian integer
    x + iy on the fixed-point scale 2^-240 (_fixed); the member's terms
    b1 and b2 and the derivative of their sum come from _fixed_terms,
    and the step is formed in Gaussian floats of _WIDTH bits (_Gauss).
    Flagged points whose discs overlap can sit closer than double
    resolution, so the repulsion among the flagged points is summed on
    the same 2^-240 scale (_repulsion_fixed).  The rest of the
    configuration enters the repulsion frozen, summed in float64 once
    per iteration at the rounded iterates.  Every frozen point has an
    inclusion disc that holds a root and meets no other disc, flagged or
    frozen (the gate in _family_roots_full flags both members of any
    overlapping pair), so no flagged point starts inside it; that term
    only steers the step, and the Newton ratio and the residual never
    see it.

    real, when given, marks the flagged points of a half configuration
    (see _aberth) that lie on the real axis; every other flagged point
    also stands for its conjugate.  Those conjugates join the 240-bit
    repulsion (_repulsion_fixed), a real point moves only along the axis,
    and frozen must then hold the conjugates of the frozen points too.

    A point stops once its correction is below 2^-_SETTLED |z| (2^-70
    |z|, far below the 2^-53 |z| spacing of the doubles the points are
    rounded to; the test compares squared moduli as integers); that last
    correction is still applied, and the point keeps its place in the
    repulsion of the others, which are evaluated and moved from the same
    iterate (a Jacobi sweep).  The refine ends when every point has
    stopped, or after 40 sweeps.  A point that starts within about
    2^-35 |z| of its root stops after two 240-bit evaluations, and the
    residual at the rounded point is a third.
    """
    f = _PREC
    pts = [_fixed(w) for w in flagged]
    axis = np.zeros(len(pts), dtype=bool) if real is None else real
    mirrored = [] if real is None else np.nonzero(~real)[0].tolist()
    moving = range(len(pts))
    for _ in range(40):
        zd = np.array([_double(x, y) for x, y in pts])
        far = (1.0 / (zd[:, None] - frozen[None, :])).sum(axis=1)
        near = _repulsion_fixed(pts, mirrored)
        still = []
        for i in moving:
            x, y = pts[i]
            b1, b2, slope = _fixed_terms(n, column, x, y)
            fr, fi = _fixed(far[i])
            rep = _Gauss(near[i][0] + fr, near[i][1] + fi, -f)
            # the Newton step, then the Aberth move step / (1 - step rep)
            step = (b1 + b2) / slope
            move = step / (1 - step * rep)
            a, b, e = move.a, move.b, move.e + f
            mx, my = (a << e, b << e) if e >= 0 else (a >> -e, b >> -e)
            if axis[i]:
                my = 0
            pts[i] = x - mx, y - my
            if (mx * mx + my * my) << 2 * _SETTLED >= x * x + y * y:
                still.append(i)
        moving = still
        if not moving:
            break
    out = np.array([_double(x, y) for x, y in pts], dtype=complex)
    return out, _residuals_mp(n, column, out)


def _fixed_terms(n: int, column: _Column, x: int, y: int, slope: bool = True):
    """The Gaussian floats b1 = lambda1^(n-1) (lambda1 / c) and b2 =
    (sigma / c) lambda2^n of the member n of the column at z = (x + iy)
    / 2^_PREC, from the closed forms of the parts (_closed_parts) on the
    exact point z and 1 / z to _WIDTH bits, then, with slope, the
    derivative of b1 + b2 in z by the product rule.  Each call is one
    240-bit evaluation, counted in COUNTS["refine_evals"]."""
    COUNTS["refine_evals"] += 1
    z = _Gauss(x, y, -_PREC)
    p1, p2, g, h, d1, d2, dg, dh = _closed_parts(
        column.s, column.k, column.sign, z, 1 / z
    )
    q1 = p1 ** (n - 2) if n > 1 else None
    q2 = p2 ** (n - 1)
    b1 = q1 * p1 * g if n > 1 else g
    b2 = h * q2 * p2
    if not slope:
        return b1, b2
    db1 = q1 * ((n - 1) * (d1 * g) + p1 * dg) if n > 1 else dg
    return b1, b2, db1 + (dh * p2 + n * (h * d2)) * q2


def _residuals_mp(n: int, column: _Column, z: np.ndarray) -> np.ndarray:
    """The residual |b1 + b2| / (|b1| + |b2|) of the member n of the
    column evaluated at 240 bits at each double z: b1 and b2 alone,
    without their derivative (_fixed_terms), the three moduli by
    math.isqrt on one scale, and the quotient by one int / int division,
    which Python rounds correctly."""
    res = np.empty(len(z), dtype=float)
    for i, zd in enumerate(z):
        b1, b2 = _fixed_terms(n, column, *_fixed(zd), slope=False)
        s = b1 + b2
        e = min(b1.e, b2.e, s.e)
        num, m1, m2 = (
            math.isqrt(v.a * v.a + v.b * v.b) << (v.e - e) for v in (s, b1, b2)
        )
        res[i] = num / (m1 + m2)
    return res


@lru_cache(maxsize=None)
def _twist_terms(k: int) -> tuple:
    """t = (-1)^(k-1) (u^(k-1) + u^(k+1)) of _closed_parts, its derivative
    in z, w = (u^-1 + 1 + u) u^2k + t and b = u^2k - t as sums of
    monomials c u^j: tuples of (j, c), highest power first, without the
    zero coefficients.  The monomials that cancel (u^3 in w for k = 2,
    u^2 in b for k = 1) cancel here, in the integers, and not in the
    floats of the evaluation: at the real root of (4, 2, 2) near -0.70623
    that cut the relative error of w from 4.4e-15 to 2.7e-15, and the
    member's float64 residual there fell below _aberth's freezing
    tolerance."""
    sgn = (-1) ** (k - 1)
    t = Counter({k - 1: sgn, k + 1: sgn})
    dt = Counter({j + 1: -j * c for j, c in t.items()})
    w = Counter({2 * k - 1: 1, 2 * k: 1, 2 * k + 1: 1})
    w.update(t)
    b = Counter({2 * k: 1})
    b.subtract(t)
    return tuple(
        tuple(sorted(((j, c) for j, c in terms.items() if c), reverse=True))
        for terms in (t, dt, w, b)
    )


def _monomial_sum(terms: tuple, p: list):
    """sum c u^j over the pairs (j, c) of terms, at least one, from the
    powers p[j] = u^j, with + and - for the coefficients +-1."""
    v = None
    for j, c in terms:
        x = p[j] if abs(c) == 1 else abs(c) * p[j]
        if v is None:
            v = x if c > 0 else -x
        else:
            v = v + x if c > 0 else v - x
    return v


def _closed_parts(s: int, k: int, sign: str, z, u) -> list:
    """lambda1, lambda2, lambda1 / c and sigma / c of the (s, k, sign)
    column at z, then their four derivatives, from the paper's closed
    forms, with u = 1 / z.  Only +, -, * and integer constants touch z
    and u, so the one code runs on float arrays, on balls (_Ball) and on
    LaurentPoly alike.

    With t = (-1)^(k-1) (z + u) z^-k the twist factor (twist_scale), q =
    z^-2k, w = sigma q + t, b = q - t and a = sigma b, the theta and
    bouquet of s twist bands (r_compose, infinity_closed_form) give
    lambda2 = t h_(s-1), lambda1 = lambda2 - w^s and lambda1 / c = u (t b
    h_(s-2) - q w^(s-1)), where h_m = sum_(j <= m) a^j w^(m-j) = a h_(m-1)
    + w^m (h_0 = 1, h_-1 = 0), and sigma / c = u; t, w and b are sums of
    monomials of u (_twist_terms).  Each value is a few products of
    small numbers, whatever the degree, so it keeps its
    relative accuracy where the dense coefficients cancel (near the
    near-common zeros of the lambdas).  The derivatives follow by the
    product rule.  Sign - is the mirror z -> 1/z of sign +: each part p
    of it is P(u) for the part P of sign +, so p' = -u^2 P'(u), except
    that c(1/z) = z^-2 c(z) puts a factor u^2 on lambda1 / c; sigma / c
    is u for both signs.
    """
    if sign == "-":
        uu = u * u
        p1, p2, g, _, d1, d2, dg, _ = _closed_parts(s, k, "+", u, z)
        return [p1, p2, uu * g, u,
                -(uu * d1), -(uu * d2), -(uu * (2 * u * g + uu * dg)), -uu]
    p = [1, u]
    for _ in range(2 * k):
        p.append(p[-1] * u)
    t, dt, w, b = (_monomial_sum(terms, p) for terms in _twist_terms(k))
    uu, q, dq = p[2], p[2 * k], -2 * k * p[2 * k + 1]
    sig = z + 1 + u
    dsig = 1 - uu
    dw = dsig * q + sig * dq + dt
    db = dq - dt
    # x = lambda1 / (c u) and ws = w^s, each with its derivative; for
    # s > 1 the loop leaves wm = w^(s-1), h = h_(s-1) and low = t b
    # h_(s-2)
    lam2, dlam2, x, dx = t, dt, -q, -dq
    if s > 1:
        a, da = sig * b, dsig * b + sig * db
        tb, dtb = t * b, dt * b + t * db
        wm, dwm = w, dw
        low, dlow = tb, dtb
        h, dh = a + w, da + dw
        for m in range(2, s):
            low, dlow = tb * h, dtb * h + tb * dh
            wm, dwm = wm * w, m * (wm * dw)
            h, dh = a * h + wm, da * h + a * dh + dwm
        lam2, dlam2 = t * h, dt * h + t * dh
        x, dx = low - q * wm, dlow - (dq * wm + q * dwm)
        ws, dws = wm * w, s * (wm * dw)
    else:
        ws, dws = w, dw
    return [lam2 - ws, lam2, u * x, u,
            dlam2 - dws, dlam2, u * dx - uu * x, -uu]


def _part_values(column: _Column, z: np.ndarray) -> list[np.ndarray]:
    """The column's four parts at the points z, then their four
    derivatives, from the closed forms (_closed_parts)."""
    return _closed_parts(column.s, column.k, column.sign, z, 1 / z)


def _family_terms(n: int, values: list, log=np.log) -> tuple:
    """The reduced family polynomial, term by term, in log space, from
    the eight part values of _part_values at some points, or from their
    balls with log=_Ball.log: (t1, t2, h1, h2).

    The working polynomial is Q = lambda1^(n-1) (lambda1/c)
    + (sigma/c) lambda2^n, the family member with the cyclotomic factor
    c = z^2 + z + 1 that both terms share stripped (see _Column).  t_i is
    the log of its i-th term, formed from the logs of the parts, and h_i
    the term's log derivative.
    """
    a1, a2, a1c, a2s, d1, d2, d1c, d2s = values
    if n == 1:
        t1 = log(a1c)
        h1 = d1c / a1c
    else:
        t1 = (n - 1) * log(a1) + log(a1c)
        h1 = (n - 1) * d1 / a1 + d1c / a1c
    t2 = log(a2s) + n * log(a2)
    h2 = d2s / a2s + n * d2 / a2
    return t1, t2, h1, h2


def _family_ratio(
    n: int, column: _Column, lo: int, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Residual and Newton ratio for the reduced family polynomial at z.

    With the terms of _family_terms rescaled by the larger real part m of
    their logs, T_i = exp(t_i - m), a root is T1 + T2 = 0 and nothing can
    overflow (|T_i| <= 1).  The residual |T1 + T2| / (|T1| + |T2|)
    measures the value against the scale the evaluation actually
    carries, and the Newton correction for Q is (T1 + T2) / (T1 h1 +
    T2 h2).

    The family's exponents are all negative, so as a function it also
    vanishes at infinity, and plain Newton happily chases that spurious
    zero outward.  Shifting the logarithmic derivative by lo/z (lo is the
    lowest exponent of the reduced dense polynomial) turns the target
    into the dense degree-d form q = z^-lo Q, whose far field pulls
    strays back in with steps of z/d; the ratio returned is q/q'.
    """
    t1, t2, h1, h2 = _family_terms(n, _part_values(column, z))
    m = np.maximum(t1.real, t2.real)
    T1 = np.exp(t1 - m)
    T2 = np.exp(t2 - m)
    dead = ~np.isfinite(m)
    res = np.abs(T1 + T2) / (np.abs(T1) + np.abs(T2))
    ratio = (T1 + T2) / (T1 * h1 + T2 * h2)
    ratio = ratio * z / (z - lo * ratio)
    res = np.where(dead, 0.0, res)
    ratio = np.where(dead, 0.0, ratio)
    return res, ratio


@np.errstate(all="ignore")
def _bounded_terms(n: int, column: _Column, z: np.ndarray) -> tuple:
    """Balls of the terms T1, T2, h1, h2 of _family_ratio at the points
    z, their midpoints the very bits _family_ratio computes: the closed
    forms of the parts (_closed_parts) on the exact point z and the ball
    of 1 / z, whose only constants are small exact integers, then the
    same expressions on balls.  The log balls may hold other branches
    than the principal ones, which exp does not see: they differ by
    whole multiples of 2 pi i."""
    point = _Ball(z)
    values = _closed_parts(
        column.s, column.k, column.sign, point, _Ball(1.0) / point
    )
    t1, t2, h1, h2 = _family_terms(n, values, _Ball.log)
    m = np.maximum(t1.mid.real, t2.mid.real)
    return (t1 - m).exp(), (t2 - m).exp(), h1, h2


@np.errstate(all="ignore")
def _residual_floor(n: int, column: _Column, z: np.ndarray) -> np.ndarray:
    """The float64 floor of _family_ratio's residual |T1 + T2| / (|T1| +
    |T2|) at the points z: the radius of the ball of T1 + T2 over |T1| +
    |T2| (_bounded_terms), pushed up for the rounding of the quotient.
    At a point where the true T1 + T2 vanishes, the computed residual is
    at most this, so a residual at or below its floor is one double
    precision cannot tell from a root's.  A point without a finite
    bound has an infinite floor."""
    T1, T2, _, _ = _bounded_terms(n, column, z)
    floor = (T1 + T2).rad / (np.abs(T1.mid) + np.abs(T2.mid)) * _UP
    return np.where(np.isnan(floor), np.inf, floor)


@np.errstate(all="ignore")
def _inclusion_radii(
    n: int, column: _Column, lo: int, d: int, z: np.ndarray
) -> np.ndarray:
    """Upper bounds on d |q(z)/q'(z)| for the reduced family polynomial q
    of degree d at the points z: the disc of that radius about each point
    holds a root of q (the inclusion disc MPSolve certifies with; Bini &
    Fiorentino, Numer. Algorithms 2000).

    q/q' = N z / (z D - lo N) with N = T1 + T2 and D = T1 h1 + T2 h2 in
    the terms of _family_ratio, all rescaled by the same exp(-m), which
    cancels; the bound is d (|mid| + rad) of its ball (_bounded_terms).
    A radius that is not finite, as where the ball of z D - lo N may
    hold 0, is infinite.
    """
    T1, T2, h1, h2 = _bounded_terms(n, column, z)
    N = T1 + T2
    point = _Ball(z)
    q = N * point / (point * (T1 * h1 + T2 * h2) - lo * N)
    r = d * (np.abs(q.mid) + q.rad) * _UP
    return np.where(np.isfinite(r), r, np.inf)


def _overlapping(z: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Mask of the points whose closed disc of radius r about z meets the
    disc of another point.

    A sort-and-sweep on the real part: the discs are taken in order of
    their left edges, and each is compared only with the discs whose
    left edge lies before its right edge, so well separated discs cost
    O(d log d) and no d x d matrix is formed.  The radii are widened by
    4 ulp of |z| (and 4 ulp of themselves) first, which covers the
    rounding of the edges and of the distances: discs reported disjoint
    are disjoint.
    """
    out = np.zeros(len(z), dtype=bool)
    wide = r * (1 + 4 * _U) + 4 * _U * np.abs(z)
    left = z.real - wide
    order = np.argsort(left)
    zs = z[order].tolist()
    ws = wide[order].tolist()
    ls = left[order].tolist()
    for a in range(len(zs)):
        right = zs[a].real + ws[a]
        for b in range(a + 1, len(zs)):
            if ls[b] > right:
                break
            if abs(zs[b] - zs[a]) <= ws[a] + ws[b]:
                out[order[a]] = out[order[b]] = True
    return out


def _axis_starts(n: int, column: _Column) -> np.ndarray:
    """Real starts of the member n of the column: one in each bracket of
    its real-axis table (_Column.axis) where lambda1^n + sigma lambda2^n
    changes sign, at the bracket's midpoint.

    The sign at each point comes from the two terms' logs and signs: the
    term with the larger log gives it, lambda1^n where n log |lambda1 /
    lambda2| exceeds log |sigma|, and on a tie of logs with opposite
    signs the point has no sign and closes no bracket.  A bracket whose
    end signs are right holds an odd number of real roots, so the count
    is that of the member's real roots when no bracket holds three or
    more, no pair of roots falls between two points and none lies
    outside the table's radii.  Nothing relies on that: the half
    configuration built on these starts is kept only when its inclusion
    discs prove the count (_solve, _family_roots_full).
    """
    x, ratio, l2, signs = column.axis
    s1 = signs[0] ** n
    s2 = signs[2] * signs[1] ** n
    sign = np.where(n * ratio > l2, s1, s2)
    sign = np.where((n * ratio == l2) & (s1 != s2), 0.0, sign)
    ray, i = np.nonzero(sign[:, :-1] * sign[:, 1:] < 0)
    return 0.5 * (x[ray, i] + x[ray, i + 1])


def _branch_roots(column: _Column, t: np.ndarray) -> np.ndarray | None:
    """All roots of the branch equations z^-L (lambda1 - t_j lambda2) of
    the column for the values t_j, from one batched eigenvalue solve of
    their companion matrices in numpy.roots' form, or None when one is
    not finite (a vanishing or overflowing top coefficient) or the solve
    fails.  The rows of column.pair are real, so a real t gives real
    matrices, whose eigenvalues are exactly real or exact conjugate
    pairs."""
    a, b = column.pair
    rows = a - t[:, None] * b
    m, D = rows.shape[0], rows.shape[1] - 1
    comp = np.zeros((m, D, D), dtype=rows.dtype)
    with np.errstate(all="ignore"):
        comp[:, 0, :] = -rows[:, -2::-1] / rows[:, -1:]
    comp[:, np.arange(1, D), np.arange(D - 1)] = 1.0
    if not np.isfinite(comp).all():
        return None
    try:
        return np.linalg.eigvals(comp).ravel()
    except np.linalg.LinAlgError:
        return None


def _branch_t(n: int) -> np.ndarray:
    """The n values t_j = -exp(i pi (2j + 1 - n) / n), j = 0 ... n - 1,
    of t^n = -1: exactly -1 on the middle branch of an odd n, and exact
    conjugates in pairs, j and n - 1 - j, with Im t_j > 0 for 2j + 1 < n."""
    return -np.exp(1j * math.pi * (2 * np.arange(n) + 1 - n) / n)


def _full_branch_starts(n: int, column: _Column, d: int) -> np.ndarray | None:
    """d Aberth starts for the reduced member n of the column, of degree
    d, from all n of its branches (see _branch_starts), solved in one
    batch, or None when they do not give n D = d + 1 finite roots: the
    root with the largest _family_ratio residual is dropped.  The starts
    of a conjugate pair of branches come from two solves, so they are not
    exact conjugates, and a full Aberth solve from them can place a pair
    of real roots that a configuration closed under conjugation cannot
    reach.  _family_roots_full takes them when the discs of the half
    configuration meet (_solve)."""
    D = column.pair.shape[1] - 1
    z = _branch_roots(column, _branch_t(n)) if n * D == d + 1 else None
    if z is None:
        return None
    with np.errstate(all="ignore"):
        res, _ = _family_ratio(n, column, 0, z)
    return np.delete(z, np.argmax(res))


def _branch_starts(
    n: int, column: _Column, d: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Aberth starts for the reduced member n of the column, of degree d,
    as a half configuration (z, real) (see _aberth): the real starts of
    _axis_starts, then upper starts from the member's n branches.  None
    when the branches do not give n D = d + 1 finite roots, or too few
    upper starts for the real ones.

    The member lambda1^n + sigma lambda2^n vanishes where lambda1 / lambda2
    is an n-th root of -sigma, and its roots gather on |lambda1| =
    |lambda2|, one on each branch (Beraha, Kahane & Weiss 1978; Sokal, CPC
    2004).  With sigma dropped, the branches are the equations lambda1 =
    t_j lambda2, t_j^n = -1 (_branch_t); each times z^-L is a polynomial
    of the joint span D of the lambdas, with the rows of column.pair as
    its coefficients.  A near-common zero of the lambdas is a root of
    every branch, so the starts of a cluster sit at its zero too.  Every
    member checked (s, k <= 8 for n in {2, 3, 5}, and the sweep grid) has
    n D = d + 1.

    The rows are real, so the branch of conj t_j has the conjugate roots
    of the branch of t_j, and only the ceil(n / 2) branches with Im t_j
    >= 0 are solved (_branch_roots): those with Im t_j > 0 in one batch,
    their roots folded into the upper half-plane (each stands for itself
    and its conjugate, one root of a mirrored pair of branches), and for
    an odd n the branch t = -1 as a real matrix, whose upper eigenvalues
    join them.  Its real ones are dropped: the branch equations drop
    sigma, so their real roots need not match the member's in number, and
    the real starts come from the member itself (_axis_starts).  Of the
    upper starts, the (d - r) / 2 with the smallest _family_ratio
    residuals are kept for r real starts; an odd d - r gives None.  No
    start is frozen before _aberth's first step.
    """
    D = column.pair.shape[1] - 1
    if n * D != d + 1:
        return None
    upper = _branch_roots(column, _branch_t(n)[: n // 2])
    mid = _branch_roots(column, np.array([-1.0])) if n % 2 else np.empty(0)
    if upper is None or mid is None:
        return None
    upper = np.concatenate([
        np.where(upper.imag < 0, upper.conj(), upper), mid[mid.imag > 0]
    ])
    reals = _axis_starts(n, column)
    keep, odd = divmod(d - len(reals), 2)
    if odd or not 0 <= keep <= len(upper):
        return None
    with np.errstate(all="ignore"):
        res, _ = _family_ratio(n, column, 0, upper)
    best = np.sort(np.argsort(res, kind="stable")[:keep])
    z = np.concatenate([reals.astype(complex), upper[best]])
    return z, np.arange(len(z)) < len(reals)


def _solve(
    n: int,
    column: _Column,
    lo: int,
    d: int,
    z: np.ndarray,
    real: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Aberth solve and the polish of the reduced member n of the
    column, of degree d and low exponent lo, from the starts z:
    the d points of a full configuration, or with real a half one (see
    _aberth).  Returns the points, their residuals and the disc test of
    the d-point full configuration (_mirrored's order): the mask of the
    inclusion discs (_inclusion_radii) that meet another disc
    (_overlapping).  A conjugate takes its partner's disc: q has real
    coefficients, so |q / q'| is the same at both.

    Where no disc meets another, each holds exactly one root of q, and a
    real point's disc, symmetric about the axis, holds a real one.  The
    points are finite (the starts are, and _aberth and _polish take no
    step that is not), so for d >= 2 an infinite disc meets every other
    one: no meeting disc also proves every radius finite.  Every member
    solved here has n >= 2, and every such member checked (n = 2 and 3
    for s, k <= 12, both signs) has d >= 3.
    """
    evaluate = partial(_family_ratio, n, column, lo)
    z, _ = _aberth(evaluate, z, partial(_residual_floor, n, column), real)
    z, res = _polish(evaluate, z, real)
    discs = _mirrored(_inclusion_radii(n, column, lo, d, z), real)
    return z, res, _overlapping(_mirrored(z, real), discs)


def _first_member(column: _Column) -> tuple[np.ndarray, np.ndarray, int]:
    """The roots of the member n = 1 of the column, apart from the
    cyclotomic pair, each as often as it is a root of the member, with
    their residuals, and the number of times the member has the pair.

    The theta and bouquet of s twist bands give lambda1 + sigma lambda2 =
    -a^s = -sigma^s b^s exactly, with a = sigma b and b of _closed_parts,
    where z^2k b = B = 1 - (-1)^(k-1) (z^(k+1) + z^(k-1)) has degree k + 1
    (for k = 1, b is the constant -1).  At a root omega of c = z^2 + z +
    1, B(omega) = 1 - (-omega)^k, so c divides B exactly when 6 | k, and
    then once (e = 1; the tests check that B / c^e is square-free and
    prime to c).  As sigma = z^-1 c, the member's roots are those of B /
    c^e, each s times, from one dense solve of degree at most k + 1
    (_dense_solve), and the pair s (1 + e) times; sign - is the mirror,
    whose B is reversed.  The residuals are _family_ratio's, or
    _residuals_mp's where that is above _REFINE_ABOVE; nothing is
    refined."""
    s, k = column.s, column.k
    e = int(k % 6 == 0)
    B = LaurentPoly({2 * k - j: c for j, c in _twist_terms(k)[3]})
    _, cs = exact_div(B, _CYCLOTOMIC**e).dense_coeffs()
    if column.sign == "-":
        cs = cs[::-1]
    z = _dense_solve(cs)[0] if len(cs) > 1 else np.empty(0, complex)
    # a repeated root makes the Newton ratio 0 / 0
    with np.errstate(all="ignore"):
        res, _ = _family_ratio(1, column, 0, z)
    high = res > _REFINE_ABOVE
    if high.any():
        res[high] = _residuals_mp(1, column, z[high])
    return np.repeat(z, s), np.repeat(res, s), s * (1 + e)


def _family_roots_full(
    n: int, s: int, k: int, sign: str = "+", *, degree_cap: int | None = 4000
) -> tuple[list[complex], list[float], int]:
    """All roots of one family member with structured residuals, each
    returned whatever its residual: no tolerance enters.

    The cyclotomic factor z^2 + z + 1 that the two power terms share (see
    _Column) is divided out exactly first; its roots are known in closed
    form and come back with residual zero (they are exact roots, placed
    to double precision), as often as they are roots of the member.  The
    member n = 1 has repeated roots for s >= 2 or 6 | k, all known in
    closed form before any solve (_first_member).  No member with n =
    2-6 and s, k <= 8 has a repeated root.  For n >= 2 the exact integer
    coefficients of the reduced polynomial q, of degree d, fix the
    degree; every evaluation, in float64 and in the 240-bit refine
    alike, goes through the power-sum form and the closed forms of its
    parts (_closed_parts), which stay conditioned at any n.

    One pipeline for n >= 2: starts, _solve, the 240-bit refine, the
    records.
    - A member with n >= 3 is solved on the half configuration of
      _branch_starts first.  That is kept
      only when no two of the d discs meet (see _solve), which proves
      one root in each and the real count; COUNTS["half"] counts it.
    - Otherwise the member is solved in full, from all of its branches
      (_full_branch_starts) when the half configuration failed, and
      COUNTS["fallback"] counts it; every other member starts from the
      circles of _initial_points on the reduced coefficients (their
      magnitudes taken in log form, since they overflow floats long
      before the caps do).  The branch starts drop sigma, whose n-th
      root is furthest from 1 for small n: for n = 2 they left more
      records above 1e-9 on (2, 12, 2).
    - The points whose disc meets another or whose residual is above
      _REFINE_ABOVE go to _refine_mp, with the others frozen together
      with their mirrors: a point with an isolated disc already holds
      its own root to double precision.  A record is still certified
      by its residual.  A kept half configuration has no meeting disc.
    - The records are the points, then the conjugates of a half
      configuration's upper points, each with its partner's residual; a
      real point of a half configuration has imaginary part 0.0.
    """
    p = family_polynomial(n, s, k, sign, degree_cap=degree_cap)
    degree = len(p.dense_coeffs()[1]) - 1
    column = _column(s, k, sign)
    if not column.coprime:
        raise YamadaError(
            f"the two power terms for (s, k) = ({s}, {k}) share a factor;"
            " the family root structure is degenerate there"
        )
    # the real mask of a kept half configuration; None for a full one
    real = None
    if n == 1:
        z, res, copies = _first_member(column)
    else:
        copies = 1
        lo, coeffs = exact_div(p, _CYCLOTOMIC).dense_coeffs()
        d = len(coeffs) - 1
        starts = _branch_starts(n, column, d) if n > 2 else None
        if starts is not None:
            z, res, meets = _solve(n, column, lo, d, *starts)
            real = None if meets.any() else starts[1]
        if n > 2:
            COUNTS["fallback" if real is None else "half"] += 1
        if real is None:
            z = _full_branch_starts(n, column, d) if n > 2 else None
            if z is None:
                z = _initial_points(coeffs)
            z, res, meets = _solve(n, column, lo, d, z)
        shaky = meets[: len(z)] | (res > _REFINE_ABOVE)
        if shaky.any():
            COUNTS["refined"] += int(shaky.sum())
            frozen = _mirrored(z, real)[~_mirrored(shaky, real)]
            sub = None if real is None else real[shaky]
            z[shaky], res[shaky] = _refine_mp(n, column, z[shaky], frozen, sub)
    roots, residuals = _ordered(
        [*_mirrored(z, real), *(_CYCLOTOMIC_ROOTS * copies)],
        [*_mirrored(res, real), *((0.0, 0.0) * copies)],
    )
    return roots, residuals, degree


# ---------------------------------------------------------------------------
# exclusion by term dominance and by the count of the zeros from the
# argument of T2 / T1

# the circle of an exclusion test starts as _ARCS arcs, and an arc that
# leaves some n undecided is halved, at most _ARC_SPLITS times
_ARCS = 128
_ARC_SPLITS = 3
# i pi, to within the rounding of pi
_PI_I = _Ball(complex(0.0, math.pi), math.pi * _U)
# an argument enclosure is narrower than pi when its half-width is below
# this double, below pi / 2 by a margin that its rounding cannot cross
_HALF_PI = math.pi / 2 * _DOWN
# _dominated_cells widens its disc by _REACH |z0|
_REACH = 1e-6
# each round of the second pass of density_witness reaches _WIDEN times
# further than the last
_WIDEN = 1.5


def _zero_discs(cs: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Centres and radii of discs whose union holds every zero of the
    integer polynomial cs (ascending, degree d).

    The centres w_j are numpy's roots; each radius bounds d |W_j| for the
    Weierstrass correction W_j = p(w_j) / (a_d prod_{k != j} (w_j - w_k)).
    Since p / a_d = prod_k (z - w_k) (1 + sum_j W_j / (z - w_j)), the
    zeros of p are the eigenvalues of diag(w) - 1 W^T, and Gershgorin's
    theorem on its columns puts them in the union of the discs about
    w_j - W_j of radius (d - 1) |W_j|, so inside the discs about w_j of
    radius d |W_j| (Carstensen, Numer. Math. 1991).  W_j is a ball
    (_Ball); coincident centres, or a radius that is not finite, give an
    infinite radius.
    """
    d = len(cs) - 1
    if d == 0:
        return np.empty(0, dtype=complex), np.empty(0)
    c = np.array([float(x) for x in cs])
    w = np.roots(c[::-1]).astype(complex)
    with np.errstate(all="ignore"):
        gaps = _Ball(w[:, None]) - _Ball(w)
        np.fill_diagonal(gaps.mid, 1.0)
        np.fill_diagonal(gaps.rad, 0.0)
        low = _Ball(np.full(d, complex(c[-1])))
        for k in range(d):
            low = low * gaps[:, k]
        W = _Ball.horner(c[:, None], w)[0] / low
        r = d * (np.abs(W.mid) + W.rad) * _UP
    return w, np.where(np.isfinite(r), r, np.inf)


def _zero_free(discs: tuple, z0: complex, radius: float) -> bool:
    """True when the closed disc |z - z0| <= radius meets none of the
    zero discs, so holds no zero; the 4 u factors cover the rounding of
    the distances and of the sums."""
    w, r = discs
    far = np.abs(w - z0) * (1 - 4 * _U) > (radius + r) * (1 + 4 * _U)
    return bool(far.all())


def _arc_discs(
    z0: complex, radius: float, arcs: np.ndarray, m: int
) -> tuple[np.ndarray, float]:
    """Midpoints c and one radius rho of discs |z - c_j| <= rho that hold
    the arcs of the circle |z - z0| = radius between the angles
    2 pi j / m and 2 pi (j + 1) / m, for j in arcs.  Every point of such
    an arc lies within the chord 2 radius sin(pi / 2m) < radius pi / m of
    its midpoint; 16 u (|z0| + radius) covers the rounding of c."""
    c = z0 + radius * np.exp(2j * math.pi * (arcs + 0.5) / m)
    rho = radius * math.pi / m * (1 + 8 * _U)
    return c, rho + 16 * _U * (abs(z0) + radius)


def _powers(z: np.ndarray, m: int) -> np.ndarray:
    """The powers z^0 .. z^(m - 1) of each point z, one row per point,
    each by one more product than the last."""
    out = np.ones((len(z), m), dtype=z.dtype)
    np.cumprod(np.broadcast_to(z[:, None], (len(z), m - 1)), axis=1,
               out=out[:, 1:])
    return out


@np.errstate(all="ignore")
def _arc_bounds(column: _Column, c: np.ndarray, rho: float) -> _Ball:
    """Balls of log P = log p + lo log z over each disc |z - c_j| <= rho,
    for P = z^lo p = lambda1, lambda2 and sigma (the column's bounds), of
    shape (3, len(c)): p over the disc (_Ball.over_disc), then logs.  On
    each disc the real part of a ball bounds log |P|, and its imaginary
    part encloses a branch of arg P continuous on the disc (the argument
    enclosure of Ying & Katz, Numer. Math. 1988); the radius is infinite
    where P may vanish on the disc."""
    p = _Ball.over_disc(column.bounds, c, rho)
    return p.log() + column.lows * _Ball(c, rho).log()


def _steps(arg: np.ndarray, wid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The steps around the circle of argument enclosures arg +- wid on
    arcs in circle order, one row per function, the step from the last
    arc to the first included: per step the whole turns to take off it
    for its nearest lift, and per arc whether it is held, its enclosure
    below _HALF_PI and meeting both neighbours' lifted enclosures.

    The carry: adjacent arcs share an end point, whose argument on a
    branch continuous along the circle lies in both enclosures, so that
    branch steps between the two midpoints by a lift of their difference
    within the sum of the half-widths, which meets both enclosures; with
    both half-widths below _HALF_PI that sum is below pi, so no other
    lift does, and it is the nearest lift by a margin that rounding
    cannot cross.  An arc whose step misses a neighbour is not held, as
    its enclosures cannot both be right.  Along a row whose arcs are all
    held, the branch carried from the first arc lies on each arc in its
    enclosure less 2 pi times the turns of the steps before it, and
    minus the sum of all the turns is the winding number about 0, since
    the differences themselves sum to 0.
    """
    step = np.concatenate([arg[:, 1:], arg[:, :1]], axis=1) - arg
    turn = np.round(step / math.tau)
    reach = wid + np.concatenate([wid[:, 1:], wid[:, :1]], axis=1)
    meets = np.abs(step - math.tau * turn) <= reach
    held = (wid < _HALF_PI) & meets
    held[:, 1:] &= meets[:, :-1]
    held[:, 0] &= meets[:, -1]
    return turn, held


def _winding(g: _Ball) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whether 1 + exp(h), h analytic on the closed disc, provably has no
    zero inside its circle, from balls g of h on the arcs of a cover in
    circle order, one row per member, which hold h on every arc up to
    one multiple of 2 pi i for the whole circle.

    The count: the zeros are the points where h is an odd multiple w of
    i pi, and by the argument principle h takes the value w inside as
    often as h - w winds about 0 along the circle (Ying & Katz, Numer.
    Math. 1988), which _steps reads from the argument enclosures (g -
    w).arg (_Ball.arg) when every arc is held.  A w outside the bounding
    box of a row's balls is not wound about.  The box slack: the box's
    ends and their lattice indices (x / pi - 1) / 2 are rounded, so the
    box is widened by 64 u of its extent first, which no w of the exact
    box can fall outside.

    Returns, per row, whether every w in its box is proven wound 0 times
    about (zero) and whether the midpoints alone wind about some w
    (wound), and per arc whether it stood in the way of a proof for a
    row not wound (bad): its ball is infinite, or it is not held.
    """
    lo = (g.mid.imag - g.rad).min(axis=1)
    hi = (g.mid.imag + g.rad).max(axis=1)
    finite = np.isfinite(lo + hi)
    slack = 64 * _U * (1 + np.abs(lo) + np.abs(hi))
    first = np.ceil(((lo - slack) / math.pi - 1) / 2)
    count = np.floor(((hi + slack) / math.pi - 1) / 2) - first + 1
    count = np.where(finite & (count > 0), count, 0).astype(int)
    bad = np.zeros(g.mid.shape[1], dtype=bool)
    if not finite.all():
        ball = g[~finite]
        bad = ~(np.isfinite(ball.mid) & np.isfinite(ball.rad)).all(axis=0)
    if not count.any():
        return finite, np.zeros(len(count), dtype=bool), bad
    # one row of pairs per member and lattice point (2 j + 1) i pi
    row = np.repeat(np.arange(len(count)), count)
    j = first[row] + np.arange(len(row)) - np.repeat(
        np.cumsum(count) - count, count)
    a = (g[row] - (2 * j + 1)[:, None] * _PI_I).arg()
    turn, held = _steps(a.mid, a.rad)
    wound = np.bincount(row, turn.sum(axis=1) != 0, len(count)) > 0
    stuck = np.bincount(row, ~held.all(axis=1), len(count)) > 0
    bad |= (~held[~wound[row]]).any(axis=0)
    return finite & ~wound & ~stuck, wound, bad


@np.errstate(all="ignore")
def _dominated(
    z0: complex, radius: float, s: int, k: int, sign: str, ns: Iterable[int]
) -> set[int]:
    """The n in ns for which the member lambda1^n + sigma lambda2^n of
    the (s, k, sign) column provably has no zero in the closed disc
    |z - z0| <= radius.  A disc that reaches the pole at 0 (radius >=
    |z0|) is never skipped.

    The cover: the circle is covered by _ARCS arcs, each inside a small
    disc about its midpoint, where _arc_bounds gives balls of log
    lambda1, log lambda2 and log sigma, and the ball of h = log sigma +
    n (log lambda2 - log lambda1) on an arc follows for every n of the
    column.  The cover is kept in circle order; an arc of the newest
    level that leaves some n undecided is replaced in place by its two
    halves, at most _ARC_SPLITS times, and both proofs below read the
    whole cover at every level.

    Dominance, by Rouché's theorem: if one term strictly dominates the
    other on the circle, the sum has as many zeros inside as that term,
    and none on the circle.  T1 = lambda1^n wins on an arc when the real
    part of the ball of h lies below 0, and T2 = sigma lambda2^n when it
    lies above, a float sum compared with 0, which monotone rounding
    cannot turn; the halves of an arc inherit its wins.

    The count: h less 2 pi i times the turns that carry the three logs
    around the circle (_steps) goes to _winding, and an n is ruled out
    when it winds 0 times about every odd multiple of i pi, even where
    the circle crosses |T1| = |T2|; where Im h stays between two of them
    this is the maximum principle's band.  It rules out or stops an n
    only on a level where every arc of the logs is held, and the arcs
    that are not held, or that _winding finds in the way, are halved.

    Zero-free parts: T1 may win only when lambda1 has no zero in the
    disc, T2 only when neither sigma nor lambda2 has one, and the count
    needs all three zero-free (_zero_free on the discs of _zero_discs),
    so that h is analytic on the disc and the member vanishes exactly
    where h is an odd multiple of i pi.  So the common cyclotomic zeros
    of the two terms never let a disc that holds them be skipped.

    The midpoint stops: the midpoints lie on the circle, so they only
    ever stop a test for an n.  A term that does not dominate at one
    cannot dominate on the circle, and the count is not tried further
    once the midpoint values of h wind about an odd multiple of i pi.

    COUNTS counts the columns tested ("columns"), the arc discs
    evaluated ("arcs") and the n ruled out by dominance ("ruled_re") or
    by the count alone ("ruled_im").
    """
    ns = sorted(set(ns))
    column = _column(s, k, sign)
    if not ns or column.bounds is None or not 0 < radius < abs(z0):
        return set()
    COUNTS["columns"] += 1
    free = [_zero_free(d, z0, radius) for d in column.discs]
    if not (free[0] or free[1] and free[2]):
        return set()
    nv = np.array(ns, dtype=float)[:, None]
    # alive[t, i]: term t + 1 may still dominate for ns[i]
    alive = np.array([[free[0]] * len(ns), [free[1] and free[2]] * len(ns)])
    # turning[i]: the count may still rule ns[i] out
    turning = np.full(len(ns), all(free))
    # ruled[0, i]: ns[i] is ruled out by dominance; ruled[1, i]: only by
    # the count
    ruled = np.zeros((2, len(ns)), dtype=bool)
    m = _ARCS
    arcs = np.arange(m)
    # the cover, in circle order: per arc the balls of the logs and of h
    # for every n, and won[t, i, arc], term t + 1 wins there for ns[i];
    # fresh selects the arcs of this level
    cover = [np.empty((3, m), complex), np.empty((3, m)),
             np.empty((len(ns), m), complex), np.empty((len(ns), m))]
    won = np.zeros((2, len(ns), m), dtype=bool)
    fresh = slice(None)
    for split in range(_ARC_SPLITS + 1):
        COUNTS["arcs"] += len(arcs)
        logs = _arc_bounds(column, *_arc_discs(z0, radius, arcs, m))
        h = logs[2] + nv * (logs[1] - logs[0])
        for f, x in zip(cover, (logs.mid, logs.rad, h.mid, h.rad)):
            f[:, fresh] = x
        re = h.mid.real
        won[:, :, fresh] |= np.array([re + h.rad < 0, re - h.rad > 0])
        alive &= np.array([(re < 0).all(axis=1), (re > 0).all(axis=1)])
        ruled[0] |= ~ruled[1] & (alive & won.all(axis=2)).any(axis=0)
        turning &= ~ruled[0]
        # looking[j]: the count for some n still needs the arc j
        looking = np.zeros(len(arcs), dtype=bool)
        if turning.any():
            turn, held = _steps(cover[0].imag, cover[1])
            turns = np.cumsum(turn, axis=1) - turn
            rows = np.flatnonzero(turning)
            g = _Ball(cover[2][rows], cover[3][rows]) - 2 * (
                turns[2] + nv[rows] * (turns[1] - turns[0])) * _PI_I
            zero, wound, bad = _winding(g)
            if held.all():
                ruled[1, rows[zero]] = True
                turning[rows[zero | wound]] = False
            looking = (bad | ~held.all(axis=0))[fresh]
        # live[t, i, j]: term t + 1 may still dominate for ns[i], not
        # ruled out, but has not won on the arc j of this level yet
        live = (alive & ~ruled.any(axis=0))[:, :, None] & ~won[:, :, fresh]
        open_arcs = looking | live.any(axis=(0, 1))
        if split == _ARC_SPLITS or not open_arcs.any():
            break
        # each open arc of the cover is replaced by its two halves
        opened = np.zeros(won.shape[2], dtype=bool)
        opened[fresh] = open_arcs
        cover = [np.repeat(f, 1 + opened, axis=1) for f in cover]
        won = np.repeat(won, 1 + opened, axis=2)
        fresh = np.repeat(opened, 1 + opened)
        arcs = np.stack([2 * arcs[open_arcs], 2 * arcs[open_arcs] + 1], axis=1)
        arcs = arcs.ravel()
        m *= 2
    COUNTS["ruled_re"] += int(ruled[0].sum())
    COUNTS["ruled_im"] += int(ruled[1].sum())
    return {n for n, ok in zip(ns, ruled.any(axis=0)) if ok}


def _dominated_cells(
    z0: complex,
    radius: float,
    cells: Iterable[tuple[int, int, int]],
    sign: str,
) -> set[tuple[int, int, int]]:
    """The cells (n, s, k) whose sign member provably has no zero within
    radius of z0, by _dominated (a power term that dominates on the
    circle, or a count of 0 zeros inside from the winding of h), one
    call per (s, k) column.  The radius is widened by _REACH |z0| first,
    so that a record a little off its exact root is never left outside
    the disc while it lies inside."""
    columns: dict[tuple[int, int], list[int]] = {}
    for n, s, k in cells:
        columns.setdefault((s, k), []).append(n)
    reach = radius + _REACH * abs(z0)
    return {
        (n, s, k)
        for (s, k), ns in columns.items()
        for n in _dominated(z0, reach, s, k, sign, ns)
    }


# ---------------------------------------------------------------------------
# grid scans and witness search

def _cell_records(
    n: int,
    s: int,
    k: int,
    sign: str,
    degree_cap: int | None,
    cache: dict,
) -> tuple[RootRecord, ...]:
    """Root records of one family member, cached by (n, s, k, sign).

    Negative-family records are the exact reciprocals of the positive
    ones (mirror identity), with the residual carried over: E for the
    mirrored member at 1/z is the same number as E at z, so the
    structured residual is too.
    """
    key = (n, s, k, sign)
    if key in cache:
        return cache[key]
    if sign == "-":
        plus = _cell_records(n, s, k, "+", degree_cap, cache)
        recs = tuple(
            sorted(
                (replace(r, root=1.0 / r.root, sign="-") for r in plus),
                key=lambda r: _root_key(r.root),
            )
        )
    else:
        roots, residuals, degree = _family_roots_full(
            n, s, k, "+", degree_cap=degree_cap
        )
        recs = tuple(
            RootRecord(
                root=root, n=n, s=s, k=k, sign="+", residual=res, degree=degree
            )
            for root, res in zip(roots, residuals)
        )
    cache[key] = recs
    return recs


@lru_cache(maxsize=None)
def _witness_plan(caps: SearchCaps) -> tuple[tuple[int, int, int], ...]:
    """Visit order for the witness search: coarse shells first, as a
    tuple computed once per caps.  It serves both signs: the mirror
    A -> A^-1 keeps every span, so the degree estimates are the same.
    A cell is in the caps when its family_degree_estimate is within the
    degree cap; that is an estimate, not a bound on the member's degree.

    The capped box is peeled along its halving chain (caps, half caps,
    half of that, down to the unit box) and cells are grouped by the
    smallest box of the chain that contains them, cheapest group first.
    Within a group the order is k, then s, then n, all ascending.  The
    point of the shells is the doubling contract: halving doubled caps
    gives back the original caps, so the doubled plan is the original
    plan plus one outer shell appended at the end.  A search that found
    a witness keeps finding the same one when the caps are doubled, and
    a search that failed only ever gets closer.
    """
    chain = [caps]
    while True:
        prev = chain[-1]
        nxt = SearchCaps(
            max(1, prev.k_max // 2),
            max(1, prev.s_max // 2),
            max(1, prev.n_max // 2),
            max(1, prev.degree_cap // 2),
        )
        if nxt == prev:
            break
        chain.append(nxt)
    chain.reverse()

    def depth(n: int, s: int, k: int, deg: int) -> int:
        for i, box in enumerate(chain):
            if (
                k <= box.k_max
                and s <= box.s_max
                and n <= box.n_max
                and deg <= box.degree_cap
            ):
                return i
        raise AssertionError("cell escaped its own caps")

    cells: list[tuple[int, int, int, int]] = []
    for k in range(1, caps.k_max + 1):
        for s in range(1, caps.s_max + 1):
            for n in range(1, caps.n_max + 1):
                deg = family_degree_estimate(n, s, k)
                if deg > caps.degree_cap:
                    break
                cells.append((depth(n, s, k, deg), n, s, k))
    cells.sort(key=lambda c: c[0])  # stable: keeps k,s,n order inside a shell
    return tuple((n, s, k) for _, n, s, k in cells)


def density_witness(
    z0: complex,
    eps: float,
    caps: SearchCaps = SearchCaps(),
    tol: float = 1e-9,
    cache: dict | None = None,
    jobs: int = 1,
):
    """Hunt for a family root within eps of the target z0.

    Targets with |z0| <= 1 search the positive family, the rest the
    negative one (its roots are the reciprocal cloud).  Cells are
    visited in the shell order of _witness_plan, so cheap certificates
    win and doubling the caps never degrades the answer; the first cell
    containing a certified root (residual at most tol) inside the eps
    disc returns a Witness for the closest such root.  Cells whose
    degree estimate exceeds the degree cap are outside the search space.
    If the caps run out, NotFound reports the closest certified root
    seen anywhere in the grid (None if there is none), the earliest in
    visit order on a tie.  Caps that are not ints or admit no cell at
    all, an eps that is not finite and positive or a tol that is not
    nonnegative (NaN included) raise ValueError.

    Cells that provably hold no root near z0 are not solved.  The first
    pass visits the plan in order and defers every cell not in cache
    whose member is ruled out on the eps disc (_dominated_cells: one of
    its two power terms wins on the whole boundary circle and has no
    zero inside, or lambda1, lambda2 and sigma have no zero inside and
    h, the log of sigma lambda2^n / lambda1^n, winds zero times along
    the circle about every odd multiple of i pi, so that by the argument
    principle the member has no zero in the closed disc); each (s, k)
    column is tested once, when the pass first reaches it.  A deferred
    cell has no root to offer a Witness, so the Witness is the one the
    full search returns.  Only on a miss, the second pass revisits the
    deferred cells in rounds, each in plan order: round j solves a cell
    only if it is not ruled out on the disc of radius min(_WIDEN^j r,
    best_d), with r = max(eps, _REACH |z0|) (_dominated_cells widens
    every disc by _REACH |z0|) and best_d the closest distance so far,
    and the next round takes the cells that were ruled out, until the
    radius reaches best_d.  So the cells that may hold the closest roots
    are solved first, and best_d shrinks early.  Within a round a column
    is tested again only when the round reaches one of its cells not yet
    ruled out and the radius has shrunk since the column's last test.  A
    cell ruled out at best_d, which only shrinks, cannot hold a record
    as close, so closest and distance are those of the full search too.
    Cells already in cache are always read.  Either outcome counts the
    uncertified records of the cells it read, solved or cached; a
    skipped cell's records are never formed, so they are not counted.

    jobs > 1 solves upcoming cells of the first pass in worker
    processes (_cell_stream) while the results are still consumed in
    visit order; the second pass tests each cell against the distance
    its predecessors left, so it solves them one at a time.  The outcome
    is the one the sequential search returns.
    """
    # written so that NaN fails too; a non-finite eps would reach the
    # JSON output as NaN or Infinity
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive, not {eps}")
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, not {tol}")
    for name, cap in vars(caps).items():
        if not isinstance(cap, int):
            raise ValueError(f"caps.{name} must be an int, not {cap!r}")
    mod = abs(z0)
    if not 0.05 <= mod <= 20.0:
        raise ValueError(
            "targets must satisfy 0.05 <= |z0| <= 20; the family scaling"
            " degenerates at the origin"
        )
    sign = "+" if mod <= 1.0 else "-"
    if cache is None:
        cache = {}
    plan = _witness_plan(caps)
    if not plan:
        raise ValueError(f"the caps admit no cell to search: {caps}")
    best: RootRecord | None = None
    best_d = math.inf
    uncertified = 0

    def read(cell, recs) -> RootRecord | None:
        """Count and rank the records of one cell; return its closest
        certified record within eps, or None.  On a tie the record of
        the cell earlier in the plan stays the closest."""
        nonlocal best, best_d, uncertified
        hit: RootRecord | None = None
        hit_d = eps
        for rec in recs:
            if not rec.residual <= tol:
                uncertified += 1
                continue
            dist = abs(rec.root - z0)
            if dist < best_d or (
                dist == best_d
                and plan.index(cell) < plan.index((best.n, best.s, best.k))
            ):
                best, best_d = rec, dist
            if dist < hit_d:
                hit, hit_d = rec, dist
        return hit

    # a column is tested for every n the caps allow, and only when the
    # first pass reaches it: a search that stops early never tests the
    # columns beyond, and nothing scans the whole plan
    tested: set[tuple[int, int]] = set()
    ruled_out: set[tuple[int, int, int]] = set()
    deferred: list[tuple[int, int, int]] = []

    def first_pass():
        for cell in plan:
            _, s, k = cell
            if (s, k) not in tested:
                tested.add((s, k))
                column = [(n, s, k) for n in range(1, caps.n_max + 1)]
                ruled_out.update(_dominated_cells(z0, eps, column, sign))
            if cell in ruled_out and cell + (sign,) not in cache:
                deferred.append(cell)
            else:
                yield cell

    for cell, recs in _cell_stream(
        first_pass(), (sign,), caps.degree_cap, cache, jobs
    ):
        hit = read(cell, recs)
        if hit is not None:
            return Witness(
                target=z0,
                epsilon=eps,
                found=hit,
                distance=abs(hit.root - z0),
                uncertified=uncertified,
            )
    # below _REACH |z0| the widened discs of _dominated_cells are all about
    # the same one, so the rounds start there
    rest, reach = deferred, max(eps, _REACH * mod)
    while rest:
        reach *= _WIDEN
        skip: set[tuple[int, int, int]] = set()
        radii: dict[tuple[int, int], float] = {}
        for i, cell in enumerate(rest):
            column, radius = cell[1:], min(reach, best_d)
            if cell not in skip and radii.get(column) != radius:
                radii[column] = radius
                later = [c for c in rest[i:] if c[1:] == column]
                skip |= _dominated_cells(z0, radius, later, sign)
            if cell not in skip:
                read(cell, _cell_records(*cell, sign, caps.degree_cap, cache))
        if reach >= best_d:
            break
        rest = [c for c in rest if c in skip]
    return NotFound(
        target=z0,
        epsilon=eps,
        closest=best,
        distance=best_d,
        caps=caps,
        uncertified=uncertified,
    )


def _scan_cell(
    n: int, s: int, k: int, signs: tuple[str, ...], degree_cap: int | None
) -> dict:
    """Worker for _cell_stream: one cell's records for the given signs,
    solved in a fresh cache that is returned whole."""
    local: dict = {}
    for sign in signs:
        _cell_records(n, s, k, sign, degree_cap, local)
    return local


def _cell_stream(
    cells: Iterable[tuple[int, int, int]],
    signs: tuple[str, ...],
    degree_cap: int | None,
    cache: dict,
    jobs: int,
) -> Iterator[tuple[tuple[int, int, int], list[RootRecord]]]:
    """((n, s, k), records for each of the signs in turn) for every cell,
    in the order given; the records also land in cache.

    jobs > 1 runs min(jobs, CPU count) worker processes (none if that is
    1), keeps at most twice as many cells ahead of the consumer and
    solves the uncached ones in the workers, one task per cell so that
    a mirror pair shares its root computation; it still yields in the
    given order, so a consumer sees exactly what the inline loop gives
    it.  When the consumer stops early, queued cells are cancelled and
    running ones finish unused.
    """

    def records(cell):
        return [
            r
            for sign in signs
            for r in _cell_records(*cell, sign, degree_cap, cache)
        ]

    import os

    # the pool forks all its workers at its first submit: no more of them
    # than there are CPUs to run them
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        for cell in cells:
            yield cell, records(cell)
        return

    def land(cell, task):
        if task is not None:
            for key, recs in task.result().items():
                cache.setdefault(key, recs)
        return cell, records(cell)

    # imported here: the process pool costs an import of its own that
    # every serial caller, and the CLI's start-up, would pay for nothing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=jobs)
    ahead: deque = deque()
    try:
        for cell in cells:
            task = None
            if any(cell + (sign,) not in cache for sign in signs):
                task = pool.submit(_scan_cell, *cell, signs, degree_cap)
            ahead.append((cell, task))
            if len(ahead) == 2 * jobs:
                yield land(*ahead.popleft())
        while ahead:
            yield land(*ahead.popleft())
    finally:
        pool.shutdown(cancel_futures=True)


def scan_family(
    ns: Iterable[int],
    ss: Iterable[int],
    ks: Iterable[int],
    *,
    signs: Sequence[str] = ("+",),
    degree_cap: int | None = 4000,
    jobs: int = 1,
    cache: dict | None = None,
) -> list[RootRecord]:
    """Root records for every family member in the grid, sorted by
    (n, s, k, sign, root angle): the cells are visited in that order and
    each cell's records come in root order.  jobs > 1 fans the cells out
    over processes (_cell_stream).

    The records depend on no tolerance: every root comes back with its
    residual for the caller to judge (the CLI's --tol only chooses which
    cells get a warning line)."""
    for sign in signs:
        if sign not in ("+", "-"):
            raise ValueError("signs must be '+' or '-'")
    cells = sorted({(n, s, k) for n in ns for s in ss for k in ks})
    stream = _cell_stream(
        cells,
        tuple(sorted(set(signs))),
        degree_cap,
        {} if cache is None else cache,
        jobs if len(cells) > 1 else 1,
    )
    return [r for _, recs in stream for r in recs]


# ---------------------------------------------------------------------------
# serialization

def record_to_dict(rec: RootRecord) -> dict:
    return {
        "n": rec.n,
        "s": rec.s,
        "k": rec.k,
        "sign": rec.sign,
        "re": rec.root.real,
        "im": rec.root.imag,
        "residual": rec.residual,
        "degree": rec.degree,
    }


def records_to_csv(records: Sequence[RootRecord]) -> str:
    lines = ["n,s,k,sign,re,im,residual,degree"]
    for r in records:
        lines.append(
            f"{r.n},{r.s},{r.k},{r.sign},{r.root.real!r},{r.root.imag!r},"
            f"{r.residual!r},{r.degree}"
        )
    return "\n".join(lines) + "\n"


def records_to_svg(records: Sequence[RootRecord]) -> str:
    """Static scatter of the root cloud with the unit circle overlaid."""
    half = 320.0
    rmax = 1.0
    for r in records:
        rmax = max(rmax, abs(r.root))
    scale = (half - 10.0) / rmax
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="640"'
        ' height="640" viewBox="0 0 640 640">',
        '<rect width="640" height="640" fill="white"/>',
        f'<line x1="0" y1="{half:.1f}" x2="640" y2="{half:.1f}"'
        ' stroke="#dddddd" stroke-width="1"/>',
        f'<line x1="{half:.1f}" y1="0" x2="{half:.1f}" y2="640"'
        ' stroke="#dddddd" stroke-width="1"/>',
        f'<circle cx="{half:.1f}" cy="{half:.1f}" r="{scale:.2f}"'
        ' fill="none" stroke="#999999" stroke-width="1"/>',
    ]
    for r in records:
        cx = half + r.root.real * scale
        cy = half - r.root.imag * scale
        color = "#1f6feb" if r.sign == "+" else "#d29922"
        parts.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="1.8" fill="{color}"'
            ' fill-opacity="0.7"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def witness_to_dict(result) -> dict:
    """JSON-ready form of a density search outcome, either branch.  A
    NotFound without a closest record has no distance: it is written as
    null, since JSON has no infinity."""
    if isinstance(result, Witness):
        return {
            "found": True,
            "target": [result.target.real, result.target.imag],
            "epsilon": result.epsilon,
            "distance": result.distance,
            "uncertified": result.uncertified,
            "root": record_to_dict(result.found),
        }
    return {
        "found": False,
        "target": [result.target.real, result.target.imag],
        "epsilon": result.epsilon,
        "distance": result.distance if result.closest else None,
        "uncertified": result.uncertified,
        "closest": (
            record_to_dict(result.closest) if result.closest else None
        ),
        "caps": {
            "k_max": result.caps.k_max,
            "s_max": result.caps.s_max,
            "n_max": result.caps.n_max,
            "degree_cap": result.caps.degree_cap,
        },
    }
