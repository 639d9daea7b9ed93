"""Arbitrary-precision evaluation of theta constants on the Siegel upper
half-space, with rigorous Gaussian tail bounds, and the numeric side of the
transformation-law and character checks that q-expansions cannot see.

Lattice sums run in fixed point, as Python integers scaled by 2^140 (the
idea of mpmath's own Jacobi theta sums): each row of the lattice is walked
outward from its Gaussian peak, so every multiplier has modulus at most
one and roundings add up without growing.  Only the part of the summation
box inside a Gaussian ellipse is summed, sized from the requested
tolerance so that the terms it drops sum to at most a 2^-14 share of it,
with the dropped terms bounded explicitly (the ellipsoid summation of
Deconinck, Heil, Bobenko, van Hoeij and Schmies, "Computing Riemann theta
functions", Math. Comp. 73, 2004).  A lattice term is even in r, so
only half of each parity class is walked and the other half is its
mirror.  Each class starts at its centre and walks its rows outward;
every start term and step ratio is a product, in 164-bit floating point
on Python integers, of three exponentials per point and the reciprocals
of two of them, whatever the radius.  Each evaluation returns the value
together with an explicit bound on the truncated Gaussian tail plus the
window and the rounding of the walk and the products (the roundings
below 1e-25), so comparisons can account for every dropped term.  Several
characteristics at one point share one lattice walk per parity class of
their upper halves: the character checks evaluate four or six constants
per point and would pay the full lattice cost repeatedly otherwise.

The module needs nothing beyond the standard library.  Each exponential
exp(pi i w), for an exact dyadic w, is a Taylor sum in the same integers
after an exact reduction of Re w to a quarter turn and of -pi Im w by
multiples of ln 2 (`_expjpi`; Brent, "Fast multiple-precision evaluation
of elementary functions", J. ACM 23, 1976).  Transport runs on the exact
integer ratios of the doubles, each output part one correctly rounded
integer division (`siegel_transform`), and q-series evaluation sums
`Float` powers of three such exponentials exactly.

The transformation laws share one measurement (`law_ends`).  Each sample
M is measured between a base point B, whose thetas the caller evaluates
once, and M<B> or M^-1<B>, whichever is better conditioned, where the form
is evaluated once.  The automorphy factor j(M, Z) = det(CZ+D) is a
cocycle, j(M, M^-1<B>) j(M^-1, B) = 1, so the transform of B by M^-1 also
gives the factor at M^-1<B>.
"""

from __future__ import annotations

import functools
import math
from typing import Mapping, NamedTuple, Sequence

from . import symplectic
from .characteristics import PRODUCT_FORM_CHARS, STANDARD_SEXTUPLE, Char, sp4f2_act
from .symplectic import SpMat

#: scale of the fixed-point lattice walk: values are integers times 2^-FIXED_BITS
FIXED_BITS = 140
#: a Float (re, im, e) is (re + i im) 2^e, the larger part of MANTISSA_BITS bits
MANTISSA_BITS = FIXED_BITS + 24
Float = tuple[int, int, int]
_ONE: Float = (1 << (MANTISSA_BITS - 1), 0, 1 - MANTISSA_BITS)  # exactly 1
#: the summation window drops lattice terms that sum to at most
#: tol 2^-WINDOW_MARGIN_BITS, a small share of the tolerance the caller asks
#: for.  At 14 bits the doubles still equal the whole box's at the points the
#: tests compare, and so do the numeric reports at the benchmark's seeds; at
#: 10 bits one part of one constant moves by a unit, at 12 one report's
#: worst deviation
WINDOW_MARGIN_BITS = 14
#: pi and ln 2 rounded down to multiples of 2^-CONST_BITS, enough bits for
#: the imaginary parts `_expjpi` accepts: up to 2^1080, past every double
CONST_BITS = 1280
_PI = int(
    "3243f6a8885a308d313198a2e03707344a4093822299f31d0082efa98ec4e6c8"
    "9452821e638d01377be5466cf34e90c6cc0ac29b7c97c50dd3f84d5b5b547091"
    "79216d5d98979fb1bd1310ba698dfb5ac2ffd72dbd01adfb7b8e1afed6a267e9"
    "6ba7c9045f12c7f9924a19947b3916cf70801f2e2858efc16636920d871574e6"
    "9a458fea3f4933d7e0d95748f728eb658718bcd5882154aee7b54a41dc25a59b"
    "5", 16)
_LN2 = int(
    "b17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8baafa2b"
    "e7b876206debac98559552fb4afa1b10ed2eae35c138214427573b291169b825"
    "3e96ca16224ae8c51acbda11317c387eb9ea9bc3b136603b256fa0ec7657f74b"
    "72ce87b19d6548caf5dfa6bd38303248655fa1872f20e3a2da2d97c50f3fd5c6"
    "07f4ca11fb5bfb90610d30f88fe551a2ee569d6dfc1efa157d2e23de1400b396", 16)
#: `_expjpi` works in fixed point scaled by 2^EXP_BITS, 32 guard bits
EXP_BITS = MANTISSA_BITS + 32


class _SymmetricMatrix(NamedTuple):
    z0: complex
    z1: complex
    z2: complex


class SiegelPoint(_SymmetricMatrix):
    """A point Z = (z0 z1; z1 z2) with positive definite imaginary part; each
    part is stored as a `complex`."""

    __slots__ = ()

    def __new__(cls, z0: complex, z1: complex, z2: complex) -> SiegelPoint:
        z0, z1, z2 = complex(z0), complex(z1), complex(z2)
        if not (z0.imag > 0 and z0.imag * z2.imag - z1.imag * z1.imag > 0):
            raise ValueError("imaginary part is not positive definite")
        return super().__new__(cls, z0, z1, z2)

    @classmethod
    def _make(cls, iterable) -> SiegelPoint:
        """Validated like construction; `_replace` builds through it too."""
        return cls(*iterable)

    def min_eigenvalue(self) -> float:
        y0, y1, y2 = self.z0.imag, self.z1.imag, self.z2.imag
        tr = y0 + y2
        disc = ((y0 - y2) ** 2 + 4 * y1 * y1) ** 0.5
        return (tr - disc) / 2


class EvalResult(NamedTuple):
    value: complex
    tail_bound: float


def _tail_remainder(lam: float, radius: int) -> float:
    """Bound on the lattice sum over sup-norm shells past the radius.

    Shell rho holds at most 8*rho points r with |r|_inf = rho, each term
    of modulus at most exp(-c*rho^2), c = pi*lam/4 (the half-integral
    rescaling of the index).  Bounding rho^2 >= (P+1)^2 + 2(P+1)j turns
    the tail into a geometric series with a closed form.
    """
    c = math.pi * lam / 4.0
    p1 = radius + 1
    q = math.exp(-2 * c * p1)
    if q >= 1.0:
        return float("inf")
    head = math.exp(-c * p1 * p1)
    return 8.0 * head * (p1 / (1.0 - q) + q / (1.0 - q) ** 2)


def _summation_radius(lam: float, tol: float) -> tuple[int, float]:
    if lam <= 0:
        raise ValueError("imaginary part is not positive definite")
    radius = 1
    while radius < 4000:
        bound = _tail_remainder(lam, radius)
        if bound < tol:
            return radius, bound
        radius += 1
    raise ValueError("lattice sum does not certify at this tolerance; "
                     "the imaginary part is too small")


def _round(re: int, im: int, e: int) -> Float:
    """(re + i im) 2^e, at least 2^(MANTISSA_BITS - 1) in one part, rounded
    down to a Float: each part is floored to a multiple of 2^shift, the
    larger keeping MANTISSA_BITS bits.  A negative part within 2^shift
    above -2^(MANTISSA_BITS + shift) floors to that power of two, which is
    kept one bit shorter at twice the unit, the same value."""
    shift = max(abs(re), abs(im)).bit_length() - MANTISSA_BITS
    re, im = re >> shift, im >> shift
    if -(1 << MANTISSA_BITS) in (re, im):
        re, im, shift = re >> 1, im >> 1, shift + 1
    return re, im, e + shift


def _mul(u: Float, v: Float) -> Float:
    """u v, rounded down by `_round`: each part loses under 2^shift while
    the larger is at least 2^(MANTISSA_BITS - 1 + shift), so the product is
    off by under 2^(1.5 - MANTISSA_BITS) |u v|."""
    (ur, ui, ue), (vr, vi, ve) = u, v
    return _round(ur * vr - ui * vi, ur * vi + ui * vr, ue + ve)


def _inverse(u: Float) -> Float:
    """1 / u = conj(u) / |u|^2, rounded down by `_round`: each part is the
    floor of the exact part, so as in `_mul` the inverse is off by under
    2^(1.5 - MANTISSA_BITS) |1 / u|."""
    ur, ui, ue = u
    norm = ur * ur + ui * ui
    # u's larger part has MANTISSA_BITS bits, so |1 / u| 2^k > 2^(MANTISSA_BITS + 0.5)
    # and the shift in `_round` is positive
    k = 2 * MANTISSA_BITS + 1
    return _round((ur << k) // norm, (-ui << k) // norm, -k - ue)


#: `_expjpi` squares a Taylor sum at 2^-_HALVINGS of the reduced exponent
_HALVINGS = 8
#: the Taylor terms it sums past the constant one: those it drops sum to
#: under 2^(1 - 19 * 8.2) / 19! < 2^-211
_TAYLOR_TERMS = 18


def _expjpi(w: tuple[int, int, int]) -> Float:
    """exp(pi i w), rounded down by `_round`, for w = (a + i b) 2^e exactly
    with |Im w| < 2^(CONST_BITS - EXP_BITS - 4) = 2^1080, as every exponent
    formed from doubles is.

    Reduction.  Re w = k/2 + t exactly, with k the nearest integer to
    2 Re w and |t| <= 1/4, so exp(pi i Re w) is i^k exp(pi i t).  With
    v = -pi Im w and j the integer nearest v / ln 2, exp(-pi Im w) is
    2^j exp(s) for s = v - j ln 2.  In fixed point scaled by 2^EXP_BITS,
    pi t, v and j ln 2 each floor a product with a constant rounded down
    at 2^-CONST_BITS, and j is rounded from v against ln 2 at that
    precision, so |s| stays within a unit of ln 2 / 2.  The bound on
    |Im w| keeps |Im w| and |j| times the constants' errors below 1/2
    unit, so pi t is off by under 2 units and s by under 3.  Then
    theta = s + i pi t, |theta| < 0.87, is off by under 4 units, and so is
    exp(theta), relatively.

    Taylor sum.  With _HALVINGS = 8, exp(theta / 2^8), where
    |theta / 2^8| < 2^-8.2, is summed to the term of degree _TAYLOR_TERMS,
    each term the last times theta shifted down by EXP_BITS + 8, then
    floor-divided by its degree.  Each term adds under 2 sqrt 2 units to
    the sum and carries the last term's error down by a factor below 2^-8,
    and the dropped terms sum to under one unit: the sum is off by under
    53 units, relatively under 54.

    Squarings.  Eight squarings give exp(theta).  Each at most doubles a
    relative error and adds a floor of under sqrt 2 units to a value of
    modulus over exp(-0.35) > 0.7, so under 2.1 units, relatively: the
    power is off by under 2^8 (54 + 2.1) + 4 < 2^14 units, relatively,
    that is under 2^(14 - 32) u with u = 2^-MANTISSA_BITS.  Rounding down
    to a `Float` adds under 2^1.5 u, as in `_mul`, so the result is within
    3u of exp(pi i w), relatively.
    """
    a, b, e = w
    if e >= -1:  # Re w is a multiple of 1/2
        k, t = a << (e + 1), 0
    else:
        k = ((a >> (-e - 2)) + 1) >> 1
        t = a - (k << (-e - 1))
    shift = CONST_BITS - EXP_BITS - e

    def times_pi(n: int) -> int:
        """n 2^e pi, in units of 2^-EXP_BITS, rounded down."""
        return n * _PI >> shift if shift >= 0 else n * _PI << -shift

    angle, v = times_pi(t), times_pi(-b)
    j = ((v << (CONST_BITS - EXP_BITS + 1)) + _LN2) // (2 * _LN2)
    s = v - (j * _LN2 >> (CONST_BITS - EXP_BITS))
    down = EXP_BITS + _HALVINGS
    re = tr = 1 << EXP_BITS
    im = ti = 0
    for n in range(1, _TAYLOR_TERMS + 1):
        tr, ti = ((tr * s - ti * angle) >> down) // n, ((tr * angle + ti * s) >> down) // n
        re += tr
        im += ti
    for _ in range(_HALVINGS):
        re, im = (re * re - im * im) >> EXP_BITS, (re * im) >> (EXP_BITS - 1)
    for _ in range(k % 4):  # times i^k
        re, im = -im, re
    return _round(re, im, j - EXP_BITS)


def _gaussian(Z: SiegelPoint) -> tuple[list[tuple[int, int]], int]:
    """Gaussian integers (re, im) w0, w1, w2 and k with zj = wj 2^-k
    exactly: the parts of Z are doubles, whose denominators are powers of
    two."""
    ratios = [x.as_integer_ratio() for z in (Z.z0, Z.z1, Z.z2)
              for x in (z.real, z.imag)]
    scale = max(d for _, d in ratios)
    parts = [n * (scale // d) for n, d in ratios]
    return list(zip(parts[::2], parts[1::2])), scale.bit_length() - 1


def _ratio(num: tuple[int, int], den: tuple[int, int]) -> complex:
    """num / den for Gaussian integers (re, im), each part one correctly
    rounded integer division."""
    (a, b), (c, d) = num, den
    norm = c * c + d * d
    return complex((a * c + b * d) / norm, (b * c - a * d) / norm)


def _fixed(u: Float) -> tuple[int, int]:
    """u as a pair of integers scaled by 2^FIXED_BITS (rounded down)."""
    re, im, e = u
    e += FIXED_BITS
    return (re << e, im << e) if e >= 0 else (re >> -e, im >> -e)


def _walk(x: tuple[int, int], rho: tuple[int, int], step: tuple[int, int],
          count: int) -> tuple[int, int, int, int]:
    """Fixed-point sums over the first `count` steps of a row walk from the
    term x, split by parity: (odd re, odd im, even re, even im).

    Each step multiplies the term by rho, then rho by `step`.  With every
    factor of modulus at most one, each rounding (under one unit in the
    last place per shift) is carried forward and never amplified.  The loop
    takes the steps in pairs, an odd one and then an even one, and an odd
    count ends with one more odd step.
    """
    xr, xi = x
    rr, ri = rho
    sr, si = step
    odd_re = odd_im = even_re = even_im = 0
    for _ in range(count >> 1):
        xr, xi = (xr * rr - xi * ri) >> FIXED_BITS, (xr * ri + xi * rr) >> FIXED_BITS
        rr, ri = (rr * sr - ri * si) >> FIXED_BITS, (rr * si + ri * sr) >> FIXED_BITS
        odd_re += xr
        odd_im += xi
        xr, xi = (xr * rr - xi * ri) >> FIXED_BITS, (xr * ri + xi * rr) >> FIXED_BITS
        rr, ri = (rr * sr - ri * si) >> FIXED_BITS, (rr * si + ri * sr) >> FIXED_BITS
        even_re += xr
        even_im += xi
    if count & 1:
        xr, xi = (xr * rr - xi * ri) >> FIXED_BITS, (xr * ri + xi * rr) >> FIXED_BITS
        odd_re += xr
        odd_im += xi
    return odd_re, odd_im, even_re, even_im


def theta_eval_batch(chars: Sequence[Char], Z: SiegelPoint,
                     tol: float = 1e-12) -> list[EvalResult]:
    """Lattice sums for several characteristics at one point.

    The summation box comes from the smallest eigenvalue of Im Z, so the
    neglected Gaussian tail is provably below tol for every characteristic.
    The lattice is walked once per parity class a = (a1, a2) in the batch:
    with r = 2n + a, the term's phase i^(b.r) is i^(b.a) (-1)^(b.s) for
    s = n mod 2, so the four partial sums S[s1][s2] over n mod 2 give every
    b at once.

    Window.  The term at r is exp(pi i Q(r)/4) with
    Q(r) = z0 r1^2 + 2 z1 r1 r2 + z2 r2^2.  Its modulus is exp(-pi Y[r]/4),
    Y[r] = D r1^2 + y2 (r2 - p)^2, with D = det Y / y2 and the row's
    Gaussian peak p = -y1 r1 / y2.  The cut c is the least c >= 0 with
    (radius + 1) 2^-c (1 + 2 / (1 - |q2|)) <= tol 2^-WINDOW_MARGIN_BITS, the
    bound on the dropped terms derived below.  Only the part of the box
    inside the ellipse Y[r] <= R^2, R^2 = 4 c ln 2 / pi + 1, is summed: rows
    with D r1^2 > R^2 are skipped, and the length of each row's two walks
    is fixed from y2 (r2 - p)^2 <= R^2 - D r1^2 before they start.  D is
    rounded once from the exact determinant of the doubles, and p and the
    square root add relative errors near 2^-52, so rounding moves the
    window by far less than its margin of 1 in R^2: every dropped term is
    below 2^-c.  Let m be the class point nearest p, |m - p| <= 1.
    The terms k + 1 and k steps from m on either side have the ratio
    exp(-pi y2 (2k + 1 +- (m - p))), at most 1 for k = 0 and at most |q2|
    for k >= 1, where qj = exp(2 pi i zj).  A kept row's walks start at m,
    or on the box edge when m lies outside the box, so the terms it drops
    on one side follow one below 2^-c by ratios of at most |q2|:
    they sum to under 2^-c / (1 - |q2|).  A skipped row's term at m
    is below exp(-pi D r1^2 / 4) < 2^-c, so the whole row sums to
    under 2^-c (1 + 2 / (1 - |q2|)).  A class has at most
    radius + 1 rows in the box, so the window drops less than
    (radius + 1) 2^-c (1 + 2 / (1 - |q2|)) from it.

    Fixed point.  Each row is summed as integers scaled by 2^FIXED_BITS.
    Its start is r2 = s, the class point nearest p within the box, and the
    walk goes outward both ways (only upward on row 0) from the start term
    and its ratios to the neighbours s +- 2, each next ratio being the last
    times q2^+-1.  Every multiplier then has modulus at most one, so a term
    k steps from the start carries at most 4(k+1)^2 units of 2^-FIXED_BITS
    of rounding.  With at most `terms` lattice points in a class, the sum
    is off by less than (4 terms)^2 2^-FIXED_BITS.

    Symmetry.  Q(-r) = Q(r), and the class r = a (mod 2) is closed under
    r -> -r: with r = 2n + a, -r = 2(-n - a) + a lies in cell s + a.  So
    only the half r1 > 0, or r1 = 0 < r2, is walked, into sums H[s], and
    S[s] = H[s] + H[s + a], with the origin's term, exactly one, added
    once for a = 0.  Float negation is exact, so the window, the box and
    each row's ends for r1 < 0 are the mirrors of those for -r1; the two
    can differ only where the row start rounds a tie the other way, in a
    row whose window holds no class point, and that start term is below
    2^-c, inside the window bound.  Each mirrored term is a copy of
    a walked one, so the fixed-point bound above and the `Float` bound
    below still hold over at most `terms` points.  For b.a odd the signs
    of s and s + a cancel, so an odd characteristic sums to exactly zero.

    Centre start.  Every start term and ratio is exp(pi i w), w an integer
    combination of z0/4, z1/2 and z2/4.  So `_expjpi` gives only the three
    exponentials e0 = exp(pi i z0/4), e1 = exp(pi i z1/2) and
    e2 = exp(pi i z2/4), whatever the radius and the batch; e1^-1 and
    e2^-1 are their `_inverse`s, and all else is a `Float` product of
    these five.  Each class starts on its centre row r1 = a1 at r2 = a2,
    with the term e0^a1 e1^(a1 a2) e2^a2, its ratios to r2 = a2 +- 2 and
    its ratio to the row a1 + 2, and walks the rows outward.  Each next
    row multiplies the term by the row ratio, that by q0 = e0^8 and the
    two step ratios by q1^+-1 = e1^(+-4).  Each shift of the start by +-2
    multiplies the term by a step ratio, the step ratios by
    q2^+-1 = e2^(+-8) and the row ratio by q1^+-1.  With
    u = 2^-MANTISSA_BITS, each exponential is within 3u of exact,
    relative (proved at `_expjpi`), and so within the 16u the bounds below
    allow it.  Each product and each `_inverse` adds under 3u whatever the
    modulus of its factors, and 1 / (e (1 + d)) is e^-1 (1 - d / (1 + d)),
    so each inverse is within 19u.  A product of n of the five is then
    within 22n u: n <= 3 for the centre term, 10 for its ratios and 8 for
    a q.  The rows go outward and s moves monotonically with p, so a row's
    start is T steps from the centre, at most (radius + 1) / 2 rows and
    radius shifts: T + 2 <= 3 (radius + 1).  Its ratios are then within
    (220 + 179 T)u < 180(T+2)u and its term within 90(T+2)^2 u.  A term k
    steps along the row, of modulus at most one, adds k ratios and
    k(k-1)/2 factors q2 to the start term, so it is off by
    (90(T+2)^2 + 180(T+2)k + 88k^2)u < 1438 terms u < 2^11 terms u, and
    the class by 2^11 terms^2 u.  tail_bound adds the window and both
    roundings to the Gaussian tail: the window's share is at most
    tol 2^-WINDOW_MARGIN_BITS by the choice of c, and the roundings stay
    below 1e-25 for every radius `_summation_radius` allows.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    lam = Z.min_eigenvalue()
    radius, bound = _summation_radius(lam, tol)
    terms = (radius + 1) ** 2  # lattice points of one parity class, at most
    y1, y2 = Z.z1.imag, Z.z2.imag
    bound += (4 * terms) ** 2 * 2.0 ** -FIXED_BITS  # the fixed-point walk
    bound += terms ** 2 * 2.0 ** (11 - MANTISSA_BITS)  # the Float products
    # the terms outside the window, (radius + 1) 2^-cut (1 + 2 / (1 - |q2|))
    # with |q2| = exp(-2 pi y2), for the least cut >= 0 that keeps them
    # within tol 2^-WINDOW_MARGIN_BITS
    spread = (radius + 1) * (1 + 2 / -math.expm1(-2 * math.pi * y2))
    share = tol * 2.0 ** -WINDOW_MARGIN_BITS
    cut = max(0, math.floor(math.log2(spread / share)))
    while spread * 2.0 ** -cut > share:
        cut += 1
    bound += spread * 2.0 ** -cut
    window = 4 * cut * math.log(2) / math.pi + 1  # R^2
    (w0, w1, w2), k = _gaussian(Z)
    # D, rounded once from the exact determinant of the doubles: yj is
    # wj[1] 2^-k, and an int / int true division is correctly rounded
    det_ratio = (w0[1] * w2[1] - w1[1] ** 2) / (w2[1] << k)
    last = min(radius, math.floor(math.sqrt(window / det_ratio)))  # |r1| of the last row
    e0, e1, e2 = (_expjpi((*w, -k - d)) for w, d in ((w0, 2), (w1, 1), (w2, 2)))
    # squares[j][k] = e^(2^k) for the exponentials e0, e1, e1^-1, e2, e2^-1
    squares = [[e] for e in (e0, e1, _inverse(e1), e2, _inverse(e2))]
    for powers in squares:
        for _ in range(3):
            powers.append(_mul(powers[-1], powers[-1]))

    def power(n0: int, n1: int, n2: int) -> Float:
        """exp(pi i (n0 z0/4 + n1 z1/2 + n2 z2/4)) for 0 <= n0, |n1|, |n2| < 16,
        a product of n0 + |n1| + |n2| exponentials."""
        factors = [powers[k] for powers, n in (
            (squares[0], n0), (squares[1 if n1 > 0 else 2], abs(n1)),
            (squares[3 if n2 > 0 else 4], abs(n2))) for k in range(4) if n >> k & 1]
        return functools.reduce(_mul, factors) if factors else _ONE

    q0, q1, q1_inv, q2, q2_inv = (power(8, 0, 0), power(0, 4, 0), power(0, -4, 0),
                                  power(0, 0, 8), power(0, 0, -8))
    step = _fixed(q2)  # ratio of successive ratios
    # partial[a][s1]: (re, im) of S[s1][0], then of S[s1][1]
    partial = {}
    for a1, a2 in {(m.a1, m.a2) for m in chars}:
        # half[s1]: like partial[a][s1], over r1 > 0 and r1 = 0 < r2 only
        half = [[0, 0, 0, 0], [0, 0, 0, 0]]
        lo = -radius + (radius + a2) % 2  # box ends with r2 = a2 mod 2
        hi = radius - (radius + a2) % 2
        # the centre term, its ratios to r2 = a2 + 2 and a2 - 2 and to row a1 + 2
        x, up, down, col = (power(a1, a1 * a2, a2), power(0, 2 * a1, 4 * a2 + 4),
                            power(0, -2 * a1, 4 - 4 * a2), power(4 * a1 + 4, 2 * a2, 0))
        s = a2
        for r1 in range(a1, last + 1, 2):
            if r1 != a1:
                x, col = _mul(x, col), _mul(col, q0)
                up, down = _mul(up, q1), _mul(down, q1_inv)
            peak = -y1 * r1 / y2
            target = min(max(a2 + 2 * math.floor((peak - a2) / 2 + 0.5), lo), hi)
            while s < target:
                x, col = _mul(x, up), _mul(col, q1)
                up, down = _mul(up, q2), _mul(down, q2_inv)
                s += 2
            while s > target:
                x, col = _mul(x, down), _mul(col, q1_inv)
                up, down = _mul(up, q2_inv), _mul(down, q2)
                s -= 2
            width = math.sqrt(max(window - det_ratio * r1 * r1, 0.0) / y2)
            top = min(math.floor(peak + width), hi)
            bottom = max(math.ceil(peak - width), lo)
            start = _fixed(x)
            # the start's cell s2 is row[at:at + 2], the other cell
            # (odd steps away) row[2 - at:4 - at]
            row = half[(r1 - a1) // 2 % 2]
            at = 2 * ((s - a2) // 2 % 2)
            if r1 or s:  # the origin is added once, below
                row[at] += start[0]
                row[at + 1] += start[1]
            # row 0 walks upward only: its lower half is the mirror
            for count, ratio in (((top - s) // 2, up), ((s - bottom) // 2 if r1 else 0, down)):
                if count > 0:
                    walk = _walk(start, _fixed(ratio), step, count)
                    for j, part in enumerate(walk):
                        row[(at + 2 + j) % 4] += part
        # -r = 2(-n - a) + a lies in cell s + a: S[s] = H[s] + H[s + a]
        sums = [[half[s1][j] + half[(s1 + a1) % 2][(j + 2 * a2) % 4] for j in range(4)]
                for s1 in (0, 1)]
        if (a1, a2) == (0, 0):
            sums[0][0] += _fixed(_ONE)[0]
        partial[a1, a2] = sums
    results: list[EvalResult] = []
    for m in chars:
        re = im = 0
        for s1, row in enumerate(partial[m.a1, m.a2]):
            for s2 in (0, 1):
                sign = -1 if (m.b1 * s1 + m.b2 * s2) % 2 else 1
                re += sign * row[2 * s2]
                im += sign * row[2 * s2 + 1]
        for _ in range((m.b1 * m.a1 + m.b2 * m.a2) % 4):  # times i^(b.a)
            re, im = -im, re
        results.append(EvalResult(complex(re / (1 << FIXED_BITS),
                                          im / (1 << FIXED_BITS)), bound))
    return results


def theta_product_eval(chars: Sequence[Char], Z: SiegelPoint,
                       tol: float = 1e-14) -> EvalResult:
    """Product of several theta constants with a combined error bound."""
    return _product(theta_eval_batch(chars, Z, tol))


def _product(results: Sequence[EvalResult]) -> EvalResult:
    value = complex(1)
    for r in results:
        value *= r.value
    bound = 0.0
    for i, r in enumerate(results):
        partial = r.tail_bound
        for j, s in enumerate(results):
            if j != i:
                partial *= abs(s.value) + s.tail_bound
        bound += partial
    return EvalResult(value, bound)


def evaluate_qseries(series: Sequence, Z: SiegelPoint) -> list[complex]:
    """Evaluate truncated expansions with integer coefficients
    (`qseries.QSeries`, read through their `terms`) at Z on the level-8
    grid, q0 = exp(pi i (z0+z1)/4), q1 = exp(-pi i z1/4) and
    q2 = exp(pi i (z2+z1)/4), all from one table of powers per q.

    Each power q^n is one chain of `_mul`s from an `_expjpi`, whichever
    series asks for it, so it is within 6n u of exact, relatively
    (u = 2^-MANTISSA_BITS); the terms, times their integer coefficients,
    are summed exactly and each sum is rounded once to a double."""
    ((x0, y0), (x1, y1), (x2, y2)), k = _gaussian(Z)
    qs = [_expjpi((x0 + x1, y0 + y1, -k - 2)), _expjpi((-x1, -y1, -k - 2)),
          _expjpi((x2 + x1, y2 + y1, -k - 2))]
    powers = [[_ONE] for _ in qs]
    values = []
    for s in series:
        for key in s.terms:
            for q, table, n in zip(qs, powers, key):
                while len(table) <= n:
                    table.append(_mul(table[-1], q))
        terms = [functools.reduce(_mul, (table[n] for table, n in zip(powers, key)))
                 for key in s.terms]
        e = min([0, *(t[2] for t in terms)])
        re = sum(c * t[0] << (t[2] - e) for c, t in zip(s.terms.values(), terms))
        im = sum(c * t[1] << (t[2] - e) for c, t in zip(s.terms.values(), terms))
        values.append(complex(re / (1 << -e), im / (1 << -e)))
    return values


#: the dropped-terms bound past which `series_numeric_consistency` refuses
#: a point as too low to compare
CERTIFY = 1e-8


def series_numeric_consistency(expansions: Mapping[Char, object],
                               Z: SiegelPoint) -> list[float]:
    """|lattice sum - expansion| at Z, for each characteristic and its
    truncated expansion (a `qseries.QSeries`), in the mapping's order.

    The terms an expansion drops are exactly the lattice terms with
    squared norm past its truncation N (the least of the expansions'):
    each is at most exp(-c*(N+1)), and there are fewer than 4N of them
    inside the shell radius isqrt(N), with the standard Gaussian tail
    covering everything beyond.  If the combined bound exceeds `CERTIFY`
    the point sits too low for the comparison and the call refuses it.
    The lattice sums come from one batch, which walks each parity class
    once, and the expansions are evaluated from one table of powers of
    each q.
    """
    truncation = min(s.truncation for s in expansions.values())
    lam = Z.min_eigenvalue()
    c = math.pi * lam / 4.0
    inner = math.isqrt(truncation)
    dropped = (4.0 * max(truncation, 1) * math.exp(-c * (truncation + 1))
               + _tail_remainder(lam, inner))
    if dropped > CERTIFY:
        raise ValueError(
            f"dropped-terms bound {dropped:.2e} exceeds {CERTIFY:.0e}; "
            "increase Im Z or the truncation")
    lattice = theta_eval_batch(list(expansions), Z, tol=1e-16)
    series = evaluate_qseries(list(expansions.values()), Z)
    return [abs(r.value - v) for r, v in zip(lattice, series)]


# -- symplectic transport ----------------------------------------------------

def siegel_transform(M: SpMat, Z: SiegelPoint) -> tuple[SiegelPoint, complex]:
    """(M<Z>, det(CZ+D)), each part correctly rounded from its exact value.

    Z = W 2^-k with W Gaussian-integral (`_gaussian`), so AZ+B and CZ+D are
    2^-k N and 2^-k D for Gaussian-integral N and D.  With the 2x2 blocks
    written out, M<Z> = (AZ+B) adj(CZ+D) / det(CZ+D) = N adj(D) / det(D):
    the powers of two cancel, and each part of M<Z>, like each part of
    det(CZ+D) = det(D) 2^-2k, is one integer division (`_ratio`)."""
    (w0, w1, w2), k = _gaussian(Z)

    def entry(r: Sequence[int], u: tuple[int, int], v: tuple[int, int],
              c: int) -> tuple[int, int]:
        """r0 u + r1 v + c 2^k"""
        return r[0] * u[0] + r[1] * v[0] + (c << k), r[0] * u[1] + r[1] * v[1]

    def cross(a, b, c, d) -> tuple[int, int]:
        """a b - c d"""
        return (a[0] * b[0] - a[1] * b[1] - c[0] * d[0] + c[1] * d[1],
                a[0] * b[1] + a[1] * b[0] - c[0] * d[1] - c[1] * d[0])

    # rows 0-1 of M give N, rows 2-3 give D
    (n00, n01), (n10, n11), (d00, d01), (d10, d11) = (
        (entry(r, w0, w1, r[2]), entry(r, w1, w2, r[3])) for r in M.rows)
    det = cross(d00, d11, d01, d10)
    left, right = cross(n01, d00, n00, d01), cross(n10, d11, n11, d10)
    point = SiegelPoint(_ratio(cross(n00, d11, n01, d10), det),
                        _ratio((left[0] + right[0], left[1] + right[1]),
                               (2 * det[0], 2 * det[1])),
                        _ratio(cross(n11, d00, n10, d01), det))
    return point, _ratio(det, (1 << 2 * k, 0))


#: kind -> (the thetas of the character law's product form, its weight k):
#: the weight-2 product of the four upper-zero constants and the weight-3
#: product of the standard sextuple
LAWS = {"theta_product": (PRODUCT_FORM_CHARS, 2),
        "cusp_form": (tuple(sorted(STANDARD_SEXTUPLE)), 3)}


def law_ends(mats: Sequence[SpMat],
             forms: Sequence[tuple[Sequence[Char], Sequence[Char]]], base: SiegelPoint,
             at_base: dict[Char, EvalResult] | None = None,
             ) -> list[tuple[EvalResult, complex, EvalResult]]:
    """(g(M<Z>), j(M, Z), f(Z)) for each sample M of a law
    g(M<Z>) ~ j(M, Z)^k f(Z), j(M, Z) = det(CZ+D), where f and g are the
    products of the thetas in `forms[i]` = (f's, g's).

    One end of each sample is the base B, the other M<B> or M^-1<B>,
    whichever has the larger smallest eigenvalue of Im (so the shorter
    lattice sum), M^-1<B> on a tie.  Forward, Z = B and the factor is
    det(CB+D).  Backward, Z = M^-1<B> and M<Z> = B; the factor is a
    cocycle, j(M, M^-1<B>) j(M^-1, B) = j(1, B) = 1, so it is
    1 / j(M^-1, B).  Only the far end is evaluated, at tol 1e-13; the
    values at B are read from `at_base`, by default one batch of every
    theta the forms name.
    """
    if at_base is None:
        needed = list({m for pair in forms for chars in pair for m in chars})
        at_base = dict(zip(needed, theta_eval_batch(needed, base, tol=1e-13)))
    ends = []
    for M, (source, image) in zip(mats, forms):
        forward, det = siegel_transform(M, base)
        backward, inverse_det = siegel_transform(M.inverse(), base)
        if forward.min_eigenvalue() > backward.min_eigenvalue():
            ends.append((theta_product_eval(image, forward, tol=1e-13), det,
                         _product([at_base[m] for m in source])))
        else:
            ends.append((_product([at_base[m] for m in image]), 1 / inverse_det,
                         theta_product_eval(source, backward, tol=1e-13)))
    return ends


def clear_of_bound(r: EvalResult) -> bool:
    """|value| exceeds 2^20 times its bound: a value lost in its bound, a
    zero among them, measures nothing."""
    return abs(r.value) > 2 ** 20 * r.tail_bound


def modulus_law(mats: Sequence[SpMat], chars: Sequence[Char], base: SiegelPoint,
                at_base: dict[Char, EvalResult] | None = None,
                tol: float = 1e-8) -> list[tuple[bool, float]]:
    """|theta[M{m}](M<Z>)| against |det(CZ+D)|^(1/2) |theta[m](Z)| for each
    sample M and its characteristic m, measured by `law_ends`.

    Only moduli are compared: the automorphy factor is an 8th root of
    unity times a square-root branch, both of modulus one.  A sample counts
    only when both ends are `clear_of_bound`, so two values lost in their
    bounds (zeros among them) cannot agree; such a sample fails, with
    deviation inf.  Returns the verdict and the relative deviation of each
    sample.
    """
    forms = [((m,), (sp4f2_act(M.rows, m),)) for M, m in zip(mats, chars)]
    results = []
    for image, factor, source in law_ends(mats, forms, base, at_base):
        if not (clear_of_bound(image) and clear_of_bound(source)):
            results.append((False, math.inf))
            continue
        expected = abs(factor) ** 0.5 * abs(source.value)
        got = abs(image.value)
        scale = max(expected, got)
        deviation = abs(got - expected) / scale
        slack = (image.tail_bound + source.tail_bound) / scale
        results.append((deviation <= tol + slack, deviation))
    return results


def law_signs(kind: str, mats: Sequence[SpMat], base: SiegelPoint,
              at_base: dict[Char, EvalResult] | None = None) -> list[int]:
    """The measured sign s of each M in form(M<Z>) = s det(CZ+D)^k form(Z),
    for the character law `kind` of `LAWS`, measured by `law_ends`.

    s is the sign of form(M<Z>) / (det(CZ+D)^k form(Z)); that ratio must
    sit within 1e-6 of +1 or -1, and anything else raises.
    """
    chars, weight = LAWS[kind]
    signs = []
    forms = [(chars, chars)] * len(mats)
    for image, factor, source in law_ends(mats, forms, base, at_base):
        if abs(source.value) < 1e-20:
            raise ArithmeticError("form vanishes at the sample point")
        ratio = image.value / (factor ** weight * source.value)
        for sign in (1, -1):
            if abs(ratio - sign) <= 1e-6:
                signs.append(sign)
                break
        else:
            raise ArithmeticError(f"ratio {ratio} is not within 1e-6 of +-1")
    return signs


def diagonal_vanishing_check(tau1: complex, tau2: complex) -> bool:
    """The sextuple product and the all-ones theta vanish on the diagonal,
    each below 1e-10; the all-ones constant [11;11] is one of the sextuple's
    six.  ValueError off the upper half plane (the point's own check)."""
    Z = SiegelPoint(tau1, 0j, tau2)
    chars = LAWS["cusp_form"][0]
    results = theta_eval_batch(chars, Z, tol=1e-14)
    all_ones = results[chars.index(Char(1, 1, 1, 1))]
    return abs(_product(results).value) < 1e-10 and abs(all_ones.value) < 1e-10


# -- conditioned sampling ------------------------------------------------------

def conditioned_samples(tag, count: int, seed: int, word_length: int = 6,
                        max_entry: int = 3, nonzero_c: int = 0) -> list[SpMat]:
    """Subgroup members with small entries, keeping both Z and M<Z> sides
    of a transformation check inside a certifiable summation window.

    `nonzero_c` forces at least that many samples to have C != 0, so the
    character and automorphy checks see genuinely nontrivial factors.
    Offset k draws one word at `seed + k`; words above the `max_entry` cap,
    or without C when the `nonzero_c` quota still needs one, are skipped.
    The 100,000-offset budget guarantees termination when the caller's
    `max_entry` and `nonzero_c` admit almost no word.
    """
    out: list[SpMat] = []
    nontrivial = 0
    offset = 0
    while len(out) < count and offset < 100_000:
        need_nontrivial = (count - len(out)) <= (nonzero_c - nontrivial)
        m = symplectic.sample_element(tag, word_length, seed + offset)
        offset += 1
        if m.max_entry() > max_entry:
            continue
        has_c = any(v != 0 for row in m.C for v in row)
        if need_nontrivial and not has_c:
            continue
        out.append(m)
        if has_c:
            nontrivial += 1
    if len(out) < count:
        raise RuntimeError("sampling budget exhausted for conditioned samples")
    return out
