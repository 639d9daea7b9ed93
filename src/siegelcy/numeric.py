"""Arbitrary-precision evaluation of theta constants on the Siegel upper
half-space, with rigorous Gaussian tail bounds, and the numeric side of the
transformation-law and character checks that q-expansions cannot see.

Lattice sums run in fixed point, as Python integers scaled by 2^140 (the
idea of mpmath's own Jacobi theta sums): each row of the lattice is walked
outward from its Gaussian peak, so every multiplier has modulus at most
one and roundings add up without growing.  Only the part of the summation
box inside the Gaussian ellipse whose terms reach 2^-120 is summed, with
the dropped terms bounded explicitly (the ellipsoid summation of
Deconinck, Heil, Bobenko, van Hoeij and Schmies, "Computing Riemann theta
functions", Math. Comp. 73, 2004).  A lattice term is even in r, so
only half of each parity class is walked and the other half is its
mirror.  Each class starts at its centre and walks its rows outward;
every start term and step ratio is a product, in 164-bit floating point
on Python integers, of three exponentials per point from mpmath and the
reciprocals of two of them, whatever the radius.  Each evaluation
returns the value together with an explicit bound on the truncated
Gaussian tail plus the window and the rounding of the walk and the
products (below 1e-25), so comparisons can account for every dropped
term.  Several characteristics at one point share one lattice walk per
parity class of their upper halves: the character checks evaluate four or
six constants per point and would pay the full lattice cost repeatedly
otherwise.  Transport and q-series evaluation run in mpmath at 30
significant digits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath
from mpmath import mp
from mpmath.libmp import to_fixed

from . import qseries, symplectic
from .characteristics import STANDARD_SEXTUPLE, Char, char_index, sp4f2_act
from .modforms import PRODUCT_FORM_CHARS
from .qseries import QSeries
from .symplectic import SpMat

WORKING_DPS = 30
#: scale of the fixed-point lattice walk: values are integers times 2^-FIXED_BITS
FIXED_BITS = 140
#: a Float (re, im, e) is (re + i im) 2^e, the larger part of MANTISSA_BITS bits
MANTISSA_BITS = FIXED_BITS + 24
Float = tuple[int, int, int]
_ONE: Float = (1 << (MANTISSA_BITS - 1), 0, 1 - MANTISSA_BITS)  # exactly 1
#: the summation window keeps every lattice term of modulus 2^-CUT_BITS or more
CUT_BITS = 120


@dataclass(frozen=True)
class SiegelPoint:
    """A point Z = (z0 z1; z1 z2) with positive definite imaginary part."""

    z0: complex
    z1: complex
    z2: complex

    def __post_init__(self) -> None:
        y0, y1, y2 = (complex(self.z0).imag, complex(self.z1).imag,
                      complex(self.z2).imag)
        if not (y0 > 0 and y0 * y2 - y1 * y1 > 0):
            raise ValueError("imaginary part is not positive definite")

    def min_eigenvalue(self) -> float:
        y0, y1, y2 = (complex(self.z0).imag, complex(self.z1).imag,
                      complex(self.z2).imag)
        tr = y0 + y2
        disc = ((y0 - y2) ** 2 + 4 * y1 * y1) ** 0.5
        return (tr - disc) / 2

    def as_mpc(self) -> tuple[mpmath.mpc, mpmath.mpc, mpmath.mpc]:
        return (mpmath.mpc(self.z0), mpmath.mpc(self.z1), mpmath.mpc(self.z2))


@dataclass(frozen=True)
class EvalResult:
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


def _float(z: mpmath.mpc) -> Float:
    """z, nonzero, rounded down to a Float whose larger part has
    MANTISSA_BITS bits."""
    parts = (z.real._mpf_, z.imag._mpf_)
    e = max(exp + bc for _, man, exp, bc in parts if man) - MANTISSA_BITS
    return to_fixed(parts[0], -e), to_fixed(parts[1], -e), e


def _mul(u: Float, v: Float) -> Float:
    """u v, rounded down like `_float`: each part loses under 2^shift while
    the larger is at least 2^(MANTISSA_BITS - 1 + shift), so the product is
    off by under 2^(1.5 - MANTISSA_BITS) |u v|."""
    (ur, ui, ue), (vr, vi, ve) = u, v
    re, im = ur * vr - ui * vi, ur * vi + ui * vr
    shift = max(abs(re), abs(im)).bit_length() - MANTISSA_BITS
    return re >> shift, im >> shift, ue + ve + shift


def _inverse(u: Float) -> Float:
    """1 / u = conj(u) / |u|^2, rounded down like `_float`: each part is the
    floor of the exact part, so as in `_mul` the inverse is off by under
    2^(1.5 - MANTISSA_BITS) |1 / u|."""
    ur, ui, ue = u
    norm = ur * ur + ui * ui
    # u's larger part has MANTISSA_BITS bits, so |1 / u| 2^k > 2^(MANTISSA_BITS + 0.5)
    # and the shift below is positive
    k = 2 * MANTISSA_BITS + 1
    re, im = (ur << k) // norm, (-ui << k) // norm
    shift = max(abs(re), abs(im)).bit_length() - MANTISSA_BITS
    return re >> shift, im >> shift, shift - k - ue


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
    last place per shift) is carried forward and never amplified.
    """
    xr, xi = x
    rr, ri = rho
    sr, si = step
    odd_re = odd_im = even_re = even_im = 0
    for k in range(count):
        xr, xi = (xr * rr - xi * ri) >> FIXED_BITS, (xr * ri + xi * rr) >> FIXED_BITS
        rr, ri = (rr * sr - ri * si) >> FIXED_BITS, (rr * si + ri * sr) >> FIXED_BITS
        if k & 1:
            even_re += xr
            even_im += xi
        else:
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
    Gaussian peak p = -y1 r1 / y2.  Only the part of the box inside the
    ellipse Y[r] <= R^2, R^2 = 4 CUT_BITS ln 2 / pi + 1, is summed: rows
    with D r1^2 > R^2 are skipped, and the length of each row's two walks
    is fixed from y2 (r2 - p)^2 <= R^2 - D r1^2 before they start.  D is
    rounded once from the exact determinant of the doubles, and p and the
    square root add relative errors near 2^-52, so rounding moves the
    window by far less than its margin of 1 in R^2: every dropped term is
    below 2^-CUT_BITS.  Let m be the class point nearest p, |m - p| <= 1.
    The terms k + 1 and k steps from m on either side have the ratio
    exp(-pi y2 (2k + 1 +- (m - p))), at most 1 for k = 0 and at most |q2|
    for k >= 1, where qj = exp(2 pi i zj).  A kept row's walks start at m,
    or on the box edge when m lies outside the box, so the terms it drops
    on one side follow one below 2^-CUT_BITS by ratios of at most |q2|:
    they sum to under 2^-CUT_BITS / (1 - |q2|).  A skipped row's term at m
    is below exp(-pi D r1^2 / 4) < 2^-CUT_BITS, so the whole row sums to
    under 2^-CUT_BITS (1 + 2 / (1 - |q2|)).  A class has at most
    radius + 1 rows in the box, so the window drops less than
    (radius + 1) 2^-CUT_BITS (1 + 2 / (1 - |q2|)) from it.

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
    2^-CUT_BITS, inside the window bound.  Each mirrored term is a copy of
    a walked one, so the fixed-point bound above and the `Float` bound
    below still hold over at most `terms` points.  For b.a odd the signs
    of s and s + a cancel, so an odd characteristic sums to exactly zero.

    Centre start.  Every start term and ratio is exp(pi i w), w an integer
    combination of z0/4, z1/2 and z2/4.  So mpmath gives only the three
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
    u = 2^-MANTISSA_BITS, each exponential is within 16u of exact,
    relative; each product and each `_inverse` adds under 3u whatever the
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
    roundings to the Gaussian tail; they stay below 1e-25 for every radius
    `_summation_radius` allows.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    lam = Z.min_eigenvalue()
    radius, bound = _summation_radius(lam, tol)
    terms = (radius + 1) ** 2  # lattice points of one parity class, at most
    y0, y1, y2 = (complex(z).imag for z in (Z.z0, Z.z1, Z.z2))
    bound += (4 * terms) ** 2 * 2.0 ** -FIXED_BITS  # the fixed-point walk
    bound += terms ** 2 * 2.0 ** (11 - MANTISSA_BITS)  # the Float products
    # the terms outside the window; |q2| = exp(-2 pi y2)
    bound += (radius + 1) * 2.0 ** -CUT_BITS * (1 + 2 / -math.expm1(-2 * math.pi * y2))
    window = 4 * CUT_BITS * math.log(2) / math.pi + 1  # R^2
    # D, rounded once from the exact determinant of the doubles
    det_ratio = float((Fraction(y0) * Fraction(y2) - Fraction(y1) ** 2) / Fraction(y2))
    last = min(radius, math.floor(math.sqrt(window / det_ratio)))  # |r1| of the last row
    # the exponents are at most |zj| / 2; their rounding must stay far
    # below 2^-MANTISSA_BITS, relative
    size = max(abs(complex(z)) for z in (Z.z0, Z.z1, Z.z2))
    with mp.workprec(MANTISSA_BITS + math.ceil(size).bit_length()):
        z0, z1, z2 = Z.as_mpc()
        e0, e1, e2 = (_float(mpmath.expjpi(w)) for w in (z0 / 4, z1 / 2, z2 / 4))
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


def theta_eval(m: Char, Z: SiegelPoint, tol: float = 1e-12) -> EvalResult:
    """Direct lattice summation of one theta constant at Z."""
    return theta_eval_batch([m], Z, tol)[0]


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


def evaluate_qseries(s: QSeries, Z: SiegelPoint) -> complex:
    """Evaluate a truncated expansion with integer coefficients at Z on the
    level-8 grid."""
    with mp.workdps(WORKING_DPS):
        z0, z1, z2 = Z.as_mpc()
        two_pi_i = mpmath.mpc(0, 2 * mpmath.pi)
        q0 = mpmath.exp(two_pi_i * (z0 + z1) / 8)
        q1 = mpmath.exp(-two_pi_i * z1 / 8)
        q2 = mpmath.exp(two_pi_i * (z2 + z1) / 8)
        total = mpmath.mpc(0)
        for (n0, n1, n2), c in s.terms.items():
            total += c * (q0 ** n0) * (q1 ** n1) * (q2 ** n2)
        return complex(total)


def series_numeric_consistency(chars: Sequence[Char], Z: SiegelPoint,
                               truncation: int, certify: float = 1e-8) -> list[float]:
    """|lattice sum - truncated expansion| at Z, for each characteristic.

    The terms the expansion drops are exactly the lattice terms with
    squared norm past the truncation: each is at most exp(-c*(N+1)), and
    there are fewer than 4N of them inside the shell radius isqrt(N), with
    the standard Gaussian tail covering everything beyond.  If the
    combined bound exceeds `certify` the point sits too low for the
    comparison and the call refuses it.  The lattice sums come from one
    batch, which walks each parity class once.
    """
    lam = Z.min_eigenvalue()
    c = math.pi * lam / 4.0
    inner = math.isqrt(truncation)
    dropped = (4.0 * max(truncation, 1) * math.exp(-c * (truncation + 1))
               + _tail_remainder(lam, inner))
    if dropped > certify:
        raise ValueError(
            f"dropped-terms bound {dropped:.2e} exceeds {certify:.0e}; "
            "increase Im Z or the truncation")
    lattice = theta_eval_batch(chars, Z, tol=1e-16)
    return [abs(r.value - evaluate_qseries(qseries.theta_qexp(m, truncation), Z))
            for m, r in zip(chars, lattice)]


# -- symplectic transport ----------------------------------------------------

def siegel_transform(M: SpMat, Z: SiegelPoint) -> tuple[SiegelPoint, complex]:
    """(M<Z>, det(CZ+D)) computed in extended precision, as
    (AZ+B) adj(CZ+D) / det(CZ+D) with the 2x2 blocks written out."""
    with mp.workdps(WORKING_DPS):
        z0, z1, z2 = Z.as_mpc()
        # rows 0-1 of M give AZ+B, rows 2-3 give CZ+D
        (n00, n01), (n10, n11), (d00, d01), (d10, d11) = (
            (r[0] * z0 + r[1] * z1 + r[2], r[0] * z1 + r[1] * z2 + r[3]) for r in M.rows)
        det = d00 * d11 - d01 * d10
        off = (n01 * d00 - n00 * d01 + n10 * d11 - n11 * d10) / 2
        point = SiegelPoint(complex((n00 * d11 - n01 * d10) / det), complex(off / det),
                            complex((n11 * d00 - n10 * d01) / det))
        return point, complex(det)


def transform_modulus_check(M: SpMat, m: Char, Z: SiegelPoint,
                            tol: float = 1e-8) -> tuple[bool, float]:
    """|theta[M{m}](M<Z>)| against |det(CZ+D)|^(1/2) * |theta[m](Z)|.

    Only moduli are compared: the automorphy factor is an 8th root of
    unity times a square-root branch, both of modulus one.  Returns the
    verdict and the relative deviation.
    """
    image, det = siegel_transform(M, Z)
    moved = sp4f2_act(M.mod2(), m)
    lhs = theta_eval(moved, image, tol=1e-13)
    rhs = theta_eval(m, Z, tol=1e-13)
    expected = abs(det) ** 0.5 * abs(rhs.value)
    got = abs(lhs.value)
    scale = max(expected, got, 1e-30)
    deviation = abs(got - expected) / scale
    slack = (lhs.tail_bound + rhs.tail_bound) / scale
    return deviation <= tol + slack, deviation


def _standard_sextuple_chars() -> tuple[Char, ...]:
    return tuple(sorted(STANDARD_SEXTUPLE, key=char_index))


def _law(kind: str) -> tuple[tuple[Char, ...], int]:
    """The theta product of a character law and its weight."""
    if kind == "theta_product":
        return PRODUCT_FORM_CHARS, 2
    if kind == "cusp_form":
        return _standard_sextuple_chars(), 3
    raise ValueError(f"unknown kind {kind!r}")


def law_form_value(kind: str, Z: SiegelPoint) -> complex:
    """The theta product of the character law `kind` at Z."""
    return theta_product_eval(_law(kind)[0], Z, tol=1e-13).value


def character_law_check(kind: str, M: SpMat, Z: SiegelPoint,
                        tol: float = 1e-6,
                        image_value: complex | None = None) -> int:
    """Measured sign in form(M<Z>) = sign * det(CZ+D)^k * form(Z).

    kind "theta_product": the weight-2 product of the four upper-zero
    constants (k = 2).  kind "cusp_form": the weight-3 sextuple product
    (k = 3).  The ratio must sit within tol of +1 or -1; anything else
    raises.  `image_value` stands in for form(M<Z>) when the caller has
    it: samples pulled back from one base point share the base's value.
    """
    weight = _law(kind)[1]
    image, det = siegel_transform(M, Z)
    top = law_form_value(kind, image) if image_value is None else image_value
    denom = det ** weight * law_form_value(kind, Z)
    if abs(denom) < 1e-20:
        raise ArithmeticError("form vanishes at the sample point")
    ratio = top / denom
    for sign in (1, -1):
        if abs(ratio - sign) <= tol:
            return sign
    raise ArithmeticError(f"ratio {ratio} is not within {tol} of +-1")


def diagonal_vanishing_check(tau1: complex, tau2: complex,
                             tol: float = 1e-10) -> bool:
    """The sextuple product and the all-ones theta vanish on the diagonal;
    the all-ones constant [11;11] is one of the sextuple's six."""
    if not (complex(tau1).imag > 0 and complex(tau2).imag > 0):
        raise ValueError("diagonal moduli must lie in the upper half plane")
    Z = SiegelPoint(complex(tau1), 0j, complex(tau2))
    chars = _standard_sextuple_chars()
    results = theta_eval_batch(chars, Z, tol=1e-14)
    all_ones = results[chars.index(Char(1, 1, 1, 1))]
    return abs(_product(results).value) < tol and abs(all_ones.value) < tol


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


def pulled_back_point(M: SpMat, base: SiegelPoint) -> SiegelPoint:
    """M^-1<base>: evaluating a transformed form at this point puts the
    expensive image evaluation back at the well-conditioned base."""
    point, _ = siegel_transform(M.inverse(), base)
    return point
