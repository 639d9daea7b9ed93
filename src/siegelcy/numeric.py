"""Arbitrary-precision evaluation of theta constants on the Siegel upper
half-space, with rigorous Gaussian tail bounds, and the numeric side of the
transformation-law and character checks that q-expansions cannot see.

Lattice sums run in fixed point, as Python integers scaled by 2^140 (the
idea of mpmath's own Jacobi theta sums): each row of the lattice is walked
outward from its Gaussian peak, so every multiplier has modulus at most
one and roundings add up without growing.  A row's start term and its two
step ratios follow from the last row's by fixed factors, in 164-bit
floating point on Python integers, so a batch takes five exponentials per
point and four per parity class from mpmath, whatever the radius.  Each
evaluation returns the value together with an explicit bound on the
truncated Gaussian tail plus the rounding of the walk and the recurrence
(below 1e-25), so comparisons can account for every dropped term.
Several characteristics at one point share one lattice walk per parity
class of their upper halves: the character checks evaluate four or six
constants per point and would pay the full lattice cost repeatedly
otherwise.  Transport and q-series evaluation run in mpmath at 30
significant digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

    The summation window comes from the smallest eigenvalue of Im Z, so
    the neglected Gaussian tail is provably below tol for every
    characteristic.  The lattice is walked once per parity class
    a = (a1, a2) in the batch: with r = 2n + a, the term's phase
    i^(b.r) is i^(b.a) (-1)^(b.s) for s = n mod 2, so the four partial sums
    S[s1][s2] over n mod 2 give every b at once.

    Each row r1 of a class is summed in fixed point, as integers scaled by
    2^FIXED_BITS.  The term is exp(pi i Q(r)/4) with
    Q(r) = z0 r1^2 + 2 z1 r1 r2 + z2 r2^2, and its modulus is a Gaussian in
    r2 peaking at -y1 r1 / y2.  So the row starts at the window's r2 = s
    nearest the peak, and the walk goes outward both ways from the start
    term and its ratios to the neighbours s +- 2, each next ratio being
    the last times exp(2 pi i z2).  Walking away from the peak, every
    multiplier has modulus at most one, so a term k steps from the start
    carries at most 4(k+1)^2 units of 2^-FIXED_BITS of rounding.  With at
    most `terms` lattice points in a class, the sum is then off by less
    than (4 terms)^2 2^-FIXED_BITS.

    Q has constant second differences, so mpmath gives the start term, its
    two ratios and its ratio to row r1 + 2 only on a class's first row
    (with guard bits for the size of the exponents), besides q0, q1^+-1
    and q2^+-1, qj = exp(2 pi i zj).  Each next row multiplies the term by
    the row ratio, that by q0 and the two ratios by q1^+-1; each shift of
    the start by +-2 multiplies the term by a ratio, the two ratios by
    q2^+-1 and the row ratio by q1^+-1.  This runs on `Float` values: with
    u = 2^-MANTISSA_BITS, each exponential is within 16u of exact,
    relative, and each product adds under 3u whatever the modulus of its
    factors (above one for far rows and for y1 < 0).  After T steps, one
    per row and at most `radius` shifts as the start moves monotonically,
    a ratio is within 19(T+1)u and a start term within 19(T+1)^2 u.  A
    term k steps along its row, of modulus at most one, is then off by
    19(T+1)(T+1+k)u < 2^7 terms u: 2^7 terms^2 u per class.  tail_bound
    adds both roundings to the Gaussian tail; they stay below 1e-25 for
    every radius `_summation_radius` allows.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    lam = Z.min_eigenvalue()
    radius, bound = _summation_radius(lam, tol)
    terms = (radius + 1) ** 2  # lattice points of one parity class, at most
    bound += (4 * terms) ** 2 * 2.0 ** -FIXED_BITS
    bound += terms ** 2 * 2.0 ** (7 - MANTISSA_BITS)
    y1, y2 = complex(Z.z1).imag, complex(Z.z2).imag
    # the exponents below reach |z0| + 2|z1| + |z2| times (radius + 1)^2;
    # their rounding must stay far below 2^-FIXED_BITS
    size = abs(complex(Z.z0)) + 2 * abs(complex(Z.z1)) + abs(complex(Z.z2))
    extra_bits = math.ceil(size * (radius + 1) ** 2).bit_length()
    # partial[a][s1]: (re, im) of S[s1][0], then of S[s1][1]
    partial = {}
    with mp.workprec(MANTISSA_BITS + extra_bits):
        z0, z1, z2 = Z.as_mpc()
        q0, q1, q1_inv, q2, q2_inv = (_float(mpmath.expjpi(2 * z))
                                      for z in (z0, z1, -z1, z2, -z2))
        step = _fixed(q2)  # ratio of successive ratios
        for a1, a2 in {(m.a1, m.a2) for m in chars}:
            sums = [[0, 0, 0, 0], [0, 0, 0, 0]]
            lo = -radius + (radius + a2) % 2  # window ends with r2 = a2 mod 2
            hi = radius - (radius + a2) % 2
            first = -radius + (radius + a1) % 2
            for r1 in range(first, radius + 1, 2):
                peak = -y1 * r1 / y2
                target = min(max(a2 + 2 * math.floor((peak - a2) / 2 + 0.5), lo), hi)
                if r1 == first:
                    s = target
                    # the start term, its ratios to r2 = s +- 2 and to row r1 + 2
                    x, up, down, col = (_float(mpmath.expjpi(w)) for w in (
                        (z0 * (r1 * r1) + z1 * (2 * r1 * s) + z2 * (s * s)) / 4,
                        z1 * r1 + z2 * (s + 1), z2 * (1 - s) - z1 * r1,
                        z0 * (r1 + 1) + z1 * s))
                else:
                    x, col = _mul(x, col), _mul(col, q0)
                    up, down = _mul(up, q1), _mul(down, q1_inv)
                    while s < target:
                        x, col = _mul(x, up), _mul(col, q1)
                        up, down = _mul(up, q2), _mul(down, q2_inv)
                        s += 2
                    while s > target:
                        x, col = _mul(x, down), _mul(col, q1_inv)
                        up, down = _mul(up, q2_inv), _mul(down, q2)
                        s -= 2
                start = _fixed(x)
                # the start's cell s2 is row[at:at + 2], the other cell
                # (odd steps away) row[2 - at:4 - at]
                row = sums[(r1 - a1) // 2 % 2]
                at = 2 * ((s - a2) // 2 % 2)
                row[at] += start[0]
                row[at + 1] += start[1]
                for count, ratio in (((hi - s) // 2, up), ((s - lo) // 2, down)):
                    if count:
                        walk = _walk(start, _fixed(ratio), step, count)
                        for j, part in enumerate(walk):
                            row[(at + 2 + j) % 4] += part
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
