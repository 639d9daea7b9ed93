"""Arbitrary-precision evaluation of theta constants on the Siegel upper
half-space, with rigorous Gaussian tail bounds, and the numeric side of the
transformation-law and character checks that q-expansions cannot see.

All lattice sums run in mpmath at 30 significant digits (about 100 bits,
comfortably past the 64-bit-mantissa floor the tolerances assume).  Each
evaluation returns the value together with an explicit bound on the
truncated tail, so comparisons can account for every dropped term.
Several characteristics at one point share the same power tables and one
lattice walk per parity class of their upper halves: the character checks
evaluate four or six constants per point and would pay the full lattice
cost repeatedly otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import mpmath
from mpmath import mp

from .characteristics import Char, sp4f2_act
from .modforms import PRODUCT_FORM_CHARS
from .qseries import QSeries
from .symplectic import SpMat

WORKING_DPS = 30


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


def theta_eval_batch(chars: Sequence[Char], Z: SiegelPoint,
                     tol: float = 1e-12) -> list[EvalResult]:
    """Lattice sums for several characteristics at one point.

    The summation window comes from the smallest eigenvalue of Im Z, so
    the neglected Gaussian tail is provably below tol for every
    characteristic.  The lattice is walked once per parity class
    a = (a1, a2) in the batch: with r = 2n + a, the term's phase
    i^(b.r) is i^(b.a) (-1)^(b.s) for s = n mod 2, so the four partial sums
    S[s1][s2] over n mod 2 give every b at once.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    lam = Z.min_eigenvalue()
    radius, bound = _summation_radius(lam, tol)
    results: list[EvalResult] = []
    with mp.workdps(WORKING_DPS):
        z0, z1, z2 = Z.as_mpc()
        pi_i = mpmath.mpc(0, mpmath.pi)
        u = mpmath.exp(pi_i * z0 / 4)   # exponent r1^2
        w = mpmath.exp(pi_i * z1 / 2)   # exponent r1*r2
        v = mpmath.exp(pi_i * z2 / 4)   # exponent r2^2
        i_unit = mpmath.mpc(0, 1)
        i_pow = [mpmath.mpc(1), i_unit, mpmath.mpc(-1), -i_unit]
        rng_all = range(-radius, radius + 1)
        u_pow = {r: u ** (r * r) for r in rng_all}
        v_pow = {r: v ** (r * r) for r in rng_all}
        w_pow = {r: w ** r for r in rng_all}
        # partial[a][s1][s2]: u^(r1^2) v^(r2^2) w^(r1 r2) summed over the
        # window's r = a mod 2 with ((r - a)/2) mod 2 = s
        partial = {}
        for a1, a2 in {(m.a1, m.a2) for m in chars}:
            sums = [[mpmath.mpc(0), mpmath.mpc(0)], [mpmath.mpc(0), mpmath.mpc(0)]]
            r2_values = [r for r in rng_all if r % 2 == a2]
            for r1 in (r for r in rng_all if r % 2 == a1):
                row = sums[(r1 - a1) // 2 % 2]
                w_r1 = w_pow[r1]
                base = u_pow[r1]
                cross = w_r1 ** r2_values[0]
                step = w_r1 * w_r1  # r2 advances in steps of two
                for r2 in r2_values:
                    row[(r2 - a2) // 2 % 2] += base * v_pow[r2] * cross
                    cross = cross * step
            partial[a1, a2] = sums
        for m in chars:
            total = mpmath.mpc(0)
            for s1, row in enumerate(partial[m.a1, m.a2]):
                for s2, part in enumerate(row):
                    total += -part if (m.b1 * s1 + m.b2 * s2) % 2 else part
            k = (m.b1 * m.a1 + m.b2 * m.a2) % 4
            results.append(EvalResult(complex(total * i_pow[k]), bound))
    return results


def theta_eval(m: Char, Z: SiegelPoint, tol: float = 1e-12) -> EvalResult:
    """Direct lattice summation of one theta constant at Z."""
    return theta_eval_batch([m], Z, tol)[0]


def theta_product_eval(chars: Sequence[Char], Z: SiegelPoint,
                       tol: float = 1e-14) -> EvalResult:
    """Product of several theta constants with a combined error bound."""
    results = theta_eval_batch(chars, Z, tol)
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


def series_numeric_consistency(m: Char, Z: SiegelPoint, truncation: int,
                               certify: float = 1e-8) -> float:
    """|lattice sum - truncated expansion| at Z.

    The terms the expansion drops are exactly the lattice terms with
    squared norm past the truncation: each is at most exp(-c*(N+1)), and
    there are fewer than 4N of them inside the shell radius isqrt(N), with
    the standard Gaussian tail covering everything beyond.  If the
    combined bound exceeds `certify` the point sits too low for the
    comparison and the call refuses it.
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
    from .qseries import theta_qexp

    series_value = evaluate_qseries(theta_qexp(m, truncation), Z)
    lattice = theta_eval(m, Z, tol=1e-16)
    return abs(lattice.value - series_value)


# -- symplectic transport ----------------------------------------------------

def siegel_transform(M: SpMat, Z: SiegelPoint) -> tuple[SiegelPoint, complex]:
    """(M<Z>, det(CZ+D)) computed in extended precision."""
    with mp.workdps(WORKING_DPS):
        z0, z1, z2 = Z.as_mpc()
        zm = mpmath.matrix([[z0, z1], [z1, z2]])
        a, b, c, d = (mpmath.matrix([[blk[0][0], blk[0][1]],
                                     [blk[1][0], blk[1][1]]])
                      for blk in (M.A, M.B, M.C, M.D))
        denom = c * zm + d
        det = denom[0, 0] * denom[1, 1] - denom[0, 1] * denom[1, 0]
        image = (a * zm + b) * (denom ** -1)
        off = (image[0, 1] + image[1, 0]) / 2
        point = SiegelPoint(complex(image[0, 0]), complex(off),
                            complex(image[1, 1]))
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
    from .characteristics import STANDARD_SEXTUPLE, char_index

    return tuple(sorted(STANDARD_SEXTUPLE, key=char_index))


def character_law_check(kind: str, M: SpMat, Z: SiegelPoint,
                        tol: float = 1e-6) -> int:
    """Measured sign in form(M<Z>) = sign * det(CZ+D)^k * form(Z).

    kind "theta_product": the weight-2 product of the four upper-zero
    constants (k = 2).  kind "cusp_form": the weight-3 sextuple product
    (k = 3).  The ratio must sit within tol of +1 or -1; anything else
    raises.
    """
    if kind == "theta_product":
        chars: tuple[Char, ...] = PRODUCT_FORM_CHARS
        weight = 2
    elif kind == "cusp_form":
        chars = _standard_sextuple_chars()
        weight = 3
    else:
        raise ValueError(f"unknown kind {kind!r}")
    image, det = siegel_transform(M, Z)
    top = theta_product_eval(chars, image, tol=1e-13)
    bottom = theta_product_eval(chars, Z, tol=1e-13)
    denom = det ** weight * bottom.value
    if abs(denom) < 1e-20:
        raise ArithmeticError("form vanishes at the sample point")
    ratio = top.value / denom
    for sign in (1, -1):
        if abs(ratio - sign) <= tol:
            return sign
    raise ArithmeticError(f"ratio {ratio} is not within {tol} of +-1")


def diagonal_vanishing_check(tau1: complex, tau2: complex,
                             tol: float = 1e-10) -> bool:
    """The sextuple product and the all-ones theta vanish on the diagonal."""
    if not (complex(tau1).imag > 0 and complex(tau2).imag > 0):
        raise ValueError("diagonal moduli must lie in the upper half plane")
    Z = SiegelPoint(complex(tau1), 0j, complex(tau2))
    t_val = theta_product_eval(_standard_sextuple_chars(), Z, tol=1e-14)
    odd_diag = theta_eval(Char(1, 1, 1, 1), Z, tol=1e-14)
    return abs(t_val.value) < tol and abs(odd_diag.value) < tol


def cusp_limit_deviation(m: Char, scale: float, truncation: int = 0) -> float:
    """|lattice sum - constant term| at Z = diag(scale*i, scale*i)."""
    from .qseries import theta_qexp

    Z = SiegelPoint(complex(0, scale), 0j, complex(0, scale))
    series = theta_qexp(m, truncation)
    return abs(theta_eval(m, Z, tol=1e-14).value - evaluate_qseries(series, Z))


# -- conditioned sampling ------------------------------------------------------

def conditioned_samples(tag, count: int, seed: int, word_length: int = 6,
                        max_entry: int = 3, nonzero_c: int = 0) -> list[SpMat]:
    """Subgroup members with small entries, keeping both Z and M<Z> sides
    of a transformation check inside a certifiable summation window.

    `nonzero_c` forces at least that many samples to have C != 0, so the
    character and automorphy checks see genuinely nontrivial factors.
    """
    from .symplectic import sample_element

    out: list[SpMat] = []
    nontrivial = 0
    offset = 0
    while len(out) < count and offset < 100_000:
        need_nontrivial = (count - len(out)) <= (nonzero_c - nontrivial)
        m = sample_element(tag, word_length, seed + offset)
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
