"""Reference lattice walk for `siegelcy.numeric.theta_eval_batch`.

This walk sums every lattice point of the sup-norm box that
`_summation_radius` derives from the smallest eigenvalue of Im Z.  Each
parity class starts on its first row: mpmath gives that row's start term,
its two step ratios and its ratio to the next row, with guard bits for
exponents that grow with radius^2.  The kernel sums only the Gaussian
ellipse, walks half of each class and mirrors it (r -> -r), and starts
every class at its centre from three exponentials per point, its own
Taylor sums (`numeric._expjpi`), and two reciprocals.  Its doubles must
equal this walk's, and the tests check that; its odd constants are
exactly zero, where this walk's are rounding residues.  The exponentials
here stay mpmath's, so the comparison also checks the kernel's
exponential against an independent one.
"""

from __future__ import annotations

import math
from typing import Sequence

import mpmath
from mpmath import mp
from mpmath.libmp import to_fixed

from siegelcy import numeric
from siegelcy.characteristics import Char
from siegelcy.numeric import (
    FIXED_BITS,
    MANTISSA_BITS,
    EvalResult,
    Float,
    SiegelPoint,
    _fixed,
    _mul,
    _round,
    _summation_radius,
)


def as_mpc(Z: SiegelPoint) -> tuple[mpmath.mpc, mpmath.mpc, mpmath.mpc]:
    """The parts of Z, exactly."""
    return mpmath.mpc(Z.z0), mpmath.mpc(Z.z1), mpmath.mpc(Z.z2)


def _float(z: mpmath.mpc) -> Float:
    """z, nonzero, rounded down to a Float."""
    parts = (z.real._mpf_, z.imag._mpf_)
    e = max(exp + bc for _, man, exp, bc in parts if man) - MANTISSA_BITS
    return _round(to_fixed(parts[0], -e), to_fixed(parts[1], -e), e)


def theta_eval_batch(chars: Sequence[Char], Z: SiegelPoint,
                     tol: float = 1e-12) -> list[EvalResult]:
    """Lattice sums over the whole box, as fixed-point integers scaled by
    2^FIXED_BITS, with the kernel's signature.  Each row is walked outward
    from the point nearest its Gaussian peak; the start term and ratios of
    the next row follow from the last row's by `Float` products.  Walks go
    through `numeric._walk`, so a test can count their steps."""
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
        z0, z1, z2 = as_mpc(Z)
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
                        walk = numeric._walk(start, _fixed(ratio), step, count)
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
