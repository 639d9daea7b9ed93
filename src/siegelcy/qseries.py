"""Truncated Fourier expansions on the level-8 exponent grid.

Series live in the coordinates

    q0 = e^(2*pi*i*(z0+z1)/8),  q1 = e^(-2*pi*i*z1/8),  q2 = e^(2*pi*i*(z2+z1)/8),

where the theta constant with characteristic (a; b) contributes, for each
lattice point g in Z^2 and with r = 2g + a, the monomial

    q0^(r1^2) * q1^((r1-r2)^2) * q2^(r2^2)

with coefficient zeta^(2*(b1*r1 + b2*r2)), zeta a primitive 8th root of
unity.  Coefficients are plain integers wherever the phases sum to a real
number, which they do for every even theta constant; only a translation
can leave a non-real coefficient, an element of Z[zeta].  Exponent triples
correspond to half-integral index matrices via
(8t0, 16t1, 8t2) = (n0, n0+n2-n1, n2), so semipositivity reads
4*n0*n2 >= (n0+n2-n1)^2 and n0+n2 is (a rescaling of) the trace.

Truncation: a series with bound N stores exactly the terms with
n0 + n2 <= N; larger exponents are unknown, and equality of two series is
only ever asserted up to the smaller of the two bounds.
"""

from __future__ import annotations

import math
from typing import Iterable

from .characteristics import Char
from .cyclotomic import CycInt8

ExpTriple = tuple[int, int, int]

Coeff = int | CycInt8

Sym2 = tuple[tuple[int, int], tuple[int, int]]


class QSeries:
    __slots__ = ("terms", "truncation")

    def __init__(self, terms: dict[ExpTriple, Coeff], truncation: int) -> None:
        if truncation < 0:
            raise ValueError("truncation bound must be nonnegative")
        self.truncation = truncation
        self.terms = {}
        for n, c in terms.items():
            if not c:
                continue
            if min(n) < 0:
                raise ValueError(f"negative exponent {n}")
            if n[0] + n[2] <= truncation:
                self.terms[n] = c

    # -- constructors ----------------------------------------------------

    @classmethod
    def _exact(cls, terms: dict[ExpTriple, Coeff], truncation: int) -> QSeries:
        """A series on terms already known to have nonnegative exponents
        within the bound, as the results of the ring operations do; only
        zero coefficients are dropped."""
        s = cls.__new__(cls)
        s.truncation = truncation
        s.terms = {k: c for k, c in terms.items() if c}
        return s

    @classmethod
    def zero(cls, truncation: int) -> QSeries:
        return cls({}, truncation)

    @classmethod
    def one(cls, truncation: int) -> QSeries:
        return cls({(0, 0, 0): 1}, truncation)

    # -- basic queries -----------------------------------------------------

    def coefficient(self, n: ExpTriple) -> Coeff:
        return self.terms.get(tuple(n), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def restrict(self, truncation: int) -> QSeries:
        if truncation > self.truncation:
            raise ValueError("cannot raise a truncation bound")
        return QSeries(self.terms, truncation)

    def __eq__(self, other: object) -> bool:
        """Equality of the known parts, up to the smaller truncation."""
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.truncation, other.truncation)
        a = {k: v for k, v in self.terms.items() if k[0] + k[2] <= n}
        b = {k: v for k, v in other.terms.items() if k[0] + k[2] <= n}
        return a == b

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: QSeries) -> QSeries:
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.truncation, other.truncation)
        terms = {k: v for k, v in self.terms.items() if k[0] + k[2] <= n}
        for k, v in other.terms.items():
            if k[0] + k[2] <= n:
                s = terms.get(k, 0) + v
                if not s:
                    terms.pop(k, None)
                else:
                    terms[k] = s
        return QSeries._exact(terms, n)

    def __neg__(self) -> QSeries:
        return QSeries._exact({k: -v for k, v in self.terms.items()}, self.truncation)

    def __sub__(self, other: QSeries) -> QSeries:
        return self + (-other)

    def __mul__(self, other: QSeries | int) -> QSeries:
        if isinstance(other, int):
            return QSeries._exact({k: v * other for k, v in self.terms.items()},
                                  self.truncation)
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.truncation, other.truncation)
        terms: dict[ExpTriple, Coeff] = {}
        # group the right factor by n0+n2 so hopeless pairs are skipped early
        by_weight: dict[int, list[tuple[ExpTriple, Coeff]]] = {}
        for k, v in other.terms.items():
            by_weight.setdefault(k[0] + k[2], []).append((k, v))
        weights = sorted(by_weight)
        for k1, v1 in self.terms.items():
            w1 = k1[0] + k1[2]
            for w2 in weights:
                if w1 + w2 > n:
                    break
                for k2, v2 in by_weight[w2]:
                    key = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
                    s = terms.get(key)
                    p = v1 * v2
                    if s is None:
                        terms[key] = p
                    else:
                        terms[key] = s + p
        return QSeries._exact(terms, n)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> QSeries:
        if n < 0:
            raise ValueError("negative power of a series")
        if n == 0:
            return QSeries.one(self.truncation)
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __repr__(self) -> str:
        return f"QSeries({len(self.terms)} terms, N={self.truncation})"


def product(series: Iterable[QSeries]) -> QSeries:
    items = list(series)
    if not items:
        raise ValueError("empty product")
    result = items[0]
    for s in items[1:]:
        result = result * s
    return result


# -- theta expansions -----------------------------------------------------

def theta_qexp(m: Char, truncation: int) -> QSeries:
    """Exact q-expansion of the theta constant with characteristic m.

    The lattice range |2g + a| <= sqrt(N) is exhaustive for the bound
    n0 + n2 <= N: squares only grow.  Every phase is computed in Z[zeta];
    a coefficient whose phases sum to a real number is stored as an int.
    Odd characteristics cancel to the zero series.
    """
    root = math.isqrt(truncation)
    terms: dict[ExpTriple, CycInt8] = {}
    for r1 in range(-root, root + 1):
        if r1 % 2 != m.a1:
            continue
        for r2 in range(-root, root + 1):
            if r2 % 2 != m.a2:
                continue
            n0 = r1 * r1
            n2 = r2 * r2
            if n0 + n2 > truncation:
                continue
            key = (n0, (r1 - r2) ** 2, n2)
            phase = CycInt8.zeta_power(2 * (m.b1 * r1 + m.b2 * r2))
            s = terms.get(key)
            terms[key] = phase if s is None else s + phase
    return QSeries({key: c.c0 if c == c.c0 else c for key, c in terms.items()},
                   truncation)


def second_kind_qexp(a: tuple[int, int], truncation: int) -> QSeries:
    """Expansion of the doubled-argument theta with characteristic (a; 0)."""
    base = theta_qexp(Char(a[0], a[1], 0, 0), truncation // 2)
    terms = {(2 * n[0], 2 * n[1], 2 * n[2]): c for n, c in base.terms.items()}
    return QSeries(terms, truncation)


# -- inspection -----------------------------------------------------------

def vanishing_order(s: QSeries, axis: int) -> int:
    """Minimal exponent of q_axis over the stored support."""
    if axis not in (0, 1, 2):
        raise ValueError("axis must be 0, 1 or 2")
    if s.is_zero():
        raise ValueError("vanishing order of the zero series is undefined")
    return min(n[axis] for n in s.terms)


def koecher_check(s: QSeries) -> bool:
    """True iff every stored index is semipositive: 4*n0*n2 >= (n0+n2-n1)^2."""
    return all(4 * n[0] * n[2] >= (n[0] + n[2] - n[1]) ** 2 for n in s.terms)


# -- substitution actions ---------------------------------------------------

def translate_action(s: QSeries, S: Sym2) -> QSeries:
    """Action of Z -> Z + S (S integer symmetric) on the expansion.

    Each term picks up the root-of-unity phase zeta^(n0*s0 + (n0+n2-n1)*s1
    + n2*s2); the support is unchanged.  A phase of +-1 keeps an integer
    coefficient an integer.
    """
    if S[0][1] != S[1][0]:
        raise ValueError("translation matrix must be symmetric")
    s0, s1, s2 = S[0][0], S[0][1], S[1][1]
    terms = {}
    for n, c in s.terms.items():
        k = n[0] * s0 + (n[0] + n[2] - n[1]) * s1 + n[2] * s2
        if k % 4:
            terms[n] = c * CycInt8.zeta_power(k)
        else:
            terms[n] = -c if k % 8 else c
    return QSeries(terms, s.truncation)


def _exact_trace_bound(u_inv: Sym2, truncation: int) -> int:
    """Largest N' with: every semipositive index of trace-weight > truncation
    maps (under the substitution with inverse u_inv) to trace-weight > N'.

    Uses k * lambda_max(V) <= N with V = U^-1 * t(U^-1), decided in exact
    integer arithmetic via k^2 * disc <= (2N - k*trace)^2.
    """
    a, b = u_inv
    v00 = a[0] * a[0] + a[1] * a[1]
    v01 = a[0] * b[0] + a[1] * b[1]
    v11 = b[0] * b[0] + b[1] * b[1]
    trace = v00 + v11
    disc = (v00 - v11) ** 2 + 4 * v01 * v01
    best = 0
    for k in range(truncation, -1, -1):
        rhs = 2 * truncation - k * trace
        if rhs >= 0 and k * k * disc <= rhs * rhs:
            best = k
            break
    return best


def unimodular_action(s: QSeries, U: Sym2) -> QSeries:
    """Action of Z -> tU Z U for unimodular U: the index matrix maps to
    U T tU with coefficients unchanged.

    The remap can move high-trace indices down, so the result is complete
    only up to a smaller bound; the lowered bound is recorded in the
    returned series and terms beyond it are dropped.
    """
    det = U[0][0] * U[1][1] - U[0][1] * U[1][0]
    if det not in (1, -1):
        raise ValueError("substitution matrix must be unimodular")
    u_inv = ((U[1][1] * det, -U[0][1] * det), (-U[1][0] * det, U[0][0] * det))
    new_trunc = _exact_trace_bound(u_inv, s.truncation)
    terms: dict[ExpTriple, Coeff] = {}
    for n, c in s.terms.items():
        off = n[0] + n[2] - n[1]
        if off % 2 != 0:
            raise ValueError("index off-diagonal is not integral on this grid")
        # doubled index matrix (2n0, off; off, 2n2) stays integral
        m00, m01, m11 = 2 * n[0], off, 2 * n[2]
        a, b = U
        p00 = a[0] * (a[0] * m00 + a[1] * m01) + a[1] * (a[0] * m01 + a[1] * m11)
        p01 = b[0] * (a[0] * m00 + a[1] * m01) + b[1] * (a[0] * m01 + a[1] * m11)
        p11 = b[0] * (b[0] * m00 + b[1] * m01) + b[1] * (b[0] * m01 + b[1] * m11)
        n0, n2 = p00 // 2, p11 // 2
        n1 = n0 + n2 - p01
        key = (n0, n1, n2)
        if n0 + n2 > new_trunc:
            continue
        prev = terms.get(key)
        terms[key] = c if prev is None else prev + c
    return QSeries(terms, new_trunc)


def negate_offdiag(s: QSeries) -> QSeries:
    """Action of z1 -> -z1: the exponent remap (n0, n1, n2) ->
    (n0, 2(n0+n2)-n1, n2), an involution on semipositive supports."""
    terms = {}
    for n, c in s.terms.items():
        key = (n[0], 2 * (n[0] + n[2]) - n[1], n[2])
        if key[1] < 0:
            raise ValueError("remap leaves the power-series range; series is "
                             "not semipositive-supported")
        terms[key] = c
    return QSeries(terms, s.truncation)
