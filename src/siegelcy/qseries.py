"""Truncated Fourier expansions on the level-8 exponent grid.

Series live in the coordinates

    q0 = e^(2*pi*i*(z0+z1)/8),  q1 = e^(-2*pi*i*z1/8),  q2 = e^(2*pi*i*(z2+z1)/8),

where the theta constant with characteristic (a; b) contributes, for each
lattice point g in Z^2 and with r = 2g + a, the monomial

    q0^(r1^2) * q1^((r1-r2)^2) * q2^(r2^2)

with coefficient i^(b1*r1 + b2*r2).  The points r and -r share the
monomial and carry conjugate phases, so every coefficient is a rational
integer.  Series hold plain ints only: `theta_qexp` raises on a phase sum
that is not real, and `translate_action` on a phase other than +-1.
Exponent triples correspond to half-integral index matrices via
(8t0, 16t1, 8t2) = (n0, n0+n2-n1, n2), so semipositivity reads
4*n0*n2 >= (n0+n2-n1)^2 and n0+n2 is (a rescaling of) the trace.

Truncation: a series with bound N stores exactly the terms with
n0 + n2 <= N; larger exponents are unknown, and equality of two series is
only ever asserted up to the smaller of the two bounds.

Products go through one packed kernel (Kronecker substitution).  Each
factor is split into cells by (n0, n2), the exponents that decide the
weight n0 + n2, and each cell becomes one Python integer holding its terms
in fixed-width signed slots indexed by phi = n1 + 3(n0 + n2) over the
chain's step; so one integer product does a cell pair's whole convolution
over n1, and only cell pairs whose weights sum to at most the bound are
multiplied.  phi is linear in the exponents, and the step is the gcd of
its differences within each factor: 4 on a theta with mixed upper bits,
whose n1 have gcd 1, and 8 on the a = 0 thetas.  Each factor's residue,
phi mod step, is carried through the chain and read back on decoding.
`product` and powers keep their partial products packed and decode the
result once.  A slot is bitlen(B) + 1 bits wide, with B the product of
the factors' sums of |c|: B bounds every coefficient of the result, and
the extra bit is the sign, so the slots never overlap and decoding is
exact (see `_Layout`).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterable

from .characteristics import Char

ExpTriple = tuple[int, int, int]

Sym2 = tuple[tuple[int, int], tuple[int, int]]


class QSeries:
    __slots__ = ("terms", "truncation")

    def __init__(self, terms: dict[ExpTriple, int], truncation: int) -> None:
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
    def _exact(cls, terms: dict[ExpTriple, int], truncation: int) -> QSeries:
        """A series on nonzero terms already known to have nonnegative
        exponents within the bound, as the results of the ring operations
        do; the terms dict is kept, not copied."""
        s = cls.__new__(cls)
        s.truncation = truncation
        s.terms = terms
        return s

    @classmethod
    def zero(cls, truncation: int) -> QSeries:
        return cls({}, truncation)

    @classmethod
    def one(cls, truncation: int) -> QSeries:
        return cls({(0, 0, 0): 1}, truncation)

    # -- basic queries -----------------------------------------------------

    def coefficient(self, n: ExpTriple) -> int:
        return self.terms.get(tuple(n), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def restrict(self, truncation: int) -> QSeries:
        if truncation > self.truncation:
            raise ValueError("cannot raise a truncation bound")
        return QSeries(self.terms, truncation)

    def _upto(self, n: int) -> dict[ExpTriple, int]:
        """The stored terms of weight at most n <= the bound: all of them,
        not copied, when n is the bound."""
        if n == self.truncation:
            return self.terms
        return {k: v for k, v in self.terms.items() if k[0] + k[2] <= n}

    def __eq__(self, other: object) -> bool:
        """Equality of the known parts, up to the smaller truncation."""
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.truncation, other.truncation)
        return self._upto(n) == other._upto(n)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: QSeries) -> QSeries:
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.truncation, other.truncation)
        terms = dict(self._upto(n))
        for k, v in other._upto(n).items():
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
        """The product with a scalar, or with a series by `product`: every
        `a * b` of two series passes here, while `product` and powers
        multiply their partial products packed, without passing here."""
        if isinstance(other, int):
            if not other:
                return QSeries.zero(self.truncation)
            return QSeries._exact({k: v * other for k, v in self.terms.items()},
                                  self.truncation)
        if not isinstance(other, QSeries):
            return NotImplemented
        return product((self, other))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> QSeries:
        """The n-th power by repeated squaring, with no square past the last
        bit, the partial products kept packed."""
        if n < 0:
            raise ValueError("negative power of a series")
        if n == 0:
            return QSeries.one(self.truncation)
        layout = _Layout([self], n)
        base = layout.pack(self)
        result = None
        while True:
            if n & 1:
                result = base if result is None else _multiply(result, base, layout)
            n >>= 1
            if not n:
                return layout.unpack(result)
            base = _multiply(base, base, layout)

    def __repr__(self) -> str:
        return f"QSeries({len(self.terms)} terms, N={self.truncation})"


def product(series: Iterable[QSeries]) -> QSeries:
    """The product of the series, up to the smallest of their bounds.

    The factors are packed once, in one layout whose slots are wide
    enough for the whole chain, multiplied from the left with every
    partial product kept packed, and the result is decoded once.  Terms
    past the smallest bound are dropped before packing: a weight only
    grows in a product.
    """
    items = list(series)
    if not items:
        raise ValueError("empty product")
    layout = _Layout(items)
    result = layout.pack(items[0])
    for s in items[1:]:
        result = _multiply(result, layout.pack(s), layout)
    return layout.unpack(result)


# -- the packed product kernel ---------------------------------------------

#: a packed series: its cells, cell key -> sum of c * 2^(bits * slot) over
#: the cell, with each term's slot (phi - residue) / step (see `_Layout`)
Packed = dict[int, int]

#: the nonzero cells as a multiplication reads them:
#: (key, shift, x >> shift) by ascending key, so by ascending weight, with
#: shift the cell's empty low slots
Cells = list[tuple[int, int, int]]


class _Layout:
    """Where each term of a product's factors and partial products sits.

    A cell is the set of terms with one (n0, n2), keyed w * width + n2,
    with w = n0 + n2 its weight and width = truncation + 1, so that keys
    add as the exponents do and sort by weight.  In a cell, the term
    c * q1^n1 sits in slot phi // step of one Python integer, that is
    c * 2^(bits * (phi // step)), with phi = n1 + 3w.  step is the gcd of
    the differences of phi within each factor, so the phi of one factor
    all leave one remainder mod step, the factor's residue, and
    phi // step = (phi - residue) / step exactly.  phi is linear in the
    exponents, so the slots of a product's term add up to
    (phi - residue) / step with phi its own and `residue` the sum of the
    factors' residues (n times the base's for an n-th power); decoding reads
    n1 = slot * step + residue - 3w.

    Why phi and not n1: a theta term with r = 2g + a has
    n0 + n2 - n1 = 2 r1 r2, so phi = 4w - 2 r1 r2, which is -2 a1 a2 mod 4
    on every term of a theta and 0 mod 8 when a = 0.  n1 itself follows
    w mod 4, so a theta with mixed upper bits has n1 of both parities:
    their gcd is 1, where the phi of the sextuple chains have step 4 and
    those of the four a = 0 thetas step 8.

    Packing a cell evaluates a polynomial in q1^step at 2^bits.  That is a
    ring map, so the integer product of two packed cells is the packed
    product cell, exactly, whatever its slot values; sums and the shifts
    that align cells are exact too.  Only decoding needs the slots apart:
    an integer sum of v_k * 2^(bits * k) gives back every v_k when each
    |v_k| < 2^(bits-1).  The bound, the product of the factors' sums of
    |c|, bounds the sum of |c| of the result, so each of its coefficients
    (and of every partial product, when no factor is zero); with
    bits = bitlen(bound) + 1, |v_k| <= bound < 2^(bits-1).  The slot a
    term sits in does not enter this, so decoding stays exact at the
    same width whatever the step.
    """

    __slots__ = ("truncation", "width", "step", "residue", "bits")

    def __init__(self, factors: list[QSeries], power: int = 1) -> None:
        """The layout of the product of the factors, raised to the power.
        An empty factor adds nothing to the step or the residue."""
        self.truncation = min(s.truncation for s in factors)
        self.width = self.truncation + 1
        bound, step, firsts = 1, 0, []
        for s in factors:
            bound *= sum(map(abs, s.terms.values()))
            phis = [n1 + 3 * (n0 + n2) for n0, n1, n2 in s.terms]
            if phis:
                firsts.append(phis[0])
                step = math.gcd(step, *map(phis[0].__rsub__, phis))
        self.step = step = step or 1
        self.residue = power * sum(p % step for p in firsts)
        self.bits = (bound ** power).bit_length() + 1

    def pack(self, s: QSeries) -> Packed:
        """One pass over the terms of s within the truncation."""
        n, width, step, bits = self.truncation, self.width, self.step, self.bits
        cells: Packed = {}
        for (n0, n1, n2), c in s.terms.items():
            w = n0 + n2
            if w > n:
                continue
            key = w * width + n2
            cells[key] = cells.get(key, 0) + (c << bits * ((n1 + 3 * w) // step))
        return cells

    def cells(self, packed: Packed) -> Cells:
        """The nonzero cells, by weight, each shifted down to its lowest
        nonempty slot for the multiplication."""
        bits = self.bits
        out = []
        for key, x in packed.items():
            if x:
                shift = ((x & -x).bit_length() - 1) // bits * bits
                out.append((key, shift, x >> shift))
        out.sort()
        return out

    def unpack(self, packed: Packed) -> QSeries:
        """Decode every cell once, skipping runs of empty slots by the
        count of trailing zero bits."""
        width, step, residue, bits = self.width, self.step, self.residue, self.bits
        mask, top, full = (1 << bits) - 1, 1 << (bits - 1), 1 << bits
        terms: dict[ExpTriple, int] = {}
        for key, x in packed.items():
            w, n2 = divmod(key, width)
            n0 = w - n2
            n1 = residue - 3 * w
            while x:
                v = x & mask
                if not v:
                    skip = ((x & -x).bit_length() - 1) // bits
                    x >>= skip * bits
                    n1 += skip * step
                    v = x & mask
                x >>= bits
                if v & top:  # a negative slot borrowed one from the next
                    v -= full
                    x += 1
                terms[n0, n1, n2] = v
                n1 += step
        return QSeries._exact(terms, self.truncation)


def _multiply(pa: Packed, pb: Packed, layout: _Layout) -> Packed:
    """The product of two packed series: the kernel every series product
    runs through.  The products of the cell pairs with weights summing to
    at most the truncation are added up, each at its absolute slot offset.
    A square takes each unordered pair once and doubles it by one more
    shift."""
    a = layout.cells(pa)
    b = a if pb is pa else layout.cells(pb)
    acc: Packed = {}
    width = layout.width
    room = (layout.truncation + 1) * width  # keys of weight above it: too heavy
    keys = [k for k, _, _ in b]
    if a is b:
        for i, (ka, sa, xa) in enumerate(a):
            stop = bisect_left(keys, room - ka // width * width)
            if stop <= i:
                break
            k = 2 * ka
            acc[k] = acc.get(k, 0) + (xa * xa << 2 * sa)
            for kb, sb, xb in a[i + 1:stop]:
                k = ka + kb
                acc[k] = acc.get(k, 0) + (xa * xb << sa + sb + 1)
        return acc
    for ka, sa, xa in a:
        stop = bisect_left(keys, room - ka // width * width)
        if not stop:
            break
        for kb, sb, xb in b[:stop]:
            k = ka + kb
            acc[k] = acc.get(k, 0) + (xa * xb << sa + sb)
    return acc


# -- theta expansions -----------------------------------------------------

def theta_qexp(m: Char, truncation: int) -> QSeries:
    """Exact q-expansion of the theta constant with characteristic m.

    The lattice range |2g + a| <= sqrt(N) is exhaustive for the bound
    n0 + n2 <= N: squares only grow.  Each monomial's phases i^(b.r) are
    summed as an exact Gaussian integer [real part, imaginary part]; the
    points r and -r carry conjugate phases, so a surviving imaginary part
    raises ArithmeticError.  Odd characteristics cancel to the zero series.
    """
    root = math.isqrt(truncation)
    sums: dict[ExpTriple, list[int]] = {}
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
            k = (m.b1 * r1 + m.b2 * r2) % 4  # the phase i^k: 1, i, -1, -i
            sums.setdefault(key, [0, 0])[k & 1] += 1 if k < 2 else -1
    for key, (re, im) in sums.items():
        if im:
            raise ArithmeticError(f"theta {m}: the phases of the term {key} "
                                  f"sum to the non-real {re}{im:+d}i")
    return QSeries({key: re for key, (re, _) in sums.items()}, truncation)


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

    Each term picks up the phase zeta^k, k = n0*s0 + (n0+n2-n1)*s1 + n2*s2,
    with zeta a primitive 8th root of unity; the support is unchanged.  The
    coefficients stay integers only when every phase is +-1, that is when
    4 divides every k; a term with any other phase raises ValueError.
    """
    if S[0][1] != S[1][0]:
        raise ValueError("translation matrix must be symmetric")
    s0, s1, s2 = S[0][0], S[0][1], S[1][1]
    terms = {}
    for n, c in s.terms.items():
        k = n[0] * s0 + (n[0] + n[2] - n[1]) * s1 + n[2] * s2
        if k % 4:
            raise ValueError(f"translation by {S}: the term {n} gets the "
                             f"non-real phase zeta^{k % 8}")
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
    terms: dict[ExpTriple, int] = {}
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
    """Action of z1 -> -z1, the unimodular action of diag(1, -1): the
    exponent remap (n0, n1, n2) -> (n0, 2(n0+n2)-n1, n2), an involution on
    semipositive supports that keeps the truncation.  It refuses what
    `unimodular_action` refuses, an odd n0+n2-n1 among them, which no
    series the suite builds has."""
    return unimodular_action(s, ((1, 0), (0, -1)))
