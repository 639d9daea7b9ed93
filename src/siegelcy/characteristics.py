"""Theta characteristics in genus 2 and the symplectic action mod 2.

A characteristic is a 4-bit vector m = (a1, a2, b1, b2) over F_2 with
parity a1*b1 + a2*b2.  Ten of the sixteen are even; the 15 syzygetic
quadruples of even characteristics and their complementary sextuples drive
everything downstream (cusp forms, boundary orders, singular curves).  The
standard quadruple, the four with upper characteristic zero, is defined
here once, in the order of the weight-2 product form that the series
registry and the numeric laws read.

The finite group Sp(4, F_2) of order 720 is held once, as the classes of
a walk from the identity through four generators; `symplectic` walks its
sampling words on the same classes.  Its affine action on characteristics
uses the diagonal correction ((C^tD)_0; (A^tB)_0), the variant that
preserves parity and satisfies the group-action law (the condition the
whole suite tests).  Its sign character is the sign of the permutation it
induces on the six odd characteristics.  The orbit and the stabilizer
order of a set of characteristics come from one scan of the 720 elements.
Only fixed tables are cached for the process: the walk, its step tables and
its element list.  The quadruples, the sextuples and a scan are recomputed
on each call; the suite keeps each for one run.  The 4x4 integer matrix
helpers below are shared with `symplectic`.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import Iterable, NamedTuple

from .equations import perm_sign


class Char(NamedTuple):
    """A characteristic; its tuple order, (a1, a2, b1, b2), is the order of
    the 4-bit index 8 a1 + 4 a2 + 2 b1 + b2 (`char_from_index`)."""

    a1: int
    a2: int
    b1: int
    b2: int


Mat2F2 = tuple[tuple[int, int, int, int], ...]  # 4x4 bit matrix, rows


def parity(m: Char) -> int:
    """0 for even, 1 for odd."""
    return (m.a1 * m.b1 + m.a2 * m.b2) % 2


def is_even(m: Char) -> bool:
    return parity(m) == 0


def divisor_orders(m: Char) -> tuple[int, int, int]:
    """The vanishing orders of theta[m] along q0, q1 and q2 = 0 on the
    level-8 grid: a1, a1 + a2 - 2 a1 a2 and a2."""
    return m.a1, m.a1 ^ m.a2, m.a2


def char_from_index(k: int) -> Char:
    return Char((k >> 3) & 1, (k >> 2) & 1, (k >> 1) & 1, k & 1)


def char_sum(*ms: Char) -> Char:
    a1 = a2 = b1 = b2 = 0
    for m in ms:
        a1 ^= m.a1
        a2 ^= m.a2
        b1 ^= m.b1
        b2 ^= m.b2
    return Char(a1, a2, b1, b2)


def all_characteristics() -> list[Char]:
    return [char_from_index(k) for k in range(16)]


def even_characteristics() -> list[Char]:
    """The ten even characteristics, ascending in the integer encoding."""
    return [m for m in all_characteristics() if is_even(m)]


def odd_characteristics() -> list[Char]:
    return [m for m in all_characteristics() if not is_even(m)]


Quadruple = frozenset  # of 4 even Char
Sextuple = frozenset   # of 6 even Char


def _as_quadruple(q: Iterable[Char]) -> tuple[Char, ...]:
    items = list(q)
    if len(set(items)) != len(items):
        raise ValueError("quadruple contains a repeated characteristic")
    if len(items) != 4:
        raise ValueError(f"expected 4 characteristics, got {len(items)}")
    for m in items:
        if not is_even(m):
            raise ValueError(f"characteristic {m} is odd")
    return tuple(sorted(items))


def is_syzygetic(q: Iterable[Char]) -> bool:
    """True iff the sum of any three of the four is even."""
    items = _as_quadruple(q)
    return all(parity(char_sum(*triple)) == 0 for triple in combinations(items, 3))


#: the four theta constants with upper characteristic zero, in the order
#: entering the weight-2 product form y5
PRODUCT_FORM_CHARS = (Char(0, 0, 0, 1), Char(0, 0, 0, 0), Char(0, 0, 1, 0),
                      Char(0, 0, 1, 1))

STANDARD_QUADRUPLE: Quadruple = frozenset(PRODUCT_FORM_CHARS)


def syzygetic_quadruples() -> tuple[Quadruple, ...]:
    """All syzygetic quadruples of even characteristics (there are 15)."""
    evens = even_characteristics()
    found = [frozenset(q) for q in combinations(evens, 4) if is_syzygetic(q)]
    return tuple(sorted(found, key=sorted))


def complement_sextuple(q: Iterable[Char]) -> Sextuple:
    if not is_syzygetic(q):
        raise ValueError("quadruple is not syzygetic")
    qs = frozenset(q)
    return frozenset(m for m in even_characteristics() if m not in qs)


STANDARD_SEXTUPLE: Sextuple = complement_sextuple(STANDARD_QUADRUPLE)


def all_sextuples() -> tuple[Sextuple, ...]:
    return tuple(complement_sextuple(q) for q in syzygetic_quadruples())


# -- 4x4 integer matrices and Sp(4, F_2) ---------------------------------

Mat4 = tuple[tuple[int, int, int, int], ...]  # 4x4 integer matrix, rows


def mat_mul(x: Mat4, y: Mat4) -> Mat4:
    (e0, e1, e2, e3), (f0, f1, f2, f3), (g0, g1, g2, g3), (h0, h1, h2, h3) = y
    return tuple((a * e0 + b * f0 + c * g0 + d * h0, a * e1 + b * f1 + c * g1 + d * h1,
                  a * e2 + b * f2 + c * g2 + d * h2, a * e3 + b * f3 + c * g3 + d * h3)
                 for a, b, c, d in x)


def mat_transpose(x: Mat4) -> Mat4:
    return tuple(tuple(x[j][i] for j in range(4)) for i in range(4))


def mod2(x: Mat4) -> Mat2F2:
    return tuple(tuple(v % 2 for v in row) for row in x)


IDENTITY4: Mat4 = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
J4: Mat4 = ((0, 0, -1, 0), (0, 0, 0, -1), (1, 0, 0, 0), (0, 1, 0, 0))


def _translation_f2(s11: int, s12: int, s22: int) -> Mat2F2:
    return (
        (1, 0, s11 % 2, s12 % 2),
        (0, 1, s12 % 2, s22 % 2),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    )


SP4F2_GENERATORS: tuple[Mat2F2, ...] = (
    mod2(J4),
    _translation_f2(1, 0, 0),
    _translation_f2(0, 0, 1),
    _translation_f2(0, 1, 0),
)


# -- the mod-2 walk ---------------------------------------------------------
#
# Sp(4, F_2) is held once, as the classes a walk from the identity (class 0)
# through SP4F2_GENERATORS finds, numbered in that order.  A class is kept as
# the four rows of its matrix mod 2, each a 4-bit mask with column j at bit
# 3 - j; a matrix is symplectic mod 2 iff its masks are a class.

def _masks(x: Mat4) -> tuple[int, ...]:
    return tuple(sum((v % 2) << (3 - j) for j, v in enumerate(row)) for row in x)


def _right_product(g: Mat4) -> list[int]:
    """combo[mask]: XOR of the rows of g that mask selects, which is row i
    of x * g mod 2 when mask is row i of x."""
    rows = _masks(g)
    return [
        rows[0] * (mask >> 3 & 1) ^ rows[1] * (mask >> 2 & 1)
        ^ rows[2] * (mask >> 1 & 1) ^ rows[3] * (mask & 1)
        for mask in range(16)
    ]


@cache
def sp4f2_walk() -> tuple[tuple[tuple[int, ...], ...], dict[tuple[int, ...], int]]:
    """(classes, index): the 720 classes as row masks, and mask -> class."""
    combos = [_right_product(g) for g in SP4F2_GENERATORS]
    classes = [_masks(IDENTITY4)]
    index = {classes[0]: 0}
    for x in classes:  # grows while it is walked
        for comb in combos:
            y = (comb[x[0]], comb[x[1]], comb[x[2]], comb[x[3]])
            if y not in index:
                index[y] = len(classes)
                classes.append(y)
    return tuple(classes), index


def sp4f2_class(x: Mat4) -> int:
    """The class of a 4x4 integer matrix mod 2; ValueError if it has none."""
    c = sp4f2_walk()[1].get(_masks(x))
    if c is None:
        raise ValueError("matrix is not symplectic mod 2")
    return c


@cache
def sp4f2_steps(generators: tuple[Mat4, ...]) -> tuple[tuple[int, ...], ...]:
    """step[c][g]: the class of classes[c] times generators[g] mod 2."""
    classes, index = sp4f2_walk()
    combos = [_right_product(g) for g in generators]
    return tuple(
        tuple([index[comb[r0], comb[r1], comb[r2], comb[r3]] for comb in combos])
        for r0, r1, r2, r3 in classes
    )


#: _MASK_ROWS[mask]: the 0/1 row whose bit 3 - j is column j
_MASK_ROWS = tuple(tuple(mask >> (3 - j) & 1 for j in range(4)) for mask in range(16))


@cache
def sp4f2_elements() -> tuple[Mat2F2, ...]:
    """The 720 classes as 0/1 matrices, sorted."""
    return tuple(sorted((_MASK_ROWS[r0], _MASK_ROWS[r1], _MASK_ROWS[r2], _MASK_ROWS[r3])
                        for r0, r1, r2, r3 in sp4f2_walk()[0]))


def sp4f2_act(x: Mat4, m: Char) -> Char:
    """The affine action of Sp(4, F_2) on characteristics, for an integer
    matrix x read mod 2 (the class lookup and the parities below reduce).

    The linear part is transpose-inverse, which mod 2 has block form
    (D C; B A); the affine correction adds the diagonals of C^tD and A^tB
    to the a- and b-halves respectively: entry i of the image is row r of
    x (rows 2, 3, 0, 1 in turn) dotted with (b; a), plus r0 r2 + r1 r3.
    This variant preserves parity and obeys (MN){m} = M{N{m}}.
    """
    sp4f2_class(x)
    return _act(x, m)


def _act(x: Mat4, m: Char) -> Char:
    """`sp4f2_act` without the check that x is symplectic mod 2."""
    a1, a2, b1, b2 = m
    (p0, p1, p2, p3), (q0, q1, q2, q3), (r0, r1, r2, r3), (s0, s1, s2, s3) = x
    return Char((r0 * (b1 + r2) + r1 * (b2 + r3) + r2 * a1 + r3 * a2) % 2,
                (s0 * (b1 + s2) + s1 * (b2 + s3) + s2 * a1 + s3 * a2) % 2,
                (p0 * (b1 + p2) + p1 * (b2 + p3) + p2 * a1 + p3 * a2) % 2,
                (q0 * (b1 + q2) + q1 * (b2 + q3) + q2 * a1 + q3 * a2) % 2)


def sp4f2_sign(x: Mat4) -> int:
    """The unique nontrivial character of Sp(4, F_2), valued in {+1, -1},
    for an integer matrix x read mod 2.

    Sp(4, F_2) permutes the six odd characteristics, which identifies it
    with the symmetric group S_6; the character is `perm_sign` of that
    permutation.
    """
    odds = odd_characteristics()
    return perm_sign(tuple(odds.index(sp4f2_act(x, m)) for m in odds))


def quadruple_scan(q: Iterable[Char]) -> tuple[frozenset[Quadruple], int]:
    """(orbit, stabilizer order) of a set of characteristics under the whole
    group, from one pass over the 720 elements; not cached, so the suite
    reads it through its run's memo."""
    start = frozenset(q)
    orbit = set()
    fixed = 0
    for x in sp4f2_elements():
        image = frozenset([_act(x, m) for m in start])
        orbit.add(image)
        fixed += image == start
    return frozenset(orbit), fixed
