"""Theta characteristics in genus 2 and the symplectic action mod 2.

A characteristic is a 4-bit vector m = (a1, a2, b1, b2) over F_2 with
parity a1*b1 + a2*b2.  Ten of the sixteen are even; the 15 syzygetic
quadruples of even characteristics and their complementary sextuples drive
everything downstream (cusp forms, boundary orders, singular curves).

The finite group Sp(4, F_2) of order 720 is built by brute-force closure
from generators; its affine action on characteristics uses the diagonal
correction ((C^tD)_0; (A^tB)_0), the variant that preserves parity and
satisfies the group-action law (the condition the whole suite tests).
Its sign character is the sign of the permutation it induces on the six
odd characteristics.  The 4x4 integer matrix helpers below are shared
with `symplectic`; the mod-2 group is their reduction mod 2.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable, NamedTuple


class Char(NamedTuple):
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


def char_index(m: Char) -> int:
    return 8 * m.a1 + 4 * m.a2 + 2 * m.b1 + m.b2


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
    return tuple(sorted(items, key=char_index))


def is_syzygetic(q: Iterable[Char]) -> bool:
    """True iff the sum of any three of the four is even."""
    items = _as_quadruple(q)
    return all(parity(char_sum(*triple)) == 0 for triple in combinations(items, 3))


STANDARD_QUADRUPLE: Quadruple = frozenset(
    {Char(0, 0, 0, 0), Char(0, 0, 1, 0), Char(0, 0, 0, 1), Char(0, 0, 1, 1)}
)


def syzygetic_quadruples() -> list[Quadruple]:
    """All syzygetic quadruples of even characteristics (there are 15)."""
    evens = even_characteristics()
    found = [frozenset(q) for q in combinations(evens, 4) if is_syzygetic(q)]
    found.sort(key=lambda q: sorted(char_index(m) for m in q))
    return found


def complement_sextuple(q: Iterable[Char]) -> Sextuple:
    if not is_syzygetic(q):
        raise ValueError("quadruple is not syzygetic")
    qs = frozenset(q)
    return frozenset(m for m in even_characteristics() if m not in qs)


STANDARD_SEXTUPLE: Sextuple = frozenset(
    m for m in even_characteristics() if m not in STANDARD_QUADRUPLE
)


def all_sextuples() -> list[Sextuple]:
    return [complement_sextuple(q) for q in syzygetic_quadruples()]


# -- 4x4 integer matrices and Sp(4, F_2) ---------------------------------

Mat4 = tuple[tuple[int, int, int, int], ...]  # 4x4 integer matrix, rows


def mat_mul(x: Mat4, y: Mat4) -> Mat4:
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(4)) for j in range(4))
        for i in range(4)
    )


def mat_transpose(x: Mat4) -> Mat4:
    return tuple(tuple(x[j][i] for j in range(4)) for i in range(4))


def mod2(x: Mat4) -> Mat2F2:
    return tuple(tuple(v % 2 for v in row) for row in x)


IDENTITY4: Mat4 = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
J4: Mat4 = ((0, 0, -1, 0), (0, 0, 0, -1), (1, 0, 0, 0), (0, 1, 0, 0))


def is_symplectic_f2(x: Mat2F2) -> bool:
    return mod2(mat_mul(mat_mul(mat_transpose(x), J4), x)) == mod2(J4)


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


@lru_cache(maxsize=1)
def sp4f2_elements() -> tuple[Mat2F2, ...]:
    """Brute-force closure of the generators; the group has order 720."""
    seen = {IDENTITY4}
    frontier = [IDENTITY4]
    while frontier:
        nxt = []
        for m in frontier:
            for g in SP4F2_GENERATORS:
                p = mod2(mat_mul(m, g))
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return tuple(sorted(seen))


def sp4f2_sign(x: Mat2F2) -> int:
    """The unique nontrivial character of Sp(4, F_2), valued in {+1, -1}.

    Sp(4, F_2) permutes the six odd characteristics, which identifies it
    with the symmetric group S_6; the character is the sign of that
    permutation.
    """
    odds = odd_characteristics()
    image = [odds.index(sp4f2_act(x, m)) for m in odds]
    inversions = sum(1 for i, j in combinations(range(6), 2) if image[i] > image[j])
    return -1 if inversions % 2 else 1


def _blocks_f2(x: Mat2F2) -> tuple:
    a = ((x[0][0], x[0][1]), (x[1][0], x[1][1]))
    b = ((x[0][2], x[0][3]), (x[1][2], x[1][3]))
    c = ((x[2][0], x[2][1]), (x[3][0], x[3][1]))
    d = ((x[2][2], x[2][3]), (x[3][2], x[3][3]))
    return a, b, c, d


def sp4f2_act(x: Mat2F2, m: Char) -> Char:
    """The affine action of Sp(4, F_2) on characteristics.

    The linear part is transpose-inverse, which mod 2 has block form
    (D C; B A); the affine correction adds the diagonals of C^tD and A^tB
    to the a- and b-halves respectively.  This variant preserves parity
    and obeys (MN){m} = M{N{m}}.
    """
    if not is_symplectic_f2(x):
        raise ValueError("matrix is not symplectic mod 2")
    a, b, c, d = _blocks_f2(x)
    av = (m.a1, m.a2)
    bv = (m.b1, m.b2)
    new_a = [
        (d[i][0] * av[0] + d[i][1] * av[1] + c[i][0] * bv[0] + c[i][1] * bv[1]) % 2
        for i in range(2)
    ]
    new_b = [
        (b[i][0] * av[0] + b[i][1] * av[1] + a[i][0] * bv[0] + a[i][1] * bv[1]) % 2
        for i in range(2)
    ]
    # diagonal corrections: (C^tD)_0 on the a-part, (A^tB)_0 on the b-part
    for i in range(2):
        ctd_ii = sum(c[i][k] * d[i][k] for k in range(2)) % 2
        atb_ii = sum(a[i][k] * b[i][k] for k in range(2)) % 2
        new_a[i] = (new_a[i] + ctd_ii) % 2
        new_b[i] = (new_b[i] + atb_ii) % 2
    return Char(new_a[0], new_a[1], new_b[0], new_b[1])


def act_on_set(x: Mat2F2, chars: Iterable[Char]) -> frozenset[Char]:
    return frozenset(sp4f2_act(x, m) for m in chars)


def quadruple_orbit(q: Iterable[Char]) -> set[Quadruple]:
    """Orbit of a 4-set of characteristics under the whole group."""
    start = frozenset(q)
    return {act_on_set(x, start) for x in sp4f2_elements()}


def quadruple_stabilizer_order(q: Iterable[Char]) -> int:
    start = frozenset(q)
    return sum(1 for x in sp4f2_elements() if act_on_set(x, start) == start)
