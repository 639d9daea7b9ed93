"""Integer symplectic 4x4 matrices, congruence subgroups, and characters.

Matrices are exact (Python integers).  Subgroup membership is decided by
congruence and diagonal conditions; the two index-two kernels cut out by
the quadratic character use the closed formula (-1)^((alpha+beta+gamma)/2)
on C*tD, combined on the Hecke-type group with the sign character of the
mod-2 quotient.  Members of the full group and of the level-2 groups are
sampled without search: a pseudo-random word in a fixed generator set is
walked through Sp(4, F_2), on the classes and step table that
`characteristics` builds, and the shortest word that carries its class
to a member's reduction mod 2 is appended.  In the two index-two kernels
a product outside the kernel is multiplied by one fixed coset
representative.
"""

from __future__ import annotations

import random
from functools import cache
from typing import NamedTuple

from .characteristics import (
    IDENTITY4,
    J4,
    Mat2F2,
    mat_mul,
    mat_transpose,
    mod2,
    sp4f2_sign,
    sp4f2_steps,
    sp4f2_walk,
)


def is_symplectic(rows) -> bool:
    """Exact test of the defining relation tM J M = J."""
    m = tuple(tuple(int(v) for v in row) for row in rows)
    if len(m) != 4 or any(len(r) != 4 for r in m):
        return False
    return mat_mul(mat_mul(mat_transpose(m), J4), m) == J4


class SpMat:
    """An element of Sp(4, Z); the symplectic relation is checked on construction."""

    __slots__ = ("rows",)

    def __init__(self, rows) -> None:
        m = tuple(tuple(int(v) for v in row) for row in rows)
        if not is_symplectic(m):
            raise ValueError("matrix is not symplectic")
        self.rows = m

    @classmethod
    def identity(cls) -> SpMat:
        return cls(IDENTITY4)

    @classmethod
    def inversion(cls) -> SpMat:
        return cls(J4)

    @classmethod
    def from_blocks(cls, a, b, c, d) -> SpMat:
        (a0, a1), (b0, b1), (c0, c1), (d0, d1) = a, b, c, d
        return cls(((*a0, *b0), (*a1, *b1), (*c0, *d0), (*c1, *d1)))

    @classmethod
    def translation(cls, s) -> SpMat:
        """Upper translation (E S; 0 E) for symmetric integer S."""
        if s[0][1] != s[1][0]:
            raise ValueError("translation matrix must be symmetric")
        return cls.from_blocks(((1, 0), (0, 1)), s, ((0, 0), (0, 0)), ((1, 0), (0, 1)))

    @classmethod
    def embed_unimodular(cls, u) -> SpMat:
        """diag(U, tU^-1) for U in GL(2, Z)."""
        det = u[0][0] * u[1][1] - u[0][1] * u[1][0]
        if det not in (1, -1):
            raise ValueError("matrix is not unimodular")
        tinv = ((u[1][1] * det, -u[1][0] * det), (-u[0][1] * det, u[0][0] * det))
        return cls.from_blocks(u, ((0, 0), (0, 0)), ((0, 0), (0, 0)), tinv)

    @property
    def C(self):
        return ((self.rows[2][0], self.rows[2][1]), (self.rows[3][0], self.rows[3][1]))

    def __mul__(self, other: SpMat) -> SpMat:
        if not isinstance(other, SpMat):
            return NotImplemented
        out = SpMat.__new__(SpMat)
        out.rows = mat_mul(self.rows, other.rows)
        return out

    def inverse(self) -> SpMat:
        """-J tM J = t(M J) J, since tM J M = J and tJ = J^-1 = -J."""
        out = SpMat.__new__(SpMat)
        out.rows = mat_mul(mat_transpose(mat_mul(self.rows, J4)), J4)
        return out

    def mod2(self) -> Mat2F2:
        return mod2(self.rows)

    def max_entry(self) -> int:
        return max(abs(v) for row in self.rows for v in row)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SpMat) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"SpMat({self.rows})"


# -- subgroups ----------------------------------------------------------

class Subgroup(NamedTuple):
    """A decidable congruence-type subgroup of Sp(4, Z)."""

    kind: str
    level: int = 1

    @classmethod
    def full(cls) -> Subgroup:
        return cls("full")

    @classmethod
    def principal(cls, level: int) -> Subgroup:
        return cls("principal", level)

    @classmethod
    def hecke(cls, level: int) -> Subgroup:
        """C = 0 mod level."""
        return cls("hecke", level)

    @classmethod
    def chi_kernel(cls) -> Subgroup:
        """Index-two kernel of the quadratic character inside level 2."""
        return cls("chi_kernel", 2)

    @classmethod
    def hecke_chi_kernel(cls) -> Subgroup:
        """Index-two kernel of the cusp-form character inside the level-2 Hecke group."""
        return cls("hecke_chi_kernel", 2)

    def __str__(self) -> str:
        return {
            "full": "Sp(4,Z)",
            "principal": f"Gamma2[{self.level}]",
            "hecke": f"Gamma2,0[{self.level}]",
            "chi_kernel": "Gamma_n",
            "hecke_chi_kernel": "Gamma2,0[2]_n",
        }[self.kind]


def _diag_sum_mod(m: SpMat) -> tuple[int, int, int]:
    """(alpha, beta, gamma) with C tD = (alpha beta; beta gamma), off rows 2-3."""
    (c00, c01, d00, d01), (c10, c11, d10, d11) = m.rows[2:]
    return c00 * d00 + c01 * d01, c00 * d10 + c01 * d11, c10 * d10 + c11 * d11


def subgroup_membership(m: SpMat, tag: Subgroup) -> bool:
    l = tag.level
    if tag.kind == "full":
        return True
    if tag.kind == "principal":
        return all(
            (m.rows[i][j] - IDENTITY4[i][j]) % l == 0
            for i in range(4) for j in range(4)
        )
    if tag.kind == "hecke":
        return all(v % l == 0 for row in m.C for v in row)
    if tag.kind == "chi_kernel":
        if not subgroup_membership(m, Subgroup.principal(2)):
            return False
        alpha, beta, gamma = _diag_sum_mod(m)
        return (alpha + beta + gamma) % 4 == 0
    if tag.kind == "hecke_chi_kernel":
        if not subgroup_membership(m, Subgroup.hecke(2)):
            return False
        return cusp_form_character(m) == 1
    raise ValueError(f"unknown subgroup kind {tag.kind!r}")


def theta_character(m: SpMat) -> int:
    """(-1)^((alpha+beta+gamma)/2) on the level-2 Hecke group, C*tD = (a b; b c)."""
    if not subgroup_membership(m, Subgroup.hecke(2)):
        raise ValueError("character is only defined for C = 0 mod 2")
    alpha, beta, gamma = _diag_sum_mod(m)
    s = alpha + beta + gamma
    if s % 2 != 0:
        raise ArithmeticError("diagonal sum is odd for an even-level matrix")
    return -1 if (s // 2) % 2 else 1


def cusp_form_character(m: SpMat) -> int:
    """Character of the weight-3 sextuple product on the level-2 Hecke group.

    Product of the quadratic theta character and the sign character of the
    mod-2 quotient (the unique nontrivial character of the full group,
    trivial on the principal level-2 subgroup).
    """
    return theta_character(m) * sp4f2_sign(m.mod2())


# -- sampling -----------------------------------------------------------

def _generators() -> list[SpMat]:
    e = ((1, 0), (0, 1))
    gens = [
        SpMat.translation(((1, 0), (0, 0))),
        SpMat.translation(((0, 0), (0, 1))),
        SpMat.translation(((0, 1), (1, 0))),
        SpMat.inversion(),
        # partial inversion in the first modular factor
        SpMat(((0, 0, -1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1))),
        SpMat.embed_unimodular(((1, 1), (0, 1))),
        SpMat.embed_unimodular(((0, 1), (1, 0))),
    ]
    inverses = [g.inverse() for g in gens]
    return gens + inverses


_GENERATORS = _generators()
_GENERATOR_ROWS = tuple(g.rows for g in _GENERATORS)
_GENERATOR_INDICES = range(len(_GENERATORS))


# In Gamma2[2], so its sign character is 1, and of theta character -1: it
# carries a product outside either index-two kernel into that kernel.
_KERNEL_COSET = SpMat.from_blocks(((1, 0), (0, 1)), ((0, 0), (0, 0)),
                                  ((2, 2), (2, 2)), ((1, 0), (0, 1)))


@cache
def _corrections(tag: Subgroup) -> tuple[tuple[int, ...], ...]:
    """corrections[c]: a shortest generator word w such that class c times w
    is a class that members of `tag` reduce to mod 2.

    Members of Gamma2[2] and Gamma_n are the identity mod 2 (class 0), and
    members of the level-2 Hecke group and of its cusp-form kernel have
    C = 0 mod 2; every class passes for the full group.  ValueError for any
    other tag.
    """
    classes = sp4f2_walk()[0]
    if tag.kind == "full":
        word = {c: () for c in range(len(classes))}
    elif tag.level == 2 and tag.kind in ("principal", "chi_kernel"):
        word = {0: ()}
    elif tag.level == 2 and tag.kind in ("hecke", "hecke_chi_kernel"):
        word = {c: () for c, x in enumerate(classes) if (x[2] | x[3]) & 0b1100 == 0}
    else:
        raise ValueError(f"cannot sample {tag}: only the full group and level 2")
    step = sp4f2_steps(_GENERATOR_ROWS)
    # breadth first along reversed steps: rounds[c] is the length of c's
    # word.  The generators are closed under inverses, so the classes one
    # step before t are the classes one step after it.
    order = list(word)
    rounds = dict.fromkeys(order, 0)
    for t in order:  # grows while it is walked
        for c in step[t]:
            if c not in rounds:
                rounds[c] = rounds[t] + 1
                order.append(c)
    for c in order[len(word):]:  # the first generator into an earlier round
        g = next(g for g in _GENERATOR_INDICES if rounds[step[c][g]] < rounds[c])
        word[c] = (g, *word[step[c][g]])
    return tuple(word[c] for c in range(len(classes)))


def sample_element(tag: Subgroup, word_length: int, seed: int) -> SpMat:
    """Deterministic member of the subgroup, built from one random word.

    The seeded RNG draws `word_length` generators; the word's class mod 2
    is read off the step table and the shortest word to a member's class
    (`_corrections`) is appended, so a sample of the full group is the
    word itself.  In the two index-two kernels a product outside the
    kernel is multiplied by `_KERNEL_COSET`.  Every returned matrix has
    passed `subgroup_membership`; ArithmeticError if one does not.
    """
    corrections = _corrections(tag)
    rng = random.Random(f"{seed}:{word_length}:{tag.kind}:{tag.level}")
    word = [rng.choice(_GENERATOR_INDICES) for _ in range(word_length)]
    step = sp4f2_steps(_GENERATOR_ROWS)
    c = 0
    for g in word:
        c = step[c][g]
    m = SpMat.identity()
    for g in (*word, *corrections[c]):
        m = m * _GENERATORS[g]
    if tag.kind in ("chi_kernel", "hecke_chi_kernel") and not subgroup_membership(m, tag):
        m = m * _KERNEL_COSET
    if not subgroup_membership(m, tag):
        raise ArithmeticError(f"sample {m} is not a member of {tag}")
    return m
