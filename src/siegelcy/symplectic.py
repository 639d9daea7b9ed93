"""Integer symplectic 4x4 matrices, congruence subgroups, and characters.

Matrices are exact (Python integers).  Subgroup membership is decided by
congruence and diagonal conditions; the two index-two kernels cut out by
the quadratic character use the closed formula (-1)^((alpha+beta+gamma)/2)
on C*tD, combined on the Hecke-type group with the sign character of the
mod-2 quotient.  Elements are sampled as pseudo-random words in a fixed
generator set and rejection-filtered by the membership predicate.  Each
word is first walked through Sp(4, F_2), on the classes and step table
that `characteristics` builds, and dropped if no member can have its
reduction mod 2, so only the survivors are multiplied out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache

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


def _mat2_mul(x, y):
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


def _mat2_transpose(x):
    return ((x[0][0], x[1][0]), (x[0][1], x[1][1]))


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
        rows = [
            [a[0][0], a[0][1], b[0][0], b[0][1]],
            [a[1][0], a[1][1], b[1][0], b[1][1]],
            [c[0][0], c[0][1], d[0][0], d[0][1]],
            [c[1][0], c[1][1], d[1][0], d[1][1]],
        ]
        return cls(rows)

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
        inv = ((u[1][1] * det, -u[0][1] * det), (-u[1][0] * det, u[0][0] * det))
        tinv = _mat2_transpose(inv)
        return cls.from_blocks(u, ((0, 0), (0, 0)), ((0, 0), (0, 0)), tinv)

    @property
    def A(self):
        return ((self.rows[0][0], self.rows[0][1]), (self.rows[1][0], self.rows[1][1]))

    @property
    def B(self):
        return ((self.rows[0][2], self.rows[0][3]), (self.rows[1][2], self.rows[1][3]))

    @property
    def C(self):
        return ((self.rows[2][0], self.rows[2][1]), (self.rows[3][0], self.rows[3][1]))

    @property
    def D(self):
        return ((self.rows[2][2], self.rows[2][3]), (self.rows[3][2], self.rows[3][3]))

    def __mul__(self, other: SpMat) -> SpMat:
        if not isinstance(other, SpMat):
            return NotImplemented
        out = SpMat.__new__(SpMat)
        out.rows = mat_mul(self.rows, other.rows)
        return out

    def inverse(self) -> SpMat:
        a, b, c, d = self.A, self.B, self.C, self.D
        ta, tb = _mat2_transpose(a), _mat2_transpose(b)
        tc, td = _mat2_transpose(c), _mat2_transpose(d)
        neg = lambda m: ((-m[0][0], -m[0][1]), (-m[1][0], -m[1][1]))
        return SpMat.from_blocks(td, neg(tb), neg(tc), ta)

    def mod2(self) -> Mat2F2:
        return mod2(self.rows)

    def max_entry(self) -> int:
        return max(abs(v) for row in self.rows for v in row)

    def c_td(self):
        return _mat2_mul(self.C, _mat2_transpose(self.D))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SpMat) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"SpMat({self.rows})"


# -- subgroups ----------------------------------------------------------

@dataclass(frozen=True)
class Subgroup:
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
    ctd = m.c_td()
    return ctd[0][0], ctd[0][1], ctd[1][1]


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


@cache
def _passing_classes(tag: Subgroup) -> tuple[bool, ...] | None:
    """Which mod-2 classes a member of `tag` can reduce to; None if all.

    A necessary condition only: members of an even-level principal group
    and of Gamma_n are the identity mod 2 (class 0), members of an
    even-level Hecke group and of its cusp-form kernel have C = 0 mod 2.
    """
    even = tag.level % 2 == 0
    classes = sp4f2_walk()[0]
    if tag.kind == "chi_kernel" or (tag.kind == "principal" and even):
        return tuple(c == 0 for c in range(len(classes)))
    if tag.kind == "hecke_chi_kernel" or (tag.kind == "hecke" and even):
        return tuple((x[2] | x[3]) & 0b1100 == 0 for x in classes)
    return None


def sample_element(tag: Subgroup, word_length: int, seed: int,
                   max_tries: int = 20000) -> SpMat:
    """Deterministic member of the subgroup, found by filtered random words.

    Each try draws `word_length` generators with the seeded RNG.  Where
    membership forces a condition mod 2, the word is first walked through
    the mod-2 table and dropped unless its class can pass; every word that
    survives is multiplied out exactly and kept iff the membership
    predicate accepts it.  Raises when the try budget runs out (longer
    words mix better mod small levels).
    """
    rng = random.Random(f"{seed}:{word_length}:{tag.kind}:{tag.level}")
    if word_length == 0:
        return SpMat.identity()
    choice = rng.choice
    passing = _passing_classes(tag)
    step = sp4f2_steps(_GENERATOR_ROWS) if passing is not None else None
    for _ in range(max_tries):
        word = [choice(_GENERATOR_INDICES) for _ in range(word_length)]
        if step is not None:
            c = 0
            for g in word:
                c = step[c][g]
            if not passing[c]:
                continue
        m = _GENERATORS[word[0]]
        for g in word[1:]:
            m = m * _GENERATORS[g]
        if subgroup_membership(m, tag):
            return m
    raise RuntimeError(
        f"no member of {tag} found in {max_tries} words of length {word_length}; "
        "try a larger word_length"
    )
