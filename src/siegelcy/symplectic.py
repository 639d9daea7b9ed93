"""Integer symplectic 4x4 matrices, congruence subgroups, and characters.

Matrices are exact (Python integers).  The full group and its four
level-2 subgroups are one table, `_SUBGROUPS`: each subgroup is the
classes mod 2 its members reduce to (all of them, the identity, or
C = 0 mod 2) and, for the two index-two kernels, the character whose
kernel it is: the quadratic theta character (-1)^((alpha+beta+gamma)/2)
on C*tD, or that times the sign character of the mod-2 quotient.
Membership, the sampler's correction targets and its kernel fix all read
that table.  Members are sampled without search: a pseudo-random word in
a fixed generator set is walked through Sp(4, F_2), on the classes and
step table that `characteristics` builds, and the shortest word that
carries its class to a member's class is appended.  In the two kernels a
product outside the kernel is multiplied by one fixed coset
representative, `LOWER_TWOS`.
"""

from __future__ import annotations

import random
from functools import cache
from typing import NamedTuple

from .characteristics import (
    IDENTITY4,
    J4,
    mat_mul,
    mat_transpose,
    sp4f2_class,
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
    """The full group Sp(4, Z) or one of its four level-2 subgroups; what
    each one is, is written once, in `_SUBGROUPS`.  Any other pair of kind
    and level is refused (ValueError) wherever a subgroup is read."""

    kind: str
    level: int = 1

    @classmethod
    def full(cls) -> Subgroup:
        return cls("full")

    @classmethod
    def principal(cls) -> Subgroup:
        """Gamma2[2]: the identity mod 2."""
        return cls("principal", 2)

    @classmethod
    def hecke(cls) -> Subgroup:
        """Gamma2,0[2]: C = 0 mod 2."""
        return cls("hecke", 2)

    @classmethod
    def chi_kernel(cls) -> Subgroup:
        """Index-two kernel of the quadratic character inside level 2."""
        return cls("chi_kernel", 2)

    @classmethod
    def hecke_chi_kernel(cls) -> Subgroup:
        """Index-two kernel of the cusp-form character inside the level-2 Hecke group."""
        return cls("hecke_chi_kernel", 2)


def theta_character(m: SpMat) -> int:
    """(-1)^((alpha+beta+gamma)/2) on the level-2 Hecke group, where
    C tD = (alpha beta; beta gamma); ValueError unless C = 0 mod 2, which
    makes each of the six products below even."""
    if not subgroup_membership(m, Subgroup.hecke()):
        raise ValueError("character is only defined for C = 0 mod 2")
    (c00, c01, d00, d01), (c10, c11, d10, d11) = m.rows[2:]
    s = c00 * d00 + c01 * d01 + c00 * d10 + c01 * d11 + c10 * d10 + c11 * d11
    return -1 if s % 4 else 1


def cusp_form_character(m: SpMat) -> int:
    """Character of the weight-3 sextuple product on the level-2 Hecke group.

    Product of the quadratic theta character and the sign character of the
    mod-2 quotient (the unique nontrivial character of the full group,
    trivial on the principal level-2 subgroup).
    """
    return theta_character(m) * sp4f2_sign(m.rows)


def _is_identity(x: tuple[int, ...]) -> bool:
    return x == (0b1000, 0b0100, 0b0010, 0b0001)


def _has_even_c(x: tuple[int, ...]) -> bool:
    return (x[2] | x[3]) & 0b1100 == 0


#: each subgroup: a test of the classes mod 2 (their row masks, as
#: `characteristics.sp4f2_walk` keeps them) that its members reduce to, and
#: the character whose kernel it is among those, or None
_SUBGROUPS = {
    Subgroup.full(): (lambda x: True, None),
    Subgroup.principal(): (_is_identity, None),
    Subgroup.hecke(): (_has_even_c, None),
    Subgroup.chi_kernel(): (_is_identity, theta_character),
    Subgroup.hecke_chi_kernel(): (_has_even_c, cusp_form_character),
}


def _definition(tag: Subgroup):
    """The row of `_SUBGROUPS`; ValueError for any other subgroup."""
    try:
        return _SUBGROUPS[tag]
    except KeyError:
        raise ValueError(f"no subgroup {tag!r}: only the full group and level 2") from None


def subgroup_membership(m: SpMat, tag: Subgroup) -> bool:
    """Whether m lies in `tag`: the class mod 2 that m reduces to is one of
    the subgroup's, and the subgroup's character, if it has one, is 1 on m."""
    reduces_to, character = _definition(tag)
    classes = sp4f2_walk()[0]
    return (reduces_to(classes[sp4f2_class(m.rows)])
            and (character is None or character(m) == 1))


# -- sampling -----------------------------------------------------------

def _generators() -> list[SpMat]:
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
#: the product every sample's word is multiplied onto, checked once
_IDENTITY = SpMat.identity()


#: the all-twos lower translation: in Gamma2[2], so its sign character is 1,
#: and of theta character -1, it carries a product outside either index-two
#: kernel into that kernel
LOWER_TWOS = SpMat.from_blocks(((1, 0), (0, 1)), ((0, 0), (0, 0)),
                               ((2, 2), (2, 2)), ((1, 0), (0, 1)))


@cache
def _corrections(tag: Subgroup) -> tuple[tuple[int, ...], ...]:
    """corrections[c]: a shortest generator word w such that class c times w
    is a class that members of `tag` reduce to mod 2 (`_SUBGROUPS`).

    One breadth-first pass from those classes keeps each class's round, the
    length of its word, in a list indexed by class; a class's word is then
    the first generator into an earlier round followed by the word of the
    class it reaches.  ValueError for a subgroup outside `_SUBGROUPS`.
    """
    classes = sp4f2_walk()[0]
    reduces_to = _definition(tag)[0]
    word = {c: () for c, x in enumerate(classes) if reduces_to(x)}
    step = sp4f2_steps(_GENERATOR_ROWS)
    # breadth first along reversed steps: rounds[c] is the length of c's
    # word.  The generators are closed under inverses, so the classes one
    # step before t are the classes one step after it.
    order = list(word)
    rounds: list[int | None] = [None] * len(classes)
    for c in order:
        rounds[c] = 0
    for t in order:  # grows while it is walked
        after = rounds[t] + 1
        for c in step[t]:
            if rounds[c] is None:
                rounds[c] = after
                order.append(c)
    for c in order[len(word):]:  # the first generator into an earlier round
        targets, here = step[c], rounds[c]
        for g in _GENERATOR_INDICES:
            if rounds[targets[g]] < here:
                break
        word[c] = (g, *word[targets[g]])
    return tuple(word[c] for c in range(len(classes)))


def sample_element(tag: Subgroup, word_length: int, seed: int) -> SpMat:
    """Deterministic member of the subgroup, built from one random word.

    The seeded RNG draws `word_length` generators; the word's class mod 2
    is read off the step table and the shortest word to a member's class
    (`_corrections`) is appended, so a sample of the full group is the
    word itself.  The generators are multiplied onto `_IDENTITY`, whose
    symplectic relation is checked once, at import.  In a subgroup that
    `_SUBGROUPS` gives a character, a product outside its kernel is
    multiplied by `LOWER_TWOS`.  Every returned matrix has passed
    `subgroup_membership`; ArithmeticError if one does not.
    """
    corrections = _corrections(tag)
    rng = random.Random(f"{seed}:{word_length}:{tag.kind}:{tag.level}")
    word = [rng.choice(_GENERATOR_INDICES) for _ in range(word_length)]
    step = sp4f2_steps(_GENERATOR_ROWS)
    c = 0
    for g in word:
        c = step[c][g]
    m = _IDENTITY
    for g in (*word, *corrections[c]):
        m = m * _GENERATORS[g]
    character = _definition(tag)[1]
    if character is not None and character(m) != 1:
        m = m * LOWER_TWOS
    if not subgroup_membership(m, tag):
        raise ArithmeticError(f"sample {m} is not a member of {tag}")
    return m
