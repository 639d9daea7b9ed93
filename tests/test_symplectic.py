from __future__ import annotations

import random

import pytest

from siegelcy.numeric import conditioned_samples
from siegelcy.symplectic import (
    SpMat,
    Subgroup,
    cusp_form_character,
    is_symplectic,
    sample_element,
    subgroup_membership,
    theta_character,
)


# Every sampling generator has absolute row sums at most 2, so a word of
# length L has entries at most 2 ** L and that cap never rejects a sample.


def lower(c) -> SpMat:
    return SpMat.from_blocks(((1, 0), (0, 1)), ((0, 0), (0, 0)), c, ((1, 0), (0, 1)))


def test_identity_and_inversion_are_symplectic():
    assert is_symplectic(SpMat.identity().rows)
    assert is_symplectic(SpMat.inversion().rows)


def test_translation_requires_symmetric_block():
    assert is_symplectic(SpMat.translation(((1, 2), (2, 3))).rows)
    rows = [
        [1, 0, 1, 2],
        [0, 1, 0, 3],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]
    assert not is_symplectic(rows)
    with pytest.raises(ValueError):
        SpMat(rows)


def test_inverse_and_product():
    m = SpMat.translation(((1, 2), (2, 3))) * SpMat.inversion()
    assert m * m.inverse() == SpMat.identity()
    assert m.inverse() * m == SpMat.identity()


def test_membership_examples():
    m = lower(((2, 0), (0, 2)))
    assert subgroup_membership(m, Subgroup.principal(2))
    assert subgroup_membership(m, Subgroup.chi_kernel())  # 2 + 0 + 2 = 4

    m2 = lower(((2, 0), (0, 0)))
    assert subgroup_membership(m2, Subgroup.principal(2))
    assert not subgroup_membership(m2, Subgroup.chi_kernel())  # sum = 2

    ident = SpMat.identity()
    for tag in (Subgroup.full(), Subgroup.principal(2), Subgroup.principal(4),
                Subgroup.igusa(2), Subgroup.hecke(2), Subgroup.chi_kernel(),
                Subgroup.hecke_chi_kernel()):
        assert subgroup_membership(ident, tag)


def test_theta_character_values():
    assert theta_character(SpMat.identity()) == 1
    assert theta_character(lower(((2, 2), (2, 2)))) == -1  # (2+2+2)/2 = 3
    assert theta_character(lower(((2, 0), (0, 2)))) == 1   # (2+0+2)/2 = 2


def test_theta_character_rejects_odd_c():
    m = SpMat.inversion()  # C = E is not 0 mod 2
    with pytest.raises(ValueError):
        theta_character(m)


def test_theta_character_is_multiplicative():
    tag = Subgroup.hecke(2)
    pairs = conditioned_samples(tag, 200, seed=210, word_length=6, max_entry=2 ** 6)
    for i in range(0, 200, 2):
        a, b = pairs[i], pairs[i + 1]
        assert theta_character(a * b) == theta_character(a) * theta_character(b)


def test_cusp_form_character_is_multiplicative():
    tag = Subgroup.hecke(2)
    mats = conditioned_samples(tag, 60, seed=321, word_length=6, max_entry=2 ** 6)
    for i in range(0, 60, 2):
        a, b = mats[i], mats[i + 1]
        assert cusp_form_character(a * b) == cusp_form_character(a) * cusp_form_character(b)


MEMBER_TAGS = [
    Subgroup.full(),
    Subgroup.principal(2),
    Subgroup.hecke(2),
    Subgroup.chi_kernel(),
    Subgroup.hecke_chi_kernel(),
]


@pytest.mark.parametrize("tag", MEMBER_TAGS, ids=str)
def test_membership_closed_under_product_and_inverse(tag):
    mats = conditioned_samples(tag, 20, seed=77, word_length=8, max_entry=2 ** 8)
    rng = random.Random(7)
    for _ in range(100):
        a, b = rng.choice(mats), rng.choice(mats)
        assert subgroup_membership(a * b, tag)
        assert subgroup_membership(a.inverse(), tag)


def test_sampling_returns_members_and_is_deterministic():
    for seed in range(1, 21):
        m = sample_element(Subgroup.chi_kernel(), word_length=8, seed=seed)
        assert subgroup_membership(m, Subgroup.chi_kernel())
        again = sample_element(Subgroup.chi_kernel(), word_length=8, seed=seed)
        assert m == again


def test_word_length_zero_gives_identity():
    assert sample_element(Subgroup.full(), 0, seed=3) == SpMat.identity()


def test_budget_exhaustion_raises():
    with pytest.raises(RuntimeError, match="word_length"):
        sample_element(Subgroup.principal(4), word_length=1, seed=0, max_tries=5)


def test_chi_kernel_has_index_two():
    level2 = Subgroup.principal(2)
    kernel = Subgroup.chi_kernel()
    mats = conditioned_samples(level2, 200, seed=1234, word_length=8, max_entry=2 ** 8)
    nonmembers = [m for m in mats if not subgroup_membership(m, kernel)]
    members = [m for m in mats if subgroup_membership(m, kernel)]
    assert nonmembers and members
    rng = random.Random(0)
    for _ in range(50):
        a, b = rng.choice(nonmembers), rng.choice(nonmembers)
        assert subgroup_membership(a * b, kernel)


def test_igusa_subgroup_membership_and_closure():
    tag = Subgroup.igusa(2)
    # upper translation by 2S lies in the level-2 group for any symmetric S,
    # but in the even-diagonal refinement only when S has even diagonal
    assert subgroup_membership(SpMat.translation(((4, 2), (2, 4))), tag)
    assert not subgroup_membership(SpMat.translation(((2, 0), (0, 2))), tag)
    members = [
        SpMat.translation(((4, 2), (2, 4))),
        SpMat.lower_translation(((4, 0), (0, 8))),
        SpMat.translation(((0, 2), (2, 4))),
        SpMat.identity(),
    ]
    rng = random.Random(14)
    for _ in range(100):
        a, b = rng.choice(members), rng.choice(members)
        assert subgroup_membership(a * b, tag)
        assert subgroup_membership(a.inverse(), tag)


def test_chi_kernel_is_hecke_kernel_restricted_to_level_two():
    mats = conditioned_samples(Subgroup.principal(2), 80, seed=4321, word_length=8,
                               max_entry=2 ** 8)
    for m in mats:
        assert subgroup_membership(m, Subgroup.chi_kernel()) == (
            cusp_form_character(m) == 1
        )
