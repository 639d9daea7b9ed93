from __future__ import annotations

from collections import Counter

import pytest

from siegelcy.characteristics import (
    Char,
    STANDARD_SEXTUPLE,
    all_sextuples,
    even_characteristics,
)
from siegelcy.modforms import (
    EXPECTED_BOUNDARY_DISTRIBUTION,
    FormRegistry,
    boundary_orders,
    classical_residuals,
    q_parity_check,
    relation_names,
    verify_identity,
)
from siegelcy.qseries import koecher_check, negate_offdiag

N = 16


@pytest.fixture(scope="module")
def registry() -> FormRegistry:
    return FormRegistry(N)


def test_constant_terms_of_y_generators(registry):
    expected = [1, 1, 1, -1, -1, 1]
    got = [s.coefficient((0, 0, 0)) for s in registry.y]
    assert got == expected


def test_constant_terms_of_f_generators(registry):
    expected = [1, 0, 0, 0, 0, 1]
    got = [s.coefficient((0, 0, 0)) for s in registry.F]
    assert got == expected


def test_chi5_is_product_of_all_ten(registry):
    residual = verify_identity("chi5_product", registry)
    assert residual.is_zero()


def test_all_relations_have_zero_residual(registry):
    for name in relation_names():
        assert verify_identity(name, registry).is_zero(), name


def test_all_mutations_are_detected(registry):
    for name in relation_names():
        assert not verify_identity(name, registry, mutated=True).is_zero(), name


def test_unknown_relation_is_an_error(registry):
    with pytest.raises(KeyError):
        verify_identity("nonexistent", registry)


@pytest.fixture(scope="module")
def deep_registry() -> FormRegistry:
    return FormRegistry(32)


def test_named_forms_have_integer_coefficients(deep_registry):
    reg = deep_registry
    forms = [*reg.theta.values(), *reg.y, *reg.f, *reg.F,
             *reg.sextuple_products.values(), reg.chi5]
    assert len(forms) == 10 + 6 + 4 + 6 + 15 + 1
    for s in forms:
        assert s.terms
        assert all(isinstance(c, int) for c in s.terms.values())


def test_relations_stay_zero_and_nonvacuous_at_deeper_truncation(deep_registry):
    # the doubled-argument quartic has no support below combined weight 32,
    # so probe past it and insist every relation matches real coefficients
    deep = deep_registry
    from siegelcy.modforms import RELATIONS

    for name, rel in RELATIONS.items():
        lhs, rhs = rel.sides(deep)
        assert (lhs - rhs).is_zero(), name
        assert set(lhs.terms) | set(rhs.terms), f"{name} is vacuous at N=32"


def test_classical_relation_for_each_characteristic(registry):
    residuals = classical_residuals(registry)
    assert len(residuals) == 16
    for m, r in residuals.items():
        assert r.is_zero(), m


def test_igusa_quartic_constant_term_spot_check(registry):
    # (1 + 1 + 1 - 1)^2 = 4 = 4 * 1 * (1 + 1 + 1 - 1 - 1)
    y = registry.y
    lhs = (y[0] * y[1] + y[0] * y[2] + y[1] * y[2] - y[3] * y[4]) ** 2
    assert lhs.coefficient((0, 0, 0)) == 4


def test_sextuple_products(registry):
    t_std = registry.cusp_form(STANDARD_SEXTUPLE)
    assert t_std is registry.cusp_form()
    assert negate_offdiag(t_std) == -t_std
    for s in all_sextuples():
        assert koecher_check(registry.cusp_form(s))
    with pytest.raises(ValueError):
        boundary_orders(frozenset(list(even_characteristics())[:6]), registry)


def test_standard_sextuple_boundary_orders(registry):
    assert boundary_orders(STANDARD_SEXTUPLE, registry) == (1, 1, 1)


def test_all_boundary_orders_are_zero_or_one(registry):
    for s in all_sextuples():
        assert set(boundary_orders(s, registry)) <= {0, 1}


def test_boundary_distribution(registry):
    dist = Counter(boundary_orders(s, registry) for s in all_sextuples())
    assert dist == EXPECTED_BOUNDARY_DISTRIBUTION
    assert sum(dist.values()) == 15
    total_ones = sum(sum(k) * count for k, count in dist.items())
    assert total_ones == 9  # 3 from (1,1,1) plus 2 each from the mixed rows


def test_q_parity_on_unit_order_axes(registry):
    for axis in (0, 1, 2):
        assert q_parity_check(STANDARD_SEXTUPLE, axis, registry)
    for s in all_sextuples():
        ks = boundary_orders(s, registry)
        for axis in (0, 1, 2):
            if ks[axis] == 1:
                assert q_parity_check(s, axis, registry)
            else:
                with pytest.raises(ValueError):
                    q_parity_check(s, axis, registry)


def test_substitution_table_measured_values():
    from siegelcy.modforms import (
        TABULATED_SUBSTITUTION_TABLE,
        measured_substitution_table,
    )

    measured = measured_substitution_table(FormRegistry(32))
    # every image is identified as a signed generator
    for row in measured.values():
        assert all(entry is not None for entry in row)
    # the off-diagonal translation and both unimodular remaps agree with
    # the tabulated rows entry by entry
    for name in ("translate_offdiag", "swap_moduli", "shear"):
        assert measured[name] == TABULATED_SUBSTITUTION_TABLE[name]
    # both diagonal translations negate the four-fold product: its exponent
    # on the translated axis is 4 mod 8, so the phase is -1 (the tabulated
    # rows carry +1 there; the remaining four entries agree)
    for name in ("translate_z0", "translate_z2"):
        tabulated = TABULATED_SUBSTITUTION_TABLE[name]
        got = measured[name]
        assert got[:4] == tabulated[:4]
        assert got[4] == (-1, 5)
        assert tabulated[4] == (1, 5)


def test_weight_declarations_are_consistent():
    from fractions import Fraction

    from siegelcy.modforms import RELATIONS

    expected = {
        "igusa_quartic": Fraction(8),
        "product_quadric": Fraction(4),
        "y_quartic": Fraction(8),
        "y_quadric": Fraction(4),
        "classical_squares": Fraction(1),
        "second_kind_quartic": Fraction(8),
        "f6_quadric": Fraction(4),
        "chi5_product": Fraction(5),
    }
    assert {name: rel.weight for name, rel in RELATIONS.items()} == expected
