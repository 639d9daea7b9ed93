from __future__ import annotations

from collections import Counter

import pytest

from siegelcy.characteristics import (
    Char,
    PRODUCT_FORM_CHARS,
    STANDARD_SEXTUPLE,
    all_characteristics,
    all_sextuples,
    even_characteristics,
    odd_characteristics,
)
from siegelcy.modforms import (
    EXPECTED_BOUNDARY_DISTRIBUTION,
    RELATIONS,
    SUBSTITUTIONS,
    FormRegistry,
    boundary_orders,
    classical_residuals,
    q_parity_check,
    verify_identity,
)
from siegelcy import qseries
from siegelcy.qseries import (
    QSeries,
    koecher_check,
    negate_offdiag,
    product,
    translate_action,
)

N = 16


@pytest.fixture(scope="module")
def registry() -> FormRegistry:
    return FormRegistry(N)


def test_constant_terms_of_y_generators(registry):
    expected = [1, 1, 1, -1, -1, 1]
    got = [s.terms.get((0, 0, 0), 0) for s in registry.y]
    assert got == expected


def test_constant_terms_of_f_generators(registry):
    expected = [1, 0, 0, 0, 0, 1]
    got = [s.terms.get((0, 0, 0), 0) for s in registry.F]
    assert got == expected


def test_chi5_is_product_of_all_ten(registry):
    residual = verify_identity("chi5_product", registry)
    assert residual.is_zero()


def test_all_relations_have_zero_residual(registry):
    for name in RELATIONS:
        assert verify_identity(name, registry).is_zero(), name


def test_all_mutations_are_detected(registry):
    for name in RELATIONS:
        assert not verify_identity(name, registry, mutated=True).is_zero(), name


def test_unknown_relation_is_an_error(registry):
    with pytest.raises(KeyError):
        verify_identity("nonexistent", registry)


@pytest.fixture(scope="module")
def deep_registry() -> FormRegistry:
    return FormRegistry(32)


def test_named_forms_have_integer_coefficients(deep_registry):
    reg = deep_registry
    forms = [*(reg.theta[m] for m in even_characteristics()), *reg.y, *reg.f, *reg.F,
             *(reg.cusp_form(s) for s in all_sextuples()), reg.chi5]
    assert len(forms) == 10 + 6 + 4 + 6 + 15 + 1
    assert set(reg.theta) == set(all_characteristics())
    assert all(reg.theta[m].is_zero() for m in odd_characteristics())
    shared = shared_members(reg)
    assert len(shared) == 3 + 5 + 10 + 16 + 6 + 3
    for name, s in [*enumerate(forms), *shared.items()]:
        if name in [f"theta_squares[{_label(m)}]" for m in odd_characteristics()]:
            assert s.is_zero(), name
            continue
        assert s.terms, name
        assert all(isinstance(c, int) for c in s.terms.values()), name


def _label(m: Char) -> str:
    return f"{m.a1}{m.a2}{m.b1}{m.b2}"


def shared_members(reg: FormRegistry) -> dict[str, QSeries]:
    """Every product that relation sides share, by name, in the registry,
    those of its `Equations` methods included; reading them builds them."""
    out = {name: getattr(reg, name) for name in (
        "theta_product", "product_of_squares", "cusp_times_theta_product",
        "y5_square", "y5_pow4", "igusa_quadric", "igusa_quadric_square",
        "quartic_product")}
    out.update({f"f_products{k}": s for k, s in reg.f_products.items()})
    out.update({f"theta_squares[{_label(m)}]": s
                for m, s in reg.theta_squares.items()})
    out.update({f"x_squares[{i}]": s for i, s in enumerate(reg.x_squares)})
    out.update({f"x_quartic_parts[{i}]": s for i, s in enumerate(reg.x_quartic_parts)})
    return out


def _count_products(monkeypatch) -> list:
    """Record every series-by-series product from now on, at the packed
    kernel that `*`, `product()` and `**` all run through."""
    seen = []
    multiply = qseries._multiply

    def counting(a, b, layout):
        seen.append((a, b))
        return multiply(a, b, layout)

    monkeypatch.setattr(qseries, "_multiply", counting)
    return seen


def test_cusp_form_builds_only_its_own_sextuple(monkeypatch):
    reg = FormRegistry(N)
    seen = _count_products(monkeypatch)
    t_std = reg.cusp_form()
    assert len(seen) == 5
    assert reg.cusp_form(STANDARD_SEXTUPLE) is t_std
    assert len(seen) == 5
    for member in ("y", "F", "f", "theta_product", "chi5"):
        assert member not in vars(reg), member


def test_boundary_orders_build_only_the_sextuples(monkeypatch):
    reg = FormRegistry(N)
    seen = _count_products(monkeypatch)
    for s in all_sextuples():
        boundary_orders(s, reg)
    assert len(seen) == 15 * 5
    assert "y" not in vars(reg) and "F" not in vars(reg)


def test_x_equations_leave_y_unbuilt():
    # x5 is y5, and its square is made without reading y
    reg = FormRegistry(N)
    reg.x_quartic()
    reg.x_quadric()
    assert "y" not in vars(reg)


def test_mutated_sides_make_no_product(monkeypatch):
    # a mutated side reuses the genuine side's products: a scalar multiple
    # and a sum, never a series product
    reg = FormRegistry(N)
    for name in RELATIONS:
        assert verify_identity(name, reg).is_zero(), name
    seen = _count_products(monkeypatch)
    for name in RELATIONS:
        assert not verify_identity(name, reg, mutated=True).is_zero(), name
    assert len(seen) == 0


def _same(a: QSeries, b: QSeries) -> bool:
    return a.truncation == b.truncation and a.terms == b.terms


def test_shared_members_match_their_definitions(registry):
    reg = registry
    th, f = reg.theta, reg.f
    y5 = product(th[m] for m in PRODUCT_FORM_CHARS)
    fourth = {m: product([th[m], th[m], th[m], th[m]]) for m in th}
    y0, y1, y2 = (fourth[Char(0, 0, 1, 1)], fourth[Char(0, 0, 0, 1)],
                  fourth[Char(0, 0, 0, 0)])
    y3 = -fourth[Char(1, 0, 0, 0)] - fourth[Char(0, 0, 1, 1)]
    y4 = -fourth[Char(1, 0, 0, 1)] - fourth[Char(0, 0, 1, 1)]
    quadric = y0 * y1 + y0 * y2 + y1 * y2 - y3 * y4
    quartic_product = product([y0, y1, y2, y0 + y1 + y2 + y3 + y4])
    f1, f2, f3, f4 = f
    F = [product([f1, f1, f1, f1]) + product([f2, f2, f2, f2])
         + product([f3, f3, f3, f3]) + product([f4, f4, f4, f4]),
         product([f1, f1, f2, f2]) + product([f3, f3, f4, f4]),
         product([f1, f1, f3, f3]) + product([f2, f2, f4, f4]),
         product([f1, f1, f4, f4]) + product([f2, f2, f3, f3]),
         product([f1, f2, f3, f4]), y5]

    def P(i: int, j: int) -> QSeries:  # F_(i+1)^2 F_(j+1)^2
        return product([F[i], F[i], F[j], F[j]])

    expected = {
        "theta_product": y5,
        "product_of_squares": product(th[m] * th[m] for m in PRODUCT_FORM_CHARS),
        "cusp_times_theta_product": product(
            [*(th[m] for m in sorted(STANDARD_SEXTUPLE)), y5]),
        "y5_square": y5 * y5,
        "y5_pow4": product([y5, y5, y5, y5]),
        "igusa_quadric": quadric,
        "igusa_quadric_square": quadric * quadric,
        "quartic_product": quartic_product,
        "x_quartic_parts[0]": P(4, 4),
        "x_quartic_parts[1]": (-P(0, 4) - P(1, 2) - P(1, 3) - P(2, 3)
                               + 4 * P(1, 4) + 4 * P(2, 4) + 4 * P(3, 4)),
        "x_quartic_parts[2]": product(F[:4]),
    }
    expected.update({f"f_products{(i, j)}": f[i] * f[j]
                     for i in range(4) for j in range(i, 4)})
    expected.update({f"theta_squares[{_label(m)}]": th[m] * th[m]
                     for m in all_characteristics()})
    expected.update({f"x_squares[{i}]": F[i] * F[i] for i in range(6)})
    got = shared_members(reg)
    assert set(got) == set(expected)
    for name, series in expected.items():
        assert _same(got[name], series), name
    assert all(_same(a, b) for a, b in zip(reg.y, [y0, y1, y2, y3, y4, y5]))
    assert all(_same(a, b) for a, b in zip(reg.F, F))
    assert reg.y[5] is reg.F[5] is reg.theta_product
    assert reg.x is reg.F


def test_relations_leave_the_shared_members_unchanged():
    reg = FormRegistry(N)
    for name in RELATIONS:
        verify_identity(name, reg)
        verify_identity(name, reg, mutated=True)
    classical_residuals(reg)
    for s in all_sextuples():
        boundary_orders(s, reg)
    fresh = FormRegistry(N)
    used, clean = shared_members(reg), shared_members(fresh)
    for name in clean:
        assert _same(used[name], clean[name]), name
    for name in ("y", "f", "F"):
        assert all(_same(a, b) for a, b in zip(getattr(reg, name), getattr(fresh, name)))
    assert _same(reg.chi5, fresh.chi5)
    for s in all_sextuples():
        assert _same(reg.cusp_form(s), fresh.cusp_form(s))


def test_relations_stay_zero_and_nonvacuous_at_deeper_truncation(deep_registry):
    # the doubled-argument quartic has no support below combined weight 32,
    # so probe past it and insist every relation matches real coefficients
    deep = deep_registry
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
    assert lhs.terms.get((0, 0, 0), 0) == 4


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


def test_substitution_translations_keep_integer_coefficients(deep_registry):
    """Each translation of the substitution table gives every term of
    F1..F5 the phase +1 or -1, so its images are series over the integers."""
    translations = [matrix for _, kind, matrix in SUBSTITUTIONS if kind == "translate"]
    assert len(translations) == 3
    for matrix in translations:
        for source in deep_registry.F[:5]:
            image = translate_action(source, matrix)
            assert image.terms.keys() == source.terms.keys()
            assert all(type(c) is int for c in image.terms.values())
