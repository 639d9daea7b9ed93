"""Named modular forms and the ring relations between them.

The registry holds, at one truncation bound, the sixteen theta constants
(the six odd ones expand to the zero series), the five Igusa generators
y0..y4 of the even-weight level-2 ring, the extra weight-2 form y5 (the
product of the four theta constants with upper characteristic zero), the
doubled-argument generators f1..f4 and their symmetric combinations
F1..F6, the fifteen weight-3 sextuple products, and the weight-5 product
of the ten even theta constants.  Only the thetas are built with the
registry; every other series is built the first time it is read, once per
registry.

Every relation is stored with a deliberately broken variant (one perturbed
coefficient) used as a falsification control: the suite must see a zero
residual on the genuine relation and a nonzero residual on the mutation.
The threefold's four equations are `equations.Equations`, the code of the
symbolic presentations too, and the registry is an `Equations` on y and F.
The products behind the sides are made once per registry, so a mutated
side costs a scalar multiple and a subtraction.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import Callable, NamedTuple

from .characteristics import (
    Char,
    PRODUCT_FORM_CHARS,
    STANDARD_SEXTUPLE,
    all_characteristics,
    divisor_orders,
    even_characteristics,
    is_syzygetic,
)
from . import qseries
from .equations import Equations
from .qseries import (
    QSeries,
    product,
    second_kind_qexp,
    translate_action,
    unimodular_action,
    vanishing_order,
)

#: the thetas whose fourth powers are y0, y1, y2, -y3 - y0 and -y4 - y0
Y_FOURTH_CHARS = (Char(0, 0, 1, 1), Char(0, 0, 0, 1), Char(0, 0, 0, 0),
                  Char(1, 0, 0, 0), Char(1, 0, 0, 1))

#: ordering of the doubled-argument characteristics behind f1..f4
SECOND_KIND_ORDER = ((0, 0), (1, 0), (0, 1), (1, 1))


class FormRegistry(Equations):
    """All named series at one truncation bound, each built once and shared.

    Only the thetas (`theta`) are built in `__init__`, for all sixteen
    characteristics: the six odd ones are expanded to the zero series, not
    assumed to vanish.  Every other member is built on first read and then
    kept, so a battery pays only for the series it reads:

    - the named forms `theta_product` (y5 = F6, shared by `y` and `F`),
      `y`, `f`, `F` and `chi5`;
    - the sextuple products: `cusp_form(s)` builds the sextuple s alone,
      so the boundary orders never build `y` or `F`;
    - the products that several relation sides read: those of the
      threefold's equations on y and on x_j = F_(j+1) (the registry is
      their `Equations`, so an x equation never builds `y`),
      `f_products` (F and every classical square relation),
      `theta_squares` (the classical squares and `product_of_squares`) and
      `cusp_times_theta_product` (both sides of chi5_product).

    Members are never changed after they are built; a side that needs a
    multiple of one builds a new series.
    """

    def __init__(self, truncation: int) -> None:
        if truncation < 4:
            raise ValueError("registry needs truncation at least 4")
        self.truncation = truncation
        self.theta = {m: qseries.theta_qexp(m, truncation)
                      for m in all_characteristics()}
        self._sextuples: dict[frozenset, QSeries] = {}

    # -- the named forms ---------------------------------------------------

    @cached_property
    def theta_product(self) -> QSeries:
        """The weight-2 form y5 = F6, product of the four a = 0 thetas."""
        return product(self.theta[m] for m in PRODUCT_FORM_CHARS)

    @cached_property
    def y(self) -> list[QSeries]:
        y0, y1, y2, t10_00, t10_01 = (self.theta[m] ** 4 for m in Y_FOURTH_CHARS)
        return [y0, y1, y2, -t10_00 - y0, -t10_01 - y0, self.theta_product]

    @cached_property
    def f(self) -> list[QSeries]:
        return [second_kind_qexp(a, self.truncation) for a in SECOND_KIND_ORDER]

    @cached_property
    def f_products(self) -> dict[tuple[int, int], QSeries]:
        """f_i * f_j for i <= j (indices from 0): the squares behind F and
        the products of every classical square relation."""
        f = self.f
        return {(i, j): f[i] * f[j] for i in range(4) for j in range(i, 4)}

    @cached_property
    def F(self) -> list[QSeries]:
        sq = [self.f_products[i, i] for i in range(4)]
        return [
            sq[0] ** 2 + sq[1] ** 2 + sq[2] ** 2 + sq[3] ** 2,
            sq[0] * sq[1] + sq[2] * sq[3],
            sq[0] * sq[2] + sq[1] * sq[3],
            sq[0] * sq[3] + sq[1] * sq[2],
            self.f_products[0, 1] * self.f_products[2, 3],
            self.theta_product,
        ]

    @property
    def x(self) -> list[QSeries]:
        """x_j = F_(j+1), the x generators of the equations."""
        return self.F

    @cached_property
    def chi5(self) -> QSeries:
        """The weight-5 form, product of all ten even thetas."""
        return product(self.theta[m] for m in even_characteristics())

    def cusp_form(self, sextuple=STANDARD_SEXTUPLE) -> QSeries:
        """The weight-3 product of the six thetas of a sextuple."""
        key = frozenset(sextuple)
        if key not in self._sextuples:
            self._sextuples[key] = product(self.theta[m] for m in sorted(key))
        return self._sextuples[key]

    # -- products that several relation sides read ---------------------------

    @cached_property
    def theta_squares(self) -> dict[Char, QSeries]:
        """theta[m]^2 for all sixteen characteristics."""
        return {m: theta ** 2 for m, theta in self.theta.items()}

    @cached_property
    def product_of_squares(self) -> QSeries:
        """The product of the squares of the four a = 0 thetas."""
        return product(self.theta_squares[m] for m in PRODUCT_FORM_CHARS)

    @cached_property
    def cusp_times_theta_product(self) -> QSeries:
        """The standard sextuple product times y5, which should be chi5."""
        return self.cusp_form() * self.theta_product


# -- relations ------------------------------------------------------------

class Relation(NamedTuple):
    name: str
    #: sides(registry, c): the two sides with one coefficient set to c,
    #: by default its genuine value; planted is c in the falsification control
    sides: Callable[..., tuple[QSeries, QSeries]]
    planted: int
    mutation_note: str
    #: smallest truncation at which every term of both sides has
    #: coefficients; below it a term's coefficient goes unchecked
    nonvacuous_from: int = 4


def _equation(name: str) -> Callable[..., tuple[QSeries, QSeries]]:
    """The sides of the `Equations` method `name` on the registry's forms."""
    return lambda reg, *c: getattr(reg, name)(*c)


def _product_quadric(reg: FormRegistry, c: int = 2) -> tuple[QSeries, QSeries]:
    return c * reg.product_of_squares, reg.igusa_quadric


def classical_relation_sides(reg: FormRegistry, m: Char,
                             scale: int = 1) -> tuple[QSeries, QSeries]:
    """theta[m]^2 against the signed sum of doubled-argument products.

    For odd m the left side is the zero series, so the relation asserts
    that the alternating sum of f-products cancels.
    """
    lhs = scale * reg.theta_squares[m]
    rhs = QSeries.zero(reg.truncation)
    index = {a: i for i, a in enumerate(SECOND_KIND_ORDER)}
    for x in SECOND_KIND_ORDER:
        ax = ((m.a1 + x[0]) % 2, (m.a2 + x[1]) % 2)
        term = reg.f_products[tuple(sorted((index[ax], index[x])))]
        sign = (-1) ** (m.b1 * x[0] + m.b2 * x[1])
        rhs = rhs + (term if sign > 0 else -term)
    return lhs, rhs


def classical_residuals(reg: FormRegistry) -> dict[Char, QSeries]:
    """Residual of the square relation for each of the 16 characteristics."""
    out = {}
    for m in all_characteristics():
        lhs, rhs = classical_relation_sides(reg, m)
        out[m] = lhs - rhs
    return out


def _classical_all(reg: FormRegistry, scale: int = 1) -> tuple[QSeries, QSeries]:
    # single-series convenience view: the per-characteristic residuals are
    # each zero (checked separately), so the plain sums must agree; the
    # mutation doubles one square and is caught immediately
    sides = [classical_relation_sides(reg, m, scale if k == 0 else 1)
             for k, m in enumerate(all_characteristics())]
    zero = QSeries.zero(reg.truncation)
    return sum((lhs for lhs, _ in sides), zero), sum((rhs for _, rhs in sides), zero)


def _chi5_product(reg: FormRegistry, sign: int = 1) -> tuple[QSeries, QSeries]:
    return sign * reg.cusp_times_theta_product, reg.chi5


RELATIONS: dict[str, Relation] = {
    r.name: r
    for r in [
        Relation("igusa_quartic", _equation("igusa_quartic"), 5,
                 "quartic coefficient 4 -> 5"),
        Relation("product_quadric", _product_quadric, 3, "product coefficient 2 -> 3"),
        Relation("y_quartic", _equation("y_quartic"), 2, "left side doubled"),
        Relation("y_quadric", _equation("y_quadric"), 3, "quadric coefficient 2 -> 3"),
        Relation("classical_squares", _classical_all, 2, "one square doubled"),
        Relation("second_kind_quartic", _equation("x_quartic"), 2,
                 "four-fold product coefficient 1 -> 2", 32),
        Relation("f6_quadric", _equation("x_quadric"), 33, "quadric coefficient 32 -> 33", 16),
        Relation("chi5_product", _chi5_product, -1, "product sign flipped", 8),
    ]
}


def verify_identity(name: str, registry: FormRegistry, mutated: bool = False) -> QSeries:
    """Residual series (left minus right); identically zero on success."""
    relation = RELATIONS[name]  # KeyError for an unknown name
    lhs, rhs = (relation.sides(registry, relation.planted) if mutated
                else relation.sides(registry))
    return lhs - rhs


# -- substitution actions on the weight-2 generators -------------------------

#: the five substitutions: three integer translations and two unimodular
#: index remaps
SUBSTITUTIONS: tuple[tuple[str, str, tuple], ...] = (
    ("translate_z0", "translate", ((1, 0), (0, 0))),
    ("translate_offdiag", "translate", ((0, 1), (1, 0))),
    ("translate_z2", "translate", ((0, 0), (0, 1))),
    ("swap_moduli", "unimodular", ((0, 1), (1, 0))),
    ("shear", "unimodular", ((1, 1), (0, 1))),
)

#: tabulated signed permutations of (F1..F5); an entry
#: (sign, j) at position i means the i-th generator is carried to sign * F_j
TABULATED_SUBSTITUTION_TABLE: dict[str, tuple[tuple[int, int], ...]] = {
    "translate_z0": ((1, 1), (-1, 2), (1, 3), (-1, 4), (1, 5)),
    "translate_offdiag": ((1, 1), (1, 2), (1, 3), (1, 4), (-1, 5)),
    "translate_z2": ((1, 1), (1, 2), (-1, 3), (-1, 4), (1, 5)),
    "swap_moduli": ((1, 1), (1, 3), (1, 2), (1, 4), (1, 5)),
    "shear": ((1, 1), (1, 2), (1, 4), (1, 3), (1, 5)),
}


#: truncation at which the substitution images are compared: every match
#: among +-F1..F5 is unique there, and the shear keeps generators built at
#: truncation 32 complete up to it
SUBSTITUTION_COMPARE_AT = 12


def measured_substitution_table(registry: FormRegistry) -> dict[str, tuple]:
    """Identify each transformed generator among +-F_j on expansions.

    The images of the registry's F1..F5 are compared with +-F_j at
    SUBSTITUTION_COMPARE_AT.  An entry is None unless exactly one of the
    ten signed generators matches: no match would signal a broken action,
    several (a generator vanishing at the bound) an undecidable one.  A
    translation that gives a term a non-real phase raises ValueError in
    `translate_action`, so its record fails rather than reading a row.
    """
    at = SUBSTITUTION_COMPARE_AT
    candidates = [(sign, j + 1, sign * registry.F[j].restrict(at))
                  for j in range(5) for sign in (1, -1)]
    table: dict[str, tuple] = {}
    for name, kind, matrix in SUBSTITUTIONS:
        row = []
        for source in registry.F[:5]:
            image = (translate_action(source, matrix) if kind == "translate"
                     else unimodular_action(source, matrix))
            if image.truncation < at:
                raise ValueError("registry truncation too small for the remap")
            image = image.restrict(at)
            found = [(sign, j) for sign, j, f in candidates if image == f]
            row.append(found[0] if len(found) == 1 else None)
        table[name] = tuple(row)
    return table


# -- boundary orders ---------------------------------------------------------

def boundary_orders(sextuple, registry: FormRegistry) -> tuple[int, int, int]:
    """Form orders along q_nu = 0 from the characteristic bits, cross-checked.

    On the level-8 grid the product of six thetas vanishes along q_nu to
    the summed bit order; that sum is even, halving moves to the level-4
    grid of the weight-3 form, and the differential form loses one more.
    A formula/series mismatch raises: it would mean an unexpected
    cancellation in the product expansion.
    """
    key = frozenset(sextuple)
    if not is_syzygetic([m for m in even_characteristics() if m not in key]):
        raise ValueError("not a sextuple complementary to a syzygetic quadruple")
    series = registry.cusp_form(key)
    ks = []
    for axis in (0, 1, 2):
        bit_sum = sum(divisor_orders(m)[axis] for m in key)
        measured = vanishing_order(series, axis)
        if measured != bit_sum:
            raise ArithmeticError(
                f"series order {measured} along axis {axis} disagrees with "
                f"bit sum {bit_sum}")
        if measured % 2 != 0:
            raise ArithmeticError("level-8 order is odd; level-4 rescaling invalid")
        ks.append(measured // 2 - 1)
    return tuple(ks)


EXPECTED_BOUNDARY_DISTRIBUTION = Counter({
    (0, 0, 0): 8,
    (1, 1, 1): 1,
    (0, 0, 1): 2,
    (0, 1, 0): 2,
    (1, 0, 0): 2,
})


def q_parity_check(sextuple, axis: int, registry: FormRegistry) -> bool:
    """With form order one along the axis, the level-4 exponents are all even.

    On the level-8 grid that says every stored exponent on the axis is
    divisible by 4; the series is then invariant under negating that
    coordinate on the level-4 grid.
    """
    series = registry.cusp_form(sextuple)
    if vanishing_order(series, axis) != 4:  # level-8 order 4 is form order one
        raise ValueError(f"axis {axis} does not have form order one")
    return all(n[axis] % 4 == 0 for n in series.terms)
