"""The projective threefold cut out by the quartic/quadric pair, its
signed-monomial symmetry group, the distinguished rational 3-form, the 15
singular curves, and the symbolic Jacobian identities.

Two coordinate systems are carried, their equations written once in the
ring-generic `Equations`: the y-system from the even-weight ring generators
and the x-system from the doubled-argument generators, linked by an explicit
integer matrix (y5 = x5).  Every linear change of coordinates goes through
`substitute_linear`, and every composition through `MPoly.substitute`; the
x-side curve parametrizations use the inverse matrix times its common
denominator, so they keep integer coefficients.  All checks are exact: ideal
membership by graded linear algebra (for a curve ideal, after the quotient
by its linear generators), form pullbacks by the chain rule along polynomial
chart maps, curve singularity by identical vanishing of every 2x2 minor of
the Jacobian along a parametrization, formed from the Jacobian entries after
substitution.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations
from math import lcm, prod
from typing import NamedTuple

from .mpoly import (
    MPoly,
    ThreeForm,
    determinant,
    graded_membership,
    perm_sign,
    rational_jacobian,
    row_reduce,
    threeform_pullback,
)

Y_VARS = ("y0", "y1", "y2", "y3", "y4", "y5")
X_VARS = ("x0", "x1", "x2", "x3", "x4", "x5")


class Presentation(NamedTuple):
    variables: tuple[str, ...]
    quartic: MPoly
    quadric: MPoly

    def gens(self) -> list[MPoly]:
        return [self.quartic, self.quadric]


class Equations:
    """The threefold's quartic and quadric in y and in x, over any ring: the
    `MPoly` generators for the presentations, or the series y0..y5 and
    F1..F6 for the ring relations (`FormRegistry` is an `Equations` that
    builds y and x when an equation first reads them).  Each equation
    returns its (lhs, rhs) pair, with the coefficient a falsification
    control perturbs as c.  Every product that two sides, or a side and
    its perturbed copy, read is built once; squares are kept by base, so
    x5^2 is y5^2 where x5 is y5, and an x equation never reads y."""

    def __init__(self, y, x) -> None:
        self.y, self.x = y, x

    @cached_property
    def _squares(self) -> dict:
        """v^2 by id(v); y and x hold every base, so the ids stay unique."""
        return {}

    def _square(self, v):
        if id(v) not in self._squares:
            self._squares[id(v)] = v ** 2
        return self._squares[id(v)]

    @cached_property
    def y5_square(self):
        return self._square(self.y[5])

    @cached_property
    def y5_pow4(self):
        return self.y5_square ** 2

    @cached_property
    def igusa_quadric(self):
        """y0y1 + y0y2 + y1y2 - y3y4, made as y0(y1 + y2) + y1y2 - y3y4."""
        y0, y1, y2, y3, y4, _ = self.y
        return y0 * (y1 + y2) + y1 * y2 - y3 * y4

    @cached_property
    def igusa_quadric_square(self):
        return self.igusa_quadric ** 2

    @cached_property
    def quartic_product(self):
        """y0y1y2(y0 + y1 + y2 + y3 + y4)."""
        y0, y1, y2, y3, y4, _ = self.y
        return y0 * y1 * y2 * (y0 + y1 + y2 + y3 + y4)

    @cached_property
    def x_squares(self) -> list:
        """S_i = x_i^2."""
        return [self._square(v) for v in self.x]

    @cached_property
    def x_quartic_parts(self) -> tuple:
        """x4^4, the x-quartic's right side less its c term, x0x1x2x3."""
        S0, S1, S2, S3, S4, _ = self.x_squares
        x0, x1, x2, x3, _, _ = self.x
        return (S4 ** 2,
                -S0 * S4 - S1 * S2 - S1 * S3 - S2 * S3 + 4 * (S4 * (S1 + S2 + S3)),
                x0 * x1 * x2 * x3)

    def y_quartic(self, c: int = 1):
        """c y5^4 = y0y1y2(y0 + y1 + y2 + y3 + y4)."""
        return c * self.y5_pow4, self.quartic_product

    def y_quadric(self, c: int = 2):
        """c y5^2 = y0y1 + y0y2 + y1y2 - y3y4."""
        return c * self.y5_square, self.igusa_quadric

    def igusa_quartic(self, c: int = 4):
        """Igusa's (y0y1 + y0y2 + y1y2 - y3y4)^2 = c y0y1y2(y0 + ... + y4)."""
        return self.igusa_quadric_square, c * self.quartic_product

    def x_quartic(self, c: int = 1):
        """16x4^4 = -S0S4 - S1S2 - S1S3 - S2S3 + 4S4(S1 + S2 + S3) + c x0x1x2x3;
        c sits on x0x1x2x3, which starts at weight 16 on the forms, x4^4 at 32."""
        x4_pow4, rest, x_product = self.x_quartic_parts
        return 16 * x4_pow4, rest + c * x_product

    def x_quadric(self, c: int = 32):
        """x5^2 = x0^2 - 4x1^2 - 4x2^2 - 4x3^2 + c x4^2."""
        S0, S1, S2, S3, S4, S5 = self.x_squares
        return S5, S0 - 4 * S1 - 4 * S2 - 4 * S3 + c * S4


def _presentation(variables: tuple[str, ...], *names: str) -> Presentation:
    """The named quartic and quadric of `Equations` on the polynomial rings."""
    eq = Equations(MPoly.ring(Y_VARS), MPoly.ring(X_VARS))
    return Presentation(variables, *(lhs - rhs for lhs, rhs in
                                     (getattr(eq, name)() for name in names)))


def presentation_y() -> Presentation:
    return _presentation(Y_VARS, "y_quartic", "y_quadric")


def presentation_x() -> Presentation:
    return _presentation(X_VARS, "x_quartic", "x_quadric")


#: y = COORD_MATRIX * x on the first five coordinates, y5 = x5
COORD_MATRIX: tuple[tuple[int, ...], ...] = (
    (1, -2, -2, 2, 0, 0),
    (1, -2, 2, -2, 0, 0),
    (1, 2, 2, 2, 0, 0),
    (-1, 2, -2, -2, -8, 0),
    (-1, 2, -2, -2, 8, 0),
    (0, 0, 0, 0, 0, 1),
)


def _invert_fraction_matrix(rows) -> list[list[Fraction]]:
    """The inverse, read off the reduced echelon form of [M | I]."""
    n = len(rows)
    reduced = row_reduce([{**dict(enumerate(row)), n + i: 1}
                          for i, row in enumerate(rows)])
    if [pivot for pivot, _ in reduced] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [[row.get(n + j, Fraction(0)) for j in range(n)] for _, row in reduced]


def coord_matrix_det() -> int:
    return sum(perm_sign(p) * prod(row[j] for row, j in zip(COORD_MATRIX, p))
               for p in permutations(range(len(COORD_MATRIX))))


def substitute_linear(f: MPoly, matrix, source_vars, target_vars) -> MPoly:
    """Compose f(source) with source_i = sum_j matrix[i][j] * target_j."""
    units = [tuple(int(k == j) for k in range(len(target_vars)))
             for j in range(len(target_vars))]
    return f.substitute({v: MPoly(target_vars, dict(zip(units, row)))
                         for v, row in zip(source_vars, matrix)})


class CoordinateChangeReport(NamedTuple):
    #: c with image = c * quadric in each direction, None where that fails
    quadric_scalar: Fraction | None
    inverse_quadric_scalar: Fraction | None
    matrix_determinant: int
    #: name of the first step that does not hold, None when all four hold
    failed_step: str | None


def coordinate_change_check() -> CoordinateChangeReport:
    """Both presentations define the same ideal under the tabulated matrix.

    In each direction (y = COORD_MATRIX x, then x = COORD_MATRIX^-1 y) the
    image of each generator is a nonzero graded member of the other
    presentation's ideal.  In degree 2 that ideal is spanned by its quadric
    alone, so the quadric's image has one constant cofactor, the reported
    scalar.  Every step is computed; the report names the first one that
    fails.
    """
    pres_y, pres_x = presentation_y(), presentation_x()
    scalars: dict[str, Fraction] = {}
    failed: list[str] = []
    for prefix, matrix, source, target in (
            ("", COORD_MATRIX, pres_y, pres_x),
            ("inverse_", _invert_fraction_matrix(COORD_MATRIX), pres_x, pres_y)):
        for step, f in (("quadric_scalar_multiple", source.quadric),
                        ("quartic_membership", source.quartic)):
            image = substitute_linear(f, matrix, source.variables, target.variables)
            cofactors = graded_membership(image, target.gens())
            if cofactors is None or image.is_zero():
                failed.append(prefix + step)
            elif f is source.quadric:
                scalars[prefix] = cofactors[1].coefficient((0,) * len(target.variables))
    return CoordinateChangeReport(scalars.get(""), scalars.get("inverse_"),
                                  coord_matrix_det(), failed[0] if failed else None)


# -- signed monomial maps ---------------------------------------------------

class _SignedPermutation(NamedTuple):
    perm: tuple[int, ...]
    sign: tuple[int, ...]


class SignedMonomialMap(_SignedPermutation):
    """x_i -> sign[i] * x_perm[i], acting on polynomials by substitution."""

    __slots__ = ()

    def __new__(cls, perm: tuple[int, ...], sign: tuple[int, ...]) -> SignedMonomialMap:
        n = len(perm)
        if sorted(perm) != list(range(n)) or len(sign) != n:
            raise ValueError("not a signed permutation")
        if any(s not in (1, -1) for s in sign):
            raise ValueError("signs must be +1 or -1")
        return super().__new__(cls, perm, sign)

    @classmethod
    def _make(cls, iterable) -> SignedMonomialMap:
        """Validated like construction; `_replace` builds through it too."""
        return cls(*iterable)

    @classmethod
    def identity(cls, n: int = 6) -> SignedMonomialMap:
        return cls(tuple(range(n)), (1,) * n)

    @classmethod
    def sign_flip(cls, n: int, *indices: int) -> SignedMonomialMap:
        sign = [1] * n
        for i in indices:
            sign[i] = -1
        return cls(tuple(range(n)), tuple(sign))

    def __mul__(self, other: SignedMonomialMap) -> SignedMonomialMap:
        # composition of substitutions: applying other, then self
        perm = tuple(self.perm[other.perm[i]] for i in range(len(self.perm)))
        sign = tuple(other.sign[i] * self.sign[other.perm[i]] for i in range(len(self.perm)))
        return SignedMonomialMap(perm, sign)

    def inverse(self) -> SignedMonomialMap:
        n = len(self.perm)
        inv_perm = [0] * n
        for i, p in enumerate(self.perm):
            inv_perm[p] = i
        sign = tuple(self.sign[inv_perm[i]] for i in range(n))
        return SignedMonomialMap(tuple(inv_perm), sign)

    def perm_parity_on(self, indices: tuple[int, ...]) -> int:
        """Sign of the permutation restricted to an invariant index set."""
        position = {i: k for k, i in enumerate(indices)}
        return perm_sign(tuple(position[self.perm[i]] for i in indices))

    def negate_all(self) -> SignedMonomialMap:
        return SignedMonomialMap(self.perm, tuple(-s for s in self.sign))

    def apply(self, f: MPoly) -> MPoly:
        """Substitute x_i -> sign[i] * x_perm[i]; the pullback f o sigma.

        The monomial prod x_i^e_i goes to prod x_perm[i]^e_i, times -1 when
        the exponents of the negated variables have an odd sum.
        """
        if len(f.vars) != len(self.perm):
            raise ValueError("map and polynomial have different numbers of variables")
        source = sorted(range(len(self.perm)), key=self.perm.__getitem__)
        negated = [i for i, s in enumerate(self.sign) if s < 0]
        return MPoly(f.vars, {
            tuple(e[i] for i in source): -c if sum(e[i] for i in negated) % 2 else c
            for e, c in f.terms.items()
        })


def group_closure(generators: list[SignedMonomialMap],
                  bound: int = 10_000) -> set[SignedMonomialMap]:
    seen = {SignedMonomialMap.identity(len(generators[0].perm))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for g in frontier:
            for h in generators:
                p = g * h
                if p not in seen:
                    if len(seen) >= bound:
                        raise RuntimeError(f"closure exceeded the safety bound {bound}")
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return seen


def symmetry_generators() -> list[SignedMonomialMap]:
    """The three families: coordinate swaps of x1..x3 compensated by the
    last coordinate's sign on odd permutations, double sign flips inside
    x1..x3, and the sign flip of x4."""
    swap12 = SignedMonomialMap((0, 2, 1, 3, 4, 5), (1, 1, 1, 1, 1, -1))
    cycle = SignedMonomialMap((0, 2, 3, 1, 4, 5), (1,) * 6)
    flip12 = SignedMonomialMap.sign_flip(6, 1, 2)
    flip23 = SignedMonomialMap.sign_flip(6, 2, 3)
    flip4 = SignedMonomialMap.sign_flip(6, 4)
    return [swap12, cycle, flip12, flip23, flip4]


def ambient_group() -> set[SignedMonomialMap]:
    """Permutations of x1..x3 combined with all sign changes of x1..x5."""
    swap12 = SignedMonomialMap((0, 2, 1, 3, 4, 5), (1,) * 6)
    cycle = SignedMonomialMap((0, 2, 3, 1, 4, 5), (1,) * 6)
    flips = [SignedMonomialMap.sign_flip(6, i) for i in range(1, 6)]
    return group_closure([swap12, cycle] + flips)


def equation_invariance(g: SignedMonomialMap, pres: Presentation):
    """Signs (quartic, quadric) when g fixes both up to sign, else None."""
    signs = []
    for f in pres.gens():
        image = g.apply(f)
        if image == f:
            signs.append(1)
        elif image == -f:
            signs.append(-1)
        else:
            return None
    return tuple(signs)


# -- the distinguished 3-form ------------------------------------------------

OMEGA_CHART = ("u0", "u1", "u2", "u3", "u5")


def omega_form() -> ThreeForm:
    """The rational 3-form in the affine chart dividing by the 5th coordinate.

    The homogeneous expression has degree zero, so the chart loses nothing:
    with u_i = x_i / x_4 the coefficient is 1 / ((u1*u2*u3 - 2*u0) * u5).
    """
    u0, u1, u2, u3, u5 = MPoly.ring(OMEGA_CHART)
    return ThreeForm(OMEGA_CHART, MPoly.const(OMEGA_CHART, 1),
                     (u1 * u2 * u3 - 2 * u0) * u5, ("u1", "u2", "u3"))


_CHART_INDEX = {0: "u0", 1: "u1", 2: "u2", 3: "u3", 5: "u5"}


def chart_substitution(g: SignedMonomialMap) -> dict[str, MPoly]:
    """The induced substitution on the affine chart (requires x4 -> ±x4):
    u_i -> sign[i] * sign[4] * u_perm[i]."""
    if g.perm[4] != 4:
        raise ValueError("map must fix the 5th coordinate up to sign")
    return {name: g.sign[i] * g.sign[4] * MPoly.var(OMEGA_CHART, _CHART_INDEX[g.perm[i]])
            for i, name in _CHART_INDEX.items()}


def omega_pullback_sign(g: SignedMonomialMap) -> int:
    omega = omega_form()
    pulled = threeform_pullback(omega, chart_substitution(g), OMEGA_CHART)
    if pulled == omega:
        return 1
    if pulled == -omega:
        return -1
    raise ArithmeticError("pullback is not proportional to the form")


class OmegaStabilizerReport(NamedTuple):
    ambient_order: int
    equation_fixing_order: int
    stabilizer_order: int
    x4_flip_sign: int
    x4_x5_flip_sign: int
    x4_coset_description: str
    projective_order: int
    stabilizer: frozenset[SignedMonomialMap]


def omega_stabilizer() -> OmegaStabilizerReport:
    """Exhaustive scan of the ambient signed-permutation group.

    The subgroup fixing both defining equations has order 96; the pullback
    sign on the 3-form is a character of it whose kernel has order 48.
    The sign-flip of the 5th coordinate alone negates the form; composed
    with the last coordinate's flip it preserves it.
    """
    pres = presentation_x()
    ambient = ambient_group()
    fixing = [g for g in ambient if equation_invariance(g, pres) == (1, 1)]
    stab = [g for g in fixing if omega_pullback_sign(g) == 1]

    x4_flip = SignedMonomialMap.sign_flip(6, 4)
    x4_x5_flip = SignedMonomialMap.sign_flip(6, 4, 5)

    # in the x4-flip coset of the stabilizer the 5th-coordinate sign always
    # compensates the permutation parity
    coset = [g for g in stab if g.sign[4] == -1]
    compensated = all(
        g.sign[5] == -g.perm_parity_on((1, 2, 3)) for g in coset
    )
    description = ("every stabilizer element flipping the 4th coordinate also "
                   "flips the 5th relative to the permutation parity"
                   if compensated else "no uniform description found")

    neg_id = SignedMonomialMap.identity(6).negate_all()
    projective_order = len(stab) // 2 if neg_id in stab else len(stab)

    return OmegaStabilizerReport(
        ambient_order=len(ambient),
        equation_fixing_order=len(fixing),
        stabilizer_order=len(stab),
        x4_flip_sign=omega_pullback_sign(x4_flip),
        x4_x5_flip_sign=omega_pullback_sign(x4_x5_flip),
        x4_coset_description=description,
        projective_order=projective_order,
        stabilizer=frozenset(stab),
    )


# -- singular curves -----------------------------------------------------------

PARAM_VARS = ("t", "u")


class CurveRep(NamedTuple):
    """Ideal generators plus a two-parameter polynomial parametrization."""

    name: str
    ideal: tuple[MPoly, ...]
    param: tuple[MPoly, ...]


def quadric_curve_y() -> CurveRep:
    y0, y1, y2, y3, y4, y5 = MPoly.ring(Y_VARS)
    t, u = MPoly.ring(PARAM_VARS)
    ideal = (y0 + y4, y1 + y4, y3 - y4, y2 * y4 + y5 ** 2)
    param = (-(t ** 2), -(t ** 2), -(u ** 2), t ** 2, t ** 2, t * u)
    return CurveRep("quadric", ideal, param)


def line_curve_y() -> CurveRep:
    y0, y1, y2, y3, y4, y5 = MPoly.ring(Y_VARS)
    t, u = MPoly.ring(PARAM_VARS)
    ideal = (y0, y2, y3, y5)
    zero = MPoly.zero(PARAM_VARS)
    param = (zero, t, zero, zero, u, zero)
    return CurveRep("line", ideal, param)


def curve_to_x(curve: CurveRep) -> CurveRep:
    """Transport a y-curve to x-coordinates through the tabulated matrix.

    The parametrization goes through the inverse matrix times its common
    denominator: a parametrization is projective, so the points stay the
    same and the x-side parameters keep integer coefficients.
    """
    ideal = tuple(substitute_linear(f, COORD_MATRIX, Y_VARS, X_VARS)
                  for f in curve.ideal)
    inverse = _invert_fraction_matrix(COORD_MATRIX)
    scale = lcm(*(a.denominator for row in inverse for a in row))
    scaled = [[scale * a for a in row] for row in inverse]
    on_param = dict(zip(Y_VARS, curve.param))
    param = tuple(substitute_linear(x, scaled, X_VARS, Y_VARS).substitute(on_param)
                  for x in MPoly.ring(X_VARS))
    return CurveRep(curve.name, ideal, param)


def act_on_curve(g: SignedMonomialMap, curve: CurveRep) -> CurveRep:
    """Image curve: V(f o sigma_g) carries the points sigma_g^-1(P)."""
    ginv = g.inverse()
    ideal = tuple(g.apply(f) for f in curve.ideal)
    param = tuple(
        ginv.sign[i] * curve.param[ginv.perm[i]] for i in range(6)
    )
    return CurveRep(curve.name, ideal, param)


def _linear_quotient(curve: CurveRep):
    """The quotient by the ideal's linear generators: their reduced echelon
    form as (pivot, row) pairs, and the map x_p -> x_p - row_p(x) at each
    pivot p.  The map is idempotent, sends each linear generator to zero and
    leaves f - reduce(f) in their span, so f lies in the ideal exactly when
    reduce(f) lies in the ideal of the reduced generators."""
    variables = curve.ideal[0].vars
    rref = row_reduce([{e.index(1): c for e, c in f.terms.items()}
                       for f in curve.ideal if f.total_degree() == 1])
    pivots, n = dict(rref), len(variables)
    eliminate = [[int(i == j) - pivots.get(i, {}).get(j, 0) for j in range(n)]
                 for i in range(n)]
    return rref, lambda f: substitute_linear(f, eliminate, variables, variables)


def canonical_curve_key(curve: CurveRep):
    """Hashable invariant of the curve's ideal: the reduced echelon form of
    its linear generators, plus the nonzero images of the other generators
    in the linear quotient, each scaled to lead coefficient 1.  The linear
    generators themselves reduce to zero, so they are not substituted."""
    rref, reduce = _linear_quotient(curve)
    images = set()
    for f in map(reduce, [g for g in curve.ideal if g.total_degree() >= 2]):
        if not f.is_zero():
            f = f * Fraction(1, f.terms[min(f.terms)])
            images.add(tuple(sorted(f.terms.items())))
    return (tuple((p, tuple(sorted(row.items()))) for p, row in rref),
            tuple(sorted(images)))


class CurveCheckReport(NamedTuple):
    name: str
    param_satisfies_ideal: bool
    equations_in_ideal: bool
    minors_vanish: bool

    def all_ok(self) -> bool:
        return (self.param_satisfies_ideal and self.equations_in_ideal
                and self.minors_vanish)


def curve_checks(curve: CurveRep, pres: Presentation) -> CurveCheckReport:
    """Containment and singularity certificates along one curve.

    Containment is decided in the linear quotient: each defining equation,
    reduced modulo the ideal's linear generators, is a graded member of the
    reduced generators; for the fifteen curves only the quadric survives.
    Substitution is a ring map, so the 2x2 minors of the Jacobian along the
    parametrization are the minors of its entries along it: the entries are
    substituted first and the minors formed in the parameter ring.
    """
    assignment = dict(zip(pres.variables, curve.param))
    param_ok = all(f.substitute(assignment).is_zero() for f in curve.ideal)
    _, reduce = _linear_quotient(curve)
    quotient = [reduce(g) for g in curve.ideal]
    member_ok = all(graded_membership(reduce(f), quotient) is not None
                    for f in pres.gens())
    rows = [[f.partial(v).substitute(assignment) for v in pres.variables]
            for f in pres.gens()]
    minors_ok = all((rows[0][i] * rows[1][j] - rows[0][j] * rows[1][i]).is_zero()
                    for i, j in combinations(range(len(pres.variables)), 2))
    return CurveCheckReport(curve.name, param_ok, member_ok, minors_ok)


def curve_orbits(group: frozenset[SignedMonomialMap] | set[SignedMonomialMap],
                 seeds: list[CurveRep]) -> list[list[CurveRep]]:
    """Orbit decomposition of the seed curves, keyed by canonical ideals."""
    orbits: list[list[CurveRep]] = []
    seen: set = set()
    for seed in seeds:
        orbit: dict = {}
        for g in group:
            image = act_on_curve(g, seed)
            key = canonical_curve_key(image)
            if key not in orbit:
                orbit[key] = image
        keys = set(orbit)
        if keys & seen:
            raise ArithmeticError("orbits are not disjoint")
        seen |= keys
        orbits.append(list(orbit.values()))
    return orbits


#: a smooth rational point of the intersection, used as a rank-2 control
SMOOTH_CONTROL_POINT_Y = (
    Fraction(1), Fraction(1), Fraction(1, 2), Fraction(-1, 2), Fraction(0), Fraction(1),
)


def jacobian_rank_at(pres: Presentation, point) -> int:
    values = {v: point[i] for i, v in enumerate(pres.variables)}
    rows = [[f.partial(v).evaluate(values) for v in pres.variables]
            for f in pres.gens()]
    return len(row_reduce([dict(enumerate(r)) for r in rows]))


def point_on_variety(pres: Presentation, point) -> bool:
    values = {v: point[i] for i, v in enumerate(pres.variables)}
    return all(f.evaluate(values) == 0 for f in pres.gens())


# -- rational-map Jacobian identities --------------------------------------

G_VARS = ("g1", "g2", "g3")


def nested_radical_maps() -> tuple[list[MPoly], MPoly]:
    """The three symmetric combinations driving the coordinate change,
    g1g2/g3 + g3/(g1g2) and its two relabellings, as numerators over their
    common denominator g1g2g3."""
    g1, g2, g3 = MPoly.ring(G_VARS)
    return ([(g1 * g2) ** 2 + g3 ** 2, (g1 * g3) ** 2 + g2 ** 2, (g2 * g3) ** 2 + g1 ** 2],
            g1 * g2 * g3)


def jacobian_closed_form(scale: int = 4) -> tuple[MPoly, MPoly]:
    g1, g2, g3 = MPoly.ring(G_VARS)
    num = (scale * (g3 ** 2 - g1 ** 2 * g2 ** 2)
           * (g2 ** 2 - g1 ** 2 * g3 ** 2)
           * (g1 ** 2 - g2 ** 2 * g3 ** 2))
    return num, (g1 * g2 * g3) ** 4


def jacobian_identity_check(scale: int = 4) -> bool:
    num, den = rational_jacobian(*nested_radical_maps(), list(G_VARS))
    closed_num, closed_den = jacobian_closed_form(scale)
    return num * closed_den == closed_num * den


H_VARS = ("f1", "f2", "f3", "f4",
          "d01", "d02", "d03", "d04",
          "d11", "d12", "d13", "d14",
          "d21", "d22", "d23", "d24")


def _bordered_and_affine() -> tuple[MPoly, MPoly, MPoly]:
    """The bordered 4x4 determinant (functions in the top row), the
    numerator determinant of the affine Jacobian, and the f4 symbol.

    With quotient-rule entries (d_ij*f4 - f_j*d_i4)/f4^2 the affine
    Jacobian is affine_num / f4^6, so the comparison below is between
    bordered * f4^2 and a signed multiple of affine_num.
    """
    gens = {v: MPoly.var(H_VARS, v) for v in H_VARS}
    f = [gens[f"f{j}"] for j in range(1, 5)]
    d = [[gens[f"d{i}{j}"] for j in range(1, 5)] for i in range(3)]
    bordered = determinant([f, *d])
    f4 = f[3]
    numerators = [[d[i][j] * f4 - f[j] * d[i][3] for j in range(3)] for i in range(3)]
    return bordered, determinant(numerators), f4


def bordered_jacobian_sign() -> int | None:
    """Exact scalar s with bordered = s * f4^4 * affine Jacobian, else None.

    Expanding the bordered determinant along its function row shows
    s = -1 for this row placement (moving the function row below the
    partials, an odd rearrangement in four rows, flips it to +1).
    """
    bordered, affine_num, f4 = _bordered_and_affine()
    lhs = bordered * f4 ** 2
    if lhs == affine_num:
        return 1
    if lhs == -affine_num:
        return -1
    return None


# -- blow-up charts -----------------------------------------------------------

Z_VARS = ("z1", "z2", "z3")

#: dz1 ^ dz2 ^ dz3, the form both blow-up charts pull back
DZ = ThreeForm(Z_VARS, MPoly.const(Z_VARS, 1), MPoly.const(Z_VARS, 1), Z_VARS)

SignVector = tuple[int, int, int]


class BlowupChart(NamedTuple):
    name: str
    target_vars: tuple[str, str, str]
    #: substitution expressing the source coordinates on the blow-up chart;
    #: z1 = w * z2^e2 * z3^e3 for the new coordinate w, z2 and z3 kept
    substitution_monomials: dict[str, tuple[int, ...]]
    expected_zero_divisors: tuple[str, ...]
    group: tuple[SignVector, ...]
    expected_transformed: frozenset[SignVector]


def case1_chart() -> BlowupChart:
    return BlowupChart(
        name="line_blowup",
        target_vars=("w1", "z2", "z3"),
        substitution_monomials={"z1": (1, 1, 0), "z2": (0, 1, 0), "z3": (0, 0, 1)},
        expected_zero_divisors=("z2",),
        group=((1, 1, 1), (-1, -1, 1)),
        expected_transformed=frozenset({(1, 1, 1), (1, -1, 1)}),
    )


def case3_chart() -> BlowupChart:
    return BlowupChart(
        name="axis_blowup",
        target_vars=("u1", "z2", "z3"),
        substitution_monomials={"z1": (1, 1, 1), "z2": (0, 1, 0), "z3": (0, 0, 1)},
        expected_zero_divisors=("z2", "z3"),
        group=((1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1)),
        expected_transformed=frozenset({(1, 1, 1), (1, -1, 1), (1, 1, -1), (1, -1, -1)}),
    )


class BlowupReport(NamedTuple):
    name: str
    pullback_matches: bool
    zero_divisors: tuple[str, ...]
    transformed_group_matches: bool
    inverted_identity_holds: bool


def blowup_chart_check(chart: BlowupChart) -> BlowupReport:
    """Chain-rule pullback of dz1^dz2^dz3 and the transported group action.

    Also checks the inverted reading of the chart identity (the divisor
    coefficient moved to the source side), which the chain rule refutes;
    the report records that it fails rather than silently fixing it.  A
    sign vector (s1, s2, s3) acts on the new coordinate w = z1 / (z2^e2
    z3^e3) by s1 * s2^e2 * s3^e3.
    """
    tv = chart.target_vars
    subs = {z: MPoly(tv, {expo: 1}) for z, expo in chart.substitution_monomials.items()}
    pulled = threeform_pullback(DZ, subs, tv)
    divisor = MPoly(tv, {tuple(int(v in chart.expected_zero_divisors) for v in tv): 1})
    matches = pulled.num == divisor * pulled.den
    inverted_holds = pulled.num * divisor == pulled.den

    _, e2, e3 = chart.substitution_monomials["z1"]
    transformed = {(s1 * s2 ** e2 * s3 ** e3, s2, s3) for s1, s2, s3 in chart.group}
    group_ok = transformed == set(chart.expected_transformed)
    return BlowupReport(chart.name, matches, chart.expected_zero_divisors,
                        group_ok, inverted_holds)
