"""The projective threefold cut out by the quartic/quadric pair, its
signed-monomial symmetry group, the distinguished rational 3-form, the 15
singular curves, and the symbolic Jacobian identities.

Two coordinate systems are carried, their equations read from the
ring-generic `equations.Equations` on the `MPoly` generators: the y-system
from the even-weight ring generators and the x-system from the
doubled-argument generators, linked by an explicit integer matrix
(y5 = x5).  Every composition is a `RingMap`; the x-side curve
parametrizations use the inverse matrix times its common denominator, so
they keep integer coefficients.  All checks are exact: ideal membership by
graded linear algebra (for a curve ideal, after the quotient by its linear
generators), curve singularity by a Jacobian of rank exactly 1 along a
parametrization.  Signed permutations act by relabelling, on the 3-form
too, so chain-rule pullbacks now serve only the blow-up charts.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import permutations, product
from math import lcm, prod
from operator import itemgetter
from typing import NamedTuple

from .equations import Equations, determinant, perm_sign
from .mpoly import (
    MPoly,
    RingMap,
    ThreeForm,
    graded_membership,
    linear_map,
    rational_jacobian,
    row_reduce,
    threeform_pullback,
    two_row_rank,
)

Y_VARS = ("y0", "y1", "y2", "y3", "y4", "y5")
X_VARS = ("x0", "x1", "x2", "x3", "x4", "x5")


class Presentation(NamedTuple):
    variables: tuple[str, ...]
    quartic: MPoly
    quadric: MPoly

    def gens(self) -> list[MPoly]:
        return [self.quartic, self.quadric]


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


def _invert_fraction_matrix(rows: tuple[tuple[int, ...], ...]
                            ) -> tuple[tuple[Fraction, ...], ...]:
    """The inverse, read off the reduced echelon form of [M | I]."""
    n = len(rows)
    reduced = row_reduce([{**dict(enumerate(row)), n + i: 1}
                          for i, row in enumerate(rows)])
    if [pivot for pivot, _ in reduced] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return tuple(tuple(row.get(n + j, Fraction(0)) for j in range(n))
                 for _, row in reduced)


def coord_matrix_det() -> int:
    """The determinant of `COORD_MATRIX`, read when called."""
    return determinant(COORD_MATRIX)


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
        change = linear_map(matrix, source.variables, target.variables)
        for step, f in (("quadric_scalar_multiple", source.quadric),
                        ("quartic_membership", source.quartic)):
            image = change(f)
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

    def _relabelled(self, f: MPoly):
        """The terms of f o sigma: prod x_i^e_i goes to prod x_perm[i]^e_i,
        negated when the negated variables' exponents have an odd sum."""
        if len(f.vars) != len(self.perm):
            raise ValueError("map and polynomial have different numbers of variables")
        move, negated = _relabelling(self)
        return ((move(e), -c if sum(negated(e)) & 1 else c) for e, c in f.terms.items())

    def apply(self, f: MPoly) -> MPoly:
        """Substitute x_i -> sign[i] * x_perm[i]; the pullback f o sigma."""
        return MPoly(f.vars, dict(self._relabelled(f)))

    def fixing_sign(self, f: MPoly) -> int | None:
        """The s with f o sigma == s * f, else None; relabelling is one to one
        on monomials, so the first term off s * f decides."""
        sign = 0
        for e, c in self._relabelled(f):
            d = f.terms.get(e)
            s = 1 if d == c else -1 if d == -c else 0
            if not s or sign and s != sign:
                return None
            sign = s
        return sign or 1


@cache
def _relabelling(g: SignedMonomialMap):
    """The exponent mover and the negated-exponent reader of g, built once
    per map."""
    source = sorted(range(len(g.perm)), key=g.perm.__getitem__)
    # itemgetter of one index returns the entry, not a 1-tuple; and the
    # negated exponents are read after entry 0 twice, which keeps the
    # parity of their sum
    return (itemgetter(*source) if len(source) > 1 else tuple,
            itemgetter(0, 0, *(i for i, s in enumerate(g.sign) if s < 0)))


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


#: the named signed permutations: the sign flips, and every permutation of
#: x1..x3 compensated by the x5 sign on odd ones (permutation_abc sends x1,
#: x2, x3 to xa, xb, xc)
SYMMETRIES: dict[str, SignedMonomialMap] = {
    "double_flip_12": SignedMonomialMap.sign_flip(6, 1, 2),
    "double_flip_13": SignedMonomialMap.sign_flip(6, 1, 3),
    "double_flip_23": SignedMonomialMap.sign_flip(6, 2, 3),
    "flip_4_and_5": SignedMonomialMap.sign_flip(6, 4, 5),
    "flip_4_alone": SignedMonomialMap.sign_flip(6, 4),
    **{"permutation_%d%d%d" % p: SignedMonomialMap(
        (0, *p, 4, 5), (1,) * 5 + (perm_sign(tuple(i - 1 for i in p)),))
       for p in permutations((1, 2, 3))},
}


def symmetry_generators() -> list[SignedMonomialMap]:
    """The three families, by name from `SYMMETRIES`: the permutations of
    x1..x3 (a transposition and a 3-cycle) compensated by the last
    coordinate's sign on odd ones, double sign flips inside x1..x3, and the
    sign flip of x4."""
    return [SYMMETRIES[name] for name in ("permutation_213", "permutation_231",
                                          "double_flip_12", "double_flip_23",
                                          "flip_4_alone")]


def ambient_group() -> set[SignedMonomialMap]:
    """Permutations of x1..x3 combined with all sign changes of x1..x5:
    the 6 x 32 signed permutations, listed directly."""
    return {SignedMonomialMap((0, *p, 4, 5), (1, *signs))
            for p in permutations((1, 2, 3)) for signs in product((1, -1), repeat=5)}


def equation_invariance(g: SignedMonomialMap, pres: Presentation):
    """Signs (quartic, quadric) when g fixes both up to sign, else None."""
    signs = tuple(map(g.fixing_sign, pres.gens()))
    return None if None in signs else signs


# -- the distinguished 3-form ------------------------------------------------

OMEGA_CHART = ("u0", "u1", "u2", "u3", "u5")


@cache
def omega_form() -> ThreeForm:
    """The rational 3-form in the affine chart dividing by the 5th coordinate,
    built once per process.

    The homogeneous expression has degree zero, so the chart loses nothing:
    with u_i = x_i / x_4 the coefficient is 1 / ((u1*u2*u3 - 2*u0) * u5).
    """
    u0, u1, u2, u3, u5 = MPoly.ring(OMEGA_CHART)
    return ThreeForm(OMEGA_CHART, MPoly.const(OMEGA_CHART, 1),
                     (u1 * u2 * u3 - 2 * u0) * u5, ("u1", "u2", "u3"))


#: the coordinates x_i whose ratios u_i = x_i / x4 span the chart, in order
_CHART_COORDS = (0, 1, 2, 3, 5)


def omega_pullback_sign(g: SignedMonomialMap) -> int:
    """The s with g^* omega == s * omega.  On the chart g is the signed
    permutation u_i -> sign[i] * sign[4] * u_perm[i]: the chain rule relabels
    the coefficient, whose coprime numerator and denominator must each go to
    a sign times itself, and sends du_i to sign[i] * sign[4] * du_perm[i].
    """
    if g.perm[4] != 4:
        raise ValueError("map must fix the 5th coordinate up to sign")
    chart = SignedMonomialMap(tuple(_CHART_COORDS.index(g.perm[i]) for i in _CHART_COORDS),
                              tuple(g.sign[i] * g.sign[4] for i in _CHART_COORDS))
    omega = omega_form()
    wedge = [OMEGA_CHART.index(w) for w in omega.wedge]
    moved = [chart.perm[k] for k in wedge]
    signs = [chart.fixing_sign(omega.num), chart.fixing_sign(omega.den)]
    if None in signs or sorted(moved) != wedge:
        raise ArithmeticError("pullback is not proportional to the form")
    return (prod(signs) * prod(chart.sign[k] for k in wedge)
            * perm_sign(tuple(map(wedge.index, moved))))


class OmegaStabilizerReport(NamedTuple):
    ambient_order: int
    equation_fixing_order: int
    stabilizer_order: int
    x4_flip_sign: int
    x4_x5_flip_sign: int
    x4_coset: str
    projective_order: int
    stabilizer: frozenset[SignedMonomialMap]


def omega_stabilizer() -> OmegaStabilizerReport:
    """Exhaustive scan of the ambient signed-permutation group.

    The subgroup fixing both defining equations has order 96; the pullback
    sign on the 3-form is a character of it whose kernel has order 48.
    The sign-flip of the 5th coordinate alone (`flip_4_alone` of
    `SYMMETRIES`) negates the form; composed with the last coordinate's
    flip (`flip_4_and_5`) it preserves it.  Both flips fix the equations,
    so their signs are read off the scan.
    """
    pres = presentation_x()
    ambient = ambient_group()
    fixing = [g for g in ambient if equation_invariance(g, pres) == (1, 1)]
    signs = {g: omega_pullback_sign(g) for g in fixing}
    stab = [g for g in fixing if signs[g] == 1]

    # in the x4-flip coset of the stabilizer the 5th-coordinate sign always
    # compensates the permutation parity
    coset = [g for g in stab if g.sign[4] == -1]
    compensated = all(
        g.sign[5] == -g.perm_parity_on((1, 2, 3)) for g in coset
    )
    description = ("every stabilizer element flipping the 4th coordinate also "
                   "flips the 5th relative to the permutation parity"
                   if compensated else "no uniform description found")

    return OmegaStabilizerReport(
        ambient_order=len(ambient),
        equation_fixing_order=len(fixing),
        stabilizer_order=len(stab),
        x4_flip_sign=signs[SYMMETRIES["flip_4_alone"]],
        x4_x5_flip_sign=signs[SYMMETRIES["flip_4_and_5"]],
        x4_coset=description,
        # the ambient group never negates x0, so no scalar but 1 lies in
        # it and the stabilizer acts faithfully on P^5
        projective_order=len(stab),
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
    ideal = tuple(map(linear_map(COORD_MATRIX, Y_VARS, X_VARS), curve.ideal))
    inverse = _invert_fraction_matrix(COORD_MATRIX)
    scale = lcm(*(a.denominator for row in inverse for a in row))
    scaled = [[scale * a for a in row] for row in inverse]
    on_param = RingMap(Y_VARS, dict(zip(Y_VARS, curve.param)))
    to_y = linear_map(scaled, X_VARS, Y_VARS)
    param = tuple(on_param(to_y(x)) for x in MPoly.ring(X_VARS))
    return CurveRep(curve.name, ideal, param)


def _linear_quotient(curve: CurveRep):
    """The quotient by the ideal's linear generators: their reduced echelon
    form as (pivot, row) pairs, and the map x_p -> x_p - row_p(x) at each
    pivot p.  The map is idempotent, sends each linear generator to zero and
    leaves f - reduce(f) in their span, so f lies in the ideal exactly when
    reduce(f) lies in the ideal of the reduced generators.  It is one ring
    map, built on the first reduction, so a curve whose key reduces nothing
    (an ideal of linear generators only) never builds it."""
    variables = curve.ideal[0].vars
    rref = row_reduce([{e.index(1): c for e, c in f.terms.items()}
                       for f in curve.ideal if f.total_degree() == 1])
    eliminate: list[RingMap] = []

    def reduce(f: MPoly) -> MPoly:
        if not eliminate:
            pivots, n = dict(rref), len(variables)
            eliminate.append(linear_map(
                [[int(i == j) - pivots.get(i, {}).get(j, 0) for j in range(n)]
                 for i in range(n)], variables, variables))
        return eliminate[0](f)

    return rref, reduce


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
    param_satisfies_ideal: bool
    equations_in_ideal: bool
    jacobian_rank: int

    def all_ok(self) -> bool:
        return (self.param_satisfies_ideal and self.equations_in_ideal
                and self.jacobian_rank == 1)


def curve_checks(curve: CurveRep, pres: Presentation) -> CurveCheckReport:
    """Containment and singularity certificates along one curve.

    Containment is decided in the linear quotient: each defining equation,
    reduced modulo the ideal's linear generators, is a graded member of the
    reduced generators of degree 2 or more (the linear ones reduce to zero,
    as in `canonical_curve_key`); for the fifteen curves only the quadric
    survives.
    One ring map substitutes the parametrization into the ideal's
    generators and the Jacobian's entries.  The Jacobian's rank along the
    curve must be exactly 1: at most 1 is the singularity, and at least 1
    holds on all of P^5, as either quadric is nondegenerate; rank 0 means
    the substitution lost the curve.
    """
    along = RingMap(pres.variables, dict(zip(pres.variables, curve.param)))
    param_ok = all(along(f).is_zero() for f in curve.ideal)
    _, reduce = _linear_quotient(curve)
    quotient = [reduce(g) for g in curve.ideal if g.total_degree() >= 2]
    member_ok = all(graded_membership(reduce(f), quotient) is not None
                    for f in pres.gens())
    rank = two_row_rank([[along(f.partial(v)) for v in pres.variables]
                         for f in pres.gens()])
    return CurveCheckReport(param_ok, member_ok, rank)


def _up_to_sign(f: MPoly) -> frozenset:
    """The terms of f or of -f, whichever has a positive least term."""
    if f.terms and f.terms[min(f.terms)] < 0:
        f = -f
    return frozenset(f.terms.items())


def curve_orbits(group: frozenset[SignedMonomialMap] | set[SignedMonomialMap],
                 seeds: list[CurveRep]) -> list[list[CurveRep]]:
    """Orbit decomposition of the seed curves, keyed by canonical ideals:
    one key per image generator set up to sign, and a parametrization only
    for the curve each orbit keeps."""
    orbits: list[list[CurveRep]] = []
    seen: set = set()
    for seed in seeds:
        orbit: dict = {}
        keyed: set = set()
        for g in group:
            ideal = tuple(map(g.apply, seed.ideal))
            generators = frozenset(map(_up_to_sign, ideal))
            if generators not in keyed:
                keyed.add(generators)
                image = seed._replace(ideal=ideal)
                orbit.setdefault(canonical_curve_key(image), (g.inverse(), image))
        keys = set(orbit)
        if keys & seen:
            raise ArithmeticError("orbits are not disjoint")
        seen |= keys
        # V(f o sigma_g) carries the points sigma_g^-1(P)
        orbits.append([image._replace(param=tuple(
            s * seed.param[j] for s, j in zip(ginv.sign, ginv.perm)))
            for ginv, image in orbit.values()])
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
    pullback_matches: bool
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
    return BlowupReport(matches, group_ok, inverted_holds)
