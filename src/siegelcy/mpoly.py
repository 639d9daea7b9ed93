"""Sparse multivariate polynomials over Q and single-term rational 3-forms.

A polynomial fixes an ordered tuple of variable names and maps exponent
tuples to nonzero coefficients: an `int` when the coefficient is integral,
as almost every one here is, and a `Fraction` only when it is not.
Composition is a ring map of polynomials.  A rational quantity (a 3-form's
coefficient, the Jacobian of maps sharing one denominator) is carried as
an unreduced numerator/denominator pair of polynomials and compared by
cross-multiplication; the denominators stay monomial-like, so the missing
gcd never hurts.  A 3-form is pulled back along a polynomial chart map:
its differentials and their minors are polynomials.  Ideal membership is
decided degree by degree with sparse exact row reduction, fraction-free
over the integers, which covers everything needed in a 6-variable ring up
to degree 4.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import gcd, lcm
from operator import add

from .equations import determinant

Exponent = tuple[int, ...]


def _exact(value: int | Fraction) -> int | Fraction:
    """The value as an `int` when it is integral, else as a `Fraction`."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _times(a: dict, b: dict, into: dict) -> dict:
    """Add the product of the term dicts a and b into `into`, and return it."""
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            into[e] = into.get(e, 0) + c1 * c2
    return into


class MPoly:
    """A polynomial over Q in an ordered tuple of variables, its ring.

    `+`, `-` and `==` take a polynomial of the same ring: a sum with
    another ring raises ValueError and `==` reads False.  Any other operand
    is refused, so `MPoly + 1` raises TypeError and `==` against a
    non-polynomial reads False.  Scalars enter only through `*` and
    `MPoly.const`.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables: tuple[str, ...],
                 terms: dict[Exponent, int | Fraction]) -> None:
        self.vars = tuple(variables)
        self.terms = {e: c if type(c) is int else _exact(c)
                      for e, c in terms.items() if c}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables: tuple[str, ...]) -> MPoly:
        return cls(variables, {})

    @classmethod
    def const(cls, variables: tuple[str, ...], value: int | Fraction) -> MPoly:
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def var(cls, variables: tuple[str, ...], name: str) -> MPoly:
        idx = variables.index(name)
        e = [0] * len(variables)
        e[idx] = 1
        return cls(variables, {tuple(e): 1})

    @classmethod
    def ring(cls, variables: tuple[str, ...]) -> list[MPoly]:
        """The generators of Q[variables], in order."""
        return [cls.var(variables, v) for v in variables]

    # -- ring operations ----------------------------------------------

    def _check_ring(self, other: MPoly) -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other: MPoly) -> MPoly:
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check_ring(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return MPoly(self.vars, terms)

    def __neg__(self) -> MPoly:
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: MPoly) -> MPoly:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: MPoly | int | Fraction) -> MPoly:
        if isinstance(other, (int, Fraction)):
            c = _exact(other)
            return MPoly(self.vars, {e: c * v for e, v in self.terms.items()})
        self._check_ring(other)
        return MPoly(self.vars, _times(self.terms, other.terms, {}))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> MPoly:
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MPoly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self) -> int:
        if not self.is_homogeneous():
            raise ValueError("polynomial is not homogeneous")
        return self.total_degree()

    def coefficient(self, exponent: Exponent) -> int | Fraction:
        return self.terms.get(tuple(exponent), 0)

    # -- calculus and substitution --------------------------------------

    def partial(self, name: str) -> MPoly:
        idx = self.vars.index(name)
        terms: dict[Exponent, int | Fraction] = {}
        for e, c in self.terms.items():
            if e[idx] == 0:
                continue
            new_e = list(e)
            new_e[idx] -= 1
            terms[tuple(new_e)] = c * e[idx]
        return MPoly(self.vars, terms)

    def evaluate(self, values: dict[str, Fraction | int]) -> Fraction:
        total = Fraction(0)
        vals = [Fraction(values[v]) for v in self.vars]
        for e, c in self.terms.items():
            prod = c
            for i, k in enumerate(e):
                if k:
                    prod *= vals[i] ** k
            total += prod
        return total

    # -- display ---------------------------------------------------------

    def __repr__(self) -> str:
        return f"MPoly({self.vars!r}, {self.terms!r})"


class RingMap:
    """The ring map Q[source] -> Q[target] sending each assigned variable to
    its value, applied by calling it on polynomials of the source ring.

    The values are polynomials of one common ring, the target (the source
    itself when nothing is assigned); values from two rings, or anything
    that is not a polynomial (a `Fraction` included), are refused.  A
    variable without an assignment is an error, named, once a monomial
    that contains it is mapped.  The image of every monomial mapped is
    kept, the powers of each variable among them, so polynomials mapped by
    one map expand each shared monomial once.
    """

    __slots__ = ("source", "target", "_values", "_images")

    def __init__(self, source: tuple[str, ...], assignment: dict[str, MPoly]) -> None:
        values = list(assignment.values())
        if (any(type(v) is not MPoly for v in values)
                or len({v.vars for v in values}) > 1):
            raise ValueError("assignment values must be polynomials of one ring")
        self.source = tuple(source)
        self.target = values[0].vars if values else self.source
        self._values = assignment
        self._images: dict[Exponent, dict] = {
            (0,) * len(self.source): {(0,) * len(self.target): 1}}

    def _image(self, e: Exponent) -> dict:
        """The image of the monomial e: that of e with one factor of its
        last variable removed, times that variable's value."""
        image = self._images.get(e)
        if image is None:
            i = len(e) - 1
            while not e[i]:
                i -= 1
            name = self.source[i]
            if name not in self._values:
                raise KeyError(f"no assignment for variable {name!r}")
            lower = self._image(e[:i] + (e[i] - 1,) + e[i + 1:])
            # the value's own terms are read, never written
            image = self._images[e] = _times(lower, self._values[name].terms, {})
        return image

    def __call__(self, f: MPoly) -> MPoly:
        if f.vars != self.source:
            raise ValueError(f"variable mismatch: {f.vars} vs {self.source}")
        terms: dict[Exponent, int | Fraction] = {}
        for e, c in f.terms.items():
            for m, v in self._image(e).items():
                terms[m] = terms.get(m, 0) + c * v
        return MPoly(self.target, terms)


def linear_map(matrix, source_vars, target_vars) -> RingMap:
    """The ring map source_i -> sum_j matrix[i][j] * target_j."""
    units = [tuple(int(k == j) for k in range(len(target_vars)))
             for j in range(len(target_vars))]
    return RingMap(source_vars, {v: MPoly(target_vars, dict(zip(units, row)))
                                 for v, row in zip(source_vars, matrix)})


def monomials_of_degree(variables: tuple[str, ...], degree: int) -> list[Exponent]:
    """All exponent tuples of the given total degree, lexicographic, the
    largest first."""
    if degree < 0:
        return []
    n = len(variables)
    return sorted((tuple(c.count(i) for i in range(n))
                   for c in combinations_with_replacement(range(n), degree)),
                  reverse=True)


def _primitive(row: dict[int, int], pivot: int) -> dict[int, int]:
    """The row divided by its content, signed to a positive pivot entry."""
    g = gcd(*row.values())
    if row[pivot] < 0:
        g = -g
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _eliminate(row: dict[int, int], p: int, other: dict[int, int]) -> None:
    """row <- a*row - b*other, in place, with a/b = other[p]/row[p] in lowest
    terms, so that the entry at p cancels; entries that cancel are dropped."""
    g = gcd(other[p], row[p])
    a, b = other[p] // g, row[p] // g
    if a != 1:
        for c in row:
            row[c] *= a
    for c, v in other.items():
        x = row.get(c, 0) - b * v
        if x:
            row[c] = x
        else:
            del row[c]


def row_reduce(rows: list[dict[int, int | Fraction]]
               ) -> list[tuple[int, dict[int, Fraction]]]:
    """Reduced row echelon form of sparse rational rows.

    A row maps column indices to entries.  Returns the nonzero rows of the
    echelon form as (pivot, row) pairs in increasing pivot order: each row
    has entry 1 at its pivot, its smallest column, and no entry at any other
    row's pivot.  That form is unique, so it does not depend on the order
    of the input rows.  Rows are reduced one at a time against the basis
    built so far, touching only their nonzero entries.

    The elimination is fraction-free: each row is scaled to integers, and
    each basis row is kept primitive (content divided out, positive pivot
    entry), a multiple of its echelon row.  Entries become Fractions only
    in the returned rows, divided by their pivot entry.
    """
    basis: dict[int, dict[int, int]] = {}
    for given in rows:
        scale = lcm(*(v.denominator for v in given.values()))
        row = {c: v.numerator * (scale // v.denominator) for c, v in given.items() if v}
        # basis rows vanish at each other's pivots, so one pass clears them all
        for p in [c for c in row if c in basis]:
            _eliminate(row, p, basis[p])
        if not row:
            continue
        pivot = min(row)
        row = _primitive(row, pivot)
        for q, other in basis.items():
            if pivot in other:
                _eliminate(other, pivot, row)
                basis[q] = _primitive(other, q)
        basis[pivot] = row
    return [(p, {c: Fraction(v, row[p]) for c, v in row.items()})
            for p, row in sorted(basis.items())]


def solve_exact(columns: list[dict[int, Fraction]],
                target: list[Fraction]) -> list[Fraction] | None:
    """Solve sum_j c_j * columns[j] = target over Q; None if inconsistent.

    columns[j] maps row indices to the nonzero entries of column j.  The
    system is inconsistent iff the echelon form of the augmented matrix has
    a pivot on the target column; free unknowns are set to zero.
    """
    n = len(columns)
    rows: list[dict[int, Fraction]] = [{n: t} if t else {} for t in target]
    for j, column in enumerate(columns):
        for i, v in column.items():
            rows[i][j] = v
    solution = [Fraction(0)] * n
    for pivot, row in row_reduce(rows):
        if pivot == n:
            return None
        solution[pivot] = row.get(n, Fraction(0))
    return solution


def graded_membership(f: MPoly, gens: list[MPoly]) -> tuple[MPoly, ...] | None:
    """Decide membership of f in the ideal (gens) within f's graded degree.

    All inputs must be homogeneous.  The degree-d piece of the ideal is
    spanned by {g_i * m : m monomial of degree d - deg g_i}; membership is
    an exact linear solve against that span.  Returns cofactors q_i with
    sum q_i * g_i == f, None if f is not a member.  The cofactors are
    re-expanded here rather than trusted from the solver: a combination
    that does not re-expand to f raises `ArithmeticError`.
    """
    if not f.is_homogeneous():
        raise ValueError("membership input is not homogeneous")
    for g in gens:
        if not g.is_homogeneous():
            raise ValueError("ideal generator is not homogeneous")
        if g.vars != f.vars:
            raise ValueError("generator lives in a different ring")
    d = f.homogeneous_degree()
    rows = monomials_of_degree(f.vars, d)
    row_index = {e: i for i, e in enumerate(rows)}
    columns: list[dict[int, Fraction]] = []
    labels: list[tuple[int, Exponent]] = []
    for gi, g in enumerate(gens):
        if g.is_zero():
            continue
        dg = g.homogeneous_degree()
        if dg > d:
            continue
        for mono in monomials_of_degree(f.vars, d - dg):
            columns.append({row_index[tuple(a + b for a, b in zip(e, mono))]: c
                            for e, c in g.terms.items()})
            labels.append((gi, mono))
    target = [f.terms.get(e, 0) for e in rows]
    solution = solve_exact(columns, target)
    if solution is None:
        return None
    terms: list[dict[Exponent, Fraction]] = [{} for _ in gens]
    for coeff, (gi, mono) in zip(solution, labels):
        terms[gi][mono] = coeff
    cofactors = tuple(MPoly(f.vars, t) for t in terms)
    total = MPoly.zero(f.vars)
    for q, g in zip(cofactors, gens):
        total = total + q * g
    if total != f:
        raise ArithmeticError("membership cofactors do not re-expand to the polynomial")
    return cofactors


def two_row_rank(rows: list[list[MPoly]]) -> int:
    """Rank of a 2 x n polynomial matrix: 0 without a nonzero entry, else 1
    exactly when the n - 1 minors through the first nonzero entry vanish."""
    for r, row in enumerate(rows):
        for j, a in enumerate(row):
            if not a.is_zero():
                other = rows[1 - r]
                return 1 if all((a * other[k] - row[k] * other[j]).is_zero()
                                for k in range(len(row)) if k != j) else 2
    return 0


def rational_jacobian(numerators: list[MPoly], denominator: MPoly,
                      variables: list[str]) -> tuple[MPoly, MPoly]:
    """Jacobian determinant of the maps N_i / D with respect to `variables`,
    as an unreduced (numerator, denominator) pair.

    By the quotient rule each entry d(N_i/D)/dv_j is (dN_i D - N_i dD) / D^2,
    so the determinant is det(dN_i D - N_i dD) / D^(2n).
    """
    if len(numerators) != len(variables):
        raise ValueError("expected one map per variable")
    for p in (*numerators, denominator):
        if set(variables) != set(p.vars):
            raise ValueError("maps must be rational functions of exactly the given variables")
    rows = [[n.partial(v) * denominator - n * denominator.partial(v) for v in variables]
            for n in numerators]
    return determinant(rows), denominator ** (2 * len(variables))


class ThreeForm:
    """A single-term rational 3-form (num / den) * dv_a ^ dv_b ^ dv_c on a chart.

    The coefficient is an unreduced pair of polynomials: two forms are equal
    when their wedges agree and their coefficients cross-multiply equal,
    which is exact and avoids a multivariate gcd.  The wedge is three
    distinct chart variables in the chart's order, ValueError otherwise;
    every form the program builds is in that order.
    """

    __slots__ = ("vars", "num", "den", "wedge")

    def __init__(self, variables: tuple[str, ...], num: MPoly, den: MPoly,
                 wedge: tuple[str, str, str]) -> None:
        if num.vars != tuple(variables) or den.vars != tuple(variables):
            raise ValueError("coefficient lives in a different chart")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if len(wedge) != 3 or tuple(v for v in variables if v in wedge) != tuple(wedge):
            raise ValueError(f"wedge {wedge} is not three chart variables in chart order")
        self.vars = tuple(variables)
        self.num = num
        self.den = den
        self.wedge = tuple(wedge)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ThreeForm):
            return NotImplemented
        return (self.vars == other.vars and self.wedge == other.wedge
                and self.num * other.den == other.num * self.den)

    def __neg__(self) -> ThreeForm:
        return ThreeForm(self.vars, -self.num, self.den, self.wedge)

    def __repr__(self) -> str:
        return (f"({self.num!r} / {self.den!r}) "
                f"d{self.wedge[0]}^d{self.wedge[1]}^d{self.wedge[2]}")


def threeform_pullback(omega: ThreeForm, substitution: dict[str, MPoly],
                       target_vars: tuple[str, ...]) -> ThreeForm:
    """Pull a 3-form back along a polynomial chart map.

    Each source chart variable must be assigned a polynomial on the target
    chart.  The wedge differentials are expanded by the chain rule, so the
    pulled-back wedge is a sum of 3x3 polynomial minors of the map's
    partials, one for each three target columns.  The coefficient num/den
    becomes (num o phi) * minor over den o phi.  The expansion must
    collapse to a single wedge term on the target chart (true for all
    charts used here); a substitution with identically zero Jacobian yields
    the zero form rather than an error.
    """
    tv = tuple(target_vars)
    for v in omega.vars:
        if v not in substitution:
            raise KeyError(f"no substitution for chart variable {v!r}")
        if substitution[v].vars != tv:
            raise ValueError("substitution values must live on the target chart")
    along = RingMap(omega.vars, substitution)
    num, den = along(omega.num), along(omega.den)
    if den.is_zero():
        raise ZeroDivisionError("substitution collapses the coefficient denominator")
    differentials = [[substitution[w].partial(v) for v in tv] for w in omega.wedge]
    components: dict[tuple[str, str, str], MPoly] = {}
    for cols in combinations(range(len(tv)), 3):
        det = determinant([[row[c] for c in cols] for row in differentials])
        if not det.is_zero():
            components[tuple(tv[c] for c in cols)] = det
    if not components:
        return ThreeForm(tv, MPoly.zero(tv), MPoly.const(tv, 1), tv[:3])
    if len(components) > 1:
        raise ValueError("pullback does not collapse to a single wedge term")
    (wedge, jac), = components.items()
    return ThreeForm(tv, num * jac, den, wedge)
