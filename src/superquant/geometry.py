"""Vector fields, symbol fields, and differential operators on R^{p|q}.

Three graded modules live here, all with exact rational coefficients:

* ``SuperVectorField`` — derivations X = sum X^i d/dy^i with polynomial
  components;
* ``SymbolField`` — degree-k polynomial symbols: polynomials in the
  coordinates and the frame vectors e_1..e_{p+q}, homogeneous of degree k in
  the frame vectors (odd frame vectors anticommute and square to zero),
  twisted by a density weight;
* ``DiffOperator`` — differential operators between density modules, kept in
  normal form: coefficients to the left of derivative monomials whose odd
  factors carry ascending indices, any sign having been folded into the
  coefficient.

A vector field, a symbol, a mixed symbol (a sum of symbols of several
degrees) or an operator is one term map: a ``SuperPolynomial`` over the
doubled signature (2p|2q) whose variables are the coordinates y and the slot
atoms, the frame vectors e of a symbol or the derivatives d of a field or an
operator; a field is the first-order operator sum_i X^i d_i.
A key is ``(xe + se, tmask | smask << q)``: the coordinate exponents, then the
slot exponents; the odd coordinates in mask bits 0..q-1, below the odd slot
atoms in bits q..2q-1.  Coordinate bits below slot bits put a coefficient to
the left of its slot monomial, so the term map of g e^B is the product
g * e^B and a key splits into a slot key and a coefficient key with no sign.
Every construction is then a few kernel calls: an interior product is a slot
derivative, a symmetric product a left product, the affine correspondence a
relabeling of the slot atoms, and normal ordering the Leibniz sum
d^alpha o M = sum_beta eps C d^{alpha-beta} * d_y^beta M (``_Leibniz``).
A term's parity is that of its odd mask, so one ``graded_parts`` serves
fields and operators, and a field's divergence is the symbol divergence of
its map, d read as e.

Both Lie derivatives share one first-order action on the doubled variables:
the lift of the field (X on the coordinates, its Jacobian rotating the slot
atoms) plus a weight times div X.  It is one call of the kernel's
``derive_terms``, sum_i C_i d_i P + W P in one pass over P.  The field's
coordinate derivation sum_i X^i d/dy^i is the part of the lift that acts
on the coordinates; ``SuperVectorField.apply`` and ``lie_density`` are
that derivation on a lifted function, and ``bracket`` is it on the maps of
two fields.  ``lie_symbol`` is the first-order action at the symbol's
weight.  ``lie_operator`` is that action at weight mu - lam plus a term of
lower order, the Leibniz terms of |beta| >= 2 of
sum_i X^i d_i and of |beta| >= 1 of lam div X; along an affine field that
term is empty, so there the two actions agree and the affine correspondence
intertwines them.  ``_symbol_lie_parts`` and ``_operator_lie_parts`` write
both actions as operators over the doubled variables, from one lift, for the
Casimirs to compose.  An operator is applied, and composed, in one nested
form of ``derive_terms`` passes (``_apply_form``).

Conventions that fix every sign below: odd derivatives act from the left;
an operator of odd parity passes a function coefficient g at the cost of
(-1)^{parity(g)}; the divergence of X = sum X^i d/dy^i is
sum_i (-1)^{parity(y^i) parity(X^i)} dX^i/dy^i.

Values are never mutated in place.  A vector field relies on this: what
``lie_symbol`` and ``lie_operator`` need of it alone (its lift to the doubled
variables and its divergence), and what ``apply`` and ``bracket`` need (its
coordinate derivation and its odd part), is computed on first use and kept
with the field, as an operator keeps the nested form ``apply`` runs.  A long
sum is built in a private dict with the kernel's ``add_into`` and wrapped
once at the end, so no value that a caller can see is ever changed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, prod
from operator import add, sub
from typing import Iterable, NamedTuple, Sequence

from .errors import DomainError
from .supercore import (
    Rational,
    Signature,
    SuperPolynomial,
    _canonical_key,
    _check_same_signature,
    _monomial_key,
    _ops,
    as_fraction,
    iter_monomials,
)

# ---------------------------------------------------------------------------
# the term-map layout


@cache
def _doubled(sig: Signature) -> Signature:
    """The signature (2p|2q) of the term maps over ``sig``."""
    return Signature(2 * sig.p, 2 * sig.q)


def _coord(sig: Signature, i: int) -> int:
    """Index of the coordinate y^i among the doubled variables."""
    return i if i <= sig.p else sig.p + i


def _slot(sig: Signature, i: int) -> int:
    """Index of the slot atom paired with y^i among the doubled variables."""
    return sig.p + i if i <= sig.p else sig.p + sig.q + i


@cache
def _unit(sig: Signature, i: int) -> tuple:
    """The slot key of the atom paired with y^i."""
    if i <= sig.p:
        return tuple(int(k == i - 1) for k in range(sig.p)), 0
    return (0,) * sig.p, 1 << (i - sig.p - 1)


def _lift(sig: Signature, f, slot=None) -> SuperPolynomial:
    """The term map of a superfunction f (or of its terms) times the slot
    monomial of the slot key ``slot``, by default none; no sign arises."""
    se, smask = slot or ((0,) * sig.p, 0)
    smask <<= sig.q
    return SuperPolynomial._raw(
        _doubled(sig), {(e + se, m | smask): c for (e, m), c in f.items()}
    )


def _unlift(sig: Signature, terms: dict) -> SuperPolynomial:
    """The superfunction of the terms of a term map with no slot atom."""
    p = sig.p
    return SuperPolynomial._raw(sig, {(e[:p], m): c for (e, m), c in terms.items()})


def _slot_monomial(sig: Signature, key, coeff: int = 1) -> SuperPolynomial:
    se, smask = key
    return SuperPolynomial._raw(
        _doubled(sig), {((0,) * sig.p + se, smask << sig.q): Fraction(coeff)}
    )


def _split(sig: Signature, poly: SuperPolynomial) -> dict:
    """A term map grouped by slot key: ``{(se, smask): {(xe, tmask): coeff}}``."""
    p, q = sig.p, sig.q
    low = (1 << q) - 1
    slots: dict = {}
    for (e, m), c in poly.items():
        slots.setdefault((e[p:], m >> q), {})[(e[:p], m & low)] = c
    return slots


def _join(sig: Signature, rows) -> SuperPolynomial:
    """The term map of rows ``(xe, tmask, se, smask, coeff)``; equal keys add up."""
    q = sig.q
    terms: dict = {}
    for xe, tmask, se, smask, c in rows:
        key = (xe + se, tmask | smask << q)
        terms[key] = terms.get(key, 0) + c
    return SuperPolynomial(_doubled(sig), terms)


def _nested(sig: Signature, terms) -> SuperPolynomial:
    """The term map of ``{slot key: coefficient}``; a coefficient is a
    superfunction or a rational."""
    rows = []
    for key, poly in terms.items():
        se, smask = _canonical_key(sig, key)
        if not isinstance(poly, SuperPolynomial):
            poly = SuperPolynomial.scalar(sig, poly)
        elif poly.signature != sig:
            raise ValueError("coefficient signature mismatch")
        rows += [(xe, tmask, se, smask, c) for (xe, tmask), c in poly.items()]
    return _join(sig, rows)


def _slot_degrees(sig: Signature, poly: SuperPolynomial) -> dict:
    """A term map split by slot degree: ``{degree: term map}``."""
    p, q = sig.p, sig.q
    by_degree: dict = {}
    for (e, m), c in poly.items():
        by_degree.setdefault(sum(e[p:]) + (m >> q).bit_count(), {})[(e, m)] = c
    return {k: SuperPolynomial._raw(poly.signature, t) for k, t in by_degree.items()}


def _key_degree(key) -> int:
    evens, mask = key
    return sum(evens) + mask.bit_count()


class _Graded:
    """The graded parts of a term map whose terms have the parity of their
    odd masks, as of an operator or a vector field, and the parity read off
    them."""

    __slots__ = ()

    def graded_parts(self) -> list:
        """Split into homogeneous values [(parity, value)], zeros omitted."""
        even, odd = self._poly.graded_parts()
        return [(par, self._with(part)) for par, part in ((0, even), (1, odd)) if part]

    def parity(self) -> int | None:
        parts = self.graded_parts()
        if not parts:
            return 0
        if len(parts) == 1:
            return parts[0][0]
        return None


class _TermMap:
    """Linear core shared by vector fields, symbols, mixed symbols and
    operators.

    ``_poly`` is the term map over the doubled signature.  Beside the
    signature each map carries the attributes named in ``_fields``; the ones
    named in ``_weights`` must agree in a sum.  The ones named in ``_cached``
    hold what is built from the map on first use, None until then.
    """

    __slots__ = ("signature", "_poly")
    _fields: tuple[str, ...]
    _weights: tuple[str, ...]
    _cached: tuple[str, ...] = ()

    @classmethod
    def _raw(cls, signature, *args):
        """The map with the values of ``_fields``, then the term map, in ``args``."""
        self = cls.__new__(cls)
        self.signature = signature
        *values, self._poly = args
        for name, value in zip(cls._fields, values):
            setattr(self, name, value)
        for name in cls._cached:
            setattr(self, name, None)
        return self

    def _with(self, poly: SuperPolynomial):
        return self._raw(
            self.signature, *[getattr(self, name) for name in self._fields], poly
        )

    def items(self):
        """``(slot key, coefficient)`` pairs: each slot monomial
        ``(even_exponents, odd_mask)`` with its superfunction coefficient."""
        sig = self.signature
        return [
            (key, SuperPolynomial._raw(sig, terms))
            for key, terms in _split(sig, self._poly).items()
        ]

    def is_zero(self) -> bool:
        return not self._poly

    def coefficient(self, evens: Iterable[int], odds: Iterable[int]) -> SuperPolynomial:
        key = _monomial_key(self.signature, evens, odds)
        terms = _split(self.signature, self._poly).get(key, {})
        return SuperPolynomial._raw(self.signature, terms)

    def _compatible(self, other) -> None:
        _check_same_signature(self, other)
        for name in self._weights:
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine != theirs:
                raise ValueError(f"{name} mismatch: {mine} vs {theirs}")

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._compatible(other)
        # a zero summand may carry any symbol degree: keep the other's
        return (self if self._poly else other)._with(self._poly + other._poly)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._compatible(other)
        return (self if self._poly else other)._with(self._poly - other._poly)

    def __neg__(self):
        return self._with(-self._poly)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._with(self._poly * other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        # equal nonzero symbol terms fix equal degrees; zero symbols of any
        # degree are equal
        return (
            self.signature == other.signature
            and all(getattr(self, n) == getattr(other, n) for n in self._weights)
            and self._poly == other._poly
        )

    __hash__ = None


# ---------------------------------------------------------------------------
# vector fields


class _FieldAction(NamedTuple):
    """The action data of a field X over the doubled variables.

    ``lift`` is X on the coordinates plus the rotation of the slot atoms,
    sum_ij J_ij e_j d/de_i with J_ij = s_i dX_chi^j/dy^i summed over the
    graded parts X_chi, where s_i = 1 when chi and y^i are both odd and -1
    otherwise.  So row i of the rotation is -d/dy^i of the field's term map,
    parity-twisted first when y^i is odd: a term's parity is chi.  It is
    kept in the form the kernel's ``derive_terms`` takes, the field's
    coordinate derivation followed by these rows.  ``div`` is div X; term by
    term it is the weighted trace sum_i -(-1)^{parity(y^i)} J_ii, so a
    density twist of weight w adds w div X.  Both are built once per field,
    by ``_field_action``.
    """

    lift: tuple
    div: SuperPolynomial


def _coordinate_rows(x: "SuperVectorField") -> list:
    """The coordinate derivation sum_i X^i d/dy^i as pairs (0-based position
    among the doubled variables, coefficient over them)."""
    sig = x.signature
    return [
        (_coord(sig, i) - 1, _lift(sig, comp))
        for i, comp in enumerate(x.components, start=1)
    ]


def _lift_rows(x: "SuperVectorField") -> list:
    """The lift of X in the same pairs: the coordinate derivation, then one
    rotation row per slot atom (see ``_FieldAction``)."""
    sig = x.signature
    minus = -x._poly
    twisted = minus.parity_twist()
    rows = _coordinate_rows(x)
    for i in range(1, sig.n + 1):
        row = (twisted if sig.parity(i) else minus).partial(_coord(sig, i))
        rows.append((_slot(sig, i) - 1, row))
    return rows


def _kernel_form(sig: Signature, rows) -> tuple:
    """Pairs (position, coefficient) in the form ``derive_terms`` takes."""
    return _ops.derivation(2 * sig.p, [(i, c._terms) for i, c in rows])


def _field_action(x: "SuperVectorField") -> _FieldAction:
    return _FieldAction(_kernel_form(x.signature, _lift_rows(x)), x._div())


def _first_order(action: _FieldAction, weight: Fraction, poly: SuperPolynomial) -> dict:
    """The terms of lift(X) P + weight div(X) P: the Lie derivative of a
    symbol of weight ``weight``, and the first-order part of that of an
    operator whose weights differ by ``weight``.  One ``derive_terms`` call
    with weight div(X) as the multiplier; the dict is the caller's own."""
    w = (weight * action.div)._terms if weight and action.div else None
    return _ops.derive_terms(poly._terms, action.lift, w)


def _component(sig: Signature, key) -> int:
    """The index i (1-based) of the derivative d_i whose slot key, of
    degree one, is ``key``."""
    se, smask = key
    return sig.p + smask.bit_length() if smask else se.index(1) + 1


class SuperVectorField(_TermMap, _Graded):
    """Polynomial derivation X = sum_i X^i d/dy^i.

    The term map is sum_i X^i d_i, of degree one in the derivatives d, and
    ``components`` reads the X^i off it.  A field must not be mutated: the
    data its Lie derivatives need is computed once, on first use, and kept
    in ``_action_data``, and so are its coordinate derivation in the
    kernel's form, which ``apply`` and ``bracket`` use, in ``_form``, and
    its odd graded part, which ``bracket`` uses, in ``_odd``.
    """

    __slots__ = _cached = ("_action_data", "_form", "_odd")
    _fields = _weights = ()

    def __init__(self, signature: Signature, components: Sequence):
        self.signature = signature
        comps = []
        for c in components:
            if not isinstance(c, SuperPolynomial):
                c = SuperPolynomial.scalar(signature, c)
            _check_same_signature(c, self)
            comps.append(c)
        if len(comps) != signature.n:
            raise ValueError(
                f"expected {signature.n} components, got {len(comps)}"
            )
        units = [_unit(signature, i) for i in range(1, signature.n + 1)]
        self._poly = _nested(signature, dict(zip(units, comps)))
        self._action_data = self._form = self._odd = None

    @property
    def components(self) -> tuple:
        """The components X^1..X^n, read off the term map."""
        sig = self.signature
        comps = [SuperPolynomial.zero(sig)] * sig.n
        for key, terms in _split(sig, self._poly).items():
            comps[_component(sig, key) - 1] = SuperPolynomial._raw(sig, terms)
        return tuple(comps)

    def _action(self) -> _FieldAction:
        """The lift and the divergence, built on first use."""
        data = self._action_data
        if data is None:
            # built whole, then stored in one assignment
            data = self._action_data = _field_action(self)
        return data

    def _derivation(self) -> tuple:
        """The kernel's form of the coordinate derivation sum_i X^i d/dy^i
        over the doubled variables, built on first use."""
        form = self._form
        if form is None:
            form = self._form = _kernel_form(self.signature, _coordinate_rows(self))
        return form

    def _odd_part(self) -> "SuperVectorField":
        """The odd graded part of the field, zero if it has none; split on
        first use."""
        if self._odd is None:
            self._odd = self._with(self._poly.graded_parts()[1])
        return self._odd

    def _div(self) -> SuperPolynomial:
        """div X over the doubled variables: ``symbol_divergence`` of the
        term map with d read as e, one ``divergence_terms`` pass."""
        sig, poly = self.signature, self._poly
        terms = _ops.divergence_terms(poly._terms, sig.p, sig.q)
        return SuperPolynomial._raw(poly.signature, terms)

    @classmethod
    def zero(cls, signature: Signature) -> "SuperVectorField":
        return cls._raw(signature, SuperPolynomial.zero(_doubled(signature)))

    @classmethod
    def euler(cls, signature: Signature) -> "SuperVectorField":
        """The Euler field sum_i y^i d/dy^i."""
        return cls(
            signature,
            [SuperPolynomial.coordinate(signature, i) for i in range(1, signature.n + 1)],
        )

    def apply(self, f: SuperPolynomial) -> SuperPolynomial:
        return self._derive(f)

    def _derive(self, f: SuperPolynomial, w: SuperPolynomial | None = None):
        """X(f) + w f, w over the doubled variables: one kernel pass over the
        lift of f."""
        _check_same_signature(self, f)
        sig = self.signature
        terms = _ops.derive_terms(
            _lift(sig, f)._terms, self._derivation(), w._terms if w else None
        )
        return _unlift(sig, terms)

    def divergence(self) -> SuperPolynomial:
        return _unlift(self.signature, self._div()._terms)

    def __repr__(self):
        return f"SuperVectorField({self.signature}, {list(self.components)!r})"

    def __str__(self):
        from . import expr

        return expr.format_vfield(self)


def bracket(x: SuperVectorField, y: SuperVectorField) -> SuperVectorField:
    """Super commutator of vector fields.

    Over the graded parts, [X, Y] = sum X_chi Y_eta - (-1)^{chi eta} Y_eta
    X_chi: only two odd parts anticommute, so

        [X, Y] = X(Y) - Y(X) + 2 Y_1(X_1),

    with X_1, Y_1 the odd parts, and X(Y) = sum_i X(Y^i) d_i the coordinate
    derivation of X on the term map of Y.  These are three kernel passes
    into one dict, or the first two when X or Y has no odd part; each
    field's kernel form and odd part are built once and kept with it.
    """
    _check_same_signature(x, y)
    acc = _ops.derive_terms(y._poly._terms, x._derivation())
    _ops.add_into(acc, _ops.derive_terms(x._poly._terms, y._derivation()), -1)
    xo, yo = x._odd_part(), y._odd_part()
    if xo._poly and yo._poly:
        odd = _ops.derive_terms(xo._poly._terms, yo._derivation())
        _ops.add_into(acc, odd)
        _ops.add_into(acc, odd)
    return x._with(SuperPolynomial._raw(x._poly.signature, acc))


def lie_density(x: SuperVectorField, lam: Rational, f: SuperPolynomial) -> SuperPolynomial:
    """Lie derivative of a density of weight lam along x."""
    return x._derive(f, as_fraction(lam) * x._div())


# ---------------------------------------------------------------------------
# symbol fields


class SymbolField(_TermMap):
    """Homogeneous degree-k symbol with a density twist.

    The term map is homogeneous of degree ``degree`` in the frame vectors;
    ``items()`` lists its frame monomials ``(even_exponents, odd_selection)``
    with their polynomial coefficients, each key satisfying
    ``sum(even_exponents) + |odd_selection| == degree``.
    """

    __slots__ = ("weight", "degree")
    _fields = ("weight", "degree")
    _weights = ("weight",)

    def __init__(self, signature: Signature, weight: Rational, degree: int, terms=None):
        if degree < 0:
            raise ValueError("symbol degree must be non-negative")
        self.signature = signature
        self.weight = as_fraction(weight)
        self.degree = degree
        self._poly = _nested(signature, terms or {})
        for key in _split(signature, self._poly):
            if _key_degree(key) != degree:
                raise ValueError(
                    f"frame monomial {key} has degree {_key_degree(key)}, expected {degree}"
                )

    @classmethod
    def zero(cls, signature: Signature, weight: Rational, degree: int) -> "SymbolField":
        return cls(signature, weight, degree, {})

    @classmethod
    def monomial(
        cls,
        signature: Signature,
        weight: Rational,
        evens: Iterable[int],
        odds: Iterable[int],
        coeff=1,
    ) -> "SymbolField":
        evens, mask = _monomial_key(signature, evens, odds, "odd frame index")
        degree = sum(evens) + mask.bit_count()
        if not isinstance(coeff, SuperPolynomial):
            coeff = SuperPolynomial.scalar(signature, coeff)
        return cls(signature, weight, degree, {(evens, mask): coeff})

    def scalar_poly(self) -> SuperPolynomial:
        """The coefficient of a degree-0 symbol as a plain superfunction."""
        if self.degree != 0:
            raise ValueError("scalar_poly requires a degree-0 symbol")
        return self.coefficient((0,) * self.signature.p, ())

    def _compatible(self, other: "SymbolField") -> None:
        super()._compatible(other)
        if self.degree != other.degree and not (self.is_zero() or other.is_zero()):
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    def scale_poly(self, f: SuperPolynomial) -> "SymbolField":
        """Left multiplication of the coefficients by a superfunction."""
        _check_same_signature(self, f)
        return self._with(_lift(self.signature, f) * self._poly)

    def vee(self, v: Sequence[Rational]) -> "SymbolField":
        """Symmetric product with a homogeneous frame vector (column)."""
        sig = self.signature
        vec = [as_fraction(c) for c in v]
        if len(vec) != sig.n:
            raise ValueError(f"expected {sig.n} vector components")
        if any(vec[: sig.p]) and any(vec[sig.p :]):
            raise ValueError("frame vector must be parity homogeneous")
        frame = SuperPolynomial.zero(_doubled(sig))
        for i, c in enumerate(vec, start=1):
            if c:
                frame = frame + c * _slot_monomial(sig, _unit(sig, i))
        return SymbolField._raw(sig, self.weight, self.degree + 1, frame * self._poly)

    def as_mixed(self) -> "MixedSymbol":
        return MixedSymbol._raw(self.signature, self.weight, self._poly)

    def __repr__(self):
        return (
            f"SymbolField({self.signature}, weight={self.weight}, "
            f"degree={self.degree}, {dict(self.items())!r})"
        )

    def __str__(self):
        from . import expr

        return expr.format_symbol(self)


class MixedSymbol(_TermMap):
    """A finite sum of symbols of distinct degrees at one weight.

    One term map, like a ``SymbolField`` but of any frame degrees: the
    total symbol of an operator is its term map with the derivatives read as
    frame vectors.  ``parts()``, ``part(k)`` and ``degrees()`` view the map
    split by frame degree; a sum, a difference or a scalar multiple is one
    kernel call on the map.
    """

    __slots__ = ("weight",)
    _fields = _weights = ("weight",)

    def __init__(self, signature: Signature, weight: Rational, parts=None):
        self.signature = signature
        self.weight = as_fraction(weight)
        poly = SuperPolynomial.zero(_doubled(signature))
        for k, field in (parts or {}).items():
            if field.is_zero():
                continue
            if field.signature != signature or field.weight != self.weight:
                raise ValueError("inconsistent part in mixed symbol")
            if field.degree != k:
                raise ValueError("part stored under wrong degree")
            poly = poly + field._poly
        self._poly = poly

    @classmethod
    def from_fields(
        cls, signature: Signature, weight: Rational, fields: Iterable[SymbolField]
    ) -> "MixedSymbol":
        out = cls(signature, weight, {})
        for f in fields:
            out = out + f.as_mixed()
        return out

    def _by_degree(self) -> dict:
        return _slot_degrees(self.signature, self._poly)

    def part(self, k: int) -> SymbolField:
        poly = self._by_degree().get(k)
        if poly is None:
            return SymbolField.zero(self.signature, self.weight, k)
        return SymbolField._raw(self.signature, self.weight, k, poly)

    def degrees(self) -> list[int]:
        return sorted(self._by_degree())

    def parts(self) -> list[SymbolField]:
        sig, w = self.signature, self.weight
        return [
            SymbolField._raw(sig, w, k, poly)
            for k, poly in sorted(self._by_degree().items())
        ]

    def _compatible(self, other: "MixedSymbol") -> None:
        if self.signature != other.signature or self.weight != other.weight:
            raise ValueError("signature or weight mismatch")

    def __add__(self, other):
        if isinstance(other, SymbolField):
            other = other.as_mixed()
        return super().__add__(other)

    def __sub__(self, other):
        if isinstance(other, SymbolField):
            other = other.as_mixed()
        return super().__sub__(other)

    def __eq__(self, other):
        if isinstance(other, SymbolField):
            other = other.as_mixed()
        return super().__eq__(other)

    __hash__ = None

    def __repr__(self):
        parts = {part.degree: part for part in self.parts()}
        return f"MixedSymbol({self.signature}, weight={self.weight}, {parts!r})"

    def __str__(self):
        from . import expr

        return expr.format_symbol(self)


# ---------------------------------------------------------------------------
# differential operators


class _Leibniz:
    """Normal ordering of d^alpha o M for one term map M, by the Leibniz rule

        d^alpha o M = sum_{beta <= alpha} eps C d^{alpha-beta} * d_y^beta M,

    where C = prod_{even i} binom(alpha_i, beta_i), eps is the sign of
    d^alpha = eps d^{alpha-beta} d^beta among the odd derivatives, and
    d_y^beta differentiates the coordinates of M, its odd factors ascending
    with the rightmost acting first.  Every factor of d^alpha either
    differentiates the coefficients of M or passes them to stand at the left
    of the derivative monomials; the term beta = 0 is the product d^alpha * M.
    The sum stops at the coordinate degree of M, and each even beta_i at
    the power of y^i in M: a beta beyond them has d_y^beta M = 0.

    Each derivative d_y^beta M is computed once and shared by the keys alpha
    of one call of ``lie_operator``, which makes and drops the object.
    """

    __slots__ = ("sig", "degree", "_powers", "_derivs")

    def __init__(self, sig: Signature, m: SuperPolynomial):
        self.sig = sig
        self.degree = _coordinate_degree(sig, m)
        # the highest power of each even coordinate in M
        self._powers = tuple(map(max, zip(*(e[: sig.p] for (e, _), _ in m.items()))))
        self._derivs = {((0,) * sig.p, 0): m}

    def derivative(self, beta) -> SuperPolynomial:
        """d_y^beta M for a slot key beta."""
        got = self._derivs.get(beta)
        if got is None:
            # peel the leftmost factor: the lowest even index, else the lowest odd one
            evens, mask = beta
            for ix, b in enumerate(evens):
                if b:
                    i, rest = ix + 1, (evens[:ix] + (b - 1,) + evens[ix + 1 :], mask)
                    break
            else:
                bit = mask & -mask
                i, rest = self.sig.p + bit.bit_length(), (evens, mask ^ bit)
            inner = self.derivative(rest)
            got = inner.partial(_coord(self.sig, i)) if inner else inner
            self._derivs[beta] = got
        return got

    def __call__(self, alpha, lowest: int = 0) -> SuperPolynomial:
        """d^alpha o M normal-ordered, less the terms with |beta| < ``lowest``."""
        sig = self.sig
        se, smask = alpha
        out: dict = {}
        top = min(self.degree, sum(se) + smask.bit_count())
        if lowest > top:
            return SuperPolynomial._raw(_doubled(sig), out)
        ranges = [range(min(a, r, top) + 1) for a, r in zip(se, self._powers)]
        for be in product(*ranges):
            even_order = sum(be)
            if even_order > top:
                continue
            rest = tuple(map(sub, se, be))
            binom = prod(map(comb, se, be))
            for bmask in _submasks(smask):
                if not lowest <= even_order + bmask.bit_count() <= top:
                    continue
                dm = self.derivative((be, bmask))
                if not dm:
                    continue
                rmask = smask ^ bmask
                if rmask or any(rest):
                    sign = _ops.odd_merge_sign(rmask, bmask)
                    dm = _slot_monomial(sig, (rest, rmask), sign * binom) * dm
                _ops.add_into(out, dm._terms)
        return SuperPolynomial._raw(_doubled(sig), out)


def _coordinate_degree(sig: Signature, m: SuperPolynomial) -> int:
    """The largest coordinate degree of the terms of a term map; -1 for zero."""
    p, low = sig.p, (1 << sig.q) - 1
    return max(
        (sum(e[:p]) + (mask & low).bit_count() for (e, mask), _ in m.items()),
        default=-1,
    )


def _submasks(mask: int):
    """Every mask whose bits lie in ``mask``, ``mask`` first."""
    part = mask
    while True:
        yield part
        if not part:
            return
        part = (part - 1) & mask


def _apply_form(p: int, terms: dict) -> tuple:
    """The nested form ``(multiplier, rows, derivation, deeper)`` of the
    operator sum_a f_a d^a given as ``{slot key a: terms of f_a}`` over a
    signature with p even coordinates: f_0 or None; the pairs (0-based
    position i, f_i) of the first-order terms, and the same in the kernel's
    ``derivation`` form; and each term of order two or more as f_a d^{a-b}
    in the subtree filed under its rightmost factor d_b, the highest odd one,
    else the highest even one, so that d^a = d^{a-b} d_b with no sign.
    """
    multiplier, rows, deeper = None, [], {}
    for (se, smask), coeff in terms.items():
        if smask:
            bit = smask.bit_length() - 1
            position, rest = p + bit, (se, smask ^ 1 << bit)
        elif any(se):
            ix = max(i for i, a in enumerate(se) if a)
            position, rest = ix, (se[:ix] + (se[ix] - 1,) + se[ix + 1 :], 0)
        else:
            multiplier = coeff
            continue
        if any(rest[0]) or rest[1]:
            deeper.setdefault(position, {})[rest] = coeff
        else:
            rows.append((position, coeff))
    deeper = [(i, _apply_form(p, sub)) for i, sub in deeper.items()]
    return multiplier, rows, _ops.derivation(p, rows), deeper


def _apply_forms(p: int, terms: dict, forms) -> dict:
    """The terms of sum_c c P(terms) over the pairs (c, nested form of P):
    one ``derive_terms`` pass with the multipliers and first-order rows,
    summed at the c, then the subtrees under each b, with their c, on d_b of
    the terms.  The dict is the caller's own."""
    if len(forms) == 1 and forms[0][0] == 1:
        multiplier, _, derivation, _ = forms[0][1]
    else:
        scale, add_into = _ops.scale_terms, _ops.add_into
        multiplier, rows = {}, {}
        for c, (w, form_rows, _, _) in forms:
            if w:
                add_into(multiplier, w if c == 1 else scale(w, c))
            for i, row in form_rows:
                add_into(rows.setdefault(i, {}), row if c == 1 else scale(row, c))
        derivation = _ops.derivation(p, rows.items())
    out = _ops.derive_terms(terms, derivation, multiplier)
    deeper: dict = {}
    for c, (_, _, _, subtrees) in forms:
        for i, sub in subtrees:
            deeper.setdefault(i, []).append((c, sub))
    for i, subs in deeper.items():
        if i < p:
            derived = _ops.partial_even_terms(terms, i)
        else:
            derived = _ops.partial_odd_terms(terms, 1 << (i - p))
        if derived:
            _ops.add_into(out, _apply_forms(p, derived, subs))
    return out


def _compose_terms(sig: Signature, form: tuple, q: dict) -> dict:
    """The terms of P o Q for the nested form of P and the term map q of Q:
    d_b o Q is d/dy^b Q + xi_b * Q over the doubled variables, xi_b the slot
    atom of d_b, so a node is one ``derive_terms`` pass over q, its rows on
    the coordinates and its terms of order at most one the multiplier, and
    each subtree runs on d_b o Q.  The dict is the caller's own."""
    p = sig.p
    multiplier, rows, _, deeper = form
    first = dict(_lift(sig, multiplier)._terms) if multiplier else {}
    coordinates = []
    for i, f in rows:
        first.update(_lift(sig, f, _unit(sig, i + 1))._terms)
        coordinates.append((i + p * (i >= p), _lift(sig, f)._terms))
    out = _ops.derive_terms(q, _ops.derivation(2 * p, coordinates), first)
    for i, sub in deeper:
        d_b = (None, [(i, {((0,) * p, 0): Fraction(1)})], None, ())  # d_b alone
        _ops.add_into(out, _compose_terms(sig, sub, _compose_terms(sig, d_b, q)))
    return out


class DiffOperator(_TermMap, _Graded):
    """Normal-form differential operator between density modules.

    ``items()`` lists derivative multi-indices ``(even_powers, odd_subset)``
    with the polynomial coefficients standing to their left; within a term
    the odd derivative factors carry ascending indices and the rightmost
    factor acts first.  An operator must not be mutated: the nested form
    that ``apply`` runs is built on first use and kept in ``_form``.
    """

    __slots__ = ("lam", "mu", "_form")
    _fields = _weights = ("lam", "mu")
    _cached = ("_form",)

    def __init__(self, signature: Signature, lam: Rational, mu: Rational, terms=None):
        self.signature = signature
        self.lam = as_fraction(lam)
        self.mu = as_fraction(mu)
        self._poly = _nested(signature, terms or {})
        self._form = None

    @classmethod
    def zero(cls, signature: Signature, lam: Rational, mu: Rational) -> "DiffOperator":
        return cls(signature, lam, mu, {})

    @classmethod
    def multiplication(
        cls, f: SuperPolynomial, lam: Rational, mu: Rational
    ) -> "DiffOperator":
        sig = f.signature
        return cls(sig, lam, mu, {((0,) * sig.p, 0): f})

    @property
    def order(self) -> int:
        return max(_slot_degrees(self.signature, self._poly), default=0)

    def _nested_form(self) -> tuple:
        """The nested form of the operator, built on first use."""
        form = self._form
        if form is None:
            sig = self.signature
            form = self._form = _apply_form(sig.p, _split(sig, self._poly))
        return form

    def apply(self, f: SuperPolynomial) -> SuperPolynomial:
        """Evaluate on a superfunction: the nested form, built once, run by
        ``_apply_forms``; no product of term maps is taken."""
        _check_same_signature(self, f)
        sig = self.signature
        terms = _apply_forms(sig.p, f._terms, [(1, self._nested_form())])
        return SuperPolynomial._raw(sig, terms)

    # -- composition -------------------------------------------------------

    def compose(self, other: "DiffOperator") -> "DiffOperator":
        """self o other (other acts first); weights must chain.

        The nested form of self runs on the term map of other
        (``_compose_terms``).
        """
        _check_same_signature(self, other)
        if self.lam != other.mu:
            raise ValueError(
                f"weight mismatch in composition: {self.lam} vs {other.mu}"
            )
        sig = self.signature
        out = _compose_terms(sig, self._nested_form(), other._poly._terms)
        return DiffOperator._raw(
            sig, other.lam, self.mu, SuperPolynomial._raw(_doubled(sig), out)
        )

    def __repr__(self):
        return (
            f"DiffOperator({self.signature}, lam={self.lam}, mu={self.mu}, "
            f"{dict(self.items())!r})"
        )

    def __str__(self):
        from . import expr

        return expr.format_operator(self)


def operators_agree(
    d1: DiffOperator, d2: DiffOperator, extra_degree: int = 3
) -> bool:
    """Evaluation oracle for operator equality.

    Applies both operators to every monomial of total degree up to the larger
    order plus ``extra_degree``; for polynomial coefficients of degree at most
    ``extra_degree`` this is equivalent to coefficient-wise equality.
    """
    if d1.signature != d2.signature:
        return False
    bound = max(d1.order, d2.order) + extra_degree
    for mono in iter_monomials(d1.signature, bound):
        if d1.apply(mono) != d2.apply(mono):
            return False
    return True


def density_operator(x: SuperVectorField, weight: Rational) -> DiffOperator:
    """The density Lie derivative along x as a first-order operator."""
    w = as_fraction(weight)
    return DiffOperator._raw(x.signature, w, w, w * x._div() + x._poly)


def lie_operator(x: SuperVectorField, d: DiffOperator) -> DiffOperator:
    """Lie derivative of an operator between density modules.

    For homogeneous pieces this is L^mu_X o D - (-1)^{parity(X) parity(D)}
    D o L^lam_X, extended additively.  It is the first-order action that
    ``lie_symbol`` applies, at weight mu - lam, plus a term of lower order.
    Let W = sum_i X^i d_i + lam div X, and let [d^a W] be the terms of
    order below |a| of d^a o W normal-ordered.  A normal-form term f d^a of
    D, with a the parity of d^a, maps to

        lift(X)(f d^a) + (mu - lam) div(X) f d^a - (-tau)^a ([d^a W] * f),

    tau being the parity twist.  The terms of order |a| + 1, d^a * W, cancel
    between the two compositions; those of order |a| are the first-order
    action: the rotation of the slot atoms in the lift (naturality of the
    principal symbol) and lam div X, the twist of weight lam taken out of
    mu.  So [d^a W] is the Leibniz sum of ``_Leibniz``,
    sum eps C d^{a-beta} * d_y^beta W, over |beta| >= 2 for sum_i X^i d_i
    and over |beta| >= 1 for lam div X, each stopping at the coordinate
    degree of its map: along an affine field it is empty.
    Moving f to the right of [d^a W] makes the super sign: for a graded part
    X_chi of X, [d^a W_chi] has parity chi + a.
    """
    _check_same_signature(x, d)
    sig = d.signature
    action = x._action()
    poly = d._poly
    out = _first_order(action, d.mu - d.lam, poly)
    sums = []
    if _coordinate_degree(sig, x._poly) >= 2:
        sums.append((_Leibniz(sig, x._poly), 2))
    if d.lam and _coordinate_degree(sig, action.div) >= 1:
        sums.append((_Leibniz(sig, d.lam * action.div), 1))
    if not sums:
        return d._with(SuperPolynomial._raw(poly.signature, out))
    for alpha, f in _split(sig, poly).items():
        terms = [push(alpha, lowest) for push, lowest in sums]
        below = sum(terms[1:], terms[0])
        if not below:
            continue  # [d^0 W] is empty, and so is [d^a W] if d^a kills W
        below = below * _lift(sig, f)
        if alpha[1].bit_count() & 1:
            _ops.add_into(out, below.parity_twist()._terms)
        else:
            _ops.add_into(out, below._terms, -1)
    return d._with(SuperPolynomial._raw(poly.signature, out))


def _slot_operator(sig2: Signature, coeffs: dict) -> DiffOperator:
    """The operator of weights 0 over the doubled signature ``sig2`` with
    the coefficients ``{slot key: coefficient}``, built unchecked."""
    q = sig2.q
    terms = {
        (e + se, m | smask << q): c
        for (se, smask), coeff in coeffs.items()
        for (e, m), c in coeff.items()
    }
    zero, sig4 = Fraction(0), _doubled(sig2)
    return DiffOperator._raw(sig2, zero, zero, SuperPolynomial._raw(sig4, terms))


def _symbol_lie_parts(x: SuperVectorField) -> tuple:
    """``lie_symbol`` along x as two operators on the term maps: over the
    doubled signature, acting on the map S of a symbol of weight w,
    L_X S = lift(X)(S) + w Phi(S), the lift in the rows of ``_lift_rows``
    and Phi = div X."""
    sig2 = _doubled(x.signature)
    lift = {_unit(sig2, i + 1): c for i, c in _lift_rows(x)}
    div = {((0,) * sig2.p, 0): x._div()}
    return _slot_operator(sig2, lift), _slot_operator(sig2, div)


def _operator_lie_parts(x: SuperVectorField) -> tuple:
    """``lie_operator`` along x as three operators on the term maps: over
    the doubled signature, acting on the map P of an operator D of weights
    lam, mu, L_X D = A(P) + (mu - lam) Phi(P) + lam B(P).

    x must be homogeneous of coordinate degree at most 2, as every realized
    projective field is.  Then the Leibniz sum of ``lie_operator`` has only
    its terms |beta| = 2 for W = sum_i X^i d_i and |beta| = 1 for div X, and
    each is a slot derivative of P: moved to the normal order of f d^a and
    twisted by -(-tau)^a, the term eps C d^{a-beta} * d_y^beta W of f d^a
    is -(-1)^{|X| |beta|} d_y^beta W times d_xi^beta (f d^a) / (beta! D),
    whatever f and a, xi being the slot atoms and |beta| the parity of
    beta; D = -1 when both atoms are odd (the left derivatives
    anticommute), else 1.  So, with a <= b coordinates and the odd a = b
    left out (d_xi_a d_xi_a = 0),

        A = lift(X) + sum_{a<=b} N_ab d_xi_a d_xi_b,
        N_ab = s_ab d_y_a d_y_b W (d_y_b first), halved when a = b,
        Phi = div X,   B = sum_j s_j (d_y_j div X) d_xi_j,

    where s_ab = +1 when y^a and y^b are both odd, -(-1)^{|X|} when one is,
    and -1 when neither is; s_j = -(-1)^{|X|} for odd y^j and -1 otherwise.
    The lift and Phi are the parts of ``_symbol_lie_parts``.
    """
    sig = x.signature
    par = x._poly.parity()
    if par is None or _coordinate_degree(sig, x._poly) > 2:
        raise DomainError(
            "the operator action as slot derivatives needs a homogeneous field "
            "of coordinate degree at most 2"
        )
    sig2 = _doubled(sig)
    s = 1 if par else -1
    lift, phi = _symbol_lie_parts(x)
    n_terms, b_terms = {}, {}
    for b in range(1, sig.n + 1):
        wb = x._poly.partial(_coord(sig, b))
        odd_b = sig.parity(b)
        for a in range(1, b + 1) if wb else ():
            odd_a = sig.parity(a)
            if a == b and odd_a:
                continue
            sign = 1 if odd_a and odd_b else s if odd_a or odd_b else -1
            n_ab = wb.partial(_coord(sig, a))
            if n_ab:
                (ea, ma), (eb, mb) = (_unit(sig2, _slot(sig, v)) for v in (a, b))
                key = tuple(map(add, ea, eb)), ma | mb
                n_terms[key] = n_ab * (Fraction(sign, 2) if a == b else sign)
    div = x._div()
    for j in range(1, sig.n + 1):
        c = div.partial(_coord(sig, j)) * (s if sig.parity(j) else -1)
        b_terms[_unit(sig2, _slot(sig, j))] = c
    return lift + _slot_operator(sig2, n_terms), phi, _slot_operator(sig2, b_terms)


# ---------------------------------------------------------------------------
# the tensor action on symbols


def lie_symbol(x: SuperVectorField, s: SymbolField) -> SymbolField:
    """Lie derivative of a twisted symbol field along x.

    Transports the coordinates along x and rotates the frame vectors through
    the Jacobian of x, the lift of x to the doubled variables, and adds the
    density-twist contribution ``s.weight`` div X.
    """
    if x.signature != s.signature:
        raise ValueError("signature mismatch")
    terms = _first_order(x._action(), s.weight, s._poly)
    return s._with(SuperPolynomial._raw(s._poly.signature, terms))


def interior(h: Sequence[Rational], s: SymbolField) -> SymbolField:
    """Contraction of a symbol with a homogeneous covector row.

    Lowers the degree by one; as an operator of the covector's parity it
    passes coefficient functions with the super sign.
    """
    sig = s.signature
    row = [as_fraction(c) for c in h]
    if len(row) != sig.n:
        raise ValueError(f"expected {sig.n} covector components")
    if any(row[: sig.p]) and any(row[sig.p :]):
        raise ValueError("covector must be parity homogeneous")
    out = SuperPolynomial.zero(_doubled(sig))
    for i, c in enumerate(row, start=1):
        if c:
            out = out + c * s._poly.partial(_slot(sig, i))
    return SymbolField._raw(sig, s.weight, max(s.degree - 1, 0), out)


def symbol_divergence(s: SymbolField) -> SymbolField:
    """Divergence of a symbol: sum_j +-d/de_j d/dy^j, each coordinate
    derivative contracted with its dual frame covector, with the sign - for
    odd y^j; one pass of the kernel's ``divergence_terms``."""
    sig = s.signature
    out = _ops.divergence_terms(s._poly._terms, sig.p, sig.q)
    return SymbolField._raw(
        sig, s.weight, max(s.degree - 1, 0), SuperPolynomial._raw(s._poly.signature, out)
    )


# ---------------------------------------------------------------------------
# the affine correspondence


def affine_quantize(s: SymbolField | MixedSymbol, lam: Rational) -> DiffOperator:
    """Coefficient-wise quantization: frame vectors become derivatives, the
    one term map relabeled."""
    lam = as_fraction(lam)
    return DiffOperator._raw(s.signature, lam, lam + s.weight, s._poly)


def affine_symbol(d: DiffOperator) -> MixedSymbol:
    """Total symbol of an operator: derivatives become frame vectors."""
    return MixedSymbol._raw(d.signature, d.mu - d.lam, d._poly)


def principal_symbol(k: int, d: DiffOperator) -> SymbolField:
    """Top-degree part of the symbol of an operator of order at most k."""
    if d.order > k:
        raise ValueError(f"operator order {d.order} exceeds requested degree {k}")
    sig = d.signature
    top = _slot_degrees(sig, d._poly).get(k, SuperPolynomial.zero(_doubled(sig)))
    return SymbolField._raw(sig, d.mu - d.lam, k, top)
