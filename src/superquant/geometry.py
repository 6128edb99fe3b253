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
derivative, a symmetric product a left product, and the affine
correspondence a relabeling of the slot atoms.
A term's parity is that of its odd mask, so one ``graded_parts`` serves
fields and operators, and a field's divergence is the symbol divergence of
its map, d read as e.

Both Lie derivatives along a field X are operators over the doubled
variables, built from X alone and kept with it (``_FieldParts``): the lift
of X (X on the coordinates, its Jacobian rotating the slot atoms), div X,
and the slot series of the map W = sum_i X^i d_i and of div X, the terms
(d_y^beta W) d_xi^beta that normal-order d^a o W, xi being the slot atoms.
``lie_symbol`` is lift + w div X at the symbol's weight w; ``lie_operator``
is the lift plus the series of W from |beta| = 2, plus (mu - lam) div X,
plus lam times the series of div X.  Along an affine field the series are
empty, so there the two actions agree and the affine correspondence
intertwines them.  A field is a symbol of degree one and weight 0, and a
density of weight lam one of degree 0, so the same action serves them:
``bracket`` is the lift of X on the map of Y, and ``lie_density`` is
lift + lam div X on the lifted function (``SuperVectorField.apply`` at
lam = 0).
An operator is applied, and composed, in one nested form of the kernel's
``derive_terms`` passes (``_apply_form``), and the Casimirs compose the
same parts.

Conventions that fix every sign below: odd derivatives act from the left;
an operator of odd parity passes a function coefficient g at the cost of
(-1)^{parity(g)}; the divergence of X = sum X^i d/dy^i is
sum_i (-1)^{parity(y^i) parity(X^i)} dX^i/dy^i.

Values are never mutated in place.  A vector field relies on this: the
parts of its Lie derivatives are computed on first use and kept with the
field, as an operator keeps the nested form ``apply`` runs.  A long sum is
built in a private dict with the kernel's ``add_into`` and wrapped once at
the end, so no value that a caller can see is ever changed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, lcm, prod
from typing import Iterable, NamedTuple, Sequence

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


def _lift(sig: Signature, terms: dict, slot=None) -> dict:
    """The terms of a superfunction times the slot monomial of the slot key
    ``slot``, by default none, over the doubled variables; no sign arises
    and the numerators stay over their denominator."""
    se, smask = slot or ((0,) * sig.p, 0)
    smask <<= sig.q
    return {(e + se, m | smask): c for (e, m), c in terms.items()}


def _lifted(sig: Signature, f: SuperPolynomial, slot=None) -> SuperPolynomial:
    """The term map of a superfunction f times the slot monomial of the slot
    key ``slot``, by default none."""
    return SuperPolynomial._raw(_doubled(sig), _lift(sig, f._terms, slot), f._den)


def _unlift(sig: Signature, terms: dict, den: int) -> SuperPolynomial:
    """The superfunction of the terms, over ``den``, of a term map with no
    slot atom."""
    p = sig.p
    return SuperPolynomial._over(sig, {(e[:p], m): c for (e, m), c in terms.items()}, den)


def _slot_monomial(sig: Signature, key, coeff: int = 1) -> SuperPolynomial:
    se, smask = key
    return SuperPolynomial._raw(
        _doubled(sig), {((0,) * sig.p + se, smask << sig.q): coeff}
    )


def _split(sig: Signature, poly: SuperPolynomial) -> dict:
    """A term map grouped by slot key: ``{(se, smask): {(xe, tmask): c}}``,
    every numerator c over the denominator of ``poly``."""
    p, q = sig.p, sig.q
    low = (1 << q) - 1
    slots: dict = {}
    for (e, m), c in poly._terms.items():
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
    superfunction or a rational.  The numerators are brought to the least
    common multiple of the coefficients' denominators; keys that name the
    same slot monomial add up."""
    polys = []
    for key, poly in terms.items():
        slot = _canonical_key(sig, key)
        if not isinstance(poly, SuperPolynomial):
            poly = SuperPolynomial.scalar(sig, poly)
        elif poly.signature != sig:
            raise ValueError("coefficient signature mismatch")
        polys.append((slot, poly))
    den = lcm(*(poly._den for _slot, poly in polys))
    out: dict = {}
    for slot, poly in polys:
        _ops.add_into(out, _lift(sig, poly._terms, slot), den // poly._den)
    return SuperPolynomial._over(_doubled(sig), out, den)


def _slot_degree_terms(sig: Signature, terms: dict) -> dict:
    """Terms over the doubled variables split by slot degree, ``{degree:
    terms}``, the numerators over their one denominator."""
    p, q = sig.p, sig.q
    by_degree: dict = {}
    for (e, m), c in terms.items():
        by_degree.setdefault(sum(e[p:]) + (m >> q).bit_count(), {})[(e, m)] = c
    return by_degree


def _slot_degrees(sig: Signature, poly: SuperPolynomial) -> dict:
    """A term map split by slot degree: ``{degree: term map}``."""
    return {
        k: SuperPolynomial._over(poly.signature, t, poly._den)
        for k, t in _slot_degree_terms(sig, poly._terms).items()
    }


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
        sig, den = self.signature, self._poly._den
        return [
            (key, SuperPolynomial._over(sig, terms, den))
            for key, terms in _split(sig, self._poly).items()
        ]

    def is_zero(self) -> bool:
        return not self._poly

    def coefficient(self, evens: Iterable[int], odds: Iterable[int]) -> SuperPolynomial:
        key = _monomial_key(self.signature, evens, odds)
        terms = _split(self.signature, self._poly).get(key, {})
        return SuperPolynomial._over(self.signature, terms, self._poly._den)

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


def _component(sig: Signature, key) -> int:
    """The index i (1-based) of the derivative d_i whose slot key, of
    degree one, is ``key``."""
    se, smask = key
    return sig.p + smask.bit_length() if smask else se.index(1) + 1


class SuperVectorField(_TermMap, _Graded):
    """Polynomial derivation X = sum_i X^i d/dy^i.

    The term map is sum_i X^i d_i, of degree one in the derivatives d, and
    ``components`` reads the X^i off it.  A field must not be mutated: the
    parts of its Lie derivatives, which every action along it runs, are
    built once, on first use, and kept in ``_parts``.
    """

    __slots__ = _cached = ("_parts",)
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
        self._parts = None

    @property
    def components(self) -> tuple:
        """The components X^1..X^n, read off the term map."""
        sig = self.signature
        comps = [SuperPolynomial.zero(sig)] * sig.n
        for key, terms in _split(sig, self._poly).items():
            comps[_component(sig, key) - 1] = SuperPolynomial._over(sig, terms, self._poly._den)
        return tuple(comps)

    def _lie_parts(self) -> "_FieldParts":
        """The parts of both Lie derivatives, built on first use by
        ``_field_parts``."""
        parts = self._parts
        if parts is None:
            parts = self._parts = _field_parts(self)
        return parts

    def _div(self) -> SuperPolynomial:
        """div X over the doubled variables: ``symbol_divergence`` of the
        term map with d read as e, one ``divergence_terms`` pass."""
        sig, poly = self.signature, self._poly
        terms = _ops.divergence_terms(poly._terms, sig.p, sig.q)
        return SuperPolynomial._over(poly.signature, terms, poly._den)

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
        """X(f): ``lie_density`` at weight 0."""
        return lie_density(self, 0, f)

    def divergence(self) -> SuperPolynomial:
        div = self._div()
        return _unlift(self.signature, div._terms, div._den)

    def __repr__(self):
        return f"SuperVectorField({self.signature}, {list(self.components)!r})"

    def __str__(self):
        from . import expr

        return expr.format_vfield(self)


def bracket(x: SuperVectorField, y: SuperVectorField) -> SuperVectorField:
    """Super commutator of vector fields: the Lie derivative of Y along X.

    Y is a symbol of degree one and weight 0, so [X, Y] = L_X Y is the lift
    of X run on the term map of Y, one kernel pass with the kept parts of X.
    """
    _check_same_signature(x, y)
    return y._with(_apply_parts(y._poly, [(1, x._lie_parts().lift)]))


def lie_density(x: SuperVectorField, lam: Rational, f: SuperPolynomial) -> SuperPolynomial:
    """Lie derivative X(f) + lam div(X) f of a density of weight lam along
    x: ``lie_symbol`` at degree 0, the lift and phi of x on the lifted f."""
    _check_same_signature(x, f)
    sig, parts = x.signature, x._lie_parts()
    pairs = [(1, parts.lift), (as_fraction(lam), parts.phi)]
    out = _apply_parts(_lifted(sig, f), pairs)
    return _unlift(sig, out._terms, out._den)


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
        return self._with(_lifted(self.signature, f) * self._poly)

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


def _coordinate_degree(sig: Signature, m: SuperPolynomial) -> int:
    """The largest coordinate degree of the terms of a term map; -1 for zero."""
    p, low = sig.p, (1 << sig.q) - 1
    return max(
        (sum(e[:p]) + (mask & low).bit_count() for (e, mask) in m._terms),
        default=-1,
    )


class _Node:
    """A node of the nested form of an operator (``_apply_form``): the
    multiplier or None, the first-order rows (0-based position i, f_i), and
    the subtrees (b, node), every term map the int numerators over the
    denominator of the operator.  The kernel's derivation of the rows is
    built on first use, by ``derivation``."""

    __slots__ = ("multiplier", "rows", "deeper", "_derivation")

    def __init__(self, multiplier, rows: list, deeper):
        self.multiplier, self.rows, self.deeper = multiplier, rows, deeper
        self._derivation = None

    def derivation(self, p: int) -> tuple:
        if self._derivation is None:
            self._derivation = _ops.derivation(p, self.rows)
        return self._derivation


def _apply_form(p: int, terms: dict) -> _Node:
    """The nested form of the operator sum_a f_a d^a given as
    ``{slot key a: terms of f_a}`` over a signature with p even coordinates:
    f_0 as the multiplier; the first-order terms as rows; and each term of
    order two or more as f_a d^{a-b} in the subtree filed under its
    rightmost factor d_b, the highest odd one, else the highest even one, so
    that d^a = d^{a-b} d_b with no sign.
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
    return _Node(multiplier, rows, [(i, _apply_form(p, sub)) for i, sub in deeper.items()])


def _combination(pairs) -> dict:
    """The terms of sum_c c T over the pairs (int c, terms T): T itself when
    it is the only one and c is 1, else a new dict."""
    if len(pairs) == 1 and pairs[0][0] == 1:
        return pairs[0][1]
    out: dict = {}
    for c, t in pairs:
        _ops.add_into(out, t, c)
    return out


def _apply_forms(p: int, terms: dict, forms) -> dict:
    """The terms of sum_c c P(terms) over the pairs (int c, nested form of
    P): one ``derive_terms`` pass with the multipliers and first-order rows,
    summed at the c (the node's own derivation, scaled by its c, where one
    node has rows), and none where both are empty; then the subtrees under
    each b, with their c, on d_b of the terms.  The numerators are over the
    product of the denominators of the terms and of the forms' sum; the dict
    is the caller's own."""
    weights, with_rows, deeper = [], [], {}
    for c, node in forms:
        if node.multiplier:
            weights.append((c, node.multiplier))
        if node.rows:
            with_rows.append((c, node))
        for i, sub in node.deeper:
            deeper.setdefault(i, []).append((c, sub))
    multiplier = _combination(weights)
    scale = 1
    if len(with_rows) == 1:
        scale, node = with_rows[0]
        derivation = node.derivation(p)
    else:
        rows = {}
        for c, node in with_rows:
            for i, row in node.rows:
                rows.setdefault(i, []).append((c, row))
        derivation = _ops.derivation(p, [(i, _combination(r)) for i, r in rows.items()])
    out = {}
    if multiplier or any(derivation):
        out = _ops.derive_terms(terms, derivation, multiplier or None, scale)
    for i, subs in deeper.items():
        if i < p:
            derived = _ops.partial_even_terms(terms, i)
        else:
            derived = _ops.partial_odd_terms(terms, 1 << (i - p))
        if derived:
            _ops.add_into(out, _apply_forms(p, derived, subs))
    return out


def _apply_parts(poly: SuperPolynomial, pairs) -> SuperPolynomial:
    """sum_c c P(poly) over the pairs (rational c, operator P) over the
    signature of the term map ``poly``: their nested forms run together by
    ``_apply_forms``, the zero ones left out, each c over the denominator of
    its P brought to their least common multiple as an int."""
    weights = [
        (c.numerator, c.denominator * op._poly._den, op)
        for c, op in pairs if c and op._poly
    ]
    den = lcm(*(d for _n, d, _op in weights))
    forms = [(n * (den // d), op._nested_form()) for n, d, op in weights]
    terms = _apply_forms(poly.signature.p, poly._terms, forms)
    return SuperPolynomial._over(poly.signature, terms, poly._den * den)


def _compose_terms(sig: Signature, form: _Node, q: dict) -> dict:
    """The terms of P o Q for the nested form of P and the term map q of Q:
    d_b o Q is d/dy^b Q + xi_b * Q over the doubled variables, xi_b the slot
    atom of d_b, so a node is one ``derive_terms`` pass over q, its rows on
    the coordinates and its terms of order at most one the multiplier, and
    each subtree runs on d_b o Q.  The numerators are over the product of
    the denominators of P and Q; the dict is the caller's own."""
    p = sig.p
    first = _lift(sig, form.multiplier) if form.multiplier else {}
    coordinates = []
    for i, f in form.rows:
        first.update(_lift(sig, f, _unit(sig, i + 1)))
        coordinates.append((i + p * (i >= p), _lift(sig, f)))
    out = _ops.derive_terms(q, _ops.derivation(2 * p, coordinates), first)
    for i, sub in form.deeper:
        d_b = _Node(None, [(i, {((0,) * p, 0): 1})], ())  # d_b alone
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

    def _nested_form(self) -> _Node:
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
        return _apply_parts(f, [(1, self)])

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
        sig, den = self.signature, self._poly._den * other._poly._den
        out = _compose_terms(sig, self._nested_form(), other._poly._terms)
        return DiffOperator._raw(
            sig, other.lam, self.mu, SuperPolynomial._over(_doubled(sig), out, den)
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
    D o L^lam_X, extended additively.  On the term map P of D it is
    A(P) + (mu - lam) div(X) P + lam B(P), the parts of ``_FieldParts``
    run together in one ``_apply_forms`` call, A as the lift and the rest.

    Let W = sum_i X^i d_i + lam div X, and let [d^a W] be the terms of order
    below |a| of d^a o W normal-ordered.  A normal-form term f d^a of D,
    with a the parity of d^a, maps to

        lift(X)(f d^a) + (mu - lam) div(X) f d^a - (-tau)^a ([d^a W] * f),

    tau being the parity twist.  The terms of order |a| + 1, d^a * W, cancel
    between the two compositions; those of order |a| are the first-order
    action: the rotation of the slot atoms in the lift (naturality of the
    principal symbol) and lam div X, the twist of weight lam taken out of
    mu.  By the Leibniz rule [d^a W] = sum eps C d^{a-beta} * d_y^beta W,
    over |beta| >= 2 for sum_i X^i d_i and |beta| >= 1 for lam div X, where
    C = prod_{even i} binom(a_i, beta_i) and eps is the sign of
    d^a = eps d^{a-beta} d^beta.  Moved to the normal order of f d^a and
    twisted by -(-tau)^a, a term is s_beta (d_y^beta W) / beta! times the
    slot derivative d_xi^beta (f d^a), whatever f and a, for C beta! is the
    factor that d_xi^beta brings down from xi^a: the sums are the slot
    series of ``_slot_series``, so A and B.  They stop at the powers of the
    field and, as the Leibniz sums do, take only the beta at or below some
    slot key of D; along an affine field both are empty, and the action is
    one kernel pass.
    """
    _check_same_signature(x, d)
    poly = d._poly
    lift, higher, phi, b = _operator_lie_parts(x, poly)
    pairs = [(1, lift), (1, higher), (d.mu - d.lam, phi), (d.lam, b)]
    return d._with(_apply_parts(poly, pairs))


def _slot_operator(sig2: Signature, coeffs: dict) -> DiffOperator:
    """The operator of weights 0 over the doubled signature ``sig2`` with
    the coefficients ``{slot key: coefficient}``, built unchecked over the
    least common multiple of their denominators."""
    q = sig2.q
    den = lcm(*(coeff._den for coeff in coeffs.values()))
    terms = {
        (e + se, m | smask << q): c * (den // coeff._den)
        for (se, smask), coeff in coeffs.items()
        for (e, m), c in coeff._terms.items()
    }
    zero, sig4 = Fraction(0), _doubled(sig2)
    return DiffOperator._raw(sig2, zero, zero, SuperPolynomial._raw(sig4, terms, den))


def _covers(key: tuple, beta: tuple) -> bool:
    """Whether the slot key ``key`` lies at or above ``beta``: no smaller
    even exponent and every odd slot of beta."""
    return all(map(int.__ge__, key[0], beta[0])) and not beta[1] & ~key[1]


def _slot_series(sig: Signature, m: SuperPolynomial, cap, lowest=1):
    """The terms |beta| >= lowest of the slot series of a term map m
    over the doubled variables of ``sig``,

        sum_beta s_beta (d_y^beta m) / beta! d_xi^beta,

    as ``{slot key over the doubled signature: coefficient}``, for the beta
    at or below some slot key of ``cap`` over ``sig``.  Here xi are the slot
    atoms, beta! = prod beta_i! over the even slots, d_y^beta takes its odd
    factors ascending with the rightmost acting first, and on a term of
    parity chi s_beta = -(-1)^{chi k} (-1)^{k(k-1)/2}, k the number of odd
    factors in beta.  The beta grow as a tree, each one factor more than its
    parent at an index no higher than the parent's last one (lower for an
    odd one), and a branch stops where d_y^beta m vanishes and where no key
    of the cap lies above it.
    """
    p, q = sig.p, sig.q
    out = {}
    # beta, the highest index of its next factor, the keys above beta, and
    # d_y^beta m
    stack = [((0,) * p, 0, sig.n, list(cap), m)]
    while stack:
        evens, mask, last, keys, dm = stack.pop()
        k = mask.bit_count()
        order = sum(evens) + k
        if order >= lowest:
            sign, den = -1 if k & 2 else 1, prod(map(factorial, evens))
            # d_y^beta m has parity chi + k, so -(-1)^{chi k} is tau for odd k
            term = dm.parity_twist() if k & 1 else -dm
            key = (0,) * p + evens, mask << q
            out[key] = term if sign == den == 1 else Fraction(sign, den) * term
        for i in range(last, 0, -1):
            if i > p:
                bit = 1 << (i - p - 1)
                above = [key for key in keys if key[1] & bit]
                beta = evens, mask | bit, i - 1
            else:
                a = evens[i - 1]
                above = [key for key in keys if key[0][i - 1] > a]
                beta = evens[: i - 1] + (a + 1,) + evens[i:], mask, i
            if above:
                derived = dm.partial(_coord(sig, i))
                if derived:
                    stack.append((*beta, above, derived))
    return out


class _FieldParts(NamedTuple):
    """The Lie derivatives along a field X as operators over the doubled
    variables, from the slot series (``_slot_series``) of its term map
    W = sum_i X^i d_i and of div X.

    ``lift`` is the coordinate derivation sum_i X^i d/dy^i plus the terms
    |beta| = 1 of the series of W, which rotate the slot atoms through the
    Jacobian of X, and ``phi`` multiplies by div X: on the term map of a
    symbol of weight w, L_X = lift + w phi.  On the term map of an operator
    of weights lam and mu, L_X = A + (mu - lam) phi + lam B, with A the lift
    plus the terms |beta| >= 2 of the series of W and B the series of div X
    (``lie_operator``).  ``higher``, A less the lift, and ``b`` hold those
    terms for the beta at or below some slot key of ``cap``, None until an
    operator asks for them; ``powers``, the highest power of each
    coordinate in W, lies above every beta with a term, and a cap of it
    alone is every term.
    """

    powers: tuple
    lift: DiffOperator
    phi: DiffOperator
    cap: tuple = ()
    higher: DiffOperator | None = None
    b: DiffOperator | None = None


def _field_parts(x: SuperVectorField) -> _FieldParts:
    """The powers, the lift and phi of a field; built once per field, by
    ``SuperVectorField._lie_parts``.  The terms |beta| = 1 of the slot series
    of W are -(d_y^i W) d_xi^i for an even y^i and tau(d_y^i W) d_xi^i for an
    odd one, one partial derivative per coordinate of nonzero power."""
    sig, w = x.signature, x._poly
    sig2, p, q, low = _doubled(sig), sig.p, sig.q, (1 << sig.q) - 1
    powers = (0,) * p, 0
    for e, m in w._terms:
        powers = tuple(map(max, powers[0], e[:p])), powers[1] | m & low
    den = w._den
    # the coordinate derivation: X^i at the derivative d/dy^i
    lift = {
        _unit(sig2, _coord(sig, _component(sig, key))): SuperPolynomial._over(
            sig2, _lift(sig, terms), den
        )
        for key, terms in _split(sig, w).items()
    }
    for i in range(1, sig.n + 1):
        se, smask = _unit(sig, i)
        power = powers[1] & smask if i > p else powers[0][i - 1]
        if power:
            derived = w.partial(_coord(sig, i))
            if derived:
                key = (0,) * p + se, smask << q
                lift[key] = derived.parity_twist() if i > p else -derived
    phi = _slot_operator(sig2, {((0,) * sig2.p, 0): x._div()})
    return _FieldParts(powers, _slot_operator(sig2, lift), phi)


def _operator_lie_parts(x: SuperVectorField, poly: SuperPolynomial | None = None):
    """The lift, A less the lift, phi and B of ``_FieldParts``,
    L_X = A + (mu - lam) phi + lam B on the term map ``poly`` of an operator
    of weights lam and mu, with every beta at or below a slot key of poly,
    or every beta when poly is None.  The field keeps them, the last two
    built again, for the keys of the cap and the new ones, only for an
    operator with a slot key that no key of the cap lies above."""
    parts = x._lie_parts()
    powers = parts.powers
    if parts.cap != (powers,):
        sig = x.signature
        p, q = sig.p, sig.q
        want = {powers}
        if poly is not None:
            evens, mask = powers
            want = {(tuple(map(min, evens, e[p:])), mask & m >> q) for e, m in poly._terms}
        new = [k for k in want if not any(_covers(c, k) for c in parts.cap)]
        if new or parts.higher is None:
            keys = set(parts.cap).union(new)
            cap = tuple(k for k in keys if not any(c != k and _covers(c, k) for c in keys))
            sig2 = _doubled(sig)
            multiplier = parts.phi._nested_form().multiplier or {}
            div = SuperPolynomial._raw(sig2, multiplier, parts.phi._poly._den)
            higher = _slot_operator(sig2, _slot_series(sig, x._poly, cap, lowest=2))
            b = _slot_operator(sig2, _slot_series(sig, div, cap))
            x._parts = parts = parts._replace(cap=cap, higher=higher, b=b)
    return parts.lift, parts.higher, parts.phi, parts.b


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
    parts = x._lie_parts()
    return s._with(_apply_parts(s._poly, [(1, parts.lift), (s.weight, parts.phi)]))


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
    sig, poly = s.signature, s._poly
    out = _ops.divergence_terms(poly._terms, sig.p, sig.q)
    return SymbolField._raw(
        sig, s.weight, max(s.degree - 1, 0), SuperPolynomial._over(poly.signature, out, poly._den)
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
