"""Exact arithmetic for polynomial superfunctions on R^{p|q}.

Coordinates are unified as y^1..y^{p+q}: the first p are even (commuting)
and the remaining q are odd (anticommuting, squaring to zero).  Every
polynomial is kept in canonical form: a term map from monomial keys
``(even_exponents, odd_mask)`` to nonzero integer numerators over one
positive denominator, with odd factors implicitly in ascending index order;
derivatives along odd coordinates act from the left.  The form is reduced:
the denominator and the numerators have no common factor, and the zero
polynomial is the empty map over 1.  So equal polynomials have equal term
maps and denominators, and the kernel multiplies and adds plain ints.
Rationals cross the interface as ``fractions.Fraction``: the constructor
takes them, and ``items()``, ``coefficient()`` and ``repr`` give them back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator

from . import _termops_py as _ops

# the one term-map kernel; benchmark and stats records name it
KERNEL_BACKEND: str = "python"

Rational = int | Fraction


def kernel_backend() -> str:
    """Name of the term-map kernel: always the pure-Python ``_termops_py``."""
    return KERNEL_BACKEND


def as_fraction(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


@dataclass(frozen=True)
class Signature:
    """Dimension pair (p, q): p even coordinates, q odd ones."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 0 or self.q < 0 or self.p + self.q < 1:
            raise ValueError(f"invalid signature ({self.p}|{self.q})")

    @property
    def n(self) -> int:
        return self.p + self.q

    def parity(self, i: int) -> int:
        """Parity of coordinate y^i, 1-based: 0 for i <= p, else 1."""
        if not 1 <= i <= self.n:
            raise ValueError(f"coordinate index {i} out of range 1..{self.n}")
        return 0 if i <= self.p else 1

    def __str__(self) -> str:
        return f"{self.p}|{self.q}"


def _canonical_key(signature: Signature, key) -> tuple:
    """Validate an ``(even_exponents, odd_mask)`` key; evens become a tuple of ints."""
    evens, mask = key
    evens = tuple(int(e) for e in evens)
    if len(evens) != signature.p or any(e < 0 for e in evens):
        raise ValueError(f"bad even exponents {evens} for signature {signature}")
    if not 0 <= mask < 1 << signature.q:
        raise ValueError(f"bad odd mask {mask} for signature {signature}")
    return evens, mask


def _monomial_key(signature: Signature, evens, odds, name: str = "odd index") -> tuple:
    """The key ``(even_exponents, odd_mask)`` of the monomial with even
    exponents ``evens`` and odd indices ``odds`` (1-based); a key that names
    no monomial, with an odd index out of range or repeated, raises."""
    mask = 0
    for t in odds:
        if not 1 <= t <= signature.q:
            raise ValueError(f"{name} {t} out of range 1..{signature.q}")
        bit = 1 << (t - 1)
        if mask & bit:
            raise ValueError(f"repeated {name}")
        mask |= bit
    return _canonical_key(signature, (evens, mask))


def _check_same_signature(a, b) -> None:
    # identity first: every term map holds the one cached doubled Signature
    if a.signature is not b.signature and a.signature != b.signature:
        raise ValueError(f"signature mismatch: {a.signature} vs {b.signature}")


def _from_fractions(terms: dict) -> tuple:
    """Nonzero rational values as int numerators over the least common
    denominator, which leaves the map reduced."""
    den = lcm(*(c.denominator for c in terms.values()))
    if den == 1:
        return {key: c.numerator for key, c in terms.items()}, 1
    return {key: c.numerator * (den // c.denominator) for key, c in terms.items()}, den


def _rescaled(terms: dict, factor: int) -> dict:
    """The numerators times ``factor``: a map moved to a multiple of its
    denominator."""
    if factor == 1:
        return terms
    return {key: factor * v for key, v in terms.items()}


class SuperPolynomial:
    """A polynomial superfunction in canonical form over a fixed signature:
    ``_terms`` maps monomial keys to nonzero int numerators over the
    denominator ``_den``, reduced (see the module docstring)."""

    __slots__ = ("signature", "_terms", "_den")

    def __init__(self, signature: Signature, terms=None):
        self.signature = signature
        self._den = 1
        if terms is None:
            self._terms = {}
            return
        canon = {}
        for key, coeff in terms.items():
            k = _canonical_key(signature, key)
            c = as_fraction(coeff)
            if not c:
                continue
            acc = canon.get(k)
            if acc is None:
                canon[k] = c
            else:
                acc = acc + c
                if acc:
                    canon[k] = acc
                else:
                    del canon[k]
        self._terms, self._den = _from_fractions(canon)

    @classmethod
    def _raw(cls, signature: Signature, terms: dict, den: int = 1) -> "SuperPolynomial":
        # kernel outputs already reduced over ``den``; skip re-validation
        self = cls.__new__(cls)
        self.signature = signature
        self._terms = terms
        self._den = den
        return self

    @classmethod
    def _over(cls, signature: Signature, terms: dict, den: int) -> "SuperPolynomial":
        """The polynomial of the nonzero int numerators ``terms`` over
        ``den`` >= 1, reduced here: the common factor of the denominator and
        every numerator divided out, the empty map over 1.  One ``gcd`` per
        map, none over 1."""
        if den != 1:
            if not terms:
                den = 1
            else:
                g = gcd(den, *terms.values())
                if g != 1:
                    terms = {key: v // g for key, v in terms.items()}
                    den //= g
        return cls._raw(signature, terms, den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, signature: Signature) -> "SuperPolynomial":
        return cls._raw(signature, {})

    @classmethod
    def scalar(cls, signature: Signature, value: Rational) -> "SuperPolynomial":
        c = as_fraction(value)
        if not c:
            return cls.zero(signature)
        return cls._raw(signature, {((0,) * signature.p, 0): c.numerator}, c.denominator)

    @classmethod
    def one(cls, signature: Signature) -> "SuperPolynomial":
        return cls.scalar(signature, 1)

    @classmethod
    def coordinate(cls, signature: Signature, i: int) -> "SuperPolynomial":
        """The coordinate function y^i (1-based unified index)."""
        if signature.parity(i) == 0:
            evens = tuple(1 if k == i - 1 else 0 for k in range(signature.p))
            return cls._raw(signature, {(evens, 0): 1})
        bit = 1 << (i - signature.p - 1)
        return cls._raw(signature, {((0,) * signature.p, bit): 1})

    @classmethod
    def monomial(
        cls,
        signature: Signature,
        evens: Iterable[int],
        odds: Iterable[int],
        coeff: Rational = 1,
    ) -> "SuperPolynomial":
        """Monomial from even exponents and a set of odd indices (1-based)."""
        mask = 0
        for t in odds:
            if not 1 <= t <= signature.q:
                raise ValueError(f"odd index {t} out of range 1..{signature.q}")
            bit = 1 << (t - 1)
            if mask & bit:
                return cls.zero(signature)
            mask |= bit
        return cls(signature, {(tuple(evens), mask): coeff})

    # -- inspection --------------------------------------------------------

    def items(self):
        """``(key, coefficient)`` pairs, each coefficient a ``Fraction``."""
        den = self._den
        return {key: Fraction(v, den) for key, v in self._terms.items()}.items()

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def coefficient(self, evens: Iterable[int], odds: Iterable[int]) -> Fraction:
        v = self._terms.get(_monomial_key(self.signature, evens, odds), 0)
        return Fraction(v, self._den)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) + m.bit_count() for (e, m) in self._terms)

    def parity(self) -> int | None:
        """0 (even), 1 (odd), or None when terms of both parities occur."""
        seen = {m.bit_count() & 1 for (_, m) in self._terms}
        if len(seen) == 1:
            return seen.pop()
        return None if seen else 0

    def parity_twist(self) -> "SuperPolynomial":
        """The grading automorphism: odd terms negated, even terms kept."""
        return self._raw(
            self.signature,
            {key: -c if key[1].bit_count() & 1 else c for key, c in self._terms.items()},
            self._den,
        )

    def graded_parts(self) -> tuple["SuperPolynomial", "SuperPolynomial"]:
        """Split into (even part, odd part)."""
        ev, od = {}, {}
        for key, c in self._terms.items():
            (od if key[1].bit_count() & 1 else ev)[key] = c
        return self._over(self.signature, ev, self._den), self._over(self.signature, od, self._den)

    # -- arithmetic --------------------------------------------------------

    def _sum(self, other: "SuperPolynomial", combine) -> "SuperPolynomial":
        """``combine`` (the kernel's sum or difference) of the two maps
        brought to the least common multiple of their denominators."""
        _check_same_signature(self, other)
        a, b = self._den, other._den
        if a == b:
            return self._over(self.signature, combine(self._terms, other._terms), a)
        den = lcm(a, b)
        terms = combine(_rescaled(self._terms, den // a), _rescaled(other._terms, den // b))
        return self._over(self.signature, terms, den)

    def __add__(self, other):
        if isinstance(other, SuperPolynomial):
            return self._sum(other, _ops.add_terms)
        if isinstance(other, (int, Fraction)):
            return self + SuperPolynomial.scalar(self.signature, other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, SuperPolynomial):
            return self._sum(other, _ops.sub_terms)
        if isinstance(other, (int, Fraction)):
            return self - SuperPolynomial.scalar(self.signature, other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._raw(self.signature, _ops.neg_terms(self._terms), self._den)

    def __mul__(self, other):
        if isinstance(other, SuperPolynomial):
            _check_same_signature(self, other)
            terms = _ops.mul_terms(self._terms, other._terms)
            return self._over(self.signature, terms, self._den * other._den)
        if isinstance(other, (int, Fraction)):
            if other == 1:
                return self  # polynomials are never mutated in place
            terms = _ops.scale_terms(self._terms, other.numerator)
            return self._over(self.signature, terms, self._den * other.denominator)
        return NotImplemented

    def __rmul__(self, other):
        # rational scalars commute with everything
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = SuperPolynomial.one(self.signature)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def partial(self, i: int) -> "SuperPolynomial":
        """Left partial derivative along y^i (1-based unified index)."""
        if self.signature.parity(i) == 0:
            terms = _ops.partial_even_terms(self._terms, i - 1)
        else:
            terms = _ops.partial_odd_terms(self._terms, 1 << (i - self.signature.p - 1))
        return self._over(self.signature, terms, self._den)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, SuperPolynomial):
            return (
                self.signature == other.signature
                and self._den == other._den
                and self._terms == other._terms
            )
        if isinstance(other, (int, Fraction)):
            return self == SuperPolynomial.scalar(self.signature, other)
        return NotImplemented

    __hash__ = None  # mutable-ish container semantics; not hashable

    def __repr__(self):
        return f"SuperPolynomial({self.signature}, {dict(self.items())!r})"

    def __str__(self):
        from . import expr

        return expr.format_poly(self)


def _linear(signature: Signature, pairs) -> SuperPolynomial:
    """sum c M over the pairs (rational c, ``SuperPolynomial`` M) as a
    polynomial over ``signature``: each c M an int multiple of the
    numerators of M at the least common multiple of the denominators, added
    into one private dict by the kernel's ``add_into`` and reduced once.
    Zero coefficients and zero maps are left out."""
    weights = [(c.numerator, c.denominator * m._den, m._terms) for c, m in pairs if c and m._terms]
    if not weights:
        return SuperPolynomial._raw(signature, {})
    den = lcm(*(d for _n, d, _terms in weights))
    out: dict = {}
    for n, d, terms in weights:
        _ops.add_into(out, terms, n * (den // d))
    return SuperPolynomial._over(signature, out, den)


def _degree_keys(signature: Signature, degree: int) -> list:
    """The keys of the monomials of total degree ``degree``: the even
    exponents in lexicographic order, each with its odd masks ascending."""
    evens = [()]
    for _ in range(signature.p):
        evens = [e + (a,) for e in evens for a in range(degree - sum(e) + 1)]
    masks = range(1 << signature.q)
    return [(e, m) for e in evens for m in masks if m.bit_count() == degree - sum(e)]


def iter_monomials(signature: Signature, max_degree: int) -> Iterator[SuperPolynomial]:
    """All monomials of total degree <= max_degree, in a deterministic order:
    by degree, then as ``_degree_keys`` lists them."""
    for degree in range(max_degree + 1):
        for key in _degree_keys(signature, degree):
            yield SuperPolynomial._raw(signature, {key: 1})
