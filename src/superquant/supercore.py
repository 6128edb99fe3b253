"""Exact arithmetic for polynomial superfunctions on R^{p|q}.

Coordinates are unified as y^1..y^{p+q}: the first p are even (commuting)
and the remaining q are odd (anticommuting, squaring to zero).  Every
polynomial is kept in canonical form: a term map from monomial keys
``(even_exponents, odd_mask)`` to nonzero rational coefficients, with odd
factors implicitly in ascending index order.  All arithmetic is exact over
``fractions.Fraction``; derivatives along odd coordinates act from the left.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


class SuperPolynomial:
    """A polynomial superfunction in canonical form over a fixed signature."""

    __slots__ = ("signature", "_terms")

    def __init__(self, signature: Signature, terms=None):
        self.signature = signature
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
        self._terms = canon

    @classmethod
    def _raw(cls, signature: Signature, terms: dict) -> "SuperPolynomial":
        # kernel outputs are already canonical; skip re-validation
        self = cls.__new__(cls)
        self.signature = signature
        self._terms = terms
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, signature: Signature) -> "SuperPolynomial":
        return cls._raw(signature, {})

    @classmethod
    def scalar(cls, signature: Signature, value: Rational) -> "SuperPolynomial":
        c = as_fraction(value)
        if not c:
            return cls.zero(signature)
        return cls._raw(signature, {((0,) * signature.p, 0): c})

    @classmethod
    def one(cls, signature: Signature) -> "SuperPolynomial":
        return cls.scalar(signature, 1)

    @classmethod
    def coordinate(cls, signature: Signature, i: int) -> "SuperPolynomial":
        """The coordinate function y^i (1-based unified index)."""
        if signature.parity(i) == 0:
            evens = tuple(1 if k == i - 1 else 0 for k in range(signature.p))
            return cls._raw(signature, {(evens, 0): Fraction(1)})
        bit = 1 << (i - signature.p - 1)
        return cls._raw(signature, {((0,) * signature.p, bit): Fraction(1)})

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
        return self._terms.items()

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def coefficient(self, evens: Iterable[int], odds: Iterable[int]) -> Fraction:
        return self._terms.get(_monomial_key(self.signature, evens, odds), Fraction(0))

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
        )

    def graded_parts(self) -> tuple["SuperPolynomial", "SuperPolynomial"]:
        """Split into (even part, odd part)."""
        ev, od = {}, {}
        for key, c in self._terms.items():
            (od if key[1].bit_count() & 1 else ev)[key] = c
        return self._raw(self.signature, ev), self._raw(self.signature, od)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, SuperPolynomial):
            _check_same_signature(self, other)
            return self._raw(self.signature, _ops.add_terms(self._terms, other._terms))
        if isinstance(other, (int, Fraction)):
            return self + SuperPolynomial.scalar(self.signature, other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, SuperPolynomial):
            _check_same_signature(self, other)
            return self._raw(self.signature, _ops.sub_terms(self._terms, other._terms))
        if isinstance(other, (int, Fraction)):
            return self - SuperPolynomial.scalar(self.signature, other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._raw(self.signature, _ops.neg_terms(self._terms))

    def __mul__(self, other):
        if isinstance(other, SuperPolynomial):
            _check_same_signature(self, other)
            return self._raw(self.signature, _ops.mul_terms(self._terms, other._terms))
        if isinstance(other, (int, Fraction)):
            if other == 1:
                return self  # polynomials are never mutated in place
            return self._raw(
                self.signature, _ops.scale_terms(self._terms, as_fraction(other))
            )
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
        return self._raw(self.signature, terms)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, SuperPolynomial):
            return self.signature == other.signature and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == SuperPolynomial.scalar(self.signature, other)
        return NotImplemented

    __hash__ = None  # mutable-ish container semantics; not hashable

    def __repr__(self):
        return f"SuperPolynomial({self.signature}, {self._terms!r})"

    def __str__(self):
        from . import expr

        return expr.format_poly(self)


def iter_monomials(signature: Signature, max_degree: int) -> Iterator[SuperPolynomial]:
    """All monomials of total degree <= max_degree, in a deterministic order."""
    p, q = signature.p, signature.q

    def even_tuples(total_max: int):
        if p == 0:
            yield ()
            return

        def rec(pos: int, left: int):
            if pos == p - 1:
                for e in range(left + 1):
                    yield (e,)
                return
            for e in range(left + 1):
                for rest in rec(pos + 1, left - e):
                    yield (e,) + rest

        yield from rec(0, total_max)

    for mask in range(1 << q):
        odd_deg = mask.bit_count()
        if odd_deg > max_degree:
            continue
        for evens in even_tuples(max_degree - odd_deg):
            yield SuperPolynomial._raw(signature, {(evens, mask): Fraction(1)})
