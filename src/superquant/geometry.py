"""Vector fields, symbol fields, and differential operators on R^{p|q}.

Three graded modules live here, all with exact rational coefficients:

* ``SuperVectorField`` — derivations X = sum X^i d/dy^i with polynomial
  components;
* ``SymbolField`` — degree-k polynomial symbols: coefficients tensored with
  symmetric monomials in the frame vectors e_1..e_{p+q} (odd frame vectors
  anticommute and square to zero), twisted by a density weight;
* ``DiffOperator`` — differential operators between density modules, kept in
  normal form: coefficients to the left of derivative monomials whose odd
  factors carry ascending indices, any sign having been folded into the
  coefficient.

Conventions that fix every sign below: odd derivatives act from the left;
an operator of odd parity passes a function coefficient g at the cost of
(-1)^{parity(g)}; the divergence of X = sum X^i d/dy^i is
sum_i (-1)^{parity(y^i) parity(X^i)} dX^i/dy^i.

Values are never mutated in place.  A vector field relies on this: what
``lie_symbol`` and ``lie_operator`` need of it alone (graded parts, their
divergences and Jacobians) is computed on first use and kept with the field.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .supercore import (
    Rational,
    Signature,
    SuperPolynomial,
    _canonical_key,
    _check_same_signature,
    _ops,
    as_fraction,
    iter_monomials,
)

_odd_below = _ops.odd_below
_odd_merge_sign = _ops.odd_merge_sign


def _acc(d: dict, key, poly: SuperPolynomial) -> None:
    cur = d.get(key)
    if cur is None:
        if poly:
            d[key] = poly
    else:
        s = cur + poly
        if s:
            d[key] = s
        else:
            del d[key]


def _validate_terms(signature: Signature, terms) -> dict:
    canon: dict = {}
    for key, poly in terms.items():
        key = _canonical_key(signature, key)
        if not isinstance(poly, SuperPolynomial):
            poly = SuperPolynomial.scalar(signature, poly)
        if poly.signature != signature:
            raise ValueError("coefficient signature mismatch")
        if poly:
            _acc(canon, key, poly)
    return canon


def _key_degree(key) -> int:
    evens, mask = key
    return sum(evens) + mask.bit_count()


class _Graded:
    """Parity read off the homogeneous parts listed by ``graded_parts``."""

    __slots__ = ()

    def parity(self) -> int | None:
        parts = self.graded_parts()
        if not parts:
            return 0
        if len(parts) == 1:
            return parts[0][0]
        return None


class _TermMap:
    """Linear core shared by symbols and operators.

    Terms map ``(even_exponents, odd_mask)`` keys to nonzero polynomial
    coefficients.  Beside the signature each map carries the two attributes
    named in ``_fields``; the ones named in ``_weights`` must agree in a sum.
    """

    __slots__ = ("signature", "_terms")
    _fields: tuple[str, str]
    _weights: tuple[str, ...]

    @classmethod
    def _raw(cls, signature, first, second, terms):
        self = cls.__new__(cls)
        self.signature = signature
        a, b = cls._fields
        setattr(self, a, first)
        setattr(self, b, second)
        self._terms = terms
        return self

    def _with_terms(self, terms: dict):
        a, b = self._fields
        return self._raw(self.signature, getattr(self, a), getattr(self, b), terms)

    def items(self):
        return self._terms.items()

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, evens: Iterable[int], odds: Iterable[int]) -> SuperPolynomial:
        mask = 0
        for t in odds:
            mask |= 1 << (t - 1)
        return self._terms.get(
            (tuple(evens), mask), SuperPolynomial.zero(self.signature)
        )

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
        terms = dict(self._terms)
        for key, poly in other._terms.items():
            _acc(terms, key, poly)
        # a zero summand may carry any symbol degree: keep the other's
        return (self if self._terms else other)._with_terms(terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._with_terms({k: -v for k, v in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            if not c:
                return self._with_terms({})
            return self._with_terms({k: v * c for k, v in self._terms.items()})
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
            and self._terms == other._terms
        )

    __hash__ = None


# ---------------------------------------------------------------------------
# vector fields


class _GradedAction(NamedTuple):
    """The action data of one graded part X_chi of a vector field.

    ``nonconstant`` lists ``(i, X_chi^i, -X_chi^i)`` for the components of
    positive degree (0-based i), the only ones whose normal-ordered product
    with a derivative has terms below the top order.  ``jacobian`` lists
    ``(i, j, J_ij)`` with J_ij = s_i dX_chi^j/dy^i nonzero, where s_i = 1
    when chi and y^i are both odd and -1 otherwise; ``trace`` is
    sum_i -(-1)^{parity(y^i)} J_ii, so that a density twist of weight delta
    contributes delta * trace.
    """

    parity: int
    field: "SuperVectorField"
    nonconstant: tuple
    div: SuperPolynomial
    jacobian: tuple
    trace: SuperPolynomial


class _FieldAction(NamedTuple):
    """The graded parts of a field with their action data, and div X."""

    parts: tuple[_GradedAction, ...]
    div: SuperPolynomial


def _field_action(x: "SuperVectorField") -> _FieldAction:
    sig = x.signature
    parts = []
    div = SuperPolynomial.zero(sig)
    for chi, xp in x.graded_parts():
        div_chi = xp.divergence()
        div = div + div_chi
        jacobian = []
        trace = SuperPolynomial.zero(sig)
        for i in range(1, sig.n + 1):
            ti = sig.parity(i)
            sfac = 1 if (ti and chi) else -1
            for j in range(1, sig.n + 1):
                dcomp = xp.components[j - 1].partial(i)
                if not dcomp:
                    continue
                jij = sfac * dcomp
                jacobian.append((i, j, jij))
                if i == j:
                    trace = trace + jij if ti else trace - jij
        nonconstant = tuple(
            (i, c, -c) for i, c in enumerate(xp.components) if c.degree() > 0
        )
        parts.append(
            _GradedAction(chi, xp, nonconstant, div_chi, tuple(jacobian), trace)
        )
    return _FieldAction(tuple(parts), div)


class SuperVectorField(_Graded):
    """Polynomial derivation X = sum_i X^i d/dy^i.

    A field must not be mutated: the data its Lie derivatives need is
    computed once, on first use, and kept in ``_action_data``.
    """

    __slots__ = ("signature", "components", "_action_data")

    def __init__(self, signature: Signature, components: Sequence):
        comps = []
        for c in components:
            if not isinstance(c, SuperPolynomial):
                c = SuperPolynomial.scalar(signature, c)
            _check_same_signature(c, SuperPolynomial.zero(signature))
            comps.append(c)
        if len(comps) != signature.n:
            raise ValueError(
                f"expected {signature.n} components, got {len(comps)}"
            )
        self.signature = signature
        self.components = tuple(comps)
        self._action_data = None

    def _action(self) -> _FieldAction:
        """Graded parts, divergences and Jacobians, built on first use."""
        data = self._action_data
        if data is None:
            # built whole, then stored in one assignment
            data = self._action_data = _field_action(self)
        return data

    @classmethod
    def zero(cls, signature: Signature) -> "SuperVectorField":
        z = SuperPolynomial.zero(signature)
        return cls(signature, [z] * signature.n)

    @classmethod
    def euler(cls, signature: Signature) -> "SuperVectorField":
        """The Euler field sum_i y^i d/dy^i."""
        return cls(
            signature,
            [SuperPolynomial.coordinate(signature, i) for i in range(1, signature.n + 1)],
        )

    def apply(self, f: SuperPolynomial) -> SuperPolynomial:
        _check_same_signature(self, f)
        out = SuperPolynomial.zero(self.signature)
        for i, comp in enumerate(self.components, start=1):
            if comp:
                df = f.partial(i)
                if df:
                    out = out + comp * df
        return out

    def divergence(self) -> SuperPolynomial:
        sig = self.signature
        out = SuperPolynomial.zero(sig)
        for i, comp in enumerate(self.components, start=1):
            if not comp:
                continue
            if sig.parity(i):
                comp = comp.parity_twist()
            out = out + comp.partial(i)
        return out

    def graded_parts(self) -> list[tuple[int, "SuperVectorField"]]:
        """Split into homogeneous fields [(parity, field)], zeros omitted."""
        sig = self.signature
        buckets = {0: [], 1: []}
        for i, comp in enumerate(self.components, start=1):
            ce, co = comp.graded_parts()
            if sig.parity(i) == 0:
                buckets[0].append(ce)
                buckets[1].append(co)
            else:
                buckets[0].append(co)
                buckets[1].append(ce)
        out = []
        for par in (0, 1):
            if any(buckets[par]):
                out.append((par, SuperVectorField(sig, buckets[par])))
        return out

    def is_zero(self) -> bool:
        return not any(self.components)

    def __add__(self, other):
        if not isinstance(other, SuperVectorField):
            return NotImplemented
        _check_same_signature(self, other)
        return SuperVectorField(
            self.signature,
            [a + b for a, b in zip(self.components, other.components)],
        )

    def __sub__(self, other):
        if not isinstance(other, SuperVectorField):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return SuperVectorField(self.signature, [-c for c in self.components])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return SuperVectorField(
                self.signature, [c * other for c in self.components]
            )
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, SuperVectorField):
            return NotImplemented
        return (
            self.signature == other.signature and self.components == other.components
        )

    __hash__ = None

    def __repr__(self):
        return f"SuperVectorField({self.signature}, {list(self.components)!r})"

    def __str__(self):
        from . import expr

        return expr.format_vfield(self)


def bracket(x: SuperVectorField, y: SuperVectorField) -> SuperVectorField:
    """Super commutator of vector fields."""
    _check_same_signature(x, y)
    sig = x.signature
    comps = [SuperPolynomial.zero(sig) for _ in range(sig.n)]
    for chi, xp in x.graded_parts():
        for eta, yp in y.graded_parts():
            sign = -1 if chi and eta else 1
            for i in range(sig.n):
                comps[i] = (
                    comps[i]
                    + xp.apply(yp.components[i])
                    - sign * yp.apply(xp.components[i])
                )
    return SuperVectorField(sig, comps)


def lie_density(x: SuperVectorField, lam: Rational, f: SuperPolynomial) -> SuperPolynomial:
    """Lie derivative of a density of weight lam along x."""
    return x.apply(f) + (as_fraction(lam) * x.divergence()) * f


# ---------------------------------------------------------------------------
# symbol fields


class SymbolField(_TermMap):
    """Homogeneous degree-k symbol with a density twist.

    Terms map ``(even_exponents, odd_selection)`` frame monomials to
    polynomial coefficients; every key satisfies
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
        canon = _validate_terms(signature, terms or {})
        for key in canon:
            if _key_degree(key) != degree:
                raise ValueError(
                    f"frame monomial {key} has degree {_key_degree(key)}, expected {degree}"
                )
        self._terms = canon

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
        mask = 0
        for t in odds:
            if not 1 <= t <= signature.q:
                raise ValueError(f"odd frame index {t} out of range 1..{signature.q}")
            bit = 1 << (t - 1)
            if mask & bit:
                raise ValueError("repeated odd frame index")
            mask |= bit
        evens = tuple(evens)
        degree = sum(evens) + mask.bit_count()
        if not isinstance(coeff, SuperPolynomial):
            coeff = SuperPolynomial.scalar(signature, coeff)
        return cls(signature, weight, degree, {(evens, mask): coeff})

    def scalar_poly(self) -> SuperPolynomial:
        """The coefficient of a degree-0 symbol as a plain superfunction."""
        if self.degree != 0:
            raise ValueError("scalar_poly requires a degree-0 symbol")
        return self._terms.get(
            ((0,) * self.signature.p, 0), SuperPolynomial.zero(self.signature)
        )

    def _compatible(self, other: "SymbolField") -> None:
        super()._compatible(other)
        if self.degree != other.degree and not (self.is_zero() or other.is_zero()):
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    def scale_poly(self, f: SuperPolynomial) -> "SymbolField":
        """Left multiplication of the coefficients by a superfunction."""
        terms: dict = {}
        for key, poly in self._terms.items():
            _acc(terms, key, f * poly)
        return SymbolField._raw(self.signature, self.weight, self.degree, terms)

    def vee(self, v: Sequence[Rational]) -> "SymbolField":
        """Symmetric product with a homogeneous frame vector (column)."""
        sig = self.signature
        vec = [as_fraction(c) for c in v]
        if len(vec) != sig.n:
            raise ValueError(f"expected {sig.n} vector components")
        even_supp = any(vec[: sig.p])
        odd_supp = any(vec[sig.p :])
        if even_supp and odd_supp:
            raise ValueError("frame vector must be parity homogeneous")
        terms: dict = {}
        for (b, m), g in self._terms.items():
            if even_supp:
                for r in range(sig.p):
                    c = vec[r]
                    if c:
                        key = (b[:r] + (b[r] + 1,) + b[r + 1 :], m)
                        _acc(terms, key, g * c)
            elif odd_supp:
                gs = g.parity_twist()
                for t in range(1, sig.q + 1):
                    c = vec[sig.p + t - 1]
                    if not c:
                        continue
                    bit = 1 << (t - 1)
                    if m & bit:
                        continue
                    sign = -1 if _odd_below(m, bit) & 1 else 1
                    _acc(terms, (b, m | bit), gs * (c * sign))
        return SymbolField._raw(sig, self.weight, self.degree + 1, terms)

    def as_mixed(self) -> "MixedSymbol":
        return MixedSymbol(self.signature, self.weight, {self.degree: self})

    def __repr__(self):
        return (
            f"SymbolField({self.signature}, weight={self.weight}, "
            f"degree={self.degree}, {self._terms!r})"
        )

    def __str__(self):
        from . import expr

        return expr.format_symbol(self)


class MixedSymbol:
    """A finite sum of symbols of distinct degrees at one weight."""

    __slots__ = ("signature", "weight", "_parts")

    def __init__(self, signature: Signature, weight: Rational, parts=None):
        self.signature = signature
        self.weight = as_fraction(weight)
        canon = {}
        for k, field in (parts or {}).items():
            if field.is_zero():
                continue
            if field.signature != signature or field.weight != self.weight:
                raise ValueError("inconsistent part in mixed symbol")
            if field.degree != k:
                raise ValueError("part stored under wrong degree")
            canon[k] = field
        self._parts = canon

    @classmethod
    def from_fields(
        cls, signature: Signature, weight: Rational, fields: Iterable[SymbolField]
    ) -> "MixedSymbol":
        out = cls(signature, weight, {})
        for f in fields:
            out = out + f.as_mixed()
        return out

    def part(self, k: int) -> SymbolField:
        got = self._parts.get(k)
        if got is None:
            return SymbolField.zero(self.signature, self.weight, k)
        return got

    def degrees(self) -> list[int]:
        return sorted(self._parts)

    def parts(self):
        return [self._parts[k] for k in sorted(self._parts)]

    def is_zero(self) -> bool:
        return not self._parts

    def __add__(self, other):
        if isinstance(other, SymbolField):
            other = other.as_mixed()
        if not isinstance(other, MixedSymbol):
            return NotImplemented
        if self.signature != other.signature or self.weight != other.weight:
            raise ValueError("signature or weight mismatch")
        parts = dict(self._parts)
        for k, field in other._parts.items():
            if k in parts:
                s = parts[k] + field
                if s.is_zero():
                    del parts[k]
                else:
                    parts[k] = s
            else:
                parts[k] = field
        return MixedSymbol(self.signature, self.weight, parts)

    def __sub__(self, other):
        if isinstance(other, SymbolField):
            other = other.as_mixed()
        return self + (-other)

    def __neg__(self):
        return MixedSymbol(
            self.signature, self.weight, {k: -v for k, v in self._parts.items()}
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MixedSymbol(
                self.signature,
                self.weight,
                {k: v * other for k, v in self._parts.items()}
                if as_fraction(other)
                else {},
            )
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, SymbolField):
            other = other.as_mixed()
        if not isinstance(other, MixedSymbol):
            return NotImplemented
        return (
            self.signature == other.signature
            and self.weight == other.weight
            and self._parts == other._parts
        )

    __hash__ = None

    def __repr__(self):
        return f"MixedSymbol({self.signature}, weight={self.weight}, {self._parts!r})"

    def __str__(self):
        from . import expr

        return expr.format_symbol(self)


# ---------------------------------------------------------------------------
# differential operators


def _push_through(sig: Signature, ae, am, g: SuperPolynomial) -> dict:
    """Normal-order (d^(ae,am)) o (g .) as sum_key M_h o d^key.

    The entry at key (ae, am) itself is the top-order term tau^|am|(g), the
    parity twist applied once per odd factor.
    """
    state = {((0,) * sig.p, 0): g}
    # process derivative factors right-to-left: odd descending, then even
    for t in range(sig.q, 0, -1):
        bit = 1 << (t - 1)
        if not am & bit:
            continue
        new: dict = {}
        for (e, m), h in state.items():
            dh = h.partial(sig.p + t)
            if dh:
                _acc(new, (e, m), dh)
            if m & bit:
                continue  # repeated odd derivative annihilates
            # bits already in m lie above this one: no reordering sign
            _acc(new, (e, m | bit), h.parity_twist())
        state = new
    for ix in range(sig.p):
        for _ in range(ae[ix]):
            new = {}
            for (e, m), h in state.items():
                dh = h.partial(ix + 1)
                if dh:
                    _acc(new, (e, m), dh)
                _acc(new, (e[:ix] + (e[ix] + 1,) + e[ix + 1 :], m), h)
            state = new
    return state


class DiffOperator(_TermMap, _Graded):
    """Normal-form differential operator between density modules.

    Terms map derivative multi-indices ``(even_powers, odd_subset)`` to
    polynomial coefficients standing to the left; within a term the odd
    derivative factors carry ascending indices and the rightmost factor acts
    first.
    """

    __slots__ = ("lam", "mu")
    _fields = _weights = ("lam", "mu")

    def __init__(self, signature: Signature, lam: Rational, mu: Rational, terms=None):
        self.signature = signature
        self.lam = as_fraction(lam)
        self.mu = as_fraction(mu)
        self._terms = _validate_terms(signature, terms or {})

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
        if not self._terms:
            return 0
        return max(_key_degree(k) for k in self._terms)

    def apply(self, f: SuperPolynomial) -> SuperPolynomial:
        """Evaluate on a superfunction."""
        _check_same_signature(self, f)
        sig = self.signature
        out = SuperPolynomial.zero(sig)
        for (ae, am), coeff in self._terms.items():
            g = f
            # rightmost (largest-index) odd factor acts first
            for t in range(sig.q, 0, -1):
                if am & (1 << (t - 1)):
                    g = g.partial(sig.p + t)
                    if not g:
                        break
            if not g:
                continue
            for ix in range(sig.p):
                for _ in range(ae[ix]):
                    g = g.partial(ix + 1)
                    if not g:
                        break
                if not g:
                    break
            if g:
                out = out + coeff * g
        return out

    # -- composition -------------------------------------------------------

    def compose(self, other: "DiffOperator") -> "DiffOperator":
        """self o other (other acts first); weights must chain."""
        _check_same_signature(self, other)
        if self.lam != other.mu:
            raise ValueError(
                f"weight mismatch in composition: {self.lam} vs {other.mu}"
            )
        sig = self.signature
        out: dict = {}
        for (ae, am), f in self._terms.items():
            for (be, bm), g in other._terms.items():
                for (ce, cm), h in _push_through(sig, ae, am, g).items():
                    s = _odd_merge_sign(cm, bm)
                    if s == 0:
                        continue
                    key = (
                        tuple(x + y for x, y in zip(ce, be)),
                        cm | bm,
                    )
                    coeff = f * h
                    if s < 0:
                        coeff = -coeff
                    _acc(out, key, coeff)
        return DiffOperator._raw(sig, other.lam, self.mu, out)

    # -- structure ---------------------------------------------------------

    def graded_parts(self) -> list[tuple[int, "DiffOperator"]]:
        """Split into homogeneous operators [(parity, operator)], zeros omitted."""
        buckets: dict[int, dict] = {0: {}, 1: {}}
        for (ae, am), coeff in self._terms.items():
            dpar = am.bit_count() & 1
            ce, co = coeff.graded_parts()
            if ce:
                buckets[dpar][(ae, am)] = ce
            if co:
                buckets[dpar ^ 1][(ae, am)] = co
        return [(par, self._with_terms(buckets[par])) for par in (0, 1) if buckets[par]]

    def __repr__(self):
        return (
            f"DiffOperator({self.signature}, lam={self.lam}, mu={self.mu}, "
            f"{self._terms!r})"
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
    sig = x.signature
    w = as_fraction(weight)
    terms: dict = {}
    for i in range(1, sig.n + 1):
        comp = x.components[i - 1]
        if not comp:
            continue
        if sig.parity(i) == 0:
            key = (
                tuple(1 if k == i - 1 else 0 for k in range(sig.p)),
                0,
            )
        else:
            key = ((0,) * sig.p, 1 << (i - sig.p - 1))
        _acc(terms, key, comp)
    div = x.divergence()
    if w and div:
        _acc(terms, ((0,) * sig.p, 0), w * div)
    return DiffOperator._raw(sig, w, w, terms)


def lie_operator(x: SuperVectorField, d: DiffOperator) -> DiffOperator:
    """Lie derivative of an operator between density modules.

    For homogeneous pieces this is L^mu_X o D - (-1)^{parity(X) parity(D)}
    D o L^lam_X, extended additively.  It is computed term by term in closed
    form.  With X split into parts X_chi of parity chi, a normal-form term
    f d^a with a = parity of the derivative d^a maps to

        X(f) d^a + (mu - lam) div(X) f d^a
          + sum_chi f~ (sum_i [d^a X_chi^i] d_i + lam [d^a div X_chi]),

    where f~ = -(-1)^{chi a} tau^chi(f), tau is the parity twist, and
    [d^a g] is d^a o g normal-ordered without its top-order term
    tau^a(g) d^a.  The top-order terms X^i f d_i d^a of both compositions
    and the lam-weight term of top order cancel, so they are never built.
    """
    _check_same_signature(x, d)
    sig = d.signature
    lam = d.lam
    action = x._action()
    weight_div = (d.mu - lam) * action.div
    out: dict = {}
    for alpha, f in d.items():
        ae, am = alpha
        _acc(out, alpha, x.apply(f))
        if weight_div:
            _acc(out, alpha, weight_div * f)
        if not (am or any(ae)):
            continue  # [d^0 g] is empty
        a = am.bit_count() & 1
        for part in action.parts:
            chi = part.parity
            ft = f.parity_twist() if chi else f
            # f~ = sign * ft; sign * X_chi^i and sign * lam carry the sign
            sign = 1 if chi and a else -1
            # sum_i [d^a X_chi^i] d_i, folded per key before multiplying by ft
            table: dict = {}
            for i, comp, neg_comp in part.nonconstant:
                g = comp if sign > 0 else neg_comp
                for (ge, gm), h in _push_through(sig, ae, am, g).items():
                    if (ge, gm) == alpha:
                        continue
                    if i < sig.p:  # d^g d_i, with d_i even
                        key = (ge[:i] + (ge[i] + 1,) + ge[i + 1 :], gm)
                    else:
                        bit = 1 << (i - sig.p)
                        merge = _odd_merge_sign(gm, bit)
                        if not merge:
                            continue
                        key = (ge, gm | bit)
                        if merge < 0:
                            h = -h
                    _acc(table, key, h)
            for key, h in table.items():
                _acc(out, key, ft * h)
            if lam and part.div.degree() > 0:
                lam_ft = (sign * lam) * ft
                for key, h in _push_through(sig, ae, am, part.div).items():
                    if key != alpha:
                        _acc(out, key, lam_ft * h)
    return DiffOperator._raw(sig, lam, d.mu, out)


# ---------------------------------------------------------------------------
# the tensor action on symbols


def _rho_elementary(sig: Signature, j: int, i: int, key) -> list:
    """Action on a frame monomial of the endomorphism taking e_i to e_j.

    Returns ``[(integer coefficient, new_key), ...]`` for the derivation
    action on the canonical monomial, signs included.
    """
    b, m = key
    p = sig.p
    ti, tj = sig.parity(i), sig.parity(j)
    if ti == 0:
        mult = b[i - 1]
        if not mult:
            return []
        b2 = b[: i - 1] + (b[i - 1] - 1,) + b[i:]
        if tj == 0:
            b3 = b2[: j - 1] + (b2[j - 1] + 1,) + b2[j:]
            return [(mult, (b3, m))]
        bit = 1 << (j - p - 1)
        if m & bit:
            return []
        sign = -1 if _odd_below(m, bit) & 1 else 1
        return [(mult * sign, (b2, m | bit))]
    bit_i = 1 << (i - p - 1)
    if not m & bit_i:
        return []
    prefix = _odd_below(m, bit_i)
    sign0 = -1 if ((ti ^ tj) and prefix & 1) else 1
    if tj == 0:
        b2 = b[: j - 1] + (b[j - 1] + 1,) + b[j:]
        return [(sign0, (b2, m ^ bit_i))]
    bit_j = 1 << (j - p - 1)
    if bit_j == bit_i:
        return [(sign0, (b, m))]
    m2 = m ^ bit_i
    if m2 & bit_j:
        return []
    lo, hi = (bit_i, bit_j) if bit_i < bit_j else (bit_j, bit_i)
    between = m2 & (hi - 1) & ~((lo << 1) - 1)
    sign = -sign0 if between.bit_count() & 1 else sign0
    return [(sign, (b, m2 | bit_j))]


def lie_symbol(x: SuperVectorField, s: SymbolField) -> SymbolField:
    """Lie derivative of a twisted symbol field along x.

    Transports coefficients along x and rotates the frame monomials through
    the Jacobian of x, including the density-twist contribution of weight
    ``s.weight``.
    """
    if x.signature != s.signature:
        raise ValueError("signature mismatch")
    sig = s.signature
    delta = s.weight
    acc: dict = {}
    for part in x._action().parts:
        xp = part.field
        delta_trace = delta * part.trace if part.trace else None
        for key, g in s.items():
            tg = xp.apply(g)
            if tg:
                _acc(acc, key, tg)
            gs = g.parity_twist() if part.parity else g
            if not gs:
                continue
            # the rotated frame monomials, folded per key before multiplying by gs
            row: dict = {}
            if delta_trace:
                row[key] = delta_trace
            for i, j, jij in part.jacobian:
                for mult, key2 in _rho_elementary(sig, j, i, key):
                    _acc(row, key2, mult * jij)
            for key2, r in row.items():
                _acc(acc, key2, gs * r)
    return SymbolField._raw(sig, delta, s.degree, acc)


def interior(h: Sequence[Rational], s: SymbolField) -> SymbolField:
    """Contraction of a symbol with a homogeneous covector row.

    Lowers the degree by one; as an operator of the covector's parity it
    passes coefficient functions with the super sign.
    """
    sig = s.signature
    row = [as_fraction(c) for c in h]
    if len(row) != sig.n:
        raise ValueError(f"expected {sig.n} covector components")
    even_supp = any(row[: sig.p])
    odd_supp = any(row[sig.p :])
    if even_supp and odd_supp:
        raise ValueError("covector must be parity homogeneous")
    out_degree = max(s.degree - 1, 0)
    terms: dict = {}
    for (b, m), g in s.items():
        if even_supp:
            for r in range(sig.p):
                c = row[r]
                if c and b[r]:
                    key = (b[:r] + (b[r] - 1,) + b[r + 1 :], m)
                    _acc(terms, key, g * (c * b[r]))
        elif odd_supp:
            gs = g.parity_twist()
            if not gs:
                continue
            for t in range(1, sig.q + 1):
                c = row[sig.p + t - 1]
                if not c:
                    continue
                bit = 1 << (t - 1)
                if not m & bit:
                    continue
                sign = -1 if _odd_below(m, bit) & 1 else 1
                _acc(terms, (b, m ^ bit), gs * (c * sign))
    return SymbolField._raw(sig, s.weight, out_degree, terms)


def symbol_divergence(s: SymbolField) -> SymbolField:
    """Divergence of a symbol: contract each coordinate derivative with its
    dual frame covector, with the coordinate-parity sign."""
    sig = s.signature
    out = SymbolField.zero(sig, s.weight, max(s.degree - 1, 0))
    for j in range(1, sig.n + 1):
        dterms: dict = {}
        for key, g in s.items():
            dg = g.partial(j)
            if dg:
                dterms[key] = dg
        if not dterms:
            continue
        ds = SymbolField._raw(sig, s.weight, s.degree, dterms)
        row = [Fraction(0)] * sig.n
        row[j - 1] = Fraction(-1 if sig.parity(j) else 1)
        out = out + interior(row, ds)
    return out


# ---------------------------------------------------------------------------
# the affine correspondence


def affine_quantize(s: SymbolField | MixedSymbol, lam: Rational) -> DiffOperator:
    """Coefficient-wise quantization: frame monomials become derivatives."""
    lam = as_fraction(lam)
    if isinstance(s, SymbolField):
        s = s.as_mixed()
    terms: dict = {}
    for field in s.parts():
        for key, poly in field.items():
            _acc(terms, key, poly)
    return DiffOperator._raw(s.signature, lam, lam + s.weight, terms)


def affine_symbol(d: DiffOperator) -> MixedSymbol:
    """Total symbol of an operator, split by degree."""
    sig = d.signature
    delta = d.mu - d.lam
    by_degree: dict[int, dict] = {}
    for key, poly in d.items():
        by_degree.setdefault(_key_degree(key), {})[key] = poly
    parts = {
        k: SymbolField._raw(sig, delta, k, terms) for k, terms in by_degree.items()
    }
    return MixedSymbol(sig, delta, parts)


def principal_symbol(k: int, d: DiffOperator) -> SymbolField:
    """Top-degree part of the symbol of an operator of order at most k."""
    if d.order > k:
        raise ValueError(f"operator order {d.order} exceeds requested degree {k}")
    sig = d.signature
    terms = {key: poly for key, poly in d.items() if _key_degree(key) == k}
    return SymbolField._raw(sig, d.mu - d.lam, k, terms)
