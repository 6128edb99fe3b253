"""Equivariant quantization maps.

The closed-form quantization sums coefficient-weighted iterated divergences,
Q(S) = sum_r C_{k,r} affine(div^r S), and the recursive path builds the same
operator as a Casimir eigenvector.  Both variants share the series: at
q = p+1 the coefficients are the closed form at p - q = -1, where the weights
drop out, and only degree 1 differs, carrying the one-parameter family
Q_t(S) = affine(S) + t affine(div S).  The inverse symbol map peels an
operator top order first.

The series is built in one private dict: each divergence is one pass of the
kernel's ``divergence_terms`` on the symbol's int numerators, and the passes
stop at the last nonzero coefficient.  The coefficients C_{k,0..k} are one
running product in ints over a common denominator
(``projective._coefficients``), computed afresh for each quantized part.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import DomainError
from .geometry import (
    DiffOperator,
    MixedSymbol,
    SymbolField,
    _slot_degree_terms,
    affine_quantize,
)
from .projective import (
    _coefficients,
    _is_psl,
    casimir_defect,
    casimir_eigenvalue,
    ensure_noncritical,
)
from .supercore import Signature, SuperPolynomial, _linear, _ops, as_fraction

VARIANT_SL = "generic-sl"
VARIANT_PSL = "psl-family"


def default_variant(signature: Signature) -> str:
    return VARIANT_PSL if _is_psl(signature) else VARIANT_SL


@dataclass(frozen=True)
class QuantizationConfig:
    """Weights and variant for one quantization problem.

    ``lam`` is the source density weight, ``delta`` the weight shift carried
    by the symbols, ``mu = lam + delta`` the target weight.  ``t`` is the
    family parameter of the q = p+1 variant (ignored elsewhere).
    """

    signature: Signature
    lam: Fraction = Fraction(0)
    delta: Fraction = Fraction(0)
    variant: str | None = None
    t: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "lam", as_fraction(self.lam))
        object.__setattr__(self, "delta", as_fraction(self.delta))
        object.__setattr__(self, "t", as_fraction(self.t))
        variant = self.variant or default_variant(self.signature)
        if variant not in (VARIANT_SL, VARIANT_PSL):
            raise DomainError(f"unknown variant {variant!r}")
        if variant != default_variant(self.signature):
            rule = "=" if variant == VARIANT_PSL else "!="
            raise DomainError(
                f"variant {variant!r} requires q {rule} p+1, got {self.signature}"
            )
        object.__setattr__(self, "variant", variant)

    @functools.cached_property
    def mu(self) -> Fraction:
        return self.lam + self.delta


def _check_symbol(s: SymbolField | MixedSymbol, cfg: QuantizationConfig) -> None:
    if s.signature != cfg.signature:
        raise DomainError(
            f"symbol signature {s.signature} does not match config {cfg.signature}"
        )
    if s.weight != cfg.delta:
        raise DomainError(
            f"symbol weight {s.weight} does not match config shift {cfg.delta}"
        )


def _sum_over_degrees(
    s: SymbolField | MixedSymbol, cfg: QuantizationConfig, quantize_part
) -> DiffOperator:
    """Apply ``quantize_part`` to each homogeneous part of ``s`` and add up
    in one ``_linear`` sum; one part is returned as it is.

    The generic variant is obstructed at critical weights; criticality is
    checked per present degree only.
    """
    ops = []
    for part in s.parts() if isinstance(s, MixedSymbol) else [s]:
        if not _is_psl(cfg.signature):
            ensure_noncritical(cfg.signature, part.degree, cfg.delta)
        ops.append(quantize_part(part, cfg))
    if len(ops) == 1:
        return ops[0]
    poly = _linear(s._poly.signature, [(1, op._poly) for op in ops])
    return DiffOperator._raw(cfg.signature, cfg.lam, cfg.mu, poly)


def _series_coefficients(cfg: QuantizationConfig, k: int) -> tuple[list[int], int]:
    """C_{k,0..r} of the degree-k divergence series up to its last nonzero
    coefficient, as int numerators over one common denominator; the caller
    has passed ``ensure_noncritical`` for the degree.  Every entry is
    nonzero: once a running-product step is zero, so is every later one,
    and the trailing zeros are dropped."""
    if k == 1 and _is_psl(cfg.signature):
        # C_{1,1} is 0/0 at p - q = -1; the family parameter takes its place
        t = cfg.t
        nums, den = [t.denominator, t.numerator], t.denominator
    else:
        nums, den = _coefficients(k, k, cfg.lam, cfg.delta, cfg.signature)
    while not nums[-1]:
        nums.pop()
    return nums, den


def _divergence_series(s: SymbolField, cfg: QuantizationConfig) -> DiffOperator:
    """Q(S) = sum_r C_{k,r} affine(div^r S) for a degree-k symbol: one
    ``divergence_terms`` pass per step over the numerators of S, each step
    added at the numerator of its C_{k,r} into one private dict, and no pass
    after the last nonzero coefficient."""
    sig = cfg.signature
    nums, den = _series_coefficients(cfg, s.degree)
    terms = s._poly._terms
    total: dict = {}
    for r, c in enumerate(nums):
        if r:
            terms = _ops.divergence_terms(terms, sig.p, sig.q)
        # affine(div^r S) is the term map of div^r S relabeled
        _ops.add_into(total, terms, c)
    poly = SuperPolynomial._over(s._poly.signature, total, s._poly._den * den)
    return DiffOperator._raw(sig, cfg.lam, cfg.mu, poly)


def quantize(s: SymbolField | MixedSymbol, cfg: QuantizationConfig) -> DiffOperator:
    """Equivariant quantization of a symbol (mixed degrees summed per part)."""
    _check_symbol(s, cfg)
    return _sum_over_degrees(s, cfg, _divergence_series)


def _recursive_part(s: SymbolField, cfg: QuantizationConfig) -> DiffOperator:
    k = s.degree
    top_eigen = casimir_eigenvalue(k, cfg.delta, cfg.signature)
    parts = [s]
    cur = s
    for r in range(k - 1, -1, -1):
        gap = top_eigen - casimir_eigenvalue(r, cfg.delta, cfg.signature)
        if gap == 0:
            raise DomainError(
                f"eigenvalue collision between degrees {k} and {r}"
            )
        cur = (Fraction(1) / gap) * casimir_defect(cur, cfg.lam)
        parts.append(cur)
    mixed = MixedSymbol.from_fields(cfg.signature, cfg.delta, parts)
    return affine_quantize(mixed, cfg.lam)


def quantize_recursive(
    s: SymbolField | MixedSymbol, cfg: QuantizationConfig
) -> DiffOperator:
    """Quantization built degree-by-degree from the eigenvector recursion.

    Independent of the closed form: the lower parts are produced by the
    degree-lowering map divided by eigenvalue gaps, so that the total symbol
    is a Casimir eigenvector under the quantized action.
    """
    _check_symbol(s, cfg)
    if _is_psl(cfg.signature):
        raise DomainError("the recursive path is defined for the generic variant")
    return _sum_over_degrees(s, cfg, _recursive_part)


def quantize_psl(
    s: SymbolField | MixedSymbol, cfg: QuantizationConfig
) -> DiffOperator:
    """``quantize`` restricted to configurations of the q = p+1 variant."""
    _check_symbol(s, cfg)
    if not _is_psl(cfg.signature):
        raise DomainError("this path requires the q = p+1 variant")
    return _sum_over_degrees(s, cfg, _divergence_series)


def symbol_map(d: DiffOperator, cfg: QuantizationConfig) -> MixedSymbol:
    """Inverse of quantization: peel the operator top order first.

    Returns the mixed symbol whose per-degree parts quantize back to ``d``.
    """
    if d.signature != cfg.signature:
        raise DomainError(
            f"operator signature {d.signature} does not match config {cfg.signature}"
        )
    if d.lam != cfg.lam or d.mu != cfg.mu:
        raise DomainError(
            f"operator weights ({d.lam}, {d.mu}) do not match config "
            f"({cfg.lam}, {cfg.mu})"
        )
    sig, doubled = d.signature, d._poly.signature
    # the remainder and the peeled symbol, in private dicts of numerators
    # over one denominator; the remainder split by slot degree, so each
    # principal symbol is one lookup
    den = d._poly._den
    rest = _slot_degree_terms(sig, d._poly._terms)
    peeled: dict = {}
    for k in range(max(rest, default=0), -1, -1):
        top = rest.get(k)
        if not top:
            continue
        peeled.update(top)
        part = SuperPolynomial._over(doubled, dict(top), den)
        q = quantize(SymbolField._raw(sig, cfg.delta, k, part), cfg)._poly
        common = lcm(den, q._den)
        if common != den:
            # the remainder and the peeled symbol move to the common denominator
            for terms in (peeled, *rest.values()):
                for key in terms:
                    terms[key] *= common // den
            den = common
        for j, piece in _slot_degree_terms(sig, q._terms).items():
            _ops.add_into(rest.setdefault(j, {}), piece, -(den // q._den))
    if any(rest.values()):
        raise DomainError("peeling failed to terminate at zero")
    return MixedSymbol._raw(cfg.signature, cfg.delta, SuperPolynomial._over(doubled, peeled, den))
