"""Executable certification suites.

Each check runs a deterministic, seeded sample of exact identities and
returns a CheckReport whose failure list carries fully printed symbolic
values.  Exact arithmetic makes every failure decisive, so sample budgets
govern coverage rather than statistical confidence.  Checks are pure
functions of their parameters and seed, and may safely run concurrently.
The three sampled checks (equivariance, Casimir, relative Casimir) share one
driver, ``_sampled_check``: it seeds the RNG, draws ``symbol_samples`` degree
by degree, counts each identity a check yields for a sample as
``(label, expected, got)``, and prints the values only for a failure.
``check_homomorphism`` runs over the graded basis instead, with no samples.
The generators and their realized fields are kept per signature by
``functools.cache``; they reuse the graded basis of
``projective._graded_basis`` and its fields, ``projective._realized_basis``.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError
from .expr import format_symbol, format_value
from .geometry import SymbolField, _doubled, _lift, bracket, lie_operator, lie_symbol
from .projective import (
    _graded_basis,
    _is_psl,
    _realized_basis,
    casimir_apply,
    casimir_defect,
    casimir_eigenvalue,
    default_algebra,
    euler_element,
    normalize_algebra,
    pgl_bracket,
    psl_casimir_eigenvalue,
    realize,
    scaled_eps,
)
from .quantizer import QuantizationConfig, quantize
from .supercore import Signature, SuperPolynomial, _degree_keys, _ops, as_fraction

DEFAULT_SAMPLES = 25


# ---------------------------------------------------------------------------
# Reports


@dataclass
class CheckReport:
    """Outcome of one certification run.

    ``failures`` is a list of ``{"input", "expected", "got"}`` entries with
    symbolic values printed in the surface syntax; the report passes exactly
    when at least one identity ran and that list is empty, and is
    reproducible from ``seed``.
    """

    check_name: str
    signature: Signature
    parameters: dict
    samples_run: int = 0
    seed: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.samples_run > 0 and not self.failures

    def record(self, input_text: str, expected, got) -> None:
        self.failures.append(
            {
                "input": input_text,
                "expected": expected if isinstance(expected, str) else format_value(expected),
                "got": got if isinstance(got, str) else format_value(got),
            }
        )

    def to_json(self) -> dict:
        return {
            "check": self.check_name,
            "signature": {"p": self.signature.p, "q": self.signature.q},
            "parameters": dict(self.parameters),
            "samples_run": self.samples_run,
            "seed": self.seed,
            "passed": self.passed,
            "failures": [dict(f) for f in self.failures],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CheckReport":
        return cls(
            check_name=data["check"],
            signature=Signature(
                int(data["signature"]["p"]), int(data["signature"]["q"])
            ),
            parameters=dict(data["parameters"]),
            samples_run=int(data["samples_run"]),
            seed=int(data["seed"]),
            failures=[dict(f) for f in data["failures"]],
        )

    def summary_text(self) -> str:
        if self.passed:
            status = "PASS"
        elif self.failures:
            status = f"FAIL ({len(self.failures)} failures)"
        else:
            status = "FAIL (no identities run)"
        params = ", ".join(f"{k}={v}" for k, v in self.parameters.items())
        lines = [
            f"{self.check_name} at ({self.signature}): {status} "
            f"[{self.samples_run} identities, seed {self.seed}"
            + (f", {params}]" if params else "]")
        ]
        for entry in self.failures[:5]:
            lines.append(f"  input:    {entry['input']}")
            lines.append(f"  expected: {entry['expected']}")
            lines.append(f"  got:      {entry['got']}")
        if len(self.failures) > 5:
            lines.append(f"  ... and {len(self.failures) - 5} more")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Sample generation


def _random_terms(sig: Signature, rng: random.Random, max_degree: int) -> dict:
    """The terms of ``random_polynomial`` as int numerators over 6, the
    common denominator of its coefficients, in the order its sum keeps."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mask = rng.randrange(1 << sig.q) if sig.q else 0
        evens = [0] * sig.p
        for _ in range(rng.randint(0, max_degree)):
            if sig.p:
                evens[rng.randrange(sig.p)] += 1
        a, b = rng.randint(-4, 4), rng.choice([1, 2, 3])
        key = tuple(evens), mask
        total = terms.get(key, 0) + (a * (6 // b) or 6)  # a/b, or 1 for 0
        if total:
            terms[key] = total
        else:
            del terms[key]
    return terms


def random_polynomial(
    sig: Signature, rng: random.Random, max_degree: int = 3
) -> SuperPolynomial:
    """Random superfunction with even degree <= max_degree."""
    return SuperPolynomial._over(sig, _random_terms(sig, rng, max_degree), 6)


def _parity_monomial(sig: Signature, parity: int, rng: random.Random):
    """The key of a random monomial of the parity, None at parity 1 with no
    odd coordinate."""
    if parity and not sig.q:
        return None
    evens = [0] * sig.p
    for _ in range(rng.randint(0, 3)):
        if sig.p:
            evens[rng.randrange(sig.p)] += 1
    mask = (1 << rng.randrange(sig.q)) if parity else 0
    return tuple(evens), mask


def _symbol_terms(sig, keys, rng, max_coeff_degree, parity) -> dict:
    """The term map of ``random_symbol`` over the frame monomials ``keys``
    as int numerators over 6: a random coefficient at each chosen key, its
    terms of the wrong parity dropped and a monomial drawn in their place
    where none is left, and one at the first key where no key has one."""
    out = {}
    one = (0,) * sig.p, 0
    chosen = [key for key in keys if rng.random() < 0.7] or [rng.choice(keys)]
    for key in chosen:
        terms = _random_terms(sig, rng, max_coeff_degree)
        if parity is not None:
            coeff_parity = parity ^ (key[1].bit_count() & 1)
            terms = {k: c for k, c in terms.items() if k[1].bit_count() & 1 == coeff_parity}
            if not terms:
                mono = _parity_monomial(sig, coeff_parity, rng)
                if mono is None:
                    continue
                terms = {mono: 6}
        elif not terms:
            terms = {one: 6}
        out.update(_lift(sig, terms, key))
    if not out:
        key = keys[0]
        mono = None
        if parity is not None:
            mono = _parity_monomial(sig, parity ^ (key[1].bit_count() & 1), rng)
        out = _lift(sig, {mono or one: 6}, key)
    return out


def random_symbol(
    sig: Signature,
    weight,
    degree: int,
    rng: random.Random,
    *,
    max_coeff_degree: int = 3,
    parity: int | None = None,
) -> SymbolField:
    """Random degree-``degree`` symbol with coefficient degree <= 3.

    With ``parity`` set, the symbol is parity-homogeneous: every term's
    total parity (coefficient plus frame) equals ``parity``.
    """
    weight = as_fraction(weight)
    keys = _degree_keys(sig, degree)
    if not keys:
        raise DomainError(f"no degree-{degree} symbol exists at signature {sig}")
    terms = _symbol_terms(sig, keys, rng, max_coeff_degree, parity)
    poly = SuperPolynomial._over(_doubled(sig), terms, 6)
    return SymbolField._raw(sig, weight, degree, poly)


def symbol_samples(
    sig: Signature,
    weight,
    degree: int,
    count: int,
    rng: random.Random,
) -> list[SymbolField]:
    """Deterministic stream of parity-homogeneous symbols.

    For q <= 3 the first samples each force one odd-coordinate subset into a
    coefficient, so the whole Grassmann lattice is exercised across a run.
    A degree with no frame monomial (above q when p = 0) has no samples.
    Each sample is drawn as ``random_symbol`` draws it, straight into int
    numerators over one denominator.
    """
    samples = []
    keys = _degree_keys(sig, degree)
    if not keys:
        return samples
    weight, sig2 = as_fraction(weight), _doubled(sig)
    forced = list(range(1 << sig.q)) if sig.q <= 3 else []
    for i in range(count):
        if i < len(forced):
            fmask = forced[i]
            key = keys[i % len(keys)]
            parity = (fmask.bit_count() & 1) ^ (key[1].bit_count() & 1)
            terms = _symbol_terms(sig, keys, rng, 3, parity)
            evens = tuple(rng.randint(0, 1) for _ in range(sig.p))
            # plus 1/7 at the forced subset, over 42: it cannot cancel
            # against the coefficients over 6
            terms = {k: 7 * c for k, c in terms.items()}
            _ops.add_into(terms, _lift(sig, {(evens, fmask): 6}, key))
            poly = SuperPolynomial._over(sig2, terms, 42)
            samples.append(SymbolField._raw(sig, weight, degree, poly))
        else:
            parity = (i & 1) if sig.q else 0
            samples.append(random_symbol(sig, weight, degree, rng, parity=parity))
    return samples


# ---------------------------------------------------------------------------
# Generator sets


def equivariance_generators(sig: Signature, algebra: str | None = None):
    """Labeled finite generator set whose equivariance implies the full
    algebra, as a new list on every call (callers may extend it) of the
    elements kept per signature."""
    normalize_algebra(sig, algebra)
    return list(_generators(sig))


@functools.cache
def _generators(sig: Signature) -> tuple:
    """The labeled elements of ``equivariance_generators``: the elementary
    graded basis that the dual bases and the realized fields share
    (constants e1.., the linear part g0[..], quadratic directions eps1..),
    and the Euler element at q = p+1."""
    basis = _graded_basis(sig, "elementary")
    n = sig.n
    labels = [f"e{r}" for r in range(1, n + 1)]
    labels += [f"g0[{idx}]" for idx in range(len(basis) - 2 * n)]
    labels += [f"eps{r}" for r in range(1, n + 1)]
    out = tuple(zip(labels, basis, strict=True))
    if _is_psl(sig):
        out += (("euler", euler_element(sig)),)
    return out


@functools.cache
def _realized_generators(sig: Signature) -> tuple:
    """``equivariance_generators(sig)`` with each element realized as a vector
    field: the shared realized graded basis, and the Euler field at q = p+1."""
    gens = equivariance_generators(sig)
    fields = _realized_basis(sig, "elementary")
    if _is_psl(sig):
        fields += (realize(gens[-1][1]),)
    return tuple((label, x) for (label, _h), x in zip(gens, fields, strict=True))


# ---------------------------------------------------------------------------
# Checks


def _sampled_check(
    name: str, sig: Signature, parameters: dict, seed: int, k_max: int,
    sample_count: int, weight, identities,
) -> CheckReport:
    """The report of ``name``: for each degree k <= ``k_max``, the
    ``symbol_samples`` of weight ``weight`` drawn from one RNG seeded with
    ``seed``, and for each sample S every ``(label, expected, got)`` of
    ``identities(k, S)`` counted; a failure is recorded with S printed, the
    text built only then."""
    rng = random.Random(seed)
    report = CheckReport(name, sig, parameters, seed=seed)
    for k in range(k_max + 1):
        for s in symbol_samples(sig, weight, k, sample_count, rng):
            for label, expected, got in identities(k, s):
                report.samples_run += 1
                if expected != got:
                    report.record(f"{label}, S = {format_symbol(s)}", expected, got)
    return report


def check_equivariance(
    cfg: QuantizationConfig,
    degree_max: int = 2,
    sample_count: int = DEFAULT_SAMPLES,
    seed: int = 0,
    *,
    quantizer=None,
) -> CheckReport:
    """Certify lie_operator(X, Q(S)) == Q(lie_symbol(X, S)) generator-wise.

    A critical ``delta`` raises during construction rather than populating
    the failure list.  ``quantizer`` may be swapped (e.g. for a deliberately
    broken map) to demonstrate that failures are detected.
    """
    qmap = quantizer or quantize
    realized = _realized_generators(cfg.signature)

    def identities(_k, s):
        q = qmap(s, cfg)
        for label, x in realized:
            yield f"generator {label}", lie_operator(x, q), qmap(lie_symbol(x, s).as_mixed(), cfg)

    parameters = {
        "lambda": str(cfg.lam),
        "delta": str(cfg.delta),
        "t": str(cfg.t),
        "variant": cfg.variant,
        "degree_max": str(degree_max),
    }
    return _sampled_check(
        "check_equivariance", cfg.signature, parameters, seed, degree_max,
        sample_count, cfg.delta, identities,
    )


def check_casimir(
    sig: Signature,
    algebra: str | None = None,
    lam=0,
    delta=0,
    k_max: int = 3,
    sample_count: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> CheckReport:
    """Certify that the Casimir acts as the expected scalar on each degree."""
    lam = as_fraction(lam)
    delta = as_fraction(delta)
    parameters = {
        "algebra": normalize_algebra(sig, algebra),
        "lambda": str(lam),
        "delta": str(delta),
        "k_max": str(k_max),
    }
    if _is_psl(sig):
        eigenvalues = [psl_casimir_eigenvalue(k) for k in range(k_max + 1)]
    else:
        eigenvalues = [casimir_eigenvalue(k, delta, sig) for k in range(k_max + 1)]

    def identities(k, s):
        yield f"degree {k}", (eigenvalues[k] * s).as_mixed(), casimir_apply(s, lam, rep="L")

    return _sampled_check(
        "check_casimir", sig, parameters, seed, k_max, sample_count, delta, identities
    )


def _pgl_text(h) -> str:
    return "[" + "; ".join(",".join(str(c) for c in row) for row in h.matrix) + "]"


def check_homomorphism(sig: Signature) -> CheckReport:
    """Certify realize on all graded basis brackets, grading, and the
    Euler-class identity for the weighted dual pairs.

    realize(pgl_bracket(a, b)) is compared with the bracket of the fields
    of a and b, the kept ``_realized_generators``, whose parts each bracket
    runs; only the sl Euler element, not among them, is realized here."""
    psl = _is_psl(sig)
    report = CheckReport(
        check_name="check_homomorphism",
        signature=sig,
        parameters={"algebra": default_algebra(sig)},
    )
    # constants e1.., the linear part g0[..], quadratic directions eps1..,
    # and last the Euler class
    elems = equivariance_generators(sig)
    realized = [x for _label, x in _realized_generators(sig)]
    if not psl:
        elems.append(("euler", euler_element(sig)))
        realized.append(realize(elems[-1][1]))
    for i, (la, a) in enumerate(elems):
        for j, (lb, b) in enumerate(elems):
            lhs = realize(pgl_bracket(a, b))
            rhs = bracket(realized[i], realized[j])
            report.samples_run += 1
            if lhs != rhs:
                report.record(f"bracket pair ({la}, {lb})", rhs, lhs)
    # grading: ad of the Euler class is -1, 0, +1 on the three layers
    n = sig.n
    euler = elems[-1][1]
    weights = [-1] * n + [0] * (len(elems) - 1 - 2 * n) + [1] * n
    for (label, h), weight in zip(elems, weights):
        want = weight * h
        report.samples_run += 1
        got = pgl_bracket(euler, h)
        if got != want:
            report.record(
                f"grading {label}", _pgl_text(want) if weight else "0", _pgl_text(got)
            )
    if not psl:
        # sum over the weighted duals of the lowering directions
        total = None
        for r in range(1, n + 1):
            sign = -1 if sig.parity(r) else 1
            term = sign * pgl_bracket(elems[r - 1][1], scaled_eps(sig, r))
            total = term if total is None else total + term
        report.samples_run += 1
        expected = Fraction(-1, 2) * euler
        if total != expected:
            report.record(
                "euler-class contraction", _pgl_text(expected), _pgl_text(total)
            )
    return report


def check_relcas(
    sig: Signature,
    lam=0,
    delta=0,
    k_max: int = 2,
    sample_count: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> CheckReport:
    """Certify that the quantized-action Casimir splits as the symbol-action
    Casimir plus the degree-lowering map.  The three are built apart, each
    kept per signature: the two Casimirs from the basis fields and the
    checked dual basis, the lowering map from the constant and quadratic
    basis fields alone, so a fault in one shows as a failed identity."""
    if _is_psl(sig):
        raise DomainError("the splitting requires q != p+1")
    lam = as_fraction(lam)
    delta = as_fraction(delta)

    def identities(k, s):
        lhs = casimir_apply(s, lam, rep="affine")
        rhs = casimir_apply(s, lam, rep="L") + casimir_defect(s, lam).as_mixed()
        yield f"degree {k}", rhs, lhs

    parameters = {"lambda": str(lam), "delta": str(delta), "k_max": str(k_max)}
    return _sampled_check(
        "check_relcas", sig, parameters, seed, k_max, sample_count, delta, identities
    )
