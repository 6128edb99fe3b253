"""Tests for the equivariant quantization maps."""

import random
from fractions import Fraction

import pytest

from superquant import supercore
from superquant import (
    CriticalValueError,
    DiffOperator,
    DomainError,
    MixedSymbol,
    Signature,
    SuperPolynomial,
    SymbolField,
    affine_quantize,
    symbol_divergence,
)
from superquant.geometry import (
    affine_symbol,
    lie_operator,
    lie_symbol,
    principal_symbol,
)
from superquant.projective import (
    casimir_apply,
    casimir_eigenvalue,
    euler_element,
    graded_basis,
    psl_casimir_eigenvalue,
    realize,
)
from superquant.quantizer import (
    VARIANT_PSL,
    VARIANT_SL,
    QuantizationConfig,
    default_variant,
    quantize,
    quantize_psl,
    quantize_recursive,
    symbol_map,
)

S11 = Signature(1, 1)
S21 = Signature(2, 1)
S22 = Signature(2, 2)
S12 = Signature(1, 2)
S10 = Signature(1, 0)
S20 = Signature(2, 0)


def rand_fraction(rng):
    num = rng.randint(-4, 4)
    den = rng.choice([1, 1, 2, 3])
    return Fraction(num, den)


def rand_poly(sig, rng, max_degree=2):
    f = SuperPolynomial.zero(sig)
    n = sig.n
    for _ in range(rng.randint(1, 3)):
        evens = [0] * sig.p
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            if sig.p:
                evens[rng.randrange(sig.p)] += 1
        odds = [b + 1 for b in range(sig.q) if rng.random() < 0.4]
        f = f + SuperPolynomial.monomial(sig, tuple(evens), odds, rand_fraction(rng))
    return f


def sym_mono(sig, weight, key, coeff=1):
    evens, mask = key
    odds = [i + 1 for i in range(sig.q) if mask >> i & 1]
    return SymbolField.monomial(sig, weight, evens, odds, coeff)


def rand_symbol(sig, weight, degree, rng, max_degree=2):
    s = SymbolField.zero(sig, weight, degree)
    keys = _degree_keys(sig, degree)
    for key in keys:
        if rng.random() < 0.7:
            s = s + sym_mono(sig, weight, key, rand_poly(sig, rng, max_degree))
    if s.is_zero():
        s = s + sym_mono(sig, weight, keys[0], SuperPolynomial.one(sig))
    return s


def _degree_keys(sig, degree):
    keys = []

    def rec(i, remaining, evens):
        if i == sig.p:
            for mask in range(1 << sig.q):
                if bin(mask).count("1") == remaining:
                    keys.append((tuple(evens), mask))
            return
        for e in range(remaining + 1):
            rec(i + 1, remaining - e, evens + [e])

    rec(0, degree, [])
    return keys


def cfg_sl(sig, lam, delta):
    return QuantizationConfig(sig, lam, delta, VARIANT_SL)


def cfg_psl(sig, lam, delta, t=0):
    return QuantizationConfig(sig, lam, delta, VARIANT_PSL, t)


class TestConfig:
    def test_defaults_by_signature(self):
        assert default_variant(S21) == VARIANT_SL
        assert default_variant(S12) == VARIANT_PSL
        assert QuantizationConfig(S21).variant == VARIANT_SL
        assert QuantizationConfig(S12).variant == VARIANT_PSL

    def test_mu_is_sum(self):
        cfg = cfg_sl(S21, Fraction(1, 3), Fraction(1, 5))
        assert cfg.mu == Fraction(8, 15)

    def test_variant_signature_mismatch(self):
        with pytest.raises(DomainError):
            QuantizationConfig(S12, variant=VARIANT_SL)
        with pytest.raises(DomainError):
            QuantizationConfig(S21, variant=VARIANT_PSL)
        with pytest.raises(DomainError):
            QuantizationConfig(S21, variant="bogus")

    def test_symbol_weight_mismatch(self):
        cfg = cfg_sl(S21, 0, Fraction(1, 5))
        s = sym_mono(S21, 0, ((1, 0), 0), SuperPolynomial.one(S21))
        with pytest.raises(DomainError):
            quantize(s, cfg)

    def test_symbol_signature_mismatch(self):
        cfg = cfg_sl(S21, 0, 0)
        s = sym_mono(S11, 0, ((1,), 0), SuperPolynomial.one(S11))
        with pytest.raises(DomainError):
            quantize(s, cfg)


class TestDegreeZeroAndClassical:
    def test_degree_zero_is_multiplication(self):
        rng = random.Random(11)
        for sig in (S11, S21):
            cfg = cfg_sl(sig, Fraction(1, 3), Fraction(1, 5))
            f = rand_poly(sig, rng)
            s = sym_mono(sig, cfg.delta, ((0,) * sig.p, 0), f)
            q = quantize(s, cfg)
            assert q == DiffOperator.multiplication(f, cfg.lam, cfg.mu)

    @pytest.mark.parametrize("sig", [S10, S20])
    def test_classical_degree_one(self, sig):
        # Q(f d1)(g) = f g_1 + (lam/(1-delta)) f_1 g  in the purely even case.
        rng = random.Random(13)
        lam, delta = Fraction(2, 3), Fraction(1, 5)
        cfg = cfg_sl(sig, lam, delta)
        f = rand_poly(sig, rng, max_degree=3)
        key = (1,) + (0,) * (sig.p - 1)
        s = sym_mono(sig, delta, (key, 0), f)
        q = quantize(s, cfg)
        c = lam / (1 - delta)
        g = rand_poly(sig, rng, max_degree=3)
        expected = f * g.partial(1) + (c * f.partial(1)) * g
        assert q.apply(g) == expected

    def test_lambda_zero_degree_one_is_affine(self):
        rng = random.Random(17)
        for sig in (S11, S21, S22):
            cfg = cfg_sl(sig, 0, Fraction(1, 5))
            s = rand_symbol(sig, cfg.delta, 1, rng)
            assert quantize(s, cfg) == affine_quantize(s, Fraction(0))


class TestClosedFormVsRecursion:
    @pytest.mark.parametrize("sig", [S11, S21, S22])
    def test_two_paths_agree(self, sig):
        rng = random.Random(19)
        lam, delta = Fraction(1, 3), Fraction(1, 5)
        cfg = cfg_sl(sig, lam, delta)
        for k in range(4):
            s = rand_symbol(sig, delta, k, rng, max_degree=1)
            assert quantize(s, cfg) == quantize_recursive(s, cfg)

    def test_recursive_degree_zero_unchanged(self):
        rng = random.Random(23)
        cfg = cfg_sl(S21, Fraction(1, 2), Fraction(1, 5))
        s = rand_symbol(S21, cfg.delta, 0, rng)
        assert quantize_recursive(s, cfg) == affine_quantize(s, cfg.lam)

    def test_recursive_rejects_psl(self):
        cfg = cfg_psl(S12, 0, 0)
        s = sym_mono(S12, 0, ((1,), 0), SuperPolynomial.one(S12))
        with pytest.raises(DomainError):
            quantize_recursive(s, cfg)

    @pytest.mark.parametrize("sig", [S11, S21])
    def test_total_symbol_is_casimir_eigenvector(self, sig):
        rng = random.Random(29)
        lam, delta = Fraction(1, 3), Fraction(1, 5)
        cfg = cfg_sl(sig, lam, delta)
        for k in (1, 2):
            s = rand_symbol(sig, delta, k, rng, max_degree=1)
            q = quantize(s, cfg)
            total = affine_symbol(q)
            acted = MixedSymbol(sig, delta, {})
            for part in total.parts():
                acted = acted + casimir_apply(part, lam, rep="affine")
            alpha = casimir_eigenvalue(k, delta, sig)
            assert acted == alpha * total


class TestNormalizationAndRoundTrip:
    @pytest.mark.parametrize("sig", [S11, S21, S22])
    def test_principal_symbol_recovers_input(self, sig):
        rng = random.Random(31)
        cfg = cfg_sl(sig, Fraction(1, 3), Fraction(1, 5))
        for k in range(4):
            s = rand_symbol(sig, cfg.delta, k, rng, max_degree=1)
            assert principal_symbol(k, quantize(s, cfg)) == s

    def test_symbol_map_round_trip_random_operator(self):
        # Build a random order-2 operator directly, map to symbols, re-quantize.
        rng = random.Random(37)
        sig = S21
        cfg = cfg_sl(sig, Fraction(1, 3), Fraction(1, 5))
        terms = {}
        for k in range(3):
            for key in _degree_keys(sig, k):
                if rng.random() < 0.6:
                    terms[key] = rand_poly(sig, rng)
        d = DiffOperator(sig, cfg.lam, cfg.mu, terms)
        symbols = symbol_map(d, cfg)
        assert quantize(symbols, cfg) == d

    def test_symbol_map_inverts_quantize(self):
        rng = random.Random(41)
        sig = S22
        cfg = cfg_sl(sig, Fraction(1, 2), Fraction(1, 5))
        parts = [rand_symbol(sig, cfg.delta, k, rng, max_degree=1) for k in (0, 2)]
        mixed = MixedSymbol.from_fields(sig, cfg.delta, parts)
        assert symbol_map(quantize(mixed, cfg), cfg) == mixed

    def test_symbol_map_weight_mismatch(self):
        cfg = cfg_sl(S21, Fraction(1, 3), Fraction(1, 5))
        d = DiffOperator.multiplication(SuperPolynomial.one(S21), Fraction(1, 3), Fraction(1, 3))
        with pytest.raises(DomainError):
            symbol_map(d, cfg)

    def test_failed_peel_raises_domain_error(self, monkeypatch):
        import superquant.quantizer as quantizer

        cfg = cfg_sl(S21, Fraction(1, 3), Fraction(1, 5))
        s = sym_mono(S21, cfg.delta, ((1, 0), 0), SuperPolynomial.one(S21))
        d = quantize(s, cfg)
        one = DiffOperator.multiplication(SuperPolynomial.one(S21), cfg.lam, cfg.mu)
        monkeypatch.setattr(quantizer, "quantize", lambda sk, c: quantize(sk, c) + one)
        with pytest.raises(DomainError):
            symbol_map(d, cfg)

    def test_multiplication_maps_to_degree_zero(self):
        cfg = cfg_sl(S21, Fraction(1, 3), Fraction(1, 5))
        f = SuperPolynomial.coordinate(S21, 1)
        d = DiffOperator.multiplication(f, cfg.lam, cfg.mu)
        symbols = symbol_map(d, cfg)
        assert symbols.degrees() == [0]
        assert symbols.part(0).scalar_poly() == f


class TestEquivariance:
    @pytest.mark.parametrize("sig", [S11, S21])
    @pytest.mark.parametrize("lam", [Fraction(0), Fraction(1, 3)])
    def test_equivariance_all_generators(self, sig, lam):
        rng = random.Random(43)
        delta = Fraction(1, 5)
        cfg = cfg_sl(sig, lam, delta)
        for k in (1, 2):
            s = rand_symbol(sig, delta, k, rng, max_degree=1)
            q = quantize(s, cfg)
            for h in graded_basis(sig, "sl"):
                x = realize(h)
                lhs = lie_operator(x, q)
                rhs = quantize(lie_symbol(x, s).as_mixed(), cfg)
                assert lhs == rhs, f"generator {h} breaks equivariance"

    def test_perturbed_coefficient_breaks_equivariance(self):
        rng = random.Random(47)
        sig = S21
        cfg = cfg_sl(sig, Fraction(1, 3), Fraction(1, 5))
        s = rand_symbol(sig, cfg.delta, 2, rng, max_degree=1)

        def perturbed(sym, c):
            out = quantize(sym, c)
            if isinstance(sym, SymbolField) and sym.degree == 2:
                out = out + Fraction(1, 7) * affine_quantize(
                    symbol_divergence(sym), c.lam
                )
            return out

        q = perturbed(s, cfg)
        broken = False
        for h in graded_basis(sig, "sl"):
            x = realize(h)
            lhs = lie_operator(x, q)
            rhs_sym = lie_symbol(x, s).as_mixed()
            rhs = MixedSymbol(sig, cfg.delta, {})
            acc = DiffOperator.zero(sig, cfg.lam, cfg.mu)
            for part in rhs_sym.parts():
                acc = acc + perturbed(part, cfg)
            if lhs != acc:
                broken = True
                break
        assert broken


class TestCritical:
    def test_critical_delta_raises(self):
        # At (1,0) the degree-1 critical set is {1}.
        cfg = cfg_sl(S10, Fraction(1, 2), 1)
        s = sym_mono(S10, 1, ((1,), 0), SuperPolynomial.one(S10))
        with pytest.raises(CriticalValueError) as info:
            quantize(s, cfg)
        assert (1, 0) in info.value.pairs

    def test_noncritical_degree_still_works_in_mixed(self):
        # Criticality is checked per present degree only.
        sig = S10
        delta = Fraction(1)
        cfg = cfg_sl(sig, Fraction(1, 2), delta)
        s = sym_mono(sig, delta, ((0,), 0), SuperPolynomial.one(sig))
        q = quantize(s, cfg)
        assert q == DiffOperator.multiplication(
            SuperPolynomial.one(sig), cfg.lam, cfg.mu
        )


class TestPslFamily:
    def test_t_zero_degree_one_is_affine(self):
        rng = random.Random(53)
        cfg = cfg_psl(S12, Fraction(1, 3), Fraction(1, 5), 0)
        s = rand_symbol(S12, cfg.delta, 1, rng)
        assert quantize(s, cfg) == affine_quantize(s, cfg.lam)

    def test_family_difference_is_divergence_multiplication(self):
        rng = random.Random(59)
        t = Fraction(-2, 3)
        cfg0 = cfg_psl(S12, Fraction(1, 3), Fraction(1, 5), 0)
        cfgt = cfg_psl(S12, Fraction(1, 3), Fraction(1, 5), t)
        s = rand_symbol(S12, Fraction(1, 5), 1, rng)
        diff = quantize(s, cfgt) - quantize(s, cfg0)
        div_poly = symbol_divergence(s).scalar_poly()
        assert diff == DiffOperator.multiplication(t * div_poly, cfg0.lam, cfg0.mu)

    @pytest.mark.parametrize("t", [Fraction(0), Fraction(1), Fraction(-2, 3)])
    def test_degree_one_family_equivariance_including_euler(self, t):
        rng = random.Random(61)
        sig = S12
        cfg = cfg_psl(sig, Fraction(1, 3), Fraction(1, 5), t)
        s = rand_symbol(sig, cfg.delta, 1, rng, max_degree=1)
        q = quantize(s, cfg)
        generators = list(graded_basis(sig, "psl")) + [euler_element(sig)]
        for h in generators:
            x = realize(h)
            lhs = lie_operator(x, q)
            rhs = quantize(lie_symbol(x, s).as_mixed(), cfg)
            assert lhs == rhs, f"generator {h} breaks the family"

    def test_degree_two_closed_form_equivariance(self):
        rng = random.Random(67)
        sig = S12
        cfg = cfg_psl(sig, Fraction(1, 3), Fraction(1, 5))
        s = rand_symbol(sig, cfg.delta, 2, rng, max_degree=1)
        q = quantize(s, cfg)
        for h in graded_basis(sig, "psl"):
            x = realize(h)
            lhs = lie_operator(x, q)
            rhs = quantize(lie_symbol(x, s).as_mixed(), cfg)
            assert lhs == rhs

    def test_degree_two_coefficients_are_weight_independent(self):
        rng = random.Random(71)
        sig = S12
        s = rand_symbol(sig, Fraction(1, 5), 2, rng, max_degree=1)
        q1 = quantize(s, cfg_psl(sig, Fraction(1, 3), Fraction(1, 5)))
        base = affine_quantize(s, Fraction(1, 3))
        d1 = affine_quantize(symbol_divergence(s), Fraction(1, 3))
        # C_{2,1} = 1/2 and C_{2,2} = 0 regardless of the weights.
        assert q1 == base + Fraction(1, 2) * d1

    def test_psl_symbol_map_round_trip(self):
        rng = random.Random(73)
        sig = S12
        cfg = cfg_psl(sig, Fraction(1, 3), Fraction(1, 5), Fraction(1, 2))
        parts = [rand_symbol(sig, cfg.delta, k, rng, max_degree=1) for k in (0, 1, 2)]
        mixed = MixedSymbol.from_fields(sig, cfg.delta, parts)
        assert symbol_map(quantize(mixed, cfg), cfg) == mixed

    def test_psl_direct_entry_rejects_sl_config(self):
        cfg = cfg_sl(S21, 0, 0)
        s = sym_mono(S21, 0, ((1, 0), 0), SuperPolynomial.one(S21))
        with pytest.raises(DomainError):
            quantize_psl(s, cfg)

    def test_psl_casimir_eigenvalue_of_result(self):
        # The degree-2 total symbol is an eigenvector with eigenvalue 2k(k-1).
        rng = random.Random(79)
        sig = S12
        cfg = cfg_psl(sig, Fraction(1, 3), Fraction(1, 5))
        s = rand_symbol(sig, cfg.delta, 2, rng, max_degree=1)
        q = quantize(s, cfg)
        total = affine_symbol(q)
        acted = MixedSymbol(sig, cfg.delta, {})
        for part in total.parts():
            acted = acted + casimir_apply(part, cfg.lam, rep="affine", algebra="psl")
        assert acted == psl_casimir_eigenvalue(2) * total


class TestMixedInput:
    def test_mixed_quantization_is_sum_of_parts(self):
        rng = random.Random(83)
        sig = S21
        cfg = cfg_sl(sig, Fraction(1, 3), Fraction(1, 5))
        parts = [rand_symbol(sig, cfg.delta, k, rng, max_degree=1) for k in (0, 1, 2)]
        mixed = MixedSymbol.from_fields(sig, cfg.delta, parts)
        total = quantize(mixed, cfg)
        expected = DiffOperator.zero(sig, cfg.lam, cfg.mu)
        for part in parts:
            expected = expected + quantize(part, cfg)
        assert total == expected


def test_quantize_never_scales_by_one(monkeypatch):
    """C_{k,0} = 1 (and a family parameter t = 1) add the coefficient-wise
    image as it is: the term kernel never scales by 1."""
    factors = []
    scale_terms = supercore._ops.scale_terms

    def spy(terms, c):
        factors.append(c)
        return scale_terms(terms, c)

    monkeypatch.setattr(supercore._ops, "scale_terms", spy)
    rng = random.Random(89)
    for cfg in (cfg_sl(S21, Fraction(1, 3), Fraction(1, 5)),
                cfg_psl(S12, Fraction(1, 3), Fraction(1, 5), t=1)):
        for k in (1, 2, 3):
            quantize(rand_symbol(cfg.signature, cfg.delta, k, rng), cfg)
    assert factors, "the series should scale some terms"
    assert 1 not in factors
