"""Tests for the certification suites."""

import random
import sys
import threading
from fractions import Fraction

import pytest

from superquant import geometry, projective, verifier
from superquant import (
    CriticalValueError,
    DomainError,
    Signature,
    SuperPolynomial,
    SuperVectorField,
    SymbolField,
    affine_quantize,
    casimir_apply,
    casimir_defect,
    graded_basis,
)
from superquant.quantizer import (
    VARIANT_PSL,
    VARIANT_SL,
    QuantizationConfig,
)
from superquant.supercore import as_fraction
from superquant.verifier import (
    CheckReport,
    _degree_keys,
    check_casimir,
    check_equivariance,
    check_homomorphism,
    check_relcas,
    equivariance_generators,
    random_polynomial,
    random_symbol,
    symbol_samples,
)

S11 = Signature(1, 1)
S21 = Signature(2, 1)
S12 = Signature(1, 2)
S10 = Signature(1, 0)


# The sample generators as they were before they drew into int numerators,
# kept verbatim (but for their names) as oracles: every draw builds validated
# ``SuperPolynomial`` and ``SymbolField`` values and sums them.


def random_polynomial_reference(
    sig: Signature, rng: random.Random, max_degree: int = 3
) -> SuperPolynomial:
    """Random superfunction with even degree <= max_degree."""
    f = SuperPolynomial.zero(sig)
    for _ in range(rng.randint(1, 3)):
        mask = rng.randrange(1 << sig.q) if sig.q else 0
        evens = [0] * sig.p
        for _ in range(rng.randint(0, max_degree)):
            if sig.p:
                evens[rng.randrange(sig.p)] += 1
        c = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        if not c:
            c = Fraction(1)
        f = f + SuperPolynomial(sig, {(tuple(evens), mask): c})
    return f


def project_parity_reference(f: SuperPolynomial, parity: int) -> SuperPolynomial:
    return f.graded_parts()[parity]


def parity_monomial_reference(sig: Signature, parity: int, rng: random.Random):
    if parity and not sig.q:
        return None
    evens = [0] * sig.p
    for _ in range(rng.randint(0, 3)):
        if sig.p:
            evens[rng.randrange(sig.p)] += 1
    mask = (1 << rng.randrange(sig.q)) if parity else 0
    return SuperPolynomial(sig, {(tuple(evens), mask): Fraction(1)})


def random_symbol_reference(
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
    terms = {}
    keys = _degree_keys(sig, degree)
    if not keys:
        raise DomainError(f"no degree-{degree} symbol exists at signature {sig}")
    chosen = [key for key in keys if rng.random() < 0.7] or [rng.choice(keys)]
    for key in chosen:
        poly = random_polynomial_reference(sig, rng, max_coeff_degree)
        if parity is not None:
            coeff_parity = parity ^ (key[1].bit_count() & 1)
            poly = project_parity_reference(poly, coeff_parity)
            if poly.is_zero():
                fallback = parity_monomial_reference(sig, coeff_parity, rng)
                if fallback is None:
                    continue
                poly = fallback
        elif poly.is_zero():
            poly = SuperPolynomial.one(sig)
        terms[key] = poly
    if not terms:
        key = keys[0]
        fallback = None
        if parity is not None:
            fallback = parity_monomial_reference(sig, parity ^ (key[1].bit_count() & 1), rng)
        terms[key] = fallback or SuperPolynomial.one(sig)
    return SymbolField(sig, weight, degree, terms)


def symbol_samples_reference(
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
    """
    samples = []
    keys = _degree_keys(sig, degree)
    if not keys:
        return samples
    forced = list(range(1 << sig.q)) if sig.q <= 3 else []
    for i in range(count):
        if i < len(forced):
            fmask = forced[i]
            key = keys[i % len(keys)]
            parity = (fmask.bit_count() & 1) ^ (key[1].bit_count() & 1)
            s = random_symbol_reference(sig, weight, degree, rng, parity=parity)
            evens = tuple(rng.randint(0, 1) for _ in range(sig.p))
            # 1/7 cannot cancel against random_polynomial coefficients
            extra = SymbolField(
                sig,
                weight,
                degree,
                {key: SuperPolynomial(sig, {(evens, fmask): Fraction(1, 7)})},
            )
            samples.append(s + extra)
        else:
            parity = (i & 1) if sig.q else 0
            samples.append(random_symbol_reference(sig, weight, degree, rng, parity=parity))
    return samples


def same_map(a, b) -> bool:
    """Equal values stored alike: the same terms in the same order over the
    same denominator."""
    return list(a._terms.items()) == list(b._terms.items()) and a._den == b._den


SAMPLE_SIGNATURES = [Signature(p, q) for p, q in (
    (1, 0), (0, 1), (0, 2), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (0, 4), (2, 3))]


class TestSampling:
    @pytest.mark.parametrize("sig", SAMPLE_SIGNATURES, ids=str)
    def test_draws_match_the_validating_reference(self, sig):
        # the same values, stored alike, from the same draws: the generator
        # is left in the same state
        weight = Fraction(2, 7)
        for seed in range(25):
            new, old = random.Random(seed), random.Random(seed)
            for degree in range(4):
                assert same_map(random_polynomial(sig, new, degree),
                                random_polynomial_reference(sig, old, degree))
                if not _degree_keys(sig, degree):
                    continue
                for parity in (None, 0, 1):
                    got = random_symbol(sig, weight, degree, new, parity=parity)
                    want = random_symbol_reference(sig, weight, degree, old, parity=parity)
                    assert got == want and same_map(got._poly, want._poly)
                    assert (got.weight, got.degree) == (want.weight, want.degree)
                got = symbol_samples(sig, 0, degree, 10, new)
                want = symbol_samples_reference(sig, 0, degree, 10, old)
                assert len(got) == len(want) == 10
                for a, b in zip(got, want):
                    assert a == b and same_map(a._poly, b._poly)
                    assert (a.weight, a.degree) == (b.weight, b.degree)
            assert new.random() == old.random()

    def test_symbols_are_parity_homogeneous(self):
        rng = random.Random(3)
        for sig in (S11, S21, S12):
            for degree in (0, 1, 2):
                for s in symbol_samples(sig, Fraction(1, 5), degree, 10, rng):
                    parities = set()
                    for (_, emask), poly in s.items():
                        for (_, tmask), _c in poly.items():
                            parities.add((emask.bit_count() + tmask.bit_count()) & 1)
                    assert len(parities) <= 1, s

    def test_every_odd_subset_exercised(self):
        rng = random.Random(5)
        sig = S12
        seen = set()
        for s in symbol_samples(sig, 0, 1, 8, rng):
            for _key, poly in s.items():
                for (_, tmask), _c in poly.items():
                    seen.add(tmask)
        assert seen == set(range(1 << sig.q))

    def test_coefficient_degree_bound(self):
        rng = random.Random(7)
        for s in symbol_samples(S21, 0, 2, 10, rng):
            for _key, poly in s.items():
                for (xe, _m), _c in poly.items():
                    assert sum(xe) <= 3

    @pytest.mark.parametrize("sig,degree", [(Signature(0, 1), 2), (Signature(0, 2), 3)],
                             ids=["0|1-2", "0|2-3"])
    def test_degree_without_frame_monomials_is_a_domain_error(self, sig, degree):
        with pytest.raises(DomainError) as info:
            random_symbol(sig, 0, degree, random.Random(1))
        assert f"degree-{degree}" in str(info.value) and str(sig) in str(info.value)

    def test_determinism_from_seed(self):
        a = symbol_samples(S21, Fraction(1, 5), 2, 6, random.Random(42))
        b = symbol_samples(S21, Fraction(1, 5), 2, 6, random.Random(42))
        assert a == b
        c = random_symbol(S21, 0, 1, random.Random(9))
        d = random_symbol(S21, 0, 1, random.Random(9))
        assert c == d


class TestGenerators:
    def test_sl_generator_count(self):
        gens = equivariance_generators(S21)
        n = S21.n
        assert len(gens) == n + n * n + n
        labels = [label for label, _ in gens]
        assert labels[0] == "e1"
        assert labels[-1] == f"eps{n}"

    def test_psl_includes_euler(self):
        gens = equivariance_generators(S12)
        assert gens[-1][0] == "euler"

    def test_aliases_give_the_default_generators(self):
        def labels(algebra):
            return [label for label, _ in equivariance_generators(S12, algebra)]

        assert labels(None)[-1] == "euler"
        for algebra in ("psl", "pgl", "PSL"):
            assert labels(algebra) == labels(None)


    def test_generators_built_once_per_signature(self, monkeypatch, fresh_cache):
        # ``check_homomorphism`` appends the Euler element to the list it
        # gets, which must not reach the generators kept per signature
        fresh_cache("_generators", verifier)
        fresh_cache("_graded_basis", projective, verifier)
        built = []
        g0_basis = projective.g0_basis

        def counting_g0_basis(sig, algebra=None):
            built.append(sig)
            return g0_basis(sig, algebra)

        monkeypatch.setattr(projective, "g0_basis", counting_g0_basis)
        for sig in (S21, S12):
            count = len(equivariance_generators(sig))
            first = check_homomorphism(sig)
            again = check_homomorphism(sig)
            assert first.passed and again.passed
            assert again.samples_run == first.samples_run
            assert len(equivariance_generators(sig)) == count
            assert equivariance_generators(sig) is not equivariance_generators(sig)
        assert built == [S21, S12]


class TestEquivariance:
    def test_primary_oracle_passes(self):
        cfg = QuantizationConfig(S21, Fraction(1, 3), Fraction(1, 5), VARIANT_SL)
        report = check_equivariance(cfg, degree_max=2, sample_count=2, seed=1)
        assert report.passed
        assert report.samples_run == len(equivariance_generators(S21)) * 3 * 2

    def test_critical_delta_surfaces_as_error(self):
        cfg = QuantizationConfig(S10, Fraction(1, 2), 1, VARIANT_SL)
        with pytest.raises(CriticalValueError):
            check_equivariance(cfg, degree_max=1, sample_count=1, seed=0)

    def test_affine_map_fails_at_degree_two(self):
        # the coefficient-wise map is not equivariant under quadratic
        # generators once the obstruction coefficient is nonzero
        cfg = QuantizationConfig(S11, 1, 0, VARIANT_SL)

        def affine_only(s, c):
            return affine_quantize(s, c.lam)

        report = check_equivariance(
            cfg, degree_max=2, sample_count=2, seed=3, quantizer=affine_only
        )
        assert not report.passed
        assert any("eps" in f["input"] for f in report.failures)

    def test_psl_family_passes(self):
        cfg = QuantizationConfig(
            S12, Fraction(1, 3), Fraction(1, 5), VARIANT_PSL, Fraction(1)
        )
        report = check_equivariance(cfg, degree_max=1, sample_count=2, seed=7)
        assert report.passed


class TestCasimir:
    def test_sl_eigenvalues(self):
        report = check_casimir(S21, "sl", delta=Fraction(1, 5), k_max=2, sample_count=2, seed=1)
        assert report.passed

    def test_psl_eigenvalues(self):
        report = check_casimir(S12, "psl", k_max=2, sample_count=2, seed=1)
        assert report.passed

    def test_alias_takes_the_q_equals_p_plus_one_eigenvalues(self):
        assert check_casimir(S12, algebra="pgl", k_max=2, sample_count=2).passed

    def test_report_names_the_normalized_algebra(self):
        report = check_casimir(S11, algebra="gl", k_max=1, sample_count=1)
        assert report.parameters["algebra"] == "sl"


class TestHomomorphism:
    @pytest.mark.parametrize("sig", [S11, S21, S12])
    def test_passes(self, sig):
        report = check_homomorphism(sig)
        assert report.passed
        assert report.samples_run > 0


class TestRelcas:
    def test_passes(self):
        report = check_relcas(S21, lam=Fraction(1, 2), delta=0, k_max=2, sample_count=2, seed=1)
        assert report.passed

    def test_requires_generic_signature(self):
        with pytest.raises(DomainError):
            check_relcas(S12)

    def test_vanishing_lowering_weight(self):
        # lam*(p-q+1) + k - 1 = 0 at (2,1), k=2 for lam = -1/2: the
        # quantized-action Casimir equals the symbol-action Casimir there.
        from superquant.projective import casimir_apply, casimir_defect

        rng = random.Random(11)
        s = random_symbol(S21, 0, 2, rng)
        lam = Fraction(-1, 2)
        assert casimir_defect(s, lam).is_zero()
        assert casimir_apply(s, lam, rep="affine") == casimir_apply(s, lam, rep="L")


class TestReports:
    def test_json_round_trip(self):
        report = check_homomorphism(S11)
        data = report.to_json()
        back = CheckReport.from_json(data)
        assert back.check_name == report.check_name
        assert back.signature == report.signature
        assert back.samples_run == report.samples_run
        assert back.passed == report.passed
        assert back.to_json() == data

    def test_reproducible_from_seed(self):
        cfg = QuantizationConfig(S11, Fraction(1, 3), Fraction(1, 5), VARIANT_SL)
        a = check_equivariance(cfg, degree_max=1, sample_count=3, seed=5)
        b = check_equivariance(cfg, degree_max=1, sample_count=3, seed=5)
        assert a.to_json() == b.to_json()

    def test_report_without_identities_does_not_pass(self):
        report = CheckReport("check_equivariance", S11, {}, samples_run=0)
        assert not report.passed
        assert not report.to_json()["passed"]
        assert "PASS" not in report.summary_text()
        report.samples_run = 1
        assert report.passed

    def test_summary_text(self):
        report = check_homomorphism(S11)
        text = report.summary_text()
        assert "check_homomorphism" in text
        assert "PASS" in text

    def test_failure_entries_are_printed_values(self):
        cfg = QuantizationConfig(S11, 1, 0, VARIANT_SL)

        def affine_only(s, c):
            return affine_quantize(s, c.lam)

        report = check_equivariance(
            cfg, degree_max=2, sample_count=1, seed=3, quantizer=affine_only
        )
        assert not report.passed
        entry = report.failures[0]
        assert set(entry) == {"input", "expected", "got"}
        assert "S = " in entry["input"]
        assert entry["expected"] != entry["got"]
        text = report.summary_text()
        assert "FAIL" in text

    def test_passing_checks_print_nothing(self, monkeypatch):
        # a failure's text is built in the failure branch only
        calls = []
        for name in ("format_symbol", "format_value"):
            original = getattr(verifier, name)
            monkeypatch.setattr(
                verifier, name, lambda v, f=original: calls.append(v) or f(v)
            )
        cfg = QuantizationConfig(S21, Fraction(1, 3), Fraction(1, 5), VARIANT_SL)
        reports = [
            check_equivariance(cfg, degree_max=2, sample_count=2, seed=1),
            check_relcas(S21, Fraction(1, 2), Fraction(1, 5), k_max=2, sample_count=2, seed=1),
            check_casimir(S21, delta=Fraction(1, 5), k_max=2, sample_count=2, seed=1),
        ]
        assert all(r.passed and r.samples_run for r in reports)
        assert calls == []

    def test_failure_texts_are_unchanged(self, monkeypatch):
        # the texts each sampled check printed before the checks shared one
        # driver, for one seed: the coefficient-wise map, a doubled lowering
        # map and an eigenvalue off by one
        cfg = QuantizationConfig(S11, 1, 0, VARIANT_SL)
        report = check_equivariance(
            cfg, degree_max=2, sample_count=1, seed=3,
            quantizer=lambda s, c: affine_quantize(s, c.lam),
        )
        s1 = ("(1/7)*et1 - (1/2)*x1*et1 + x1^2*et1 - 2*x1*t1*ex1"
              " + (1/3)*x1^2*t1*ex1")
        s2 = "(1/7)*x1*ex1*et1 - 2*x1^2*ex1*et1"
        assert report.samples_run == 24
        assert report.failures == [
            {"input": f"generator eps1, S = {s1}",
             "expected": "-(1/7)*x1*dt1 + x1^3*dt1 + (1/3)*x1^3*t1*dx1"
                         " + 2*x1*t1 - (1/3)*x1^2*t1",
             "got": "-(1/7)*x1*dt1 + x1^3*dt1 + (1/3)*x1^3*t1*dx1"},
            {"input": f"generator eps2, S = {s1}",
             "expected": "(1/2)*x1*t1*dt1 - 2*x1^2*t1*dt1 - (1/7)*x1*dx1"
                         " + (1/2)*x1^2*dx1 - x1^3*dx1 - (1/7) + (1/2)*x1 - x1^2",
             "got": "(1/2)*x1*t1*dt1 - 2*x1^2*t1*dt1 - (1/7)*x1*dx1"
                    " + (1/2)*x1^2*dx1 - x1^3*dx1"},
            {"input": f"generator eps1, S = {s2}",
             "expected": "-(2/7)*x1^2*dx1*dt1 + 2*x1^3*dx1*dt1 - (2/7)*x1*dt1"
                         " + 4*x1^2*dt1",
             "got": "-(2/7)*x1^2*dx1*dt1 + 2*x1^3*dx1*dt1"},
            {"input": f"generator eps2, S = {s2}",
             "expected": "2*x1^2*t1*dx1*dt1 - (1/7)*x1^2*dx1^2 + 2*x1^3*dx1^2"
                         " - (2/7)*x1*dx1 + 4*x1^2*dx1",
             "got": "2*x1^2*t1*dx1*dt1 - (1/7)*x1^2*dx1^2 + 2*x1^3*dx1^2"},
        ]
        defect = verifier.casimir_defect
        monkeypatch.setattr(verifier, "casimir_defect", lambda s, lam: 2 * defect(s, lam))
        report = check_relcas(S11, 0, Fraction(1, 3), k_max=2, sample_count=1, seed=3)
        assert report.samples_run == 3
        assert report.failures == [
            {"input": f"degree 2, S = {s2}",
             "expected": "(10/21)*x1*ex1*et1 - (20/3)*x1^2*ex1*et1 + (2/7)*et1"
                         " - 8*x1*et1",
             "got": "(10/21)*x1*ex1*et1 - (20/3)*x1^2*ex1*et1 + (1/7)*et1"
                    " - 4*x1*et1"},
        ]
        eigenvalue = verifier.casimir_eigenvalue
        monkeypatch.setattr(
            verifier, "casimir_eigenvalue", lambda k, d, sig: eigenvalue(k, d, sig) + 1
        )
        report = check_casimir(S11, delta=Fraction(1, 3), k_max=1, sample_count=1, seed=3)
        assert report.samples_run == 2
        assert report.failures == [
            {"input": "degree 0, S = (1/7) - 2*x1^2",
             "expected": "(1/7) - 2*x1^2", "got": "0"},
            {"input": f"degree 1, S = {s1}",
             "expected": "(5/21)*et1 - (5/6)*x1*et1 + (5/3)*x1^2*et1"
                         " - (10/3)*x1*t1*ex1 + (5/9)*x1^2*t1*ex1",
             "got": "(2/21)*et1 - (1/3)*x1*et1 + (2/3)*x1^2*et1"
                    " - (4/3)*x1*t1*ex1 + (2/9)*x1^2*t1*ex1"},
        ]


class TestRealizeOnce:
    def test_generators_realized_once_per_signature(self, monkeypatch, fresh_cache):
        fresh_cache("_realized_generators", verifier)
        fresh_cache("_realized_basis", projective, verifier)
        realized = []
        realize = verifier.realize

        def counting_realize(h):
            realized.append(h.signature)
            return realize(h)

        monkeypatch.setattr(verifier, "realize", counting_realize)
        monkeypatch.setattr(projective, "realize", counting_realize)
        cfg = QuantizationConfig(S11, Fraction(1, 3), Fraction(1, 5))
        first = check_equivariance(cfg, degree_max=1, sample_count=2, seed=4)
        assert realized == [S11] * len(equivariance_generators(S11))
        again = check_equivariance(cfg, degree_max=1, sample_count=2, seed=4)
        assert len(realized) == len(equivariance_generators(S11))
        assert first.passed and again.to_json() == first.to_json()

        other = QuantizationConfig(S21, Fraction(1, 3), Fraction(1, 5))
        report = check_equivariance(other, degree_max=1, sample_count=2, seed=4)
        assert realized[len(equivariance_generators(S11)):] == (
            [S21] * len(equivariance_generators(S21))
        )
        assert report.passed
        assert report.samples_run == len(equivariance_generators(S21)) * 2 * 2

    def test_field_data_built_once_per_signature(self, monkeypatch, fresh_cache):
        fresh_cache("_realized_generators", verifier)
        fresh_cache("_realized_basis", projective, verifier)
        built = []
        field_parts = geometry._field_parts

        def counting_field_parts(x):
            built.append(x)
            return field_parts(x)

        monkeypatch.setattr(geometry, "_field_parts", counting_field_parts)
        cfg = QuantizationConfig(S21, Fraction(1, 3), Fraction(1, 5))
        first = check_equivariance(cfg, degree_max=1, sample_count=2, seed=5)
        assert len(built) == len(equivariance_generators(S21))
        again = check_equivariance(cfg, degree_max=1, sample_count=2, seed=5)
        assert len(built) == len(equivariance_generators(S21))
        assert first.passed and again.to_json() == first.to_json()

    def test_one_realized_basis_for_every_user(self, monkeypatch, fresh_cache):
        # at 2|1 the lowering map, the Casimir and the equivariance check
        # share one realization of each graded basis element, the lowering
        # map builds no dual basis, and no dual is realized
        fresh_cache("_casimir", projective)
        fresh_cache("_lowering_map", projective)
        fresh_cache("_build_dual_basis_pair", projective)
        fresh_cache("_realized_basis", projective, verifier)
        fresh_cache("_realized_generators", verifier)
        realized, built = [], []
        realize, build = projective.realize, projective._build_dual_basis_pair

        def counting_realize(h):
            if not isinstance(h, SuperVectorField):  # fields pass through
                realized.append(h)
            return realize(h)

        def counting_build(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(projective, "realize", counting_realize)
        monkeypatch.setattr(verifier, "realize", counting_realize)
        monkeypatch.setattr(projective, "_build_dual_basis_pair", counting_build)
        basis = graded_basis(S21)
        lam, delta = Fraction(1, 3), Fraction(1, 5)
        s = random_symbol(S21, delta, 2, random.Random(73))
        assert not casimir_defect(s, lam).is_zero()
        assert realized == basis and built == []
        assert not casimir_apply(s, lam).is_zero()
        assert len(built) == 1
        assert realized == basis
        cfg = QuantizationConfig(S21, lam, delta)
        assert check_equivariance(cfg, degree_max=1, sample_count=2, seed=7).passed
        assert not casimir_defect(s, lam).is_zero()
        assert realized == basis

    def test_concurrent_checks_agree(self, fresh_cache):
        # four threads realize the generators on empty caches at once
        fresh_cache("_realized_basis", projective, verifier)
        fresh_cache("_realized_generators", verifier)
        cfg = QuantizationConfig(S21, Fraction(1, 3), Fraction(1, 5))
        start = threading.Barrier(4, timeout=60)
        reports = [None] * 4

        def run(i):
            start.wait()
            reports[i] = check_equivariance(cfg, degree_max=1, sample_count=2, seed=6)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(r is not None and r.passed for r in reports)
        assert all(r.to_json() == reports[0].to_json() for r in reports)
