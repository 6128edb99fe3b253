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
    SuperVectorField,
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
from superquant.verifier import (
    CheckReport,
    check_casimir,
    check_equivariance,
    check_homomorphism,
    check_relcas,
    equivariance_generators,
    random_symbol,
    symbol_samples,
)

S11 = Signature(1, 1)
S21 = Signature(2, 1)
S12 = Signature(1, 2)
S10 = Signature(1, 0)


class TestSampling:
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
