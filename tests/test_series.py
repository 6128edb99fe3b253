"""The divergence series: its one-pass kernel, its coefficient table and the
kernel calls one quantization makes.

The references here are written out independently: the divergence as the
sum of two left derivatives per coordinate, sum_j +-d/de_j (d/dy^j A), and
each coefficient C_{k,r} as its own product over j = 1..r.
"""

import contextlib
import io
import random
from collections import Counter
from fractions import Fraction

import pytest

from superquant import (
    CriticalValueError,
    MixedSymbol,
    Signature,
    SuperPolynomial,
    affine_quantize,
    psl_quantization_coefficient,
    quantization_coefficient,
    symbol_divergence,
)
from superquant import projective, quantizer, supercore
from superquant.cli import main
from superquant.geometry import _coord, _doubled, _slot
from superquant.projective import critical_pairs, critical_values_for_degree
from superquant.quantizer import QuantizationConfig, quantize, symbol_map
from superquant.verifier import _degree_keys, random_symbol

F = Fraction
GENERIC = [Signature(1, 0), Signature(1, 1), Signature(2, 1), Signature(3, 1),
           Signature(2, 2), Signature(0, 2), Signature(1, 3)]
PSL = [Signature(0, 1), Signature(1, 2), Signature(2, 3)]


# ---------------------------------------------------------------------------
# the kernel against two partial derivatives per coordinate


def divergence_reference(terms, sig):
    doubled = _doubled(sig)
    a = SuperPolynomial._raw(doubled, terms)
    out = SuperPolynomial.zero(doubled)
    for j in range(1, sig.n + 1):
        contracted = a.partial(_coord(sig, j)).partial(_slot(sig, j))
        out = out - contracted if sig.parity(j) else out + contracted
    return out._terms


def every_mask_terms(sig, rng):
    """One term per mask of the doubled odd variables, with random even
    exponents and coefficient: odd coordinates and odd frame vectors in every
    arrangement, so set bits fall between the two bits of an odd pair."""
    terms = {}
    for mask in range(1 << 2 * sig.q):
        evens = tuple(rng.randint(0, 2) for _ in range(2 * sig.p))
        terms[(evens, mask)] = F(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3]))
    return terms


@pytest.mark.parametrize("p,q", [(1, 0), (0, 2), (1, 1), (2, 1), (1, 2), (2, 3)])
def test_divergence_terms_is_two_partials_per_coordinate(p, q):
    sig = Signature(p, q)
    rng = random.Random(f"divergence:{sig}")
    cases = [every_mask_terms(sig, rng) for _ in range(3)]
    for degree in range(4):
        if _degree_keys(sig, degree):
            cases += [random_symbol(sig, F(1, 3), degree, rng)._poly._terms
                      for _ in range(5)]
    between = 0
    for terms in cases:
        got = supercore._ops.divergence_terms(terms, p, q)
        assert got == divergence_reference(terms, sig)
        assert all(got.values())
        for _, mask in terms:
            for t in range(q):
                low, high = 1 << t, 1 << (q + t)
                if mask & low and mask & high and mask & (high - 2 * low):
                    between += 1
    if q >= 2:
        # the sign of an odd pair with other odd bits between its two bits
        assert between
    s = random_symbol(sig, F(1, 3), 1 if p or q else 0, rng)
    assert symbol_divergence(s)._poly._terms == divergence_reference(s._poly._terms, sig)


def test_divergence_terms_cancels_to_no_zero_entry():
    # d/dx1 d/dex1 (x1 ex1) = 1 and -d/de1 d/dt1 (t1 et1) = -1 land on one key
    sig = Signature(1, 1)
    terms = {((1, 1), 0): F(1), ((0, 0), 0b11): F(1)}
    assert divergence_reference(terms, sig) == {}
    assert supercore._ops.divergence_terms(terms, 1, 1) == {}


# ---------------------------------------------------------------------------
# the coefficients


def coefficient_reference(k, r, lam, delta, sig):
    m = sig.p - sig.q
    c = F(1)
    for j in range(1, r + 1):
        c *= F((m + 1) * lam + k - j) / (j * (m + 2 * k - j - (m + 1) * delta))
    return c


LAMS = [F(0), F(1, 3), F(-1, 2), F(2, 7), F(3)]
DELTAS = [F(0), F(1, 5), F(-1, 3), F(3, 2), F(2)]


@pytest.mark.parametrize("sig", GENERIC, ids=str)
def test_running_product_is_the_per_step_product(sig):
    for k in range(9):
        crit = critical_values_for_degree(sig, k)
        for lam in LAMS:
            for delta in DELTAS:
                if delta in crit:
                    continue
                want = [coefficient_reference(k, r, lam, delta, sig)
                        for r in range(k + 1)]
                assert projective._coefficients(k, k, lam, delta, sig) == want
                assert [quantization_coefficient(k, r, lam, delta, sig)
                        for r in range(k + 1)] == want
                table = quantizer._series_coefficients(
                    QuantizationConfig(sig, lam, delta), k)
                while not want[-1]:
                    want.pop()
                assert table == want


@pytest.mark.parametrize("sig", PSL, ids=str)
def test_running_product_at_q_equals_p_plus_one(sig):
    for k in range(9):
        if k == 1:
            with pytest.raises(Exception, match="not determined"):
                psl_quantization_coefficient(1, 1)
            for t in (F(0), F(5, 3)):
                cfg = QuantizationConfig(sig, F(1, 3), F(1, 5), t=t)
                assert quantizer._series_coefficients(cfg, 1) == ([1, t] if t else [1])
            continue
        want = [coefficient_reference(k, r, F(0), F(0), sig) for r in range(k + 1)]
        assert [psl_quantization_coefficient(k, r) for r in range(k + 1)] == want
        if k:
            assert want[k] == 0  # the last factor k - j vanishes at j = k
        for lam, delta in ((F(1, 3), F(1, 5)), (F(-1, 2), F(3, 2))):
            cfg = QuantizationConfig(sig, lam, delta, t=F(7, 3))
            assert quantizer._series_coefficients(cfg, k) == want[:max(k, 1)]


def critical_cases():
    for sig in GENERIC:
        for k in range(1, 5):
            for delta in sorted(critical_values_for_degree(sig, k)):
                yield sig, k, delta


def vanishing_step(sig, k, delta):
    m = sig.p - sig.q
    j = m + 2 * k - (m + 1) * delta
    assert j.denominator == 1
    return int(j)


def cli_coeff(sig, k, r, lam, delta):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["coeff", f"--p={sig.p}", f"--q={sig.q}", f"--k={k}", f"--r={r}",
                     f"--lambda={lam}", f"--delta={delta}"])
    return code, out.getvalue(), err.getvalue()


def test_critical_coefficients_raise_at_the_first_vanishing_step():
    lam = F(1, 3)
    seen = 0
    for sig, k, delta in critical_cases():
        j = vanishing_step(sig, k, delta)
        assert 1 <= j <= k
        message = (f"vanishing denominator at step j={j}: weight {delta} is "
                   f"critical for degree {k} at signature {sig}")
        for r in range(k + 1):
            code, out, err = cli_coeff(sig, k, r, lam, delta)
            if r < j:
                want = coefficient_reference(k, r, lam, delta, sig)
                assert quantization_coefficient(k, r, lam, delta, sig) == want
                assert (code, err) == (0, "")
                continue
            with pytest.raises(CriticalValueError) as info:
                quantization_coefficient(k, r, lam, delta, sig)
            assert str(info.value) == message
            assert info.value.pairs == ((k, k - j),)
            assert (code, out, err) == (2, "", f"domain error: {message}\n")
            seen += 1
    assert seen > 100


def quantize_message(sig, k, delta):
    return (f"weight {delta} is critical for degree {k} at signature {sig}: "
            f"eigenvalue collisions {critical_pairs(delta, sig, k)}")


def test_critical_quantize_raises_the_noncritical_check():
    rng = random.Random("critical quantize")
    for sig, k, delta in critical_cases():
        if not _degree_keys(sig, k):
            continue
        cfg = QuantizationConfig(sig, F(1, 3), delta)
        with pytest.raises(CriticalValueError) as info:
            quantize(random_symbol(sig, delta, k, rng), cfg)
        assert str(info.value) == quantize_message(sig, k, delta)


def test_mixed_symbol_with_one_critical_lower_part_raises():
    rng = random.Random("critical mixed")
    seen = 0
    for sig in GENERIC:
        for k in range(2, 5):
            for low in range(k):
                if not _degree_keys(sig, k):
                    continue
                for delta in sorted(critical_values_for_degree(sig, low)
                                    - critical_values_for_degree(sig, k)):
                    cfg = QuantizationConfig(sig, F(-1, 2), delta)
                    mixed = MixedSymbol.from_fields(sig, delta, [
                        random_symbol(sig, delta, k, rng),
                        random_symbol(sig, delta, low, rng)])
                    with pytest.raises(CriticalValueError) as info:
                        quantize(mixed, cfg)
                    assert str(info.value) == quantize_message(sig, low, delta)
                    seen += 1
    assert seen > 20


# ---------------------------------------------------------------------------
# the kernel calls of one quantization


def test_one_divergence_pass_per_step(kernel_calls):
    rng = random.Random("passes")
    for sig in (Signature(1, 1), Signature(2, 1), Signature(2, 2), Signature(1, 3)):
        cfg = QuantizationConfig(sig, F(1, 3), F(1, 5))
        for k in range(5):
            if not _degree_keys(sig, k):
                continue
            assert all(coefficient_reference(k, r, cfg.lam, cfg.delta, sig)
                       for r in range(k + 1))
            kernel_calls.clear()
            quantize(random_symbol(sig, cfg.delta, k, rng), cfg)
            assert kernel_calls == Counter(divergence_terms=k)


def test_no_pass_after_the_last_nonzero_coefficient(kernel_calls):
    rng = random.Random("trailing zeros")
    # lam = 0 at 2|1 gives C_{k,k} = 0; at q = p+1 every C_{k,k}, k >= 2, is 0
    for cfg in (QuantizationConfig(Signature(2, 1), F(0), F(1, 5)),
                QuantizationConfig(Signature(1, 2), F(1, 3), F(1, 5), t=F(1, 2))):
        for k in range(2, 5):
            kernel_calls.clear()
            quantize(random_symbol(cfg.signature, cfg.delta, k, rng), cfg)
            assert kernel_calls == Counter(divergence_terms=k - 1)


def test_symbol_map_makes_no_partial_call(kernel_calls):
    rng = random.Random("symbol map")
    cfg = QuantizationConfig(Signature(2, 2), F(2, 7), F(-1, 3))
    mixed = MixedSymbol.from_fields(cfg.signature, cfg.delta, [
        random_symbol(cfg.signature, cfg.delta, k, rng) for k in (0, 1, 3)])
    assert symbol_map(quantize(mixed, cfg), cfg) == mixed
    assert set(kernel_calls) == {"divergence_terms"}


def test_configs_differing_in_t_keep_their_own_family():
    rng = random.Random("family")
    for sig in (Signature(0, 1), Signature(1, 2), Signature(2, 3)):
        s = random_symbol(sig, F(1, 5), 1, rng)
        div = affine_quantize(symbol_divergence(s), F(1, 3))
        for t in (F(1, 2), F(-2, 3), F(3)):
            zero = QuantizationConfig(sig, F(1, 3), F(1, 5))
            cfg = QuantizationConfig(sig, F(1, 3), F(1, 5), t=t)
            assert quantize(s, cfg) - quantize(s, zero) == t * div
            assert quantize(s, zero) == affine_quantize(s, F(1, 3))
