"""Tests for the projective superalgebra layer.

Independent oracles used here: the invariant form recomputed as a supertrace
of composed adjoint maps over the full elementary-matrix basis; the defect
map computed from its definition against its closed form; Casimir
eigenvalues measured by application against the closed formula; the
symbol-action Casimir operator against the sum of Lie derivatives over the
basis pairs (``casimir_reference``), and the quantized-action Casimir
operator against the sum of operator Lie derivatives
(``casimir_affine_reference``); the bracket and the arithmetic of the
stored nonzero entries against dense matrices (``super_commutator_reference``
and ``representative_reference``); and dual bases checked against the
closed-form pairings.
"""

import functools
import random
import re
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superquant import geometry, projective
from superquant.cli import main as cli_main
from superquant.errors import CriticalValueError, DomainError
from superquant.supercore import Signature, SuperPolynomial, _ops, as_fraction
from superquant.geometry import (
    SuperVectorField,
    SymbolField,
    affine_quantize,
    affine_symbol,
    bracket,
    interior,
    lie_operator,
    lie_symbol,
    symbol_divergence,
)
from superquant.projective import (
    ALGEBRA_PSL,
    ALGEBRA_SL,
    GradedElement,
    PglElement,
    _mat,
    _super_commutator,
    affine_defect,
    affine_defect_closed_form,
    basis_e,
    basis_eps,
    casimir_apply,
    casimir_defect,
    casimir_eigenvalue,
    critical_pairs,
    critical_values,
    critical_values_for_degree,
    default_algebra,
    dual_basis_pair,
    ensure_noncritical,
    euler_element,
    g0_basis,
    graded_basis,
    kaplansky_form,
    killing_form,
    normalize_algebra,
    pgl_bracket,
    pgl_to_graded,
    psl_casimir_eigenvalue,
    psl_quantization_coefficient,
    quantization_coefficient,
    realize,
    scaled_eps,
)
from superquant.verifier import symbol_samples
from test_geometry import ORACLE_SIGNATURES

S10 = Signature(1, 0)
S11 = Signature(1, 1)
S21 = Signature(2, 1)
S12 = Signature(1, 2)
S22 = Signature(2, 2)

SL_SIGS = [S11, S21, S22]
PSL_SIGS = [Signature(0, 1), S12]


def rand_fraction(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def rand_poly(rng, sig, max_degree=2, n_terms=2):
    out = SuperPolynomial.zero(sig)
    for _ in range(n_terms):
        evens = [0] * sig.p
        for _ in range(rng.randint(0, max_degree)):
            if sig.p and rng.random() < 0.6:
                evens[rng.randrange(sig.p)] += 1
        odds = sorted(rng.sample(range(1, sig.q + 1), rng.randint(0, min(sig.q, 2))))
        out = out + SuperPolynomial.monomial(sig, evens, odds, rand_fraction(rng))
    return out


def rand_symbol(rng, sig, weight, degree, n_terms=2, constant=False):
    out = SymbolField.zero(sig, weight, degree)
    for _ in range(n_terms):
        odd_count = rng.randint(0, min(sig.q, degree))
        odds = sorted(rng.sample(range(1, sig.q + 1), odd_count))
        evens = [0] * sig.p
        for _ in range(degree - odd_count):
            if sig.p == 0:
                break
            evens[rng.randrange(sig.p)] += 1
        if sum(evens) + len(odds) != degree:
            continue
        coeff = (
            SuperPolynomial.scalar(sig, rand_fraction(rng))
            if constant
            else rand_poly(rng, sig)
        )
        out = out + SymbolField.monomial(sig, weight, evens, odds, coeff)
    return out


def elementary_full(sig, r, c):
    size = 1 + sig.n
    return tuple(
        tuple(Fraction(1 if (i, j) == (r, c) else 0) for j in range(size))
        for i in range(size)
    )


# ``_full_parity``, ``_int_matrix``, ``_supertrace_full`` and
# ``super_commutator_reference`` are the dense helpers of ``projective`` and
# its ``_super_commutator`` from when an element kept dense int rows,
# verbatim but for the name of the last: the oracle of the sparse forms.


def _full_parity(signature: Signature, a: int) -> int:
    """Parity of full-matrix index a in 0..p+q (index 0 is even)."""
    return 0 if a <= signature.p else 1


def _supertrace_full(m, signature: Signature):
    """The supertrace of a full matrix, in the type of its entries."""
    total = 0
    for a in range(len(m)):
        if _full_parity(signature, a):
            total -= m[a][a]
        else:
            total += m[a][a]
    return total


def _int_matrix(m) -> tuple:
    """A rational matrix as ``(rows, den)``: rows of int numerators over the
    least common denominator of its entries."""
    den = lcm(*(v.denominator for row in m for v in row))
    return tuple(tuple(v.numerator * (den // v.denominator) for v in row) for row in m), den


def super_commutator_reference(a: tuple, b: tuple, signature: Signature) -> tuple:
    """Bracket of raw full matrices in one signed pass:
    [a, b]_rc = sum_k a_rk b_kc - (-1)^{(pi_r + pi_k)(pi_k + pi_c)} b_rk a_kc,
    over int numerators: each matrix as ``(rows, den)``, and the bracket in
    the same form over the product of their denominators."""
    (ma, da), (mb, db) = a, b
    size = len(ma)
    par = [_full_parity(signature, i) for i in range(size)]
    out = [[0] * size for _ in range(size)]
    for r in range(size):
        acc = out[r]
        for k in range(size):
            a_rk = ma[r][k]
            if a_rk:
                for c, b_kc in enumerate(mb[k]):
                    if b_kc:
                        acc[c] += a_rk * b_kc
            b_rk = mb[r][k]
            if b_rk:
                odd_rk = par[r] ^ par[k]
                for c, a_kc in enumerate(ma[k]):
                    if a_kc:
                        if odd_rk and par[k] ^ par[c]:
                            acc[c] += b_rk * a_kc
                        else:
                            acc[c] -= b_rk * a_kc
    return tuple(map(tuple, out)), da * db


def rand_traceless(rng, sig):
    """Random supertraceless full matrix (works for either variant)."""
    size = 1 + sig.n
    rows = [[rand_fraction(rng) for _ in range(size)] for _ in range(size)]
    s = _supertrace_full(rows, sig)
    rows[0][0] -= s  # index 0 is even, so this cancels the supertrace
    return tuple(tuple(v for v in row) for row in rows)


# ---------------------------------------------------------------------------
# element structure


def test_algebra_selection():
    assert default_algebra(S11) == ALGEBRA_SL
    assert default_algebra(S12) == ALGEBRA_PSL
    assert normalize_algebra(S11, "gl") == ALGEBRA_SL
    assert normalize_algebra(S12, "pgl") == ALGEBRA_PSL
    with pytest.raises(DomainError):
        normalize_algebra(S11, "psl")
    with pytest.raises(DomainError):
        normalize_algebra(S12, "sl")


def test_identity_class_is_zero():
    for sig in (S11, S12):
        size = 1 + sig.n
        ident = tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(size))
            for i in range(size)
        )
        assert PglElement(sig, ident).is_zero()


def test_graded_round_trip():
    rng = random.Random(3)
    for sig in (S11, S12, S22):
        n = sig.n
        g = GradedElement(
            sig,
            [rand_fraction(rng) for _ in range(n)],
            [[rand_fraction(rng) for _ in range(n)] for _ in range(n)],
            [rand_fraction(rng) for _ in range(n)],
        )
        assert pgl_to_graded(g.to_pgl()) == g
        x = PglElement(
            sig,
            rand_traceless(rng, sig)
            if default_algebra(sig) == ALGEBRA_SL
            else tuple(
                tuple(rand_fraction(rng) for _ in range(n + 1)) for _ in range(n + 1)
            ),
        )
        assert pgl_to_graded(x).to_pgl() == x


def test_bracket_grading():
    for sig in SL_SIGS + PSL_SIGS:
        eul = euler_element(sig)
        for e in basis_e(sig):
            assert pgl_bracket(eul, e) == -1 * e
        for eps in basis_eps(sig):
            assert pgl_bracket(eul, eps) == eps
        for g in g0_basis(sig):
            assert pgl_bracket(eul, g).is_zero()


def test_crochet_identity():
    for sig in SL_SIGS:
        total = None
        for r in range(1, sig.n + 1):
            term = pgl_bracket(basis_e(sig)[r - 1], scaled_eps(sig, r))
            if sig.parity(r):
                term = -1 * term
            total = term if total is None else total + term
        assert total == Fraction(-1, 2) * euler_element(sig)


# ---------------------------------------------------------------------------
# realization


def test_realize_examples():
    sig = S11
    e1 = basis_e(sig)[0]
    got = realize(e1)
    assert got.components[0] == SuperPolynomial.scalar(sig, -1)
    assert not got.components[1]

    from superquant.geometry import SuperVectorField

    assert realize(euler_element(sig)) == SuperVectorField.euler(sig)
    eps1 = basis_eps(sig)[0]
    x1 = SuperPolynomial.coordinate(sig, 1)
    want = SuperVectorField(sig, [x1 * x1, x1 * SuperPolynomial.coordinate(sig, 2)])
    assert realize(eps1) == want


def test_realize_euler_psl():
    from superquant.geometry import SuperVectorField

    for sig in PSL_SIGS:
        assert realize(euler_element(sig)) == SuperVectorField.euler(sig)


@pytest.mark.parametrize("sig", [S11, S21, S12])
def test_realize_homomorphism(sig):
    gens = graded_basis(sig)
    if default_algebra(sig) == ALGEBRA_PSL:
        gens = gens + [euler_element(sig)]
    fields = [realize(g) for g in gens]
    for i, a in enumerate(gens):
        for j, b in enumerate(gens):
            lhs = realize(pgl_bracket(a, b))
            rhs = bracket(fields[i], fields[j])
            assert lhs == rhs, f"homomorphism fails on pair ({i},{j})"


# ---------------------------------------------------------------------------
# the matrix reading of realize, against the graded path it replaced
#
# ``realize_reference`` and ``pgl_to_graded_reference`` are ``realize`` and
# ``pgl_to_graded`` as they were when ``realize`` went through a
# ``GradedElement``, and ``representative_reference`` is the normalisation
# of the ``PglElement`` constructor with the dense helpers it used; all
# verbatim but for their names.


def _identity(size: int) -> tuple:
    return tuple(
        tuple(Fraction(1 if r == c else 0) for c in range(size)) for r in range(size)
    )


def _mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _mat_scale(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


def representative_reference(signature, m, algebra):
    size = 1 + signature.n
    if algebra == ALGEBRA_SL:
        s = _supertrace_full(m, signature)
        if s:
            scale = s / (signature.p + 1 - signature.q)
            m = _mat_sub(m, _mat_scale(scale, _identity(size)))
    else:
        c = m[0][0]
        if c:
            m = _mat_sub(m, _mat_scale(c, _identity(size)))
    return m


def pgl_to_graded_reference(x: PglElement) -> GradedElement:
    n = x.signature.n
    m = x.matrix
    a = m[0][0]
    h_minus = tuple(m[i][0] for i in range(1, n + 1))
    h_plus = tuple(m[0][j] for j in range(1, n + 1))
    h_zero = tuple(
        tuple(m[i][j] - (a if i == j else 0) for j in range(1, n + 1))
        for i in range(1, n + 1)
    )
    return GradedElement(x.signature, h_minus, h_zero, h_plus)


def realize_reference(h) -> SuperVectorField:
    if isinstance(h, SuperVectorField):
        return h
    if isinstance(h, PglElement):
        h = pgl_to_graded_reference(h)
    if not isinstance(h, GradedElement):
        raise TypeError(f"cannot realize {type(h).__name__}")
    sig = h.signature
    n = sig.n
    comps = [SuperPolynomial.zero(sig) for _ in range(n)]
    for i in range(n):
        v = h.h_minus[i]
        if v:
            comps[i] = comps[i] - SuperPolynomial.scalar(sig, v)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            a = h.h_zero[i - 1][j - 1]
            if not a:
                continue
            tj = sig.parity(j)
            ti = sig.parity(i)
            sign = -1 if (tj and (ti ^ tj)) else 1
            comps[i - 1] = comps[i - 1] - (sign * a) * SuperPolynomial.coordinate(
                sig, j
            )
    if any(h.h_plus):
        f = SuperPolynomial.zero(sig)
        for j in range(1, n + 1):
            xi = h.h_plus[j - 1]
            if xi:
                sign = -1 if sig.parity(j) else 1
                f = f + (sign * xi) * SuperPolynomial.coordinate(sig, j)
        for i in range(1, n + 1):
            comps[i - 1] = comps[i - 1] + f * SuperPolynomial.coordinate(sig, i)
    return SuperVectorField(sig, comps)


NONZERO = st.builds(
    Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3)
)


@st.composite
def full_matrices(draw, sig):
    """A sparse (1+n)-square matrix whose h_-, h_0 and h_+ are nonzero at
    index 1 and n: an even and an odd coordinate when the signature has
    both, so the realized field has mixed parity.  The corner and up to n
    other entries are drawn too."""
    size = 1 + sig.n
    m = [[Fraction(0)] * size for _ in range(size)]
    index = st.integers(0, size - 1)
    for r, c, v in draw(st.lists(st.tuples(index, index, NONZERO), max_size=size)):
        m[r][c] = v
    for i in {1, sig.n}:
        m[i][0] = draw(NONZERO)
        m[0][i] = draw(NONZERO)
        for j in {1, sig.n}:
            m[i][j] = draw(NONZERO)
    return tuple(tuple(row) for row in m)


@st.composite
def elements_and_graded(draw):
    sig = draw(st.sampled_from(ORACLE_SIGNATURES))
    x = PglElement(sig, draw(full_matrices(sig)))
    y = PglElement(sig, draw(full_matrices(sig)))
    m = draw(full_matrices(sig))
    # the graded data of a third matrix, its corner ignored
    g = GradedElement(
        sig,
        [row[0] for row in m[1:]],
        [row[1:] for row in m[1:]],
        m[0][1:],
    )
    return sig, m, x, y, g


def assert_canonical(field):
    # the map is stored reduced: nonzero int numerators over a denominator
    # coprime to them, as the constructor makes it from the rational values
    for poly in (field._poly, *field.components):
        assert poly == SuperPolynomial(poly.signature, dict(poly.items()))
        assert all(type(c) is int and c for c in poly._terms.values())
        assert poly._den >= 1 and gcd(poly._den, *poly._terms.values()) == 1


@settings(max_examples=200, deadline=None)
@given(elements_and_graded())
def test_realize_matches_graded_reference(case):
    sig, m, x, y, g = case
    algebra = default_algebra(sig)
    assert PglElement(sig, m).matrix == representative_reference(sig, m, algebra)
    assert pgl_to_graded(x) == pgl_to_graded_reference(x)
    for h in (x, y, g, g.to_pgl()):
        got = realize(h)
        assert got == realize_reference(h)
        assert_canonical(got)
    # the field of a bracket, read from the bracket's matrix
    assert realize(pgl_bracket(x, y)) == realize_reference(pgl_bracket(x, y))


def commutator_reference(m1, m2, sig):
    """The dense oracle bracket of two rational matrices, as a ``Fraction``
    matrix."""
    rows, den = super_commutator_reference(_int_matrix(m1), _int_matrix(m2), sig)
    assert all(type(v) is int for row in rows for v in row)
    return tuple(tuple(Fraction(v, den) for v in row) for row in rows)


def nonzero_entries(rows):
    return {r: {c: v for c, v in enumerate(row) if v} for r, row in enumerate(rows) if any(row)}


def commutator(m1, m2, sig):
    """``_super_commutator`` of two rational matrices, each given to it as
    its nonzero int numerators, as a ``Fraction`` matrix; it must equal the
    dense oracle."""
    size = len(m1)
    (a, da), (b, db) = _int_matrix(m1), _int_matrix(m2)
    rows = _super_commutator(nonzero_entries(a), nonzero_entries(b), sig)
    assert all(type(v) is int for row in rows.values() for v in row.values())
    got = tuple(
        tuple(Fraction(rows.get(r, {}).get(c, 0), da * db) for c in range(size))
        for r in range(size)
    )
    assert got == commutator_reference(m1, m2, sig)
    return got


def assert_stored_canonical(x):
    """An element stores its representative's nonzero int numerators, no
    zero and no empty row, over a positive denominator coprime to them."""
    rows, den = x._rows, x._den
    size = 1 + x.signature.n
    values = [v for row in rows.values() for v in row.values()]
    assert type(den) is int and den >= 1 and gcd(den, *values) == 1
    assert all(type(v) is int and v for v in values)
    assert all(row and 0 <= r < size and all(0 <= c < size for c in row)
               for r, row in rows.items())
    if x.algebra == ALGEBRA_SL:
        assert x.supertrace() == 0
    else:
        assert 0 not in rows.get(0, {})
    assert x.is_zero() == (not rows)


@settings(max_examples=200, deadline=None)
@given(elements_and_graded())
def test_pgl_bracket_matches_validating_constructor(case):
    sig, _m, x, y, _g = case
    raw = commutator(x.matrix, y.matrix, sig)
    got = pgl_bracket(x, y)
    want = PglElement(sig, raw, x.algebra)
    assert got == want and got.algebra == want.algebra == x.algebra
    assert got.matrix == representative_reference(sig, raw, x.algebra)
    # stored reduced, as the constructor stores it from the rational matrix
    assert (got._rows, got._den) == (want._rows, want._den)
    assert_stored_canonical(got)
    assert all(type(v) is Fraction for row in got.matrix for v in row)


SCALARS = st.sampled_from([0, 1, -1, 3, Fraction(-3, 2), Fraction(2, 9)])


@settings(max_examples=200, deadline=None)
@given(elements_and_graded(), SCALARS)
def test_sparse_arithmetic_matches_dense_oracle(case, c):
    sig, m, x, y, _g = case
    algebra = x.algebra

    def oracle(raw):
        return representative_reference(sig, _mat(raw), algebra)

    dense_sum = tuple(
        tuple(u + v for u, v in zip(ra, rb)) for ra, rb in zip(x.matrix, y.matrix)
    )
    dense_diff = tuple(
        tuple(u - v for u, v in zip(ra, rb)) for ra, rb in zip(x.matrix, y.matrix)
    )
    cases = [
        (PglElement(sig, m), oracle(m)),
        (pgl_bracket(x, y), oracle(commutator_reference(x.matrix, y.matrix, sig))),
        (x + y, oracle(dense_sum)),
        (x - y, oracle(dense_diff)),
        (c * x, oracle(_mat_scale(c, x.matrix))),
        (x * c, oracle(_mat_scale(c, x.matrix))),
    ]
    for got, want in cases:
        assert_stored_canonical(got)
        assert got.matrix == want
        assert got == PglElement(sig, want)
        field = realize(got)
        assert field == realize_reference(got)
        assert_canonical(field)
    if c == 0:
        assert (c * x).is_zero() and (c * x)._den == 1


# ---------------------------------------------------------------------------
# invariant forms


def test_killing_closed_form_vs_adjoint_supertrace():
    rng = random.Random(5)
    for sig in (S11, S21, S22):
        size = 1 + sig.n
        for _ in range(4):
            ma = rand_traceless(rng, sig)
            mb = rand_traceless(rng, sig)
            total = Fraction(0)
            for a in range(size):
                for b in range(size):
                    e = elementary_full(sig, a, b)
                    image = commutator(ma, commutator(mb, e, sig), sig)
                    par = (0 if a <= sig.p else 1) ^ (0 if b <= sig.p else 1)
                    total += -image[a][b] if par else image[a][b]
            assert total == killing_form(PglElement(sig, ma), PglElement(sig, mb))


def test_killing_requires_generic_signature():
    with pytest.raises(DomainError):
        killing_form(basis_e(S12)[0], basis_eps(S12)[0])


def test_kaplansky_class_invariance():
    rng = random.Random(7)
    sig = S12
    size = 1 + sig.n
    for _ in range(4):
        ma = rand_traceless(rng, sig)
        mb = rand_traceless(rng, sig)
        shift = tuple(
            tuple(ma[i][j] + (Fraction(3) if i == j else 0) for j in range(size))
            for i in range(size)
        )
        a1 = PglElement(sig, ma)
        a2 = PglElement(sig, shift)
        assert a1 == a2
        b = PglElement(sig, mb)
        assert kaplansky_form(a1, b) == kaplansky_form(a2, b)


def test_kaplansky_requires_supertraceless():
    sig = S12
    with pytest.raises(DomainError):
        kaplansky_form(euler_element(sig), basis_e(sig)[0])


def test_dual_basis_exact_and_closed_forms():
    for sig in SL_SIGS:
        pair = dual_basis_pair(sig)
        n = sig.n
        for r in range(1, n + 1):
            assert killing_form(basis_e(sig)[r - 1], scaled_eps(sig, r)) == 1
            # Gram inversion recovers the closed-form duals on the
            # constant-direction block
            assert pair.dual[r - 1] == scaled_eps(sig, r)
    for sig in PSL_SIGS:
        pair = dual_basis_pair(sig)
        n = sig.n
        for r in range(1, n + 1):
            sign = -1 if sig.parity(r) else 1
            assert pair.dual[r - 1] == sign * basis_eps(sig)[r - 1]


def test_dual_basis_pair_cached():
    assert dual_basis_pair(S11) is dual_basis_pair(S11)


def test_failed_dual_basis_check_raises_domain_error(monkeypatch, fresh_cache):
    form_rows = projective._form_rows

    def shifted(sig, left, right):
        # not bilinear: every value of the form plus 1, so the duals solved
        # from its Gram matrix fail the check
        return [
            {j: v for j in range(len(right)) if (v := row.get(j, 0) + 1)}
            for row in form_rows(sig, left, right)
        ]

    monkeypatch.setattr(projective, "_form_rows", shifted)
    fresh_cache("_dual_columns", projective)
    fresh_cache("_build_dual_basis_pair", projective)
    with pytest.raises(DomainError, match="dual basis verification failed"):
        dual_basis_pair(S21)


def test_psl_dual_basis_takes_one_supertrace_per_element(monkeypatch, fresh_cache):
    fresh_cache("_dual_columns", projective)
    fresh_cache("_build_dual_basis_pair", projective)
    calls = []
    supertrace = PglElement.supertrace

    def counting(self):
        calls.append(self)
        return supertrace(self)

    monkeypatch.setattr(PglElement, "supertrace", counting)
    pair = dual_basis_pair(S12)
    assert calls == list(pair.basis)
    for i, h in enumerate(pair.basis):
        for j, g in enumerate(pair.dual):
            assert kaplansky_form(h, g) == (1 if i == j else 0)


def test_psl_dual_basis_refuses_a_basis_with_supertrace(monkeypatch, fresh_cache):
    fresh_cache("_dual_columns", projective)
    fresh_cache("_build_dual_basis_pair", projective)
    fresh_cache("_graded_basis", projective)
    graded = projective.graded_basis
    monkeypatch.setattr(
        projective, "graded_basis",
        lambda sig, scheme: graded(sig, scheme=scheme)[:-1] + [euler_element(sig)],
    )
    with pytest.raises(DomainError, match="supertraceless"):
        dual_basis_pair(S12)


def test_casimir_fields_realized_once_per_signature(monkeypatch, fresh_cache):
    """Both Casimirs realize each basis element once per signature and no
    dual: a dual's parts are summed from those of the basis fields."""
    fresh_cache("_casimir", projective)
    fresh_cache("_realized_basis", projective)
    realized = []
    real_realize = projective.realize

    def counting_realize(h):
        realized.append(h)
        return real_realize(h)

    monkeypatch.setattr(projective, "realize", counting_realize)
    rng = random.Random(61)
    lam, delta = Fraction(1, 3), Fraction(1, 5)
    s = rand_symbol(rng, S11, delta, 2)
    first = casimir_apply(s, lam, rep="affine")
    assert not first.is_zero()
    pair = dual_basis_pair(S11)
    # the very basis elements, so no dual, equal to one of them or not
    assert len(realized) == len(pair.basis)
    assert all(h is g for h, g in zip(realized, pair.basis))
    assert casimir_apply(s, lam, rep="affine") == first
    assert casimir_apply(s, lam) == (casimir_eigenvalue(2, delta, S11) * s).as_mixed()
    assert len(realized) == len(pair.basis)

    s21 = rand_symbol(rng, S21, delta, 2)
    got = casimir_apply(s21, lam)
    assert not got.is_zero()
    assert casimir_apply(s21, lam, rep="affine") == casimir_affine_reference(s21, lam)
    pair21 = dual_basis_pair(S21)
    assert len(realized) == len(pair.basis) + len(pair21.basis)
    assert all(h is g for h, g in zip(realized[len(pair.basis):], pair21.basis))
    assert got == (casimir_eigenvalue(2, delta, S21) * s21).as_mixed()


def test_casimir_is_built_from_checked_duals_only(monkeypatch, fresh_cache):
    """The coefficients of the duals reach the Casimir only through the
    dual basis check: with a form that is not bilinear, both
    representations fail it."""
    form_rows = projective._form_rows

    def shifted(sig, left, right):
        return [
            {j: v for j in range(len(right)) if (v := row.get(j, 0) + 1)}
            for row in form_rows(sig, left, right)
        ]

    monkeypatch.setattr(projective, "_form_rows", shifted)
    for name in ("_dual_columns", "_build_dual_basis_pair", "_casimir"):
        fresh_cache(name, projective)
    s = rand_symbol(random.Random(62), S21, Fraction(1, 5), 1)
    for rep in ("L", "affine"):
        with pytest.raises(DomainError, match="dual basis verification failed"):
            casimir_apply(s, Fraction(1, 3), rep=rep)


# ---------------------------------------------------------------------------
# the defect map


GAMMA_LAMBDAS = [Fraction(0), Fraction(1, 2), Fraction(-2, 3)]
GAMMA_DELTAS = [Fraction(0), Fraction(1, 5), Fraction(3)]


def test_defect_vanishes_on_affine_elements():
    rng = random.Random(11)
    for sig in (S11, S12):
        for h in basis_e(sig) + g0_basis(sig):
            s = rand_symbol(rng, sig, Fraction(1, 5), 2)
            assert affine_defect(h, s, Fraction(1, 2), full=True).is_zero()


def test_defect_matches_closed_form():
    rng = random.Random(13)
    for sig in (S11, S21):
        for lam in GAMMA_LAMBDAS:
            for delta in GAMMA_DELTAS:
                for k in (1, 2, 3):
                    s = rand_symbol(rng, sig, delta, k)
                    for i, h in enumerate(basis_eps(sig), start=1):
                        got = affine_defect(h, s, lam)
                        want = affine_defect_closed_form(h, s, lam)
                        assert got == want, (sig, lam, delta, k, i)


def test_defect_psl_degree_one_vanishes():
    rng = random.Random(17)
    for sig in PSL_SIGS:
        for lam in GAMMA_LAMBDAS:
            s = rand_symbol(rng, sig, Fraction(1, 5), 1)
            for h in basis_eps(sig):
                assert affine_defect(h, s, lam, full=True).is_zero()


def test_defect_constant_coefficients_and_parity():
    rng = random.Random(19)
    sig = S21
    lam = Fraction(1, 2)
    for k in (1, 2):
        s = rand_symbol(rng, sig, Fraction(1, 5), k, constant=True)
        for h in basis_eps(sig):
            out = affine_defect(h, s, lam)
            for _, coeff in out.items():
                assert coeff.degree() <= 0


def test_defect_closed_form_rejects_non_quadratic():
    with pytest.raises(DomainError):
        affine_defect_closed_form(
            basis_e(S11)[0], rand_symbol(random.Random(0), S11, 0, 1), 0
        )


# ---------------------------------------------------------------------------
# Casimir


def test_casimir_eigenvalue_formula_examples():
    assert casimir_eigenvalue(0, 0, S11) == 0
    assert casimir_eigenvalue(1, 0, S21) == 1
    with pytest.raises(DomainError):
        casimir_eigenvalue(1, 0, S12)


def test_casimir_eigenvector_sl():
    rng = random.Random(23)
    for sig in (S11, S21):
        for delta in (Fraction(0), Fraction(1, 5), Fraction(3)):
            for k in (0, 1, 2, 3):
                s = rand_symbol(rng, sig, delta, k)
                got = casimir_apply(s, 0, rep="L")
                want = (casimir_eigenvalue(k, delta, sig) * s).as_mixed()
                assert got == want, (sig, delta, k)


def test_casimir_eigenvector_psl():
    rng = random.Random(29)
    sig = S12
    for delta in (Fraction(0), Fraction(1, 5)):
        for k in (0, 1, 2, 3):
            s = rand_symbol(rng, sig, delta, k)
            got = casimir_apply(s, 0, rep="L")
            want = (psl_casimir_eigenvalue(k) * s).as_mixed()
            assert got == want, (delta, k)


def test_casimir_decomposition():
    rng = random.Random(31)
    for sig in (S11, S21):
        for lam in (Fraction(0), Fraction(1, 2)):
            for k in (1, 2):
                s = rand_symbol(rng, sig, Fraction(1, 5), k)
                full = casimir_apply(s, lam, rep="affine")
                diag = casimir_apply(s, lam, rep="L")
                lowering = casimir_defect(s, lam).as_mixed()
                assert full == diag + lowering, (sig, lam, k)


def test_casimir_commutes_with_action():
    rng = random.Random(37)
    sig = S11
    delta = Fraction(1, 5)
    s = rand_symbol(rng, sig, delta, 2)
    for h in graded_basis(sig):
        x = realize(h)
        lhs = casimir_apply(lie_symbol(x, s), 0, rep="L")
        rhs_part = casimir_apply(s, 0, rep="L").part(2)
        rhs = lie_symbol(x, rhs_part).as_mixed()
        assert lhs == rhs


def test_casimir_basis_independence():
    rng = random.Random(41)
    sig = S21
    s = rand_symbol(rng, sig, Fraction(1, 5), 2)
    a = casimir_apply(s, Fraction(1, 2), rep="affine", scheme="elementary")
    b = casimir_apply(s, Fraction(1, 2), rep="affine", scheme="euler-split")
    assert a == b


# ---------------------------------------------------------------------------
# the symbol-action Casimir, composed from the lift and div X of each field


@functools.cache
def realized_basis_pairs(sig, scheme):
    """The (basis, dual) pairs of ``dual_basis_pair``, both realized here,
    so the oracles below share no field with ``_casimir``."""
    pair = dual_basis_pair(sig, scheme=scheme)
    return [(realize(h), realize(g)) for h, g in zip(pair.basis, pair.dual)]


def casimir_reference(s, lam, algebra=None, scheme="elementary"):
    """The symbol-action Casimir as the sum over the basis pairs of two
    symbol Lie derivatives, the loop that ``casimir_apply(rep="L")`` ran
    before it became one operator; kept as the oracle, its sum taken by
    ``SuperPolynomial`` addition."""
    sig = s.signature
    normalize_algebra(sig, algebra)
    lam = as_fraction(lam)
    fields = realized_basis_pairs(sig, scheme)
    acc = SuperPolynomial.zero(s._poly.signature)
    for xu, xud in fields:
        acc = acc + lie_symbol(xud, lie_symbol(xu, s))._poly
    return s._with(acc).as_mixed()


CASIMIR_ORACLE_SIGNATURES = [
    Signature(p, q)
    for p, q in ((1, 0), (0, 1), (0, 2), (1, 1), (2, 1), (1, 2), (3, 1), (2, 2),
                 (2, 3), (1, 3), (3, 2))
]
CASIMIR_DELTAS = [Fraction(0), Fraction(1, 5), Fraction(-1, 3), Fraction(3, 2), Fraction(2)]


@pytest.mark.parametrize("sig", CASIMIR_ORACLE_SIGNATURES, ids=str)
def test_symbol_casimir_matches_the_lie_derivative_loop(sig):
    schemes = ["elementary"]
    if sig.p != sig.q and not projective._is_psl(sig):
        schemes.append("euler-split")
    rng = random.Random(f"casimir oracle {sig}")
    cases = 0
    for scheme in schemes:
        for delta in CASIMIR_DELTAS:
            for k in range(4):
                for s in symbol_samples(sig, delta, k, 2, rng):
                    want = casimir_reference(s, Fraction(1, 3), scheme=scheme)
                    assert casimir_apply(s, Fraction(1, 3), scheme=scheme) == want
                    cases += 1
    # at p = 0 there is no symbol above degree q
    degrees = len([k for k in range(4) if sig.p or k <= sig.q])
    assert cases == 2 * len(schemes) * len(CASIMIR_DELTAS) * degrees


def counting_casimir(monkeypatch):
    """A fresh ``_casimir`` cache that records each build's arguments."""
    builds = []
    build = projective._casimir.__wrapped__

    def counting_build(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(projective, "_casimir", functools.cache(counting_build))
    return builds


def reached_passes(p, terms, forms):
    """The passes ``geometry._apply_forms`` makes: the nodes of the nested
    forms, merged position by position, that have first-order rows or a
    multiplier and that the terms reach, a subtree under b being reached
    when d_b of the terms is not zero."""
    passes = int(any(node.multiplier or node.rows for _, node in forms))
    deeper = {}
    for c, node in forms:
        for i, sub in node.deeper:
            deeper.setdefault(i, []).append((c, sub))
    for i, subs in deeper.items():
        if i < p:
            derived = _ops.partial_even_terms(terms, i)
        else:
            derived = _ops.partial_odd_terms(terms, 1 << (i - p))
        if derived:
            passes += reached_passes(p, derived, subs)
    return passes


@pytest.mark.parametrize(
    "sig", [S10, Signature(0, 2), S21, Signature(2, 3), Signature(3, 2)], ids=str
)
def test_symbol_casimir_is_a_few_kernel_passes(sig, monkeypatch, kernel_calls):
    """One ``derive_terms`` pass per node that the symbol reaches and that
    has rows or a multiplier, at most 1 + 2(p+q): at q = p+1 the top node
    has neither, and a symbol of degree 0 reaches no other."""
    def no_lie_symbol(*args):
        raise AssertionError("the symbol-action Casimir took a Lie derivative")

    builds = counting_casimir(monkeypatch)
    monkeypatch.setattr(projective, "lie_symbol", no_lie_symbol)
    monkeypatch.setattr(geometry, "lie_symbol", no_lie_symbol)
    rng = random.Random(f"casimir passes {sig}")
    most = 0
    for k in range(4):
        for s in symbol_samples(sig, Fraction(1, 5), k, 2, rng):
            want = casimir_apply(s, 0)  # the first call builds the Casimir
            forms = [
                (s.weight**i, op._nested_form())
                for i, j, op in projective._casimir(sig, "elementary", "L") if not j
            ]
            passes = reached_passes(2 * sig.p, s._poly._terms, forms)
            kernel_calls.clear()
            assert casimir_apply(s, 0) == want
            assert kernel_calls["derive_terms"] == passes <= 1 + 2 * sig.n
            most = max(most, passes)
    assert builds == [(sig, "elementary", "L")]
    assert most > 0


def _second_order_keys(parts):
    """The second-order slot keys of rep-L ``_casimir`` parts, with the
    index of the part that holds each."""
    return [
        (n, key)
        for n, (_, _, op) in enumerate(parts)
        for key, _ in op.items()
        if sum(key[0]) + key[1].bit_count() == 2
    ]


def _mutated_second_order(parts, n, key, negate):
    """Rep-L ``_casimir`` parts with the second-order row d_a d_b of slot
    key ``key`` in part n, its coefficient, negated or dropped."""
    i, j, op = parts[n]
    sig = op.signature
    terms = {}
    for slot, coeff in op.items():
        if slot == key:
            if not negate:
                continue
            coeff = -coeff
        terms[slot] = coeff
    mutated = geometry.DiffOperator(sig, 0, 0, terms)
    return parts[:n] + ((i, j, mutated),) + parts[n + 1:]


def test_check_casimir_sees_every_second_order_row(monkeypatch, capsys):
    sig = S21
    argv = ["check", "casimir", "--p", "2", "--q", "1"]
    assert cli_main(argv) == 0
    parts = projective._casimir(sig, "elementary", "L")
    keys = _second_order_keys(parts)
    assert keys and {n for n, _ in keys} == {0}  # only C_00 is of order 2
    for n, key in keys:
        for negate in (False, True):
            mutated = _mutated_second_order(parts, n, key, negate)
            monkeypatch.setattr(projective, "_casimir", lambda *args: mutated)
            assert cli_main(argv) == 3, (key, negate)
    capsys.readouterr()


# ---------------------------------------------------------------------------
# the quantized-action Casimir, composed from A, Phi and B of each field


def casimir_affine_reference(s, lam, algebra=None, scheme="elementary"):
    """The quantized-action Casimir as the sum over the basis pairs of two
    operator Lie derivatives, the loop that ``casimir_apply(rep="affine")``
    ran before it became one operator; kept as the oracle, its sum taken by
    ``SuperPolynomial`` addition."""
    sig = s.signature
    normalize_algebra(sig, algebra)
    lam = as_fraction(lam)
    op = affine_quantize(s, lam)
    acc = SuperPolynomial.zero(op._poly.signature)
    for xu, xud in realized_basis_pairs(sig, scheme):
        acc = acc + lie_operator(xud, lie_operator(xu, op))._poly
    return affine_symbol(op._with(acc))


AFFINE_LAMBDAS = [Fraction(0), Fraction(1, 3), Fraction(-2, 5)]
AFFINE_DELTAS = [Fraction(0), Fraction(1, 5), Fraction(-1, 3), Fraction(3, 2)]


@pytest.mark.parametrize("sig", CASIMIR_ORACLE_SIGNATURES, ids=str)
def test_affine_casimir_matches_the_lie_operator_loop(sig):
    schemes = ["elementary"]
    if sig.p != sig.q and not projective._is_psl(sig):
        schemes.append("euler-split")
    rng = random.Random(f"affine casimir oracle {sig}")
    cases = 0
    for scheme in schemes:
        for lam in AFFINE_LAMBDAS:
            for delta in AFFINE_DELTAS:
                for k in range(4):
                    for s in symbol_samples(sig, delta, k, 2, rng):
                        want = casimir_affine_reference(s, lam, scheme=scheme)
                        got = casimir_apply(s, lam, rep="affine", scheme=scheme)
                        assert got == want
                        assert got.weight == s.weight
                        cases += 1
    degrees = len([k for k in range(4) if sig.p or k <= sig.q])
    assert cases == 2 * len(schemes) * len(AFFINE_LAMBDAS) * len(AFFINE_DELTAS) * degrees


@pytest.mark.parametrize(
    "sig", [S10, Signature(0, 2), S21, S12, Signature(3, 2)], ids=str
)
def test_affine_casimir_takes_no_lie_derivative(sig, monkeypatch):
    def no_lie_operator(*args):
        raise AssertionError("the quantized-action Casimir took a Lie derivative")

    builds = counting_casimir(monkeypatch)
    monkeypatch.setattr(projective, "lie_operator", no_lie_operator)
    monkeypatch.setattr(geometry, "lie_operator", no_lie_operator)
    rng = random.Random(f"affine casimir spy {sig}")
    for lam in (Fraction(0), Fraction(1, 3)):
        for k in range(4):
            for s in symbol_samples(sig, Fraction(1, 5), k, 2, rng):
                assert casimir_apply(s, lam, rep="affine") == casimir_apply(
                    s, lam, rep="affine")
    assert builds == [(sig, "elementary", "affine")]


RELCAS_ARGV = ["check", "relcas", "--p", "2", "--q", "1", "--lambda", "1/3",
               "--delta", "1/5", "--kmax", "4", "--samples", "4"]


def test_check_relcas_sees_every_term_of_the_affine_casimir(monkeypatch, capsys):
    assert cli_main(RELCAS_ARGV) == 0
    casimir = projective._casimir
    parts = casimir(S21, "elementary", "affine")
    assert {(i, j) for i, j, _ in parts} == {(0, 0), (1, 0), (0, 1), (2, 0)}
    for n, (i, j, op) in enumerate(parts):
        for key in op._poly._terms:
            negated = dict(op._poly._terms)
            negated[key] = -negated[key]
            mutated = parts[:n] + ((i, j, op._with(SuperPolynomial._raw(
                op._poly.signature, negated, op._poly._den))),) + parts[n + 1:]
            monkeypatch.setattr(
                projective, "_casimir",
                lambda sig, scheme, rep: mutated if rep == "affine" else casimir(
                    sig, scheme, rep),
            )
            assert cli_main(RELCAS_ARGV) == 3, (i, j, key)
    capsys.readouterr()


def test_check_relcas_sides_are_built_apart(monkeypatch, capsys):
    # with a wrong symbol-action Casimir, a quantized-action Casimir built
    # afresh does not follow it: the check still fails
    parts = projective._casimir(S21, "elementary", "L")
    n, key = _second_order_keys(parts)[0]
    mutated = _mutated_second_order(parts, n, key, True)
    fresh = functools.cache(projective._casimir.__wrapped__)
    monkeypatch.setattr(
        projective, "_casimir",
        lambda sig, scheme, rep: mutated if rep == "L" else fresh(sig, scheme, rep),
    )
    assert cli_main(RELCAS_ARGV) == 3
    assert fresh.cache_info().misses == 1  # the affine Casimir was built anew
    capsys.readouterr()


def test_lowering_fields_realized_once_per_signature(monkeypatch, fresh_cache):
    rng = random.Random(67)
    lam = Fraction(1, 2)
    s = rand_symbol(rng, S21, Fraction(1, 5), 2)
    other = rand_symbol(rng, S21, Fraction(-1, 3), 1)
    want = casimir_apply(other, lam, rep="affine") - casimir_apply(other, lam)
    assert not want.is_zero()
    fresh_cache("_realized_basis", projective)
    realized = []
    real_realize = projective.realize

    def counting_realize(h):
        if not isinstance(h, SuperVectorField):  # fields pass through
            realized.append(h.signature)
        return real_realize(h)

    monkeypatch.setattr(projective, "realize", counting_realize)
    first = casimir_defect(s, lam)
    assert not first.is_zero()
    assert realized == [S21] * len(graded_basis(S21))
    assert casimir_defect(s, lam) == first
    assert casimir_defect(other, lam).as_mixed() == want
    assert len(realized) == len(graded_basis(S21))


def test_lowering_map_edges():
    rng = random.Random(43)
    sig = S11
    s0 = rand_symbol(rng, sig, Fraction(1, 5), 0, constant=True)
    assert casimir_defect(s0, Fraction(1, 2)).is_zero()
    s1 = rand_symbol(rng, sig, Fraction(1, 5), 1)
    assert casimir_defect(s1, Fraction(0)).is_zero()
    with pytest.raises(DomainError):
        casimir_defect(rand_symbol(rng, S12, 0, 1), 0)


@pytest.mark.parametrize(
    "sig",
    [S10, S11, S21, Signature(3, 1), S22, Signature(0, 2), Signature(1, 3)],
    ids=str,
)
def test_lowering_map_closed_form(sig):
    # casimir_defect(S, lam) = ((m+1) lam + k - 1)/(m+1) div S at m = p - q
    rng = random.Random(f"lowering:{sig}")
    m1 = sig.p - sig.q + 1
    for k in range(4 if sig.p else min(3, sig.q) + 1):
        # a symbol with a nonzero divergence from degree 1 on
        for _ in range(20):
            s = rand_symbol(rng, sig, Fraction(1, 5), k)
            div = symbol_divergence(s)
            if k == 0 or not div.is_zero():
                break
        assert k == 0 or not div.is_zero()
        for lam in (Fraction(0), Fraction(1, 3), Fraction(-1, 2)):
            assert casimir_defect(s, lam) == (m1 * lam + k - 1) / m1 * div


def test_lowering_map_builds_no_dual_basis(monkeypatch, fresh_cache):
    rng = random.Random(71)
    lam = Fraction(1, 3)
    x1x2 = SuperPolynomial.monomial(S21, [1, 1], [], 1)
    s = rand_symbol(rng, S21, Fraction(1, 5), 2) + SymbolField.monomial(
        S21, Fraction(1, 5), [1, 1], [], x1x2
    )
    before = casimir_defect(s, lam)
    assert not before.is_zero()
    fresh_cache("_realized_basis", projective)

    def no_dual_basis(*args):
        raise AssertionError("the lowering map built a dual basis")

    monkeypatch.setattr(projective, "_build_dual_basis_pair", no_dual_basis)
    monkeypatch.setattr(projective, "_dual_columns", no_dual_basis)
    assert casimir_defect(s, lam) == before


# ---------------------------------------------------------------------------
# scalar constants


def test_critical_set_examples():
    assert critical_values_for_degree(S10, 1) == {Fraction(1)}
    assert Fraction(0) in critical_values(Signature(0, 2), 2)
    assert Fraction(0) not in critical_values(S10, 3)


def critical_values_by_degree(signature, kmax):
    """The union over k <= kmax of the per-degree critical sets."""
    out: set = set()
    for k in range(kmax + 1):
        out |= critical_values_for_degree(signature, k)
    return frozenset(out)


@pytest.mark.parametrize("sig", [
    S10, Signature(2, 0), Signature(0, 1), Signature(0, 2), Signature(0, 3),
    S11, S21, Signature(3, 1), Signature(2, 2), Signature(1, 3),
    Signature(1, 2), Signature(2, 3),
], ids=str)
def test_critical_values_match_union_over_degrees(sig):
    for kmax in range(-3, 13):
        try:
            want = critical_values_by_degree(sig, kmax)
        except DomainError as exc:
            with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
                critical_values(sig, kmax)
        else:
            assert critical_values(sig, kmax) == want, kmax


def test_critical_matches_eigenvalue_collisions():
    sig = S11
    kmax = 3
    crit = critical_values(sig, kmax)
    grid = {Fraction(m, 6) for m in range(-12, 13)} | crit
    for delta in grid:
        collide = bool(critical_pairs(delta, sig, kmax))
        assert (delta in crit) == collide, delta


def test_critical_matches_coefficient_denominators():
    for sig in (S11, Signature(0, 2), S21):
        for k in (1, 2, 3):
            crit = critical_values_for_degree(sig, k)
            for delta in crit:
                with pytest.raises(CriticalValueError):
                    quantization_coefficient(k, k, Fraction(1, 7), delta, sig)
            quantization_coefficient(k, k, Fraction(1, 7), Fraction(7, 3), sig)


def test_ensure_noncritical():
    with pytest.raises(CriticalValueError) as info:
        ensure_noncritical(S10, 1, Fraction(1))
    assert list(info.value.pairs) == [(1, 0)]
    ensure_noncritical(S10, 1, Fraction(2))


def test_coefficient_examples():
    lam, delta = Fraction(1, 3), Fraction(1, 5)
    assert quantization_coefficient(2, 0, lam, delta, S11) == 1
    got = quantization_coefficient(1, 1, lam, delta, S10)
    assert got == lam / (1 - delta)
    assert quantization_coefficient(1, 1, 0, delta, S10) == 0


def test_psl_coefficients():
    assert psl_quantization_coefficient(2, 0) == 1
    assert psl_quantization_coefficient(2, 1) == Fraction(1, 2)
    assert psl_quantization_coefficient(2, 2) == 0
    assert psl_quantization_coefficient(3, 1) == Fraction(1, 2)
    with pytest.raises(DomainError):
        psl_quantization_coefficient(1, 1)
