"""The projective superalgebra acting on R^{p|q}.

Elements are (1+p+q)-square rational matrices modulo multiples of the
identity, graded as constants / linear maps / quadratic directions through
the block decomposition with index 0 as the extra projective slot.  This
module provides brackets, the vector-field realization, the invariant
bilinear forms with exact dual bases, the quantization defect maps, Casimir
application, and every scalar constant of the theory (eigenvalues, critical
values, quantization coefficients).

The signature fixes the algebra variant (``_is_psl``): ``sl`` for q != p+1
(elements are normalized to supertraceless representatives) and ``psl`` for
q = p+1 (representatives are normalized to a zero corner entry;
supertraceless elements form the simple part, while the Euler class extends
it to the full projective algebra).

Per-signature constants are built on first use and kept by ``functools.cache``
for the life of the process: the graded basis, its dual basis (Gram matrix,
inverse and duals over nonzero entries only), the basis realized as vector
fields, which the Casimir, the lowering map and the verifier share, the
realized duals, and the Casimir of each representation (``_casimir``):
operators over the doubled variables, one per weight power, composed from
the per-field parts of the symbol or the operator Lie derivative, which
``casimir_apply`` runs in one nested application.  Cached values are never
mutated, so threads share them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Iterable, Sequence

from .errors import CriticalValueError, DomainError
from .geometry import (
    DiffOperator,
    MixedSymbol,
    SuperVectorField,
    SymbolField,
    affine_quantize,
    affine_symbol,
    interior,
    _apply_parts,
    _doubled,
    _operator_lie_parts,
    _unit,
    lie_operator,
    lie_symbol,
)
from .supercore import Rational, Signature, SuperPolynomial, _ops, as_fraction

ALGEBRA_SL = "sl"
ALGEBRA_PSL = "psl"
REP_SYMBOL = "L"
REP_AFFINE = "affine"


def _is_psl(signature: Signature) -> bool:
    """Whether q = p+1, where the projective algebra is not simple: the one
    place the variant of a signature is decided."""
    return signature.q == signature.p + 1


def default_algebra(signature: Signature) -> str:
    return ALGEBRA_PSL if _is_psl(signature) else ALGEBRA_SL


_ALGEBRA_NAMES = {
    "sl": ALGEBRA_SL, "gl": ALGEBRA_SL, "psl": ALGEBRA_PSL, "pgl": ALGEBRA_PSL
}


def normalize_algebra(signature: Signature, algebra: str | None) -> str:
    own = default_algebra(signature)
    if algebra is None:
        return own
    name = _ALGEBRA_NAMES.get(algebra.lower())
    if name is None:
        raise DomainError(f"unknown algebra variant {algebra!r}")
    if name != own:
        raise DomainError(
            f"algebra {name!r} is not valid for signature {signature}: use {own!r}"
        )
    return name


# ---------------------------------------------------------------------------
# exact matrix helpers (module-private; sizes are tiny)


def _mat(rows) -> tuple:
    return tuple(tuple(as_fraction(v) for v in row) for row in rows)


def _int_matrix(m) -> tuple:
    """A rational matrix as ``(rows, den)``: rows of int numerators over the
    least common denominator of its entries."""
    den = lcm(*(v.denominator for row in m for v in row))
    return tuple(tuple(v.numerator * (den // v.denominator) for v in row) for row in m), den


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


def _supertrace_product(a, b, signature: Signature) -> Fraction:
    """str(ab) = sum_{r,k} (-1)^{pi_r} a_rk b_kr without forming ab; basis
    matrices are sparse, so zero entries are skipped on both sides."""
    total = Fraction(0)
    for r, row in enumerate(a):
        odd = _full_parity(signature, r)
        for k, a_rk in enumerate(row):
            if a_rk:
                b_kr = b[k][r]
                if b_kr:
                    if odd:
                        total -= a_rk * b_kr
                    else:
                        total += a_rk * b_kr
    return total


def _super_commutator(a: tuple, b: tuple, signature: Signature) -> tuple:
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


def _entries(m) -> list:
    """The nonzero entries ``(row, column, value)`` of a matrix."""
    return [(r, c, v) for r, row in enumerate(m) for c, v in enumerate(row) if v]


def _invert(rows: list) -> list:
    """Exact Gauss-Jordan inverse of a rational matrix given by its rows as
    ``{column: value}`` dicts of the nonzero entries; the inverse comes back
    in the same form.  Only nonzero entries are visited."""
    size = len(rows)
    aug = [(dict(row), {r: Fraction(1)}) for r, row in enumerate(rows)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if col in aug[r][0]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        left, right = aug[col]
        inv = 1 / left[col]
        if inv != 1:
            left = {c: v * inv for c, v in left.items()}
            right = {c: v * inv for c, v in right.items()}
            aug[col] = left, right
        for r in range(size):
            factor = aug[r][0].get(col) if r != col else None
            if factor:
                for target, source in zip(aug[r], (left, right)):
                    for c, v in source.items():
                        total = target.get(c, 0) - factor * v
                        if total:
                            target[c] = total
                        else:
                            target.pop(c, None)
    return [right for _left, right in aug]


# ---------------------------------------------------------------------------
# elements


def _representative(signature: Signature, rows: tuple, den: int) -> tuple:
    """The canonical representative of the int matrix ``rows`` over ``den``
    modulo the identity, in the same form: supertraceless for ``sl``, zero
    corner entry for ``psl``.  The multiple of the identity is subtracted on
    the diagonal only; for ``sl`` it is the supertrace over p + 1 - q, so
    the rows move to that multiple of ``den`` first."""
    if _is_psl(signature):
        c, scale = rows[0][0], 1
    else:
        c, scale = _supertrace_full(rows, signature), signature.p + 1 - signature.q
        if scale < 0:
            c, scale = -c, -scale
    if not c:
        return rows, den
    if scale != 1:
        rows, den = tuple(tuple(v * scale for v in row) for row in rows), den * scale
    return tuple(row[:r] + (row[r] - c,) + row[r + 1 :] for r, row in enumerate(rows)), den


class PglElement:
    """An element of the projective superalgebra, stored as a canonical
    representative: supertraceless for ``sl``, zero corner entry for ``psl``.
    ``_ints`` holds the matrix as ``(rows, den)``, int numerators over a
    positive denominator that shares no factor with all of them, which the
    bracket, the realization and equality read; ``matrix`` gives its entries
    as ``Fraction`` rows, made on first use."""

    __slots__ = ("signature", "_ints", "_matrix")

    def __init__(self, signature: Signature, matrix, algebra: str | None = None):
        normalize_algebra(signature, algebra)
        size = 1 + signature.n
        m = _mat(matrix)
        if len(m) != size or any(len(row) != size for row in m):
            raise ValueError(f"expected a {size}x{size} matrix for {signature}")
        self._set(signature, *_int_matrix(m))

    @classmethod
    def _raw(cls, signature: Signature, rows: tuple, den: int) -> "PglElement":
        # a square tuple of int rows of the right size over ``den`` >= 1, as
        # the bracket and the arithmetic make them: only the representative
        # is chosen
        self = cls.__new__(cls)
        self._set(signature, rows, den)
        return self

    def _set(self, signature: Signature, rows: tuple, den: int) -> None:
        # reduced like a term map, so equal elements have equal ``_ints``
        rows, den = _representative(signature, rows, den)
        g = gcd(den, *(v for row in rows for v in row))
        if g != 1:
            rows, den = tuple(tuple(v // g for v in row) for row in rows), den // g
        self.signature = signature
        self._ints = rows, den
        self._matrix = None

    @property
    def matrix(self) -> tuple:
        if self._matrix is None:
            rows, den = self._ints
            zero = Fraction(0)
            self._matrix = tuple(
                tuple(Fraction(v, den) if v else zero for v in row) for row in rows
            )
        return self._matrix

    @property
    def algebra(self) -> str:
        return default_algebra(self.signature)

    def supertrace(self) -> Fraction:
        rows, den = self._ints
        return Fraction(_supertrace_full(rows, self.signature), den)

    def is_zero(self) -> bool:
        return not any(map(any, self._ints[0]))

    def __add__(self, other):
        if not isinstance(other, PglElement):
            return NotImplemented
        if self.signature != other.signature:
            raise ValueError("signature mismatch")
        (ma, da), (mb, db) = self._ints, other._ints
        den = lcm(da, db)
        fa, fb = den // da, den // db
        rows = tuple(
            tuple(fa * x + fb * y for x, y in zip(ra, rb)) for ra, rb in zip(ma, mb)
        )
        return PglElement._raw(self.signature, rows, den)

    def __sub__(self, other):
        if not isinstance(other, PglElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            rows, den = self._ints
            c = other.numerator
            rows = tuple(tuple(c * v for v in row) for row in rows)
            return PglElement._raw(self.signature, rows, den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, PglElement):
            return NotImplemented
        return self.signature == other.signature and self._ints == other._ints

    def __hash__(self):
        return hash((self.signature, self._ints))

    def __repr__(self):
        return f"PglElement({self.signature}, {self.matrix!r}, {self.algebra!r})"


class GradedElement:
    """Graded data (constant part, linear part, quadratic-direction part)."""

    __slots__ = ("signature", "h_minus", "h_zero", "h_plus")

    def __init__(self, signature: Signature, h_minus=None, h_zero=None, h_plus=None):
        n = signature.n
        self.signature = signature
        self.h_minus = tuple(
            as_fraction(v) for v in (h_minus if h_minus is not None else [0] * n)
        )
        zero_block = [[0] * n for _ in range(n)]
        self.h_zero = _mat(h_zero if h_zero is not None else zero_block)
        self.h_plus = tuple(
            as_fraction(v) for v in (h_plus if h_plus is not None else [0] * n)
        )
        if len(self.h_minus) != n or len(self.h_plus) != n:
            raise ValueError(f"expected {n} vector components")
        if len(self.h_zero) != n or any(len(r) != n for r in self.h_zero):
            raise ValueError(f"expected a {n}x{n} linear block")

    def to_pgl(self, algebra: str | None = None) -> PglElement:
        n = self.signature.n
        rows = [(Fraction(0),) + self.h_plus]
        for i in range(n):
            rows.append((self.h_minus[i],) + self.h_zero[i])
        return PglElement(self.signature, rows, algebra)

    def __eq__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        return (
            self.signature == other.signature
            and self.h_minus == other.h_minus
            and self.h_zero == other.h_zero
            and self.h_plus == other.h_plus
        )

    __hash__ = None

    def __repr__(self):
        return (
            f"GradedElement({self.signature}, {self.h_minus!r}, "
            f"{self.h_zero!r}, {self.h_plus!r})"
        )


def pgl_to_graded(x: PglElement) -> GradedElement:
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


def pgl_bracket(a: PglElement, b: PglElement) -> PglElement:
    if a.signature != b.signature:
        raise ValueError("signature mismatch")
    sig = a.signature
    return PglElement._raw(sig, *_super_commutator(a._ints, b._ints, sig))


# ---------------------------------------------------------------------------
# graded basis elements


def _elementary_full(signature: Signature, r: int, c: int, value=1) -> tuple:
    size = 1 + signature.n
    return tuple(
        tuple(as_fraction(value) if (i, j) == (r, c) else Fraction(0) for j in range(size))
        for i in range(size)
    )


def basis_e(signature: Signature, algebra: str | None = None) -> list[PglElement]:
    """Constant directions: the matrix placing 1 in column 0, row i."""
    return [
        PglElement(signature, _elementary_full(signature, i, 0), algebra)
        for i in range(1, signature.n + 1)
    ]


def basis_eps(signature: Signature, algebra: str | None = None) -> list[PglElement]:
    """Quadratic directions: the matrix placing 1 in row 0, column i."""
    return [
        PglElement(signature, _elementary_full(signature, 0, i), algebra)
        for i in range(1, signature.n + 1)
    ]


def scaled_eps(signature: Signature, i: int) -> PglElement:
    """The normalized quadratic direction used in the lowering map."""
    if _is_psl(signature):
        raise DomainError("scaled quadratic directions require q != p+1")
    sign = -1 if signature.parity(i) else 1
    scale = Fraction(sign, 2 * (signature.p - signature.q + 1))
    return PglElement(signature, _elementary_full(signature, 0, i, scale))


def g0_element(signature: Signature, block, algebra: str | None = None) -> PglElement:
    return GradedElement(signature, None, block, None).to_pgl(algebra)


def euler_element(signature: Signature, algebra: str | None = None) -> PglElement:
    n = signature.n
    block = [[-1 if i == j else 0 for j in range(n)] for i in range(n)]
    return g0_element(signature, block, algebra)


def _block_elementary(n: int, i: int, j: int, value=1):
    return [[value if (r, c) == (i - 1, j - 1) else 0 for c in range(n)] for r in range(n)]


def _off_diagonal_and_difference_blocks(signature: Signature) -> list:
    """Off-diagonal elementary blocks, then supertraceless differences of
    neighbouring diagonal entries."""
    n = signature.n
    blocks = [
        _block_elementary(n, i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
    ]
    for i in range(1, n):
        si = -1 if signature.parity(i) else 1
        sj = -1 if signature.parity(i + 1) else 1
        block = [[0] * n for _ in range(n)]
        block[i - 1][i - 1] = si
        block[i][i] = -sj
        blocks.append(block)
    return blocks


def g0_basis(signature: Signature, algebra: str | None = None) -> list[PglElement]:
    """Basis of the linear part: all elementary blocks for ``sl``; for
    ``psl`` the off-diagonal blocks plus supertraceless diagonal differences."""
    normalize_algebra(signature, algebra)
    n = signature.n
    if _is_psl(signature):
        blocks = _off_diagonal_and_difference_blocks(signature)
    else:
        blocks = [
            _block_elementary(n, i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        ]
    return [g0_element(signature, block) for block in blocks]


def g0_basis_euler_split(signature: Signature) -> list[PglElement]:
    """Alternative linear-part basis: off-diagonals, supertraceless diagonal
    differences, and the identity block; valid when p != q (sl only)."""
    if _is_psl(signature):
        raise DomainError("the euler-split basis is an sl-variant basis")
    if signature.p == signature.q:
        raise DomainError("the euler-split basis requires p != q")
    n = signature.n
    ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    blocks = _off_diagonal_and_difference_blocks(signature) + [ident]
    return [g0_element(signature, block) for block in blocks]


def graded_basis(
    signature: Signature, algebra: str | None = None, scheme: str = "elementary"
) -> list[PglElement]:
    """Full basis ordered as constants, linear part, quadratic directions."""
    normalize_algebra(signature, algebra)
    if scheme == "elementary":
        middle = g0_basis(signature)
    elif scheme == "euler-split":
        middle = g0_basis_euler_split(signature)
    else:
        raise ValueError(f"unknown basis scheme {scheme!r}")
    return basis_e(signature) + middle + basis_eps(signature)


# ---------------------------------------------------------------------------
# the vector-field realization


@functools.cache
def _realization_keys(sig: Signature) -> tuple:
    """Term keys of a realized field at ``sig``, over the doubled variables:
    for each component i, the key of d_i, of y^j d_i for each coordinate y^j
    (index j, 1-based), and of y^j y^i d_i for each j with the sign that
    orders its odd factors (0 when y^j = y^i is odd, so the term vanishes)."""
    coords = [((0,) * sig.p, 0)]
    coords += [
        next(iter(SuperPolynomial.coordinate(sig, j)._terms)) for j in range(1, sig.n + 1)
    ]
    keys = []
    for i in range(1, sig.n + 1):
        se, smask = _unit(sig, i)
        smask <<= sig.q
        ei, mi = coords[i]
        linear = [(e + se, m | smask) for e, m in coords]
        quadratic = [
            ((tuple(map(add, ej, ei)) + se, mj | mi | smask), _ops.odd_merge_sign(mj, mi))
            for ej, mj in coords
        ]
        keys.append((linear, quadratic))
    return tuple(keys)


def realize(h) -> SuperVectorField:
    """The vector field attached to an algebra element.

    Constants act by negated coordinate derivatives, linear blocks by negated
    signed linear fields, and quadratic directions by a coordinate function
    times the Euler field.  An element's matrix is read directly, as int
    numerators over its denominator: h_- is column 0, h_+ is row 0 and h_0
    the block below and right of the corner, less the corner entry on its
    diagonal.  The field is one term dict over the doubled variables, over
    that denominator; component i adds -h_-^i, then -(+-) h_0^ij y^j
    (sign - when y^j is odd and y^i even), then f y^i with
    f = sum_j (-1)^{parity(y^j)} h_+^j y^j, each times d_i.
    """
    if isinstance(h, SuperVectorField):
        return h
    if isinstance(h, PglElement):
        m, den = h._ints
    elif isinstance(h, GradedElement):
        # the graded data as a matrix with a zero corner
        m, den = _int_matrix(
            [(0, *h.h_plus)] + [(v, *row) for v, row in zip(h.h_minus, h.h_zero)]
        )
    else:
        raise TypeError(f"cannot realize {type(h).__name__}")
    corner = m[0][0]
    h_minus = [row[0] for row in m[1:]]
    h_zero = [row[1:] for row in m[1:]]
    h_plus = m[0][1:]
    sig = h.signature
    parity = [0] + [sig.parity(j) for j in range(1, sig.n + 1)]
    f = [(j, -v if parity[j] else v) for j, v in enumerate(h_plus, start=1) if v]
    terms = {}
    for i, (linear, quadratic) in enumerate(_realization_keys(sig), start=1):
        v = h_minus[i - 1]
        if v:
            terms[linear[0]] = -v
        row = h_zero[i - 1]
        for j in range(1, sig.n + 1):
            a = row[j - 1]
            if i == j and corner:
                a -= corner
            if a:
                terms[linear[j]] = a if parity[j] and not parity[i] else -a
        for j, c in f:
            key, sign = quadratic[j]
            if sign:
                terms[key] = c if sign > 0 else -c
    return SuperVectorField._raw(sig, SuperPolynomial._over(_doubled(sig), terms, den))


# ---------------------------------------------------------------------------
# invariant forms and dual bases


def killing_form(a: PglElement, b: PglElement) -> Fraction:
    """The invariant form of the generic variant: a fixed multiple of the
    supertrace of the product."""
    sig = a.signature
    if sig != b.signature:
        raise ValueError("signature mismatch")
    if _is_psl(sig):
        raise DomainError("the Killing form degenerates when q = p+1")
    return 2 * (sig.p + 1 - sig.q) * _supertrace_product(a.matrix, b.matrix, sig)


def kaplansky_form(a: PglElement, b: PglElement) -> Fraction:
    """The invariant form of the q = p+1 variant: supertrace of the product,
    well defined on supertraceless classes."""
    sig = a.signature
    if sig != b.signature:
        raise ValueError("signature mismatch")
    if not _is_psl(sig):
        raise DomainError("this form is specific to q = p+1")
    if a.supertrace() or b.supertrace():
        raise DomainError(
            "the form requires supertraceless representatives on both sides"
        )
    return _supertrace_product(a.matrix, b.matrix, sig)


@dataclass(frozen=True)
class DualBasisPair:
    basis: tuple
    dual: tuple
    form: str


def dual_basis_pair(
    signature: Signature, algebra: str | None = None, scheme: str = "elementary"
) -> DualBasisPair:
    """Exact dual bases for the invariant form, via Gram-matrix inversion."""
    normalize_algebra(signature, algebra)
    return _build_dual_basis_pair(signature, scheme)


def _form_rows(signature: Signature, left, right) -> list:
    """The invariant form on every pair (left[i], right[j]), row i as a
    ``{j: value}`` dict of the nonzero values, over the nonzero entries:
    str(ab) = sum_{r,k} (-1)^{pi_r} a_rk b_kr, times 2(p+1-q) for the
    Killing form; at q = p+1 the supertrace itself, the Kaplansky form on
    supertraceless elements."""
    scale = 1 if _is_psl(signature) else 2 * (signature.p + 1 - signature.q)
    # each b_kr of the right side, filed under the position (r, k) of its a_rk
    transposed = {}
    for j, b in enumerate(right):
        for k, r, v in _entries(b.matrix):
            transposed.setdefault((r, k), []).append((j, scale * v))
    rows = []
    for a in left:
        row = {}
        for r, k, v in _entries(a.matrix):
            if _full_parity(signature, r):
                v = -v
            for j, w in transposed.get((r, k), ()):
                row[j] = row.get(j, 0) + v * w
        rows.append({j: v for j, v in row.items() if v})
    return rows


@functools.cache
def _graded_basis(signature: Signature, scheme: str) -> tuple:
    """``graded_basis`` once per signature and scheme: the dual bases and
    the realized fields share it."""
    return tuple(graded_basis(signature, scheme=scheme))


@functools.cache
def _build_dual_basis_pair(signature: Signature, scheme: str) -> DualBasisPair:
    """The duals of ``_graded_basis`` from the inverse Gram matrix, every
    step over nonzero entries only, and the pairing of every basis element
    with every dual checked against the identity."""
    basis = _graded_basis(signature, scheme)
    psl = _is_psl(signature)
    if psl and any(h.supertrace() for h in basis):
        raise DomainError("the Kaplansky form needs a supertraceless basis")
    size = 1 + signature.n
    inverse = _invert(_form_rows(signature, basis, basis))
    # dual j is sum_k inverse[k][j] basis[k], gathered entry by entry
    gathered = [{} for _ in basis]
    for h, inverse_row in zip(basis, inverse):
        entries = _entries(h.matrix)
        for j, c in inverse_row.items():
            acc = gathered[j]
            for r, k, v in entries:
                acc[r, k] = acc.get((r, k), 0) + c * v
    dual = tuple(
        PglElement._raw(signature, *_int_matrix(
            [[acc.get((r, k), 0) for k in range(size)] for r in range(size)]
        ))
        for acc in gathered
    )
    for i, row in enumerate(_form_rows(signature, basis, dual)):
        if row != {i: 1}:
            raise DomainError("dual basis verification failed")
    return DualBasisPair(basis, dual, "Kaplansky" if psl else "Killing")


@functools.cache
def _realized_basis(signature: Signature, scheme: str) -> tuple:
    """``graded_basis`` as vector fields, e_i first and eps_i last; callers
    pass ``scheme`` positionally, so each basis has one cache entry."""
    return tuple(map(realize, _graded_basis(signature, scheme)))


@functools.cache
def _casimir_fields(signature: Signature, scheme: str) -> tuple:
    """The (basis, dual) pairs of ``dual_basis_pair`` as vector fields: the
    realized basis with the realized duals."""
    pair = _build_dual_basis_pair(signature, scheme)
    return tuple(zip(_realized_basis(signature, scheme), map(realize, pair.dual)))


@functools.cache
def _casimir(signature: Signature, scheme: str, rep: str) -> tuple:
    """The Casimir sum L_Y L_X over the pairs (X, Y) of ``_casimir_fields``
    as ``(i, j, C_ij)`` for the nonzero operators C_ij over the doubled
    variables with sum delta^i lam^j C_ij = sum L_Y L_X, each a sum of
    ``compose`` products of the parts that each field keeps
    (``geometry._FieldParts``): on a symbol of weight delta (``rep="L"``)
    L_X = lift(X) + delta Phi_X, on an operator of weights lam and
    lam + delta (``rep="affine"``) L_X = A_X + delta Phi_X + lam B_X, A_X
    as the lift and the rest.
    ``check relcas`` compares the two through ``casimir_defect``, which
    reads neither.
    """
    if rep == REP_SYMBOL:
        def parts(x):
            own = x._lie_parts()
            return own.lift, own.phi

        powers = ((0, 0), (1, 0))  # of (delta, lam)
    else:
        parts, powers = _operator_lie_parts, ((0, 0), (0, 0), (1, 0), (0, 1))
    sums = {}
    for x, y in _casimir_fields(signature, scheme):
        ops_x = list(zip(powers, parts(x)))
        for (dy, ly), op_y in zip(powers, parts(y)):
            for (dx, lx), op_x in ops_x:
                if op_y._poly and op_x._poly:
                    composed = op_y.compose(op_x)._poly
                    sums.setdefault((dy + dx, ly + lx), []).append(composed)
    sig2, zero = _doubled(signature), Fraction(0)
    out = []
    for (i, j), polys in sorted(sums.items()):
        den = lcm(*(poly._den for poly in polys))
        acc = {}
        for poly in polys:
            _ops.add_into(acc, poly._terms, den // poly._den)
        if acc:
            poly = SuperPolynomial._over(_doubled(sig2), acc, den)
            out.append((i, j, DiffOperator._raw(sig2, zero, zero, poly)))
    return tuple(out)


# ---------------------------------------------------------------------------
# quantization defect maps


def affine_defect(h, s: SymbolField, lam: Rational, *, full: bool = False):
    """Difference between the operator-level and symbol-level actions.

    Conjugates the operator Lie derivative through coefficient-wise
    quantization at weight lam and subtracts the symbol Lie derivative.  For
    affine elements this vanishes; for quadratic directions it lowers the
    degree by exactly one.  With ``full=True`` the whole mixed symbol is
    returned; otherwise concentration in degree k-1 is checked and that part
    returned.
    """
    x = realize(h)
    lam = as_fraction(lam)
    op = affine_quantize(s, lam)
    mixed = affine_symbol(lie_operator(x, op)) - lie_symbol(x, s).as_mixed()
    if full:
        return mixed
    target = max(s.degree - 1, 0)
    for deg in mixed.degrees():
        if deg != target:
            raise ValueError(
                f"defect has an unexpected degree-{deg} part (expected only {target})"
            )
    return mixed.part(target)


def affine_defect_closed_form(h, s: SymbolField, lam: Rational) -> SymbolField:
    """Scalar-multiple-of-contraction form of the quantization defect for a
    quadratic direction."""
    if isinstance(h, PglElement):
        h = pgl_to_graded(h)
    if not isinstance(h, GradedElement):
        raise TypeError("expected an algebra element")
    if any(h.h_minus) or any(v for row in h.h_zero for v in row):
        raise DomainError("the closed form applies to pure quadratic directions")
    sig = s.signature
    lam = as_fraction(lam)
    factor = -(lam * (sig.p - sig.q + 1) + s.degree - 1)
    row = list(h.h_plus)
    return factor * interior(row, s)


def casimir_defect(s: SymbolField, lam: Rational) -> SymbolField:
    """The degree-lowering part of the quantized Casimir action: the sum of
    2 affine_defect(dual of e_i, L_{e_i} S), the dual being +-eps_i / (2(m+1))
    at m = p - q (- for odd y^i).  The defect is linear in the field, so the
    realized eps_i serve, scaled, and no dual basis is built."""
    sig = s.signature
    if _is_psl(sig):
        raise DomainError("the lowering map requires q != p+1")
    lam = as_fraction(lam)
    fields = _realized_basis(sig, "elementary")
    n, scale = sig.n, Fraction(1, sig.p - sig.q + 1)
    total = SymbolField.zero(sig, s.weight, max(s.degree - 1, 0))
    for i, x_e, x_eps in zip(range(1, n + 1), fields[:n], fields[-n:]):
        defect = affine_defect(x_eps, lie_symbol(x_e, s), lam)
        total = total + (-scale if sig.parity(i) else scale) * defect
    return total


# ---------------------------------------------------------------------------
# Casimir application and scalar constants


def casimir_apply(
    s: SymbolField,
    lam: Rational,
    rep: str = REP_SYMBOL,
    algebra: str | None = None,
    scheme: str = "elementary",
) -> MixedSymbol:
    """Apply the quadratic Casimir of the invariant form to a symbol.

    With ``rep="L"`` the generators act by the symbol Lie derivative; with
    ``rep="affine"`` by the operator Lie derivative conjugated through
    coefficient-wise quantization at weight lam.  Either way the operators
    of ``_casimir``, built once per signature, scheme and representation,
    run together on the symbol's term map at its weight and lam
    (``geometry._apply_parts``).
    """
    sig = s.signature
    normalize_algebra(sig, algebra)
    lam = as_fraction(lam)
    if rep not in (REP_SYMBOL, REP_AFFINE):
        raise ValueError(f"unknown representation {rep!r}")
    pairs = [(s.weight**i * lam**j, op) for i, j, op in _casimir(sig, scheme, rep)]
    return MixedSymbol._raw(sig, s.weight, _apply_parts(s._poly, pairs))


def casimir_eigenvalue(k: int, delta: Rational, signature: Signature) -> Fraction:
    """Casimir eigenvalue on degree-k symbols of weight delta (generic variant)."""
    if _is_psl(signature):
        raise DomainError("the eigenvalue formula requires q != p+1")
    pq = signature.p - signature.q
    if k < 0:
        raise ValueError("degree must be non-negative")
    d = as_fraction(delta)
    return (
        Fraction(pq, 2) * d * d
        - Fraction(2 * k + pq, 2) * d
        + Fraction(k * (k + pq), pq + 1)
    )


def psl_casimir_eigenvalue(k: int) -> Fraction:
    """Casimir eigenvalue on degree-k symbols in the q = p+1 variant."""
    if k < 0:
        raise ValueError("degree must be non-negative")
    return Fraction(2 * k * (k - 1))


@functools.cache
def critical_values_for_degree(signature: Signature, k: int) -> frozenset:
    """The critical weights of degree k, which ``quantize`` refuses; kept
    per signature and degree, as ``quantize`` asks for every part."""
    if _is_psl(signature):
        raise DomainError("critical values are defined for q != p+1")
    pq = signature.p - signature.q
    if k < 0:
        raise ValueError("degree must be non-negative")
    return frozenset(Fraction(2 * k - l + pq, pq + 1) for l in range(1, k + 1))


def critical_values(signature: Signature, kmax: int) -> frozenset:
    """The critical weights of every degree k <= kmax.

    Degree k contributes (m + p - q)/(p - q + 1) for k <= m <= 2k - 1, so the
    union is the one range 1 <= m <= 2 kmax - 1.
    """
    if kmax < 0:
        return frozenset()
    if _is_psl(signature):
        raise DomainError("critical values are defined for q != p+1")
    pq = signature.p - signature.q
    return frozenset(Fraction(m + pq, pq + 1) for m in range(1, 2 * kmax))


def is_critical(delta: Rational, signature: Signature, kmax: int) -> bool:
    return as_fraction(delta) in critical_values(signature, kmax)


def critical_pairs(
    delta: Rational, signature: Signature, kmax: int
) -> list[tuple[int, int]]:
    """Degree pairs (k, l), l < k <= kmax, whose eigenvalues collide at delta."""
    d = as_fraction(delta)
    out = []
    for k in range(kmax + 1):
        ak = casimir_eigenvalue(k, d, signature)
        for l in range(k):
            if casimir_eigenvalue(l, d, signature) == ak:
                out.append((k, l))
    return out


def ensure_noncritical(signature: Signature, k: int, delta: Rational) -> None:
    d = as_fraction(delta)
    if d in critical_values_for_degree(signature, k):
        pairs = critical_pairs(d, signature, k)
        raise CriticalValueError(
            f"weight {d} is critical for degree {k} at signature {signature}: "
            f"eigenvalue collisions {pairs}",
            value=d,
            pairs=pairs,
        )


def _coefficients(
    k: int, r: int, lam: Fraction, d: Fraction, signature: Signature
) -> tuple[list[int], int]:
    """C_{k,0..r} as int numerators over one positive common denominator,
    where C_{k,r} = prod_{j=1..r} ((m+1) lam + k - j) /
    (j (m + 2k - j - (m+1) d)) at superdimension m = p - q; at m = -1 both
    weights drop out.  With lam = a/b and d = c/e the step factor is
    N_j / D_j = ((m+1) a + (k-j) b) e / (b j ((m+2k-j) e - (m+1) c)), so over
    D_1 ... D_r the numerator of C_{k,j} is N_1 ... N_j D_{j+1} ... D_r, and
    no ``Fraction`` is made."""
    pq = signature.p - signature.q
    a, b = lam.numerator, lam.denominator
    c, e = d.numerator, d.denominator
    nums, dens = [1], []
    for j in range(1, r + 1):
        factor = (pq + 2 * k - j) * e - (pq + 1) * c
        if factor == 0:
            raise CriticalValueError(
                f"vanishing denominator at step j={j}: weight {d} is critical "
                f"for degree {k} at signature {signature}",
                value=d,
                pairs=[(k, k - j)],
            )
        nums.append(nums[-1] * ((pq + 1) * a + (k - j) * b) * e)
        dens.append(b * j * factor)
    den = 1
    for j in range(r, 0, -1):
        nums[j] *= den
        den *= dens[j - 1]
    nums[0] = den
    if den < 0:
        return [-n for n in nums], -den
    return nums, den


def quantization_coefficient(
    k: int, r: int, lam: Rational, delta: Rational, signature: Signature
) -> Fraction:
    """Closed-form coefficient of the r-fold divergence in degree-k
    quantization."""
    if _is_psl(signature):
        raise DomainError("the coefficient formula requires q != p+1")
    if not 0 <= r <= k:
        raise ValueError(f"step r={r} out of range 0..{k}")
    nums, den = _coefficients(k, r, as_fraction(lam), as_fraction(delta), signature)
    return Fraction(nums[r], den)


def psl_quantization_coefficient(k: int, r: int) -> Fraction:
    """Divergence coefficients in the q = p+1 variant; degree 1 is excluded
    (there the one-parameter family replaces a fixed coefficient)."""
    if not 0 <= r <= k:
        raise ValueError(f"step r={r} out of range 0..{k}")
    if k == 1 and r:
        raise DomainError(
            "degree-1 coefficients are not determined in the q = p+1 variant"
        )
    # the coefficients see the signature only through p - q = -1
    nums, den = _coefficients(k, r, Fraction(0), Fraction(0), Signature(0, 1))
    return Fraction(nums[r], den)
