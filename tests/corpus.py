"""Differential corpus: every construction of the engine on fixed inputs.

Prints one line per result, ``label: text`` followed by ``label json: {...}``,
with the ``format_value`` and ``value_to_json`` encodings of the value, or
``label: Type: message`` when the construction raises.  Inputs are drawn
from string-seeded generators, so the output depends only on the code: two
versions of the package are compared by running this script under each and
diffing the outputs.

    PYTHONPATH=src python tests/corpus.py > corpus.txt
    PYTHONPATH=src python tests/corpus.py --signatures 1/1,2/1 --kmax 2
    PYTHONPATH=src python tests/corpus.py --digests > tests/corpus_digests.txt

The default covers the 12 signatures of ``SIGNATURES`` with symbol degrees
k <= 3, the Casimir at k <= 2, and the realization and bracket of random
algebra elements; a last section prints the variant names each signature
gives, by default and under each algebra alias it accepts.  With
``--digests`` it prints instead one line ``digest signature section`` per
construction and signature, the table that ``test_corpus.py`` pins; a
section is a label's first word, with its representation for ``casimir``
and ``lie_operator``.  The name keeps pytest from collecting the file.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import random
import sys
from fractions import Fraction

from superquant import (
    DiffOperator,
    GradedElement,
    MixedSymbol,
    PglElement,
    QuantizationConfig,
    Signature,
    SuperVectorField,
    affine_defect,
    affine_quantize,
    affine_symbol,
    bracket,
    casimir_apply,
    critical_values_for_degree,
    default_variant,
    density_operator,
    dual_basis_pair,
    graded_basis,
    interior,
    lie_density,
    lie_operator,
    lie_symbol,
    pgl_bracket,
    principal_symbol,
    quantize,
    quantize_recursive,
    realize,
    symbol_divergence,
    symbol_map,
)
from superquant.errors import DomainError
from superquant.expr import format_value, parse, value_to_json
from superquant.projective import normalize_algebra
from superquant.verifier import (
    equivariance_generators,
    random_polynomial,
    symbol_samples,
)

SIGNATURES = [
    (1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3),
    (1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (2, 3),
]
LAM = Fraction(1, 3)
DELTA = Fraction(1, 5)
T = Fraction(1, 2)
ALIASES = ("sl", "gl", "psl", "pgl", "SL", "GL", "PSL", "PGL")


def _emit(out, label: str, build) -> None:
    try:
        value = build()
    except Exception as exc:  # the error itself is part of the corpus
        out.write(f"{label}: {type(exc).__name__}: {exc}\n")
        return
    out.write(f"{label}: {format_value(value)}\n")
    doc = json.dumps(value_to_json(value), sort_keys=True, separators=(",", ":"))
    out.write(f"{label} json: {doc}\n")


def _random_operator(sig, rng, lam, mu, max_exponent=3) -> DiffOperator:
    """Up to three terms, even derivative exponents up to ``max_exponent``."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        evens = tuple(rng.randint(0, max_exponent) for _ in range(sig.p))
        mask = rng.randrange(1 << sig.q)
        terms[(evens, mask)] = random_polynomial(sig, rng, 2)
    return DiffOperator(sig, lam, mu, terms)


def _cubic_field(sig, rng) -> SuperVectorField:
    return SuperVectorField(sig, [random_polynomial(sig, rng, 3) for _ in range(sig.n)])


def run_signature(sig: Signature, kmax: int, out) -> None:
    rng = random.Random(f"corpus {sig}")
    psl = sig.q == sig.p + 1
    cfg = QuantizationConfig(sig, LAM, DELTA, t=T if psl else Fraction(0))
    fields = [(label, realize(h)) for label, h in equivariance_generators(sig)]
    fields += [(f"cubic{i}", _cubic_field(sig, rng)) for i in range(1, 4)]
    symbols = []
    for k in range(kmax + 1):
        samples = symbol_samples(sig, DELTA, k, 1, rng)
        if not samples:
            out.write(f"[{sig}] k={k}: no symbols\n")
            continue
        s = samples[0]
        symbols.append(s)
        tag = f"[{sig}] k={k}"
        _emit(out, f"{tag} symbol", lambda: s)
        _emit(out, f"{tag} reparse",
              lambda: parse("symbol", format_value(s), sig, weight=DELTA))
        _emit(out, f"{tag} quantize", lambda: quantize(s, cfg))
        _emit(out, f"{tag} quantize_recursive", lambda: quantize_recursive(s, cfg))
        _emit(out, f"{tag} symbol_map", lambda: symbol_map(quantize(s, cfg), cfg))
        _emit(out, f"{tag} affine_quantize", lambda: affine_quantize(s, LAM))
        _emit(out, f"{tag} affine_symbol", lambda: affine_symbol(quantize(s, cfg)))
        _emit(out, f"{tag} principal_symbol",
              lambda: principal_symbol(k, quantize(s, cfg)))
        _emit(out, f"{tag} divergence", lambda: symbol_divergence(s))
        # a parity-homogeneous covector: the even rows if there are any
        row = [Fraction(i, 2) for i in range(1, sig.p + 1)] + [0] * sig.q
        _emit(out, f"{tag} interior",
              lambda: interior(row if sig.p else [1] * sig.q, s))
        if k and not psl:
            # the lowest critical weight of degree k obstructs the quantization
            crit = QuantizationConfig(sig, LAM, min(critical_values_for_degree(sig, k)))
            sc = symbol_samples(sig, crit.delta, k, 1, rng)[0]
            _emit(out, f"{tag} quantize critical", lambda: quantize(sc, crit))
        try:
            d = quantize(s, cfg)
        except DomainError:
            d = None
        a = affine_quantize(s, LAM)
        for label, x in fields:
            _emit(out, f"{tag} lie_symbol {label}", lambda: lie_symbol(x, s))
            if d is not None:
                _emit(out, f"{tag} lie_operator quantized {label}",
                      lambda: lie_operator(x, d))
            _emit(out, f"{tag} lie_operator affine {label}", lambda: lie_operator(x, a))
            if label.startswith("eps"):
                _emit(out, f"{tag} affine_defect {label}",
                      lambda: affine_defect(x, s, LAM, full=True))
    tag = f"[{sig}]"
    mixed = MixedSymbol.from_fields(sig, DELTA, symbols)
    _emit(out, f"{tag} mixed", lambda: mixed)
    _emit(out, f"{tag} mixed difference", lambda: mixed - 2 * symbols[-1])
    _emit(out, f"{tag} mixed quantize", lambda: quantize(mixed, cfg))
    _emit(out, f"{tag} mixed symbol_map", lambda: symbol_map(quantize(mixed, cfg), cfg))
    mu = LAM + DELTA
    for i in range(3):
        d1 = _random_operator(sig, rng, LAM, mu)
        d2 = _random_operator(sig, rng, mu, 2 * mu)
        x = fields[rng.randrange(len(fields))][1]
        _emit(out, f"{tag} compose {i}", lambda: d2.compose(d1))
        _emit(out, f"{tag} compose density left {i}",
              lambda: density_operator(x, mu).compose(d1))
        _emit(out, f"{tag} compose density right {i}",
              lambda: d1.compose(density_operator(x, LAM)))
    run_derivations(sig, fields, symbols, out)
    run_realize(sig, out)


def run_derivations(sig: Signature, fields, symbols, out) -> None:
    """The field actions that do not go through a Lie derivative of a symbol
    or an operator: ``apply``, ``lie_density``, ``bracket`` and the Casimir
    in both representations.  Their inputs come from a generator of their
    own, so the lines above do not depend on this section."""
    rng = random.Random(f"corpus derivations {sig}")
    tag = f"[{sig}]"
    f = random_polynomial(sig, rng, 3)
    for label, x in fields:
        _emit(out, f"{tag} apply {label}", lambda: x.apply(f))
        _emit(out, f"{tag} lie_density {label}", lambda: lie_density(x, LAM, f))
    generators = [(label, x) for label, x in fields if not label.startswith("cubic")]
    for (la, a), (lb, b) in zip(generators, generators[1:]):
        _emit(out, f"{tag} bracket {la} {lb}", lambda: bracket(a, b))
    c1, c2 = _cubic_field(sig, rng), _cubic_field(sig, rng)
    la, a = generators[rng.randrange(len(generators))]
    _emit(out, f"{tag} bracket random fields", lambda: bracket(c1, c2))
    _emit(out, f"{tag} bracket random {la}", lambda: bracket(c1, a))
    for s in symbols:
        if s.degree <= 2:
            for rep in ("L", "affine"):
                _emit(out, f"{tag} k={s.degree} casimir {rep}",
                      lambda: casimir_apply(s, LAM, rep=rep))


def _random_matrix(sig, rng) -> list:
    """A (1+n)-square matrix, about half its entries zero, with h_-, h_0 and
    h_+ nonzero at index 1 and n (an even and an odd coordinate when the
    signature has both)."""
    size = 1 + sig.n

    def entry(nonzero=False):
        if not nonzero and rng.random() < 0.5:
            return Fraction(0)
        return Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 3))

    m = [[entry() for _ in range(size)] for _ in range(size)]
    for i in sorted({1, sig.n}):
        m[i][0] = entry(True)
        m[0][i] = entry(True)
        for j in sorted({1, sig.n}):
            m[i][j] = entry(True)
    return m


def _emit_matrix(out, label: str, build) -> None:
    """``_emit`` for an algebra element: its algebra and matrix rows."""
    try:
        h = build()
    except Exception as exc:
        out.write(f"{label}: {type(exc).__name__}: {exc}\n")
        return
    rows = [[str(v) for v in row] for row in h.matrix]
    out.write(f"{label}: {h.algebra} [{'; '.join(','.join(row) for row in rows)}]\n")
    doc = json.dumps({"algebra": h.algebra, "matrix": rows}, separators=(",", ":"))
    out.write(f"{label} json: {doc}\n")


def run_realize(sig: Signature, out) -> None:
    """``realize`` of random algebra elements, given as matrices and as
    graded data, and ``pgl_bracket`` of random pairs with the realization of
    each bracket.  The inputs come from a generator of their own."""
    rng = random.Random(f"corpus realize {sig}")
    tag = f"[{sig}]"
    elements = [PglElement(sig, _random_matrix(sig, rng)) for _ in range(4)]
    for i, h in enumerate(elements):
        _emit_matrix(out, f"{tag} pgl {i}", lambda: h)
        _emit(out, f"{tag} realize pgl {i}", lambda: realize(h))
        m = _random_matrix(sig, rng)
        g = GradedElement(sig, [r[0] for r in m[1:]], [r[1:] for r in m[1:]], m[0][1:])
        _emit(out, f"{tag} realize graded {i}", lambda: realize(g))
    for i, (a, b) in enumerate(zip(elements, elements[1:] + elements[:1])):
        _emit_matrix(out, f"{tag} pgl_bracket {i}", lambda: pgl_bracket(a, b))
        _emit(out, f"{tag} realize pgl_bracket {i}", lambda: realize(pgl_bracket(a, b)))


def _emit_names(out, label: str, names) -> None:
    """``_emit`` for a list of names: space-separated, then as JSON."""
    out.write(f"{label}: {' '.join(names)}\n")
    out.write(f"{label} json: {json.dumps(list(names))}\n")


def _accepts(sig: Signature, alias: str) -> bool:
    try:
        normalize_algebra(sig, alias)
    except DomainError:
        return False
    return True


def run_variants(sig: Signature, out) -> None:
    """The variant of ``sig`` by every public route: for the default and each
    alias it accepts, the normalized name, the algebra of each basis element,
    the invariant form and the generator labels."""
    tag = f"[{sig}] variants"
    _emit_names(out, f"{tag} default_variant", [default_variant(sig)])
    _emit_names(out, f"{tag} config", [QuantizationConfig(sig).variant])
    for alias in (None, *(a for a in ALIASES if _accepts(sig, a))):
        label = f"{tag} {alias}"
        _emit_names(out, f"{label} normalize_algebra", [normalize_algebra(sig, alias)])
        basis = graded_basis(sig, alias)
        _emit_names(out, f"{label} basis algebra", [h.algebra for h in basis])
        _emit_names(out, f"{label} form", [dual_basis_pair(sig, alias).form])
        gens = equivariance_generators(sig, alias)
        _emit_names(out, f"{label} generators", [name for name, _ in gens])


def run(signatures, kmax: int, out=None) -> None:
    out = out or sys.stdout
    signatures = [Signature(p, q) for p, q in signatures]
    for sig in signatures:
        run_signature(sig, kmax, out)
    for sig in signatures:
        run_variants(sig, out)


# constructions whose section also names the representation they act in
_REPRESENTED = frozenset(("casimir", "lie_operator"))


def section(line: str) -> tuple[str, str]:
    """The signature and the section of a corpus line: the first word of its
    label after any ``k=N``, with the next word for ``_REPRESENTED``; the
    line of a degree without symbols belongs to ``symbol``."""
    tag, label = line.split("] ", 1)
    words = label.split(":", 1)[0].split()
    if words and words[0].startswith("k="):
        words = words[1:]
    if not words:
        return tag[1:], "symbol"
    return tag[1:], " ".join(words[:2]) if words[0] in _REPRESENTED else words[0]


def digests(text: str) -> dict:
    """``{(signature, section): digest}``, the digest being the first 16 hex
    digits of the sha256 of the section's lines in printed order."""
    lines: dict = {}
    for line in text.splitlines(keepends=True):
        lines.setdefault(section(line), []).append(line)
    return {
        key: hashlib.sha256("".join(rows).encode()).hexdigest()[:16]
        for key, rows in lines.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--signatures",
        default=",".join(f"{p}/{q}" for p, q in SIGNATURES),
        help="comma-separated p/q pairs (default: all 12)",
    )
    parser.add_argument("--kmax", type=int, default=3, help="largest symbol degree")
    parser.add_argument("--digests", action="store_true",
                        help="print the digest of each section instead")
    args = parser.parse_args(argv)
    signatures = [tuple(map(int, pq.split("/"))) for pq in args.signatures.split(",")]
    if not args.digests:
        run(signatures, args.kmax)
        return 0
    out = io.StringIO()
    run(signatures, args.kmax, out)
    for (sig, name), digest in digests(out.getvalue()).items():
        print(f"{digest} {sig} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
