"""The three workloads: seeded inputs, whole rounds of CLI operations, and
the checks on every output.

A workload is built from ``--seed`` alone.  ``round(r)`` returns the list of
items of round ``r``; an item runs one or two CLI commands through the
runner (timed) and then checks their outputs (untimed).  Every round has the
same make-up (the same commands at the same signatures and sizes); only the
seed-chosen weights, sample seeds and symbols differ, so the cost of a round
and the share of each kind of operation do not depend on the seed.

Expected values come from the method's own properties and from constants
the benchmark computes itself, never from stored program output.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from superquant import expr
from superquant.geometry import DiffOperator, MixedSymbol, SymbolField, symbol_divergence
from superquant.quantizer import QuantizationConfig, quantize, quantize_recursive
from superquant.supercore import Signature

# Signatures of the verifier workloads: the generic ones, then q = p+1.
CERTIFY_SIGNATURES = ((1, 0), (1, 1), (2, 1), (3, 1), (2, 2), (1, 2), (2, 3))
CLI_SIGNATURES = ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 2), (2, 3))
CLI_DEGREES = (2, 3, 4, 5, 6)

LAMBDAS = tuple(Fraction(v) for v in ("0", "1/3", "-1/2", "2/5", "3/4", "1"))
DELTAS = tuple(Fraction(v) for v in ("0", "1/5", "-1/3", "2/7", "1/2", "3/2", "2"))
TS = tuple(Fraction(v) for v in ("1/2", "-2/3", "3", "1"))
COEFFS = tuple(Fraction(v) for v in ("1", "-1", "2", "1/2", "-3/4", "5/3", "7"))

SAMPLES = 2          # samples per check cell
CELL_DEGREE = 2      # --degree-max and --kmax of every check cell
CASIMIR_CELLS = 4    # check casimir cells per signature and round


def is_psl(p: int, q: int) -> bool:
    return q == p + 1


# ---------------------------------------------------------------------------
# Constants computed apart from the program


def alpha(p: int, q: int, k: int, delta: Fraction) -> Fraction:
    """Casimir eigenvalue on degree-k symbols, generic signature."""
    pq = p - q
    return (Fraction(pq, 2) * delta * delta - Fraction(2 * k + pq, 2) * delta
            + Fraction(k * (k + pq), pq + 1))


def critical_set(p: int, q: int, kmax: int) -> set:
    pq = p - q
    return {Fraction(2 * k - l + pq, pq + 1)
            for k in range(1, kmax + 1) for l in range(1, k + 1)}


def expected_identities(argv: list) -> int:
    """Identity count a ``check`` report must carry, with n = p+q."""
    p, q = int(_option(argv, "p")), int(_option(argv, "q"))
    n = p + q
    mode = argv[1]
    if mode == "homomorphism":
        if is_psl(p, q):
            return (n * n + 2 * n) ** 2 + n * n + 2 * n - 1
        return (n + 1) ** 4 + (n + 1) ** 2
    samples = int(_option(argv, "samples"))
    if mode == "equivariance":
        return (n * n + 2 * n) * samples * (int(_option(argv, "degree-max")) + 1)
    return samples * (int(_option(argv, "kmax")) + 1)


def _noncritical_delta(rng: random.Random, p: int, q: int, kmax: int) -> Fraction:
    if is_psl(p, q):
        return rng.choice(DELTAS)
    bad = critical_set(p, q, kmax)
    return rng.choice([d for d in DELTAS if d not in bad])


def _weights(rng: random.Random, p: int, q: int, kmax: int) -> list:
    args = [f"--p={p}", f"--q={q}", f"--lambda={rng.choice(LAMBDAS)}",
            f"--delta={_noncritical_delta(rng, p, q, kmax)}"]
    if is_psl(p, q):
        args.append(f"--t={rng.choice(TS)}")
    return args


def _option(argv: list, name: str) -> str:
    prefix = f"--{name}="
    for arg in argv:
        if arg.startswith(prefix):
            return arg[len(prefix):]
    raise KeyError(name)


# ---------------------------------------------------------------------------
# Verifier workloads


def check_cell(runner, argv: list) -> None:
    """One ``check`` command: exit code 0, a passing JSON report and exactly
    the expected number of identities."""
    op = runner.execute(argv)
    if op.rc != 0:
        return runner.reject(op, f"exit code {op.rc} from {' '.join(argv[:2])} "
                                 f"{op.err.strip()[:200]}")
    try:
        report = json.loads(op.out)
    except ValueError:
        return runner.reject(op, "report is not JSON")
    want = expected_identities(argv)
    if not report.get("passed") or report.get("failures"):
        return runner.reject(op, "report did not pass")
    if report.get("samples_run") != want:
        return runner.reject(op, f"{report.get('samples_run')} identities, expected {want}")
    runner.accept(op, want)


class CertifyWorkload:
    """Base of the two verifier workloads: each item is one ``check`` cell."""

    name = ""
    trace_rounds = 1     # rounds of a traced run; one round takes 3-6 s

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, r: int) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        return [lambda runner, argv=argv: check_cell(runner, argv)
                for argv in self.cells(rng)]

    def _cell(self, rng, mode: str, p: int, q: int, size_flag: str) -> list:
        return (["check", mode] + _weights(rng, p, q, CELL_DEGREE)
                + [f"--samples={SAMPLES}", f"{size_flag}={CELL_DEGREE}",
                   f"--seed={rng.randrange(1 << 30)}", "--format=json"])

    def constants(self, rounds: int) -> set:
        """(p, q, kmax, delta) of every generic cell of the first rounds."""
        out = set()
        for r in range(rounds):
            for argv in self.cells(random.Random(f"{self.name}:{self.seed}:{r}")):
                p, q = int(_option(argv, "p")), int(_option(argv, "q"))
                if argv[1] != "homomorphism" and not is_psl(p, q):
                    out.add((p, q, CELL_DEGREE, Fraction(_option(argv, "delta"))))
        return out


class CertifyOperator(CertifyWorkload):
    """``check equivariance`` everywhere, ``check relcas`` at generic
    signatures: the operator side of the verifier."""

    name = "certify-operator"

    def cells(self, rng) -> list:
        cells = []
        for p, q in CERTIFY_SIGNATURES:
            for _ in range(2):
                cells.append(self._cell(rng, "equivariance", p, q, "--degree-max"))
            if not is_psl(p, q):
                for _ in range(2):
                    cells.append(self._cell(rng, "relcas", p, q, "--kmax"))
        return cells

    def warm_up(self) -> list:
        out = []
        for p, q in CERTIFY_SIGNATURES:
            base = [f"--p={p}", f"--q={q}", "--samples=1"]
            out.append(["check", "equivariance", "--degree-max=0"] + base)
            if not is_psl(p, q):
                out.append(["check", "relcas", "--kmax=0"] + base)
        return out


class CertifySymbol(CertifyWorkload):
    """``check casimir`` (symbol action) and ``check homomorphism``: the
    symbol side of the verifier, with no operator Lie derivative."""

    name = "certify-symbol"

    def cells(self, rng) -> list:
        cells = []
        for p, q in CERTIFY_SIGNATURES:
            for _ in range(CASIMIR_CELLS):
                cells.append(self._cell(rng, "casimir", p, q, "--kmax"))
            cells.append(["check", "homomorphism", f"--p={p}", f"--q={q}",
                          "--format=json"])
        return cells

    def warm_up(self) -> list:
        return [["check", "casimir", f"--p={p}", f"--q={q}", "--kmax=0", "--samples=1"]
                for p, q in CERTIFY_SIGNATURES]


# ---------------------------------------------------------------------------
# Interactive workload


def _atoms(prefix: str, exps) -> list:
    return [f"{prefix}{i}" + (f"^{e}" if e > 1 else "")
            for i, e in enumerate(exps, start=1) if e]


def _odd_atoms(prefix: str, indices) -> list:
    return [f"{prefix}{i}" for i in sorted(indices)]


def _frame(rng, p: int, q: int, degree: int):
    odd = set(rng.sample(range(1, q + 1), rng.randint(0, min(q, degree))))
    evens = [0] * p
    for _ in range(degree - len(odd)):
        evens[rng.randrange(p)] += 1
    return tuple(evens), frozenset(odd)


def _term_text(coeff, xe, todd, fe, fodd, slot: str) -> str:
    # canonical atom order (coordinates, then slot atoms, odd indices
    # ascending), so the coefficient is read back with its own sign
    atoms = (_atoms("x", xe) + _odd_atoms("t", todd)
             + _atoms(f"{slot}x", fe) + _odd_atoms(f"{slot}t", fodd))
    return "*".join([f"({coeff})"] + atoms)


def random_symbol_text(rng, p: int, q: int, degree: int) -> str:
    """A symbol of top degree ``degree``, with optional parts of degree 0 and
    1 (always a degree-1 part when q = p+1)."""
    degrees = [degree] * rng.randint(2, 4)
    if rng.random() < 0.5:
        degrees.append(0)
    if is_psl(p, q) or rng.random() < 0.5:
        degrees.append(1)
    seen = set()
    terms = []
    for k in degrees:
        key = (_frame(rng, p, q, k),
               tuple(rng.randint(0, 2) for _ in range(p)),
               frozenset(i for i in range(1, q + 1) if rng.random() < 0.3))
        if key in seen:
            continue
        seen.add(key)
        (fe, fodd), xe, todd = key
        terms.append(_term_text(rng.choice(COEFFS), xe, todd, fe, fodd, "e"))
    return " + ".join(terms)


def operator_text_from_json(data: dict) -> str:
    """Expression text of an operator JSON document, written by the
    benchmark from the documented key layout."""
    terms = []
    for term in data["terms"]:
        # "x^(a,b);t{i,j};d x^(c,d);d t{k}"
        fields = [field[field.index(bracket) + 1:-1] for field, bracket
                  in zip(term["key"].split(";"), "({({")]
        xe, todd, de, dodd = ([int(v) for v in field.split(",") if v] for field in fields)
        terms.append(_term_text(term["coeff"], xe, todd, de, dodd, "d"))
    return " + ".join(terms) if terms else "0"


def _by_degree(value) -> dict:
    parts = value.parts() if isinstance(value, MixedSymbol) else [value]
    return {part.degree: dict(part.items()) for part in parts if not part.is_zero()}


def _key_degree(key) -> int:
    return sum(key[0]) + key[1].bit_count()


class CliRoundtrip:
    """``quantize --symbol=S`` then ``symbol-map --operator=<its output>``,
    alternately in text and JSON."""

    name = "cli-roundtrip"
    trace_rounds = 10    # one round takes about 0.3 s

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, r: int) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        out = []
        for p, q in CLI_SIGNATURES:
            for degree in CLI_DEGREES:
                text = random_symbol_text(rng, p, q, degree)
                out.append((p, q, degree, _weights(rng, p, q, degree), text))
        return out

    def round(self, r: int) -> list:
        inputs = self.inputs(r)
        rng = random.Random(f"{self.name}:{self.seed}:{r}:subset")
        # the eigenvector recursion is slow at high degree, so it checks one
        # generic input of degree <= 4 per round
        generic = [i for i, (p, q, degree, *_rest) in enumerate(inputs)
                   if not is_psl(p, q) and degree <= 4]
        recursive = rng.choice(generic)
        cross = rng.randrange(len(inputs))
        return [lambda runner, i=i, item=item: self.pair(
                    runner, item, json_format=bool(i & 1),
                    recursive=i == recursive, cross=i == cross)
                for i, item in enumerate(inputs)]

    def constants(self, rounds: int) -> set:
        """(p, q, top degree, delta) of every generic input of the first rounds."""
        out = set()
        for r in range(rounds):
            for p, q, degree, weights, _text in self.inputs(r):
                if not is_psl(p, q):
                    out.add((p, q, degree, Fraction(_option(weights, "delta"))))
        return out

    def warm_up(self) -> list:
        out = []
        for p, q in CLI_SIGNATURES:
            base = [f"--p={p}", f"--q={q}", "--lambda=1/3", "--delta=1/5"]
            out.append(["quantize", "--symbol=x1*ex1"] + base)
            out.append(["symbol-map", "--operator=x1*dx1"] + base)
        return out

    def pair(self, runner, item, *, json_format: bool, recursive: bool, cross: bool):
        p, q, degree, weights, text = item
        sig = Signature(p, q)
        fmt = ["--format=json"] if json_format else []
        cfg = QuantizationConfig(
            sig, Fraction(_option(weights, "lambda")), Fraction(_option(weights, "delta")),
            t=Fraction(_option(weights, "t")) if is_psl(p, q) else Fraction(0))

        quant = runner.execute(["quantize"] + weights + [f"--symbol={text}"] + fmt)
        if quant.rc != 0:
            runner.reject(quant, f"exit code {quant.rc}: {quant.err.strip()[:200]}")
            return
        symbol = expr.parse("symbol", text, sig, weight=cfg.delta)
        try:
            if json_format:
                doc = json.loads(quant.out)
                operator = expr.value_from_json(doc)
                operator_text = operator_text_from_json(doc)
            else:
                operator = expr.parse("operator", quant.out, sig, lam=cfg.lam, mu=cfg.mu)
                operator_text = quant.out.strip()
        except (ValueError, KeyError) as exc:
            runner.reject(quant, f"output does not decode: {exc}")
            return
        try:
            problem = self._check_operator(runner, operator, symbol, cfg, weights, text,
                                           json_format, recursive=recursive, cross=cross)
        except (ValueError, KeyError) as exc:
            problem = f"output in the other format does not decode: {exc}"
        if problem:
            runner.reject(quant, problem)
        else:
            runner.accept(quant, 1)

        back = runner.execute(["symbol-map"] + weights + [f"--operator={operator_text}"] + fmt)
        if back.rc != 0:
            runner.reject(back, f"exit code {back.rc}: {back.err.strip()[:200]}")
            return
        try:
            if json_format:
                recovered = expr.value_from_json(json.loads(back.out))
            else:
                recovered = expr.parse("symbol", back.out, sig, weight=cfg.delta)
        except (ValueError, KeyError) as exc:
            runner.reject(back, f"output does not decode: {exc}")
            return
        if recovered.weight != cfg.delta or _by_degree(recovered) != _by_degree(symbol):
            runner.reject(back, f"symbol-map does not give back {text}")
        else:
            runner.accept(back, 1)

    def _check_operator(self, runner, operator, symbol, cfg, weights, text,
                        json_format, *, recursive, cross) -> str | None:
        if not isinstance(operator, DiffOperator):
            return "quantize did not print an operator"
        top = max(_by_degree(symbol))
        head = {key: poly for key, poly in operator.items() if _key_degree(key) >= top}
        if head != _by_degree(symbol)[top]:
            return "top-degree part differs from the symbol"
        if is_psl(cfg.signature.p, cfg.signature.q):
            # Q_t - Q_0 is multiplication by t * div S_1
            base = quantize(symbol, QuantizationConfig(cfg.signature, cfg.lam, cfg.delta))
            one = _by_degree(symbol).get(1)
            div = (symbol_divergence(SymbolField(cfg.signature, cfg.delta, 1, one))
                   .scalar_poly() if one else None)
            want = (DiffOperator.multiplication(cfg.t * div, cfg.lam, cfg.mu) if div
                    else DiffOperator.zero(cfg.signature, cfg.lam, cfg.mu))
            if operator - base != want:
                return "Q_t - Q_0 is not t * div S_1"
        if recursive and operator != quantize_recursive(symbol, cfg):
            return "differs from the eigenvector recursion"
        if cross:
            rc, other = runner.call(["quantize"] + weights + [f"--symbol={text}"]
                                    + ([] if json_format else ["--format=json"]))
            if rc != 0:
                return f"exit code {rc} in the other format"
            decoded = (expr.parse("operator", other, cfg.signature, lam=cfg.lam, mu=cfg.mu)
                       if json_format else expr.value_from_json(json.loads(other)))
            if decoded != operator:
                return "text and JSON outputs differ"
        return None


WORKLOADS = {cls.name: cls for cls in (CertifyOperator, CertifySymbol, CliRoundtrip)}
