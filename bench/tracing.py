"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces the public functions of each module by
wrappers: a function is replaced in every ``superquant`` module namespace
that holds it (so names imported with ``from .x import f`` are covered), a
method on its class, and a kernel function on the kernel module that
``supercore`` reaches through ``_ops``.  Several program functions may share
one layer name (``supercore.add`` covers ``add_terms`` and ``sub_terms``).

While ``active`` is set, every call records a span (name, start, end, parent
span, operation id) in memory; ``write`` saves the spans when the run ends.
A layer's self time is its spans' time minus the time of their child spans.
"""

from __future__ import annotations

import sys
import time
from array import array

# layer name -> [(owner, attribute)]; owner is a module path, optionally
# followed by ":Class" for a method, or "@kernel" for the term kernel
LAYERS = {
    "supercore.mul": [("@kernel", "mul_terms")],
    "supercore.add": [("@kernel", "add_terms"), ("@kernel", "sub_terms")],
    "supercore.scale": [("@kernel", "scale_terms"), ("@kernel", "neg_terms")],
    "supercore.partial": [("@kernel", "partial_even_terms"),
                          ("@kernel", "partial_odd_terms")],
    "geometry.compose": [("superquant.geometry:DiffOperator", "compose")],
    "geometry.lie_operator": [("superquant.geometry", "lie_operator")],
    "geometry.lie_symbol": [("superquant.geometry", "lie_symbol")],
    "geometry.symbol_divergence": [("superquant.geometry", "symbol_divergence")],
    "geometry.interior": [("superquant.geometry", "interior")],
    "geometry.affine_quantize": [("superquant.geometry", "affine_quantize")],
    "geometry.bracket": [("superquant.geometry", "bracket")],
    "projective.realize": [("superquant.projective", "realize")],
    "projective.pgl_bracket": [("superquant.projective", "pgl_bracket")],
    "projective.casimir_apply": [("superquant.projective", "casimir_apply")],
    "projective.casimir_defect": [("superquant.projective", "casimir_defect")],
    "projective.dual_basis_pair": [("superquant.projective", "dual_basis_pair")],
    "projective.quantization_coefficient": [
        ("superquant.projective", "quantization_coefficient")],
    "quantizer.quantize": [("superquant.quantizer", "quantize")],
    "quantizer.quantize_psl": [("superquant.quantizer", "quantize_psl")],
    "quantizer.symbol_map": [("superquant.quantizer", "symbol_map")],
    "verifier.check": [("superquant.verifier", name) for name in (
        "check_equivariance", "check_casimir", "check_homomorphism", "check_relcas")],
    "verifier.symbol_samples": [("superquant.verifier", "symbol_samples")],
    "expr.parse": [("superquant.expr", "parse")],
    "expr.format": [("superquant.expr", "format_value"), ("superquant.expr", "value_to_json")],
    "cli.main": [("superquant.cli", "main")],
}

# extra counters: metric name -> (layer, amount counted per call from the
# call's arguments and result)
COUNTERS = {
    "supercore.mul.term_pairs": ("supercore.mul", lambda args, result: len(args[0]) * len(args[1])),
    "verifier.identities": ("verifier.check", lambda args, result: result.samples_run),
    "expr.parse.chars": ("expr.parse", lambda args, result: len(args[1])),
}


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.layers = list(LAYERS)
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op_id = array("l")
        self.self_ns = [0] * len(self.layers)
        self.calls = [0] * len(self.layers)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = []       # open span ids
        self._child_ns = []    # time covered by children of each open span

    def install(self) -> None:
        from superquant import supercore

        counters = {}
        for metric, (layer, amount) in COUNTERS.items():
            counters.setdefault(layer, []).append((metric, amount))
        for index, layer in enumerate(self.layers):
            for owner, attr in LAYERS[layer]:
                if owner == "@kernel":
                    holders = [supercore._ops]
                elif ":" in owner:
                    module, cls = owner.split(":")
                    holders = [getattr(sys.modules[module], cls)]
                else:
                    holders = [module for name, module in list(sys.modules.items())
                               if name.split(".")[0] == "superquant"]
                original = getattr(sys.modules.get(owner) or holders[0], attr)
                wrapper = self._wrap(index, original, counters.get(layer, ()))
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, name, wrapper)

    def _wrap(self, index: int, fn, counters):
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = len(tracer.start)
            stack = tracer._stack
            tracer.name_id.append(index)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op_id.append(tracer.op)
            stack.append(span)
            tracer._child_ns.append(0)
            tracer.end.append(0)
            t0 = clock()
            tracer.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer.end[span] = t1
                stack.pop()
                child = tracer._child_ns.pop()
                if tracer._child_ns:
                    tracer._child_ns[-1] += t1 - t0
                tracer.self_ns[index] += t1 - t0 - child
                tracer.calls[index] += 1
            for metric, amount in counters:
                tracer.counts[metric] += amount(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def metrics(self) -> dict:
        out = {}
        for index, layer in enumerate(self.layers):
            out[f"{layer}.calls"] = (self.calls[index], "count")
            out[f"{layer}.self_s"] = (self.self_ns[index] / 1e9, "s")
        for metric, value in self.counts.items():
            out[metric] = (value, "count")
        return out

    def write(self, path: str) -> None:
        """Spans as tab-separated rows in start order; times in ns."""
        with open(path, "w") as fh:
            fh.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            for span in range(len(self.start)):
                fh.write(f"{span}\t{self.parent[span]}\t{self.op_id[span]}\t"
                         f"{self.layers[self.name_id[span]]}\t{self.start[span]}\t"
                         f"{self.end[span]}\n")
