"""Spans and counts at the public callables of each microdiff module.

Wrappers are installed from outside, in the benchmark's own process.  A name
bound with `from ... import` is patched in every microdiff module that holds
it, so calls are seen where they are looked up (for example
`charvar.try_invert` and `diffop.divided_lift`).  Spans stay in memory as
(name, start, end, parent index) and are written out when the pass ends.
"""

import gzip
import json
import sys
import time
from collections import Counter, defaultdict

perf = time.perf_counter

# (metric prefix, module, attribute path, span?, distinct key)
TARGETS = (
    ("diffop.DiffOp.commutator", "diffop", "DiffOp.commutator", True, "args"),
    ("diffop.DiffOp.mul", "diffop", "DiffOp.__mul__", True, "args"),
    ("diffop.DiffOp.mul", "diffop", "DiffOp.__rmul__", True, "args"),
    ("microloc.try_invert", "microloc", "try_invert", True, None),
    ("microloc.micro_multiply", "microloc", "micro_multiply", True, None),
    ("microloc.MicroOp.canonical", "microloc", "MicroOp.canonical", True, None),
    ("charvar.order_standard_basis", "charvar", "order_standard_basis", True, None),
    ("charvar.char_variety", "charvar", "char_variety", True, None),
    ("charvar.micro_support_test", "charvar", "micro_support_test", True, None),
    ("cli.main", "cli", "main", True, None),
    ("cli.parse", "cli", "parse", True, None),
    ("polynomials.Poly.built", "polynomials", "Poly.__init__", False, None),
    ("polynomials.Poly.mul", "polynomials", "Poly.__mul__", False, None),
    ("padic.valuation", "padic", "valuation", False, None),
    ("padic.divided_lift", "padic", "divided_lift", False, "args"),
    ("padic.binomial_structure_constant_exact", "padic",
     "binomial_structure_constant_exact", False, "args"),
)

# the per-layer metrics, as named in BENCHMARK.json
LAYER_METRICS = (
    ("diffop.DiffOp.commutator.calls", "count"),
    ("diffop.DiffOp.commutator.distinct_ratio", "ratio"),
    ("diffop.DiffOp.commutator.s", "s"),
    ("microloc.try_invert.calls", "count"),
    ("microloc.try_invert.s", "s"),
    ("microloc.micro_multiply.calls", "count"),
    ("microloc.micro_multiply.self_s", "s"),
    ("microloc.MicroOp.canonical.self_s", "s"),
    ("charvar.order_standard_basis.s", "s"),
    ("charvar.order_standard_basis.pairs_checked", "count"),
    ("charvar.order_standard_basis.basis_size", "count"),
    ("charvar.char_variety.self_s", "s"),
    ("charvar.micro_support_test.self_s", "s"),
    ("diffop.DiffOp.mul.calls", "count"),
    ("diffop.DiffOp.mul.self_s", "s"),
    ("diffop.DiffOp.mul.distinct_ratio", "ratio"),
    ("polynomials.Poly.built", "count"),
    ("polynomials.Poly.mul.calls", "count"),
    ("padic.valuation.calls", "count"),
    ("padic.divided_lift.calls", "count"),
    ("padic.divided_lift.distinct_ratio", "ratio"),
    ("padic.binomial_structure_constant_exact.calls", "count"),
    ("padic.binomial_structure_constant_exact.distinct_ratio", "ratio"),
    ("cli.import_s", "s"),
    ("cli.import.sympy_s", "s"),
    ("cli.main.s", "s"),
    ("cli.parse.s", "s"),
    ("trace.overhead_s", "s"),
)

# metrics that must repeat exactly between traced passes of one seed
COUNT_METRICS = tuple(
    name for name, unit in LAYER_METRICS if unit in ("count", "ratio")
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []  # open span indices
        self.child = []  # time covered by each open span's children
        self.active = Counter()  # open spans per name, to skip recursion in .s
        self.calls = Counter()
        self.keys = defaultdict(set)
        self.self_s = Counter()
        self.incl_s = Counter()
        self.extra = Counter()
        self._undo = []

    def _span(self, name, fn, distinct):
        tr = self

        def wrapper(*args, **kw):
            tr.calls[name] += 1
            if distinct:
                tr.keys[name].add(hash(args))
            parent = tr.stack[-1] if tr.stack else -1
            idx = len(tr.spans)
            tr.spans.append(None)
            tr.stack.append(idx)
            tr.child.append(0.0)
            tr.active[name] += 1
            t0 = perf()
            try:
                return fn(*args, **kw)
            finally:
                t1 = perf()
                tr.stack.pop()
                covered = tr.child.pop()
                tr.active[name] -= 1
                tr.spans[idx] = (name, t0, t1, parent)
                tr.self_s[name] += t1 - t0 - covered
                if not tr.active[name]:
                    tr.incl_s[name] += t1 - t0
                if tr.child:
                    tr.child[-1] += t1 - t0

        return wrapper

    def _count(self, name, fn, distinct):
        calls, keys = self.calls, self.keys[name]

        def wrapper(*args, **kw):
            calls[name] += 1
            if distinct:
                keys.add(args)
            return fn(*args, **kw)

        return wrapper

    def install(self):
        mods = {n: m for n, m in sys.modules.items()
                if n == "microdiff" or n.startswith("microdiff.")}
        for name, mod, path, span, distinct in TARGETS:
            owner = mods.get("microdiff." + mod)
            if owner is None:  # microdiff.cli is loaded by the cli workload only
                continue
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            orig = owner.__dict__[attr] if cls else getattr(owner, attr)
            make = self._span if span else self._count
            wrapped = make(name, orig, distinct)
            if cls:
                self._patch(owner, attr, wrapped)
                continue
            for m in mods.values():  # every `from ... import` binding
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, wrapped)
        osb = mods["microdiff.charvar"].order_standard_basis

        def certificate_counts(*args, **kw):
            sb = osb(*args, **kw)
            self.extra["pairs_checked"] += sb.pairs_checked
            self.extra["basis_size"] += len(sb.basis)
            return sb

        self._patch(mods["microdiff.charvar"], "order_standard_basis", certificate_counts)

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self):
        out = {}
        for name, _unit in LAYER_METRICS:
            base, _, field = name.rpartition(".")
            if name in ("polynomials.Poly.built",):
                out[name] = self.calls[name]
            elif field == "calls":
                out[name] = self.calls[base]
            elif field == "distinct_ratio":
                n = self.calls[base]
                out[name] = len(self.keys[base]) / n if n else 0.0
            elif field == "s":
                out[name] = self.incl_s[base]
            elif field == "self_s":
                out[name] = self.self_s[base]
            elif field in ("pairs_checked", "basis_size"):
                out[name] = self.extra[field]
        return out

    def write_spans(self, path):
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
