"""Per-layer spans and work counts, recorded from outside the program.

`Tracer.install()` replaces the public functions of each resint module by
timing wrappers, in every module that imported them by name, and
`Tracer.uninstall()` puts the originals back.  Each call becomes a span
with its thread, its parent span and its wall and thread-CPU clocks.
`cmd_verify` runs the checks on a thread pool and the checks share the
interpreter lock, so a layer's seconds are thread-CPU seconds: self time
is a span's CPU time minus that of its children on the same thread.  Only
`cli.cmd_verify_s` is wall time.

Work counts come only from public return values and arguments: the
`GroebnerBasis.trace` of each basis, `len()` of bases, kernels, products
and straightened results, and the distinct straighten keys per instance.
They are deterministic, so two traced passes give identical counts.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time


def _count_buchberger(counts, result, *args, **kwargs):
    counts["groebner.pairs"] += result.trace.pairs
    counts["groebner.max_terms"] = max(counts["groebner.max_terms"], result.trace.max_terms)
    counts["groebner.basis_len"] += len(result)


def _count_mul(counts, result, a, b):
    counts["ring.mul.term_products"] += len(a) * (len(b) if hasattr(b, "_terms") else 1)
    counts["ring.mul.terms_out"] += len(result)


def _count_straighten(counts, result, instance, a, b):
    # the program caches by the sorted label pair on each instance, so the
    # number of distinct keys per instance is its number of cache misses
    seen = counts.setdefault("poset.straighten.keys", {})
    # holding the instance keeps its id from being reused within a pass
    keys = seen.setdefault(id(instance), (instance, set()))[1]
    keys.add(tuple(sorted((a.sort_key, b.sort_key))))


def _count_straighten_product(counts, result, *args, **kwargs):
    counts["poset.straighten_product.terms_out"] += len(result)


def _count_solve(counts, result, field, matrix, rhs):
    counts["linalg.solve_field.cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)


def _count_kernel(counts, result, *args, **kwargs):
    counts["sagbi.kernel_gens"] += len(result.generators)


#: (module, attribute, span name, count hook); "Class.method" patches a class
TARGETS = (
    ("resint.cli", "cmd_verify", "cli.cmd_verify", None),
    ("resint.residual", "build_instance", "residual.build_instance", None),
    ("resint.residual", "verify_ara_witness", "residual.verify_ara_witness", None),
    ("resint.residual", "verify_colon_identity", "residual.verify_colon_identity", None),
    ("resint.groebner", "radical_membership", "residual.radical_membership", None),
    ("resint.groebner", "buchberger", "groebner.buchberger", _count_buchberger),
    ("resint.groebner", "normal_form", "groebner.normal_form", None),
    ("resint.ring", "Polynomial.__mul__", "ring.mul", _count_mul),
    ("resint.ring", "Polynomial.substitute", "ring.substitute", None),
    ("resint.poset", "straighten", "poset.straighten", _count_straighten),
    ("resint.poset", "straighten_product", "poset.straighten_product", _count_straighten_product),
    ("resint.poset", "verify_asl1", "poset.verify_asl1", None),
    ("resint.poset", "verify_asl2", "poset.verify_asl2", None),
    ("resint.poset", "is_wonderful", "poset.is_wonderful", None),
    ("resint.linalg", "solve_field", "linalg.solve_field", _count_solve),
    ("resint.linalg", "rank", "linalg.rank", None),
    ("resint.sagbi", "toric_kernel", "sagbi.toric_kernel", _count_kernel),
    ("resint.sagbi", "subduce", "sagbi.subduce", None),
    ("resint.transcendence", "verify_transcendence_basis", "transcendence.verify_transcendence_basis", None),
    ("resint.transcendence", "verify_rewrite", "transcendence.verify_rewrite", None),
    ("resint.transcendence", "DContext.fraction", "transcendence.fraction", None),
    ("resint.transcendence", "independence_by_exponents", "transcendence.independence_by_exponents", None),
    ("resint.transcendence", "plucker_relation", "transcendence.plucker_relation", None),
)

#: the root span: spans that open on an empty pool-thread stack hang under it
ROOT = "cli.cmd_verify"


class Span:
    __slots__ = ("id", "parent", "name", "thread", "nested", "wall0", "wall1", "cpu0", "cpu1")

    def __init__(self, id_, parent, name, thread, nested):
        self.id, self.parent, self.name, self.thread, self.nested = id_, parent, name, thread, nested


class _Counts(dict):
    def __missing__(self, key):
        return 0


class _ThreadRecord:
    """The spans and counts of one thread: no lock is needed to add to them."""

    def __init__(self, number: int):
        self.number = number
        self.ident = threading.get_ident()
        self.stack: list[Span] = []
        self.spans: list[Span] = []
        self.counts = _Counts()


class Tracer:
    """Spans and counts of the passes run between `install` and `uninstall`."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadRecord] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self._root = None

    def _record(self) -> _ThreadRecord:
        rec = getattr(self._local, "rec", None)
        if rec is None:
            with self._lock:
                rec = _ThreadRecord(len(self._threads))
                self._threads.append(rec)
            self._local.rec = rec
        return rec

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._record()
            parent = rec.stack[-1].id if rec.stack else tracer._root
            nested = any(s.name == name for s in rec.stack)
            span = Span(next(tracer._ids), parent, name, rec.number, nested)
            if name == ROOT:
                tracer._root = span.id
            rec.stack.append(span)
            span.wall0, span.cpu0 = time.perf_counter(), time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.cpu1, span.wall1 = time.thread_time(), time.perf_counter()
                rec.stack.pop()
                rec.spans.append(span)
                if name == ROOT:
                    tracer._root = None
            if count is not None:
                count(rec.counts, result, *args, **kwargs)
            return result

        return traced

    def install(self):
        modules = [m for k, m in list(sys.modules.items()) if k == "resint" or k.startswith("resint.")]
        for module_name, attr, name, count in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, count))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def reset(self):
        """Forget spans and counts; the next pass starts from zero."""
        with self._lock:
            self._threads.clear()
        self._local = threading.local()

    def summary(self) -> dict[str, float | int]:
        """Per-layer metrics of the spans and counts recorded since `reset`."""
        calls = _Counts()
        self_s = _Counts()
        incl_s = _Counts()
        wall_s = _Counts()
        counts = _Counts()
        straighten_keys: dict[int, set] = {}
        for rec in self._threads:
            child_cpu = _Counts()
            for s in rec.spans:
                if s.parent is not None:
                    child_cpu[s.parent] += s.cpu1 - s.cpu0
            for s in rec.spans:
                cpu = s.cpu1 - s.cpu0
                calls[s.name] += 1
                # a parent on another thread (the root) is not subtracted,
                # since the spans did not run on this thread's clock
                self_s[s.name] += cpu - child_cpu[s.id]
                if not s.nested:
                    incl_s[s.name] += cpu
                    wall_s[s.name] += s.wall1 - s.wall0
            for key, value in rec.counts.items():
                if key == "groebner.max_terms":
                    counts[key] = max(counts[key], value)
                elif key == "poset.straighten.keys":
                    for instance_id, (_, keys) in value.items():
                        straighten_keys.setdefault(instance_id, set()).update(keys)
                else:
                    counts[key] += value
        straighten_calls = calls["poset.straighten"]
        misses = sum(len(keys) for keys in straighten_keys.values())
        return {
            "groebner.buchberger.calls": calls["groebner.buchberger"],
            "groebner.buchberger.self_s": self_s["groebner.buchberger"],
            "groebner.pairs": counts["groebner.pairs"],
            "groebner.max_terms": counts["groebner.max_terms"],
            "groebner.basis_len": counts["groebner.basis_len"],
            "groebner.normal_form.calls": calls["groebner.normal_form"],
            "groebner.normal_form_s": incl_s["groebner.normal_form"],
            "ring.mul.calls": calls["ring.mul"],
            "ring.mul.term_products": counts["ring.mul.term_products"],
            "ring.mul.terms_out": counts["ring.mul.terms_out"],
            "ring.mul.self_s": self_s["ring.mul"],
            "ring.substitute.calls": calls["ring.substitute"],
            "ring.substitute_s": incl_s["ring.substitute"],
            "poset.straighten.calls": straighten_calls,
            "poset.straighten.misses": misses,
            "poset.straighten.hit_ratio": 1 - misses / straighten_calls if straighten_calls else 0.0,
            "poset.straighten.self_s": self_s["poset.straighten"],
            "poset.straighten_product.calls": calls["poset.straighten_product"],
            "poset.straighten_product.terms_out": counts["poset.straighten_product.terms_out"],
            "poset.verify_asl1_s": incl_s["poset.verify_asl1"],
            "poset.verify_asl2_s": incl_s["poset.verify_asl2"],
            "poset.is_wonderful_s": incl_s["poset.is_wonderful"],
            "linalg.solve_field.calls": calls["linalg.solve_field"],
            "linalg.solve_field.cells": counts["linalg.solve_field.cells"],
            "linalg.solve_field_s": incl_s["linalg.solve_field"],
            "linalg.rank.calls": calls["linalg.rank"],
            "linalg.rank_s": incl_s["linalg.rank"],
            "sagbi.toric_kernel.calls": calls["sagbi.toric_kernel"],
            "sagbi.toric_kernel_s": incl_s["sagbi.toric_kernel"],
            "sagbi.kernel_gens": counts["sagbi.kernel_gens"],
            "sagbi.subduce.calls": calls["sagbi.subduce"],
            "sagbi.subduce_s": incl_s["sagbi.subduce"],
            "transcendence.verify_transcendence_basis.calls": calls["transcendence.verify_transcendence_basis"],
            "transcendence.verify_rewrite.calls": calls["transcendence.verify_rewrite"],
            "transcendence.verify_rewrite_s": incl_s["transcendence.verify_rewrite"],
            "transcendence.fraction_s": incl_s["transcendence.fraction"],
            "transcendence.independence_by_exponents_s": incl_s["transcendence.independence_by_exponents"],
            "transcendence.plucker_relation.calls": calls["transcendence.plucker_relation"],
            "residual.build_instance.calls": calls["residual.build_instance"],
            "residual.build_instance_s": incl_s["residual.build_instance"],
            "residual.radical_membership.calls": calls["residual.radical_membership"],
            "residual.verify_ara_witness_s": incl_s["residual.verify_ara_witness"],
            "residual.verify_colon_identity_s": incl_s["residual.verify_colon_identity"],
            "cli.cmd_verify_s": wall_s["cli.cmd_verify"],
        }
