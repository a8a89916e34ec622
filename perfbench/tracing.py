"""Spans recorded from the benchmark's own files, around calls into each layer.

:func:`install` replaces each wrapped function *where its caller looks it
up* (for example ``intt`` inside ``repro.qap.qap``, ``compute_h`` inside
``repro.groth16.prover``) with a wrapper that records a span — name,
start, end, parent, attributes — into an in-memory :class:`Recorder`.
Nothing under ``src/repro`` changes and ``repro.perf.trace`` is never
installed (an installed tracer pins ``msm_auto`` to the reference kernel
and turns the worker pool off).

Wrappers run in the process that installed them.  Pool workers forked
afterwards inherit the wrappers but their spans stay in the worker, so
kernel time inside workers shows up only as the parent-side
``parallel.map`` span.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time

from perfbench.stats import self_times

#: Timed-phase layer predictions: span name -> the workloads whose timed
#: requests must call it.  A workload not listed must record zero calls.
EXERCISED_BY = {
    "msm.fixed": {"keygen"},
    "qap.column_eval": {"keygen"},
    "circuit.compile": {"keygen"},
    "groth16.setup": {"keygen"},
    "msm.var": {"prove-verify", "serve-mixed"},
    "poly.ntt": {"prove-verify", "serve-mixed"},
    "qap.compute_h": {"prove-verify", "serve-mixed"},
    "groth16.prove": {"prove-verify", "serve-mixed"},
    "curves.miller_loop": {"prove-verify", "serve-mixed"},
    "curves.final_exp": {"prove-verify", "serve-mixed"},
    "circuit.witness": {"prove-verify"},
    "groth16.verify": {"prove-verify"},
    "groth16.batch_verify": {"serve-mixed"},
    "parallel.map": {"serve-mixed"},
}
#: Pairs left out of the check: on serve-mixed only a bisection down to a
#: single poisoned proof calls ``verify``, and that depends on timing.
UNCHECKED = {("groth16.verify", "serve-mixed")}

#: Work counters read from ``repro.obs.metrics`` in the traced run.
WORK_COUNTERS = {
    "work.msm_windows": "repro_msm_windows_total",
    "work.batch_affine_inversions": "repro_msm_batch_affine_inversions_total",
    "work.glv_decompositions": "repro_msm_glv_decompositions_total",
    "work.ntt_butterflies": "repro_ntt_butterflies_total",
    "work.field_inversions": "repro_field_inv_total",
}


class Recorder:
    """In-memory span store; a per-thread stack supplies parents."""

    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self.request = None
        self._local = threading.local()
        # next() on a count is atomic under the interpreter lock.
        self._ids = itertools.count(1)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, attrs, fn, args, kwargs):
        stack = self._stack()
        sid = next(self._ids)
        span = {"id": sid, "name": name,
                "parent": stack[-1] if stack else None,
                "phase": self.phase, "request": self.request,
                "attrs": attrs, "start": time.perf_counter(), "end": None}
        stack.append(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(span)


def _n(x):
    return len(x) if hasattr(x, "__len__") else None


def _group(g):
    return g.name.rsplit(".", 1)[-1].lower()


def _targets():
    """(owner, attribute, span name, attrs(args) -> dict) per wrapped name."""
    import repro.groth16 as groth16
    import repro.groth16.batch as batch
    import repro.groth16.prover as prover
    import repro.groth16.verifier as verifier
    import repro.msm.dispatch as dispatch
    import repro.qap.qap as qap
    from repro.circuit import compiler
    from repro.curves.pairing import PairingEngine
    from repro.msm.fixed_base import FixedBaseTable
    from repro.parallel.pool import WorkerPool

    setup_mod = importlib.import_module("repro.groth16.setup")
    none = lambda *a, **k: {}  # noqa: E731
    return [
        (FixedBaseTable, "mul", "msm.fixed",
         lambda self, *a, **k: {"group": _group(self.group), "scalars": 1}),
        (FixedBaseTable, "mul_many", "msm.fixed",
         lambda self, scalars, *a, **k: {"group": _group(self.group),
                                         "scalars": _n(scalars)}),
        (setup_mod, "column_evaluations_at", "qap.column_eval", none),
        (dispatch, "msm_auto", "msm.var",
         lambda group, points, *a, **k: {"group": _group(group),
                                         "points": _n(points)}),
        (qap, "intt", "poly.ntt", lambda f, v, *a, **k: {"points": _n(v)}),
        (qap, "coset_ntt", "poly.ntt", lambda f, v, *a, **k: {"points": _n(v)}),
        (qap, "coset_intt", "poly.ntt", lambda f, v, *a, **k: {"points": _n(v)}),
        (prover, "compute_h", "qap.compute_h", none),
        (compiler, "compile_circuit", "circuit.compile", none),
        (groth16, "generate_witness", "circuit.witness", none),
        (groth16, "setup", "groth16.setup", none),
        (groth16, "prove", "groth16.prove", none),
        (groth16, "verify", "groth16.verify", none),
        (verifier, "verify", "groth16.verify", none),
        (batch, "batch_verify", "groth16.batch_verify",
         lambda vk, pairs, *a, **k: {"proofs": _n(pairs)}),
        (PairingEngine, "miller_loop", "curves.miller_loop", none),
        (PairingEngine, "final_exponentiation", "curves.final_exp", none),
        (WorkerPool, "map", "parallel.map",
         lambda self, fn_name, payloads, *a, **k: {"tasks": _n(payloads)}),
    ]


def install(recorder):
    """Wrap every target; returns a function that restores the originals."""
    saved = []
    wrappers = {}
    for owner, attr, name, attrs_of in _targets():
        fn = getattr(owner, attr)
        wrapper = wrappers.get(id(fn))
        if wrapper is None:
            def wrapper(*args, _fn=fn, _name=name, _attrs=attrs_of, **kwargs):
                return recorder.call(_name, _attrs(*args, **kwargs), _fn,
                                     args, kwargs)
            wrappers[id(fn)] = wrapper
        saved.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def restore():
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
    return restore


def _outermost(spans, name):
    """Spans called *name* not nested inside another span of that name."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        p = s["parent"]
        while p is not None and by_id.get(p, {}).get("name") != name:
            p = by_id.get(p, {}).get("parent")
        if p is None:
            out.append(s)
    return [s for s in out if s["name"] == name]


def layer_metrics(spans, n_requests):
    """Per-layer figures of the timed phase, per timed request."""
    timed = [s for s in spans if s["phase"] == "timed"]
    selfs = self_times(timed)
    k = max(1, n_requests)
    out = {}

    def put(name, value, unit):
        out[name] = (value / k, unit)

    fixed = _outermost(timed, "msm.fixed")
    for g in ("g1", "g2"):
        mine = [s for s in fixed if s["attrs"]["group"] == g]
        put(f"msm.fixed.{g}.scalars", sum(s["attrs"]["scalars"] or 0 for s in mine), "count")
        put(f"msm.fixed.{g}.s", sum(s["end"] - s["start"] for s in mine), "s")
        var = [s for s in timed if s["name"] == "msm.var" and s["attrs"]["group"] == g]
        put(f"msm.var.{g}.calls", len(var), "count")
        put(f"msm.var.{g}.points", sum(s["attrs"]["points"] or 0 for s in var), "count")
        put(f"msm.var.{g}.s", sum(s["end"] - s["start"] for s in var), "s")

    def of(name):
        return [s for s in timed if s["name"] == name]

    put("qap.column_eval.s", sum(s["end"] - s["start"] for s in of("qap.column_eval")), "s")
    ntt = of("poly.ntt")
    put("poly.ntt.calls", len(ntt), "count")
    put("poly.ntt.points", sum(s["attrs"]["points"] or 0 for s in ntt), "count")
    put("poly.ntt.s", sum(s["end"] - s["start"] for s in ntt), "s")
    put("qap.compute_h.self_s", sum(selfs[s["id"]] for s in of("qap.compute_h")), "s")
    for name in ("circuit.compile", "circuit.witness"):
        put(f"{name}.s", sum(s["end"] - s["start"] for s in of(name)), "s")
    for name in ("curves.miller_loop", "curves.final_exp"):
        put(f"{name}.calls", len(of(name)), "count")
        put(f"{name}.s", sum(s["end"] - s["start"] for s in of(name)), "s")
    for stage in ("setup", "prove", "verify", "batch_verify"):
        mine = of(f"groth16.{stage}")
        put(f"groth16.{stage}.calls", len(mine), "count")
        put(f"groth16.{stage}.self_s", sum(selfs[s["id"]] for s in mine), "s")
    put("groth16.batch_verify.proofs",
        sum(s["attrs"]["proofs"] or 0 for s in of("groth16.batch_verify")), "count")
    pm = of("parallel.map")
    put("parallel.map.calls", len(pm), "count")
    put("parallel.map.tasks", sum(s["attrs"]["tasks"] or 0 for s in pm), "count")
    put("parallel.map.s", sum(s["end"] - s["start"] for s in pm), "s")
    return out


def serve_metrics(requests, counts):
    """The serving layer, from ``JobResult.phases`` and ``stats()`` counts."""
    out = {}
    for kind in ("prove", "verify"):
        mine = [r for r in requests if r.get("kind") == kind]
        for phase in ("queue_wait", "coalesce_delay", "compute", "retry_backoff"):
            total = sum(r["phases"].get(phase, 0.0) for r in mine)
            out[f"serve.{kind}.{phase}_s"] = (total / max(1, len(mine)), "s")
    verifies = [r for r in requests if r.get("kind") == "verify"]
    out["serve.verify.batch_size"] = (
        sum(r["batched"] for r in verifies) / max(1, len(verifies)), "count")
    out["serve.verify.coalesced_share"] = (
        sum(r["batched"] > 1 for r in verifies) / max(1, len(verifies)), "ratio")
    for name in ("shed", "timeout", "retries", "degraded"):
        out[f"serve.{name}"] = (counts.get(name, 0), "count")
    poisoned = sum(1 for r in verifies if r["poisoned"])
    out["serve.isolated_bad_share"] = (
        counts.get("isolated_bad", 0) / max(1, poisoned), "ratio")
    return out


def check_predictions(spans, workload):
    """Exercise/bypass self-check of the timed phase; returns failures."""
    names = {s["name"] for s in spans if s["phase"] == "timed"}
    problems = []
    for name, workloads in EXERCISED_BY.items():
        if (name, workload) in UNCHECKED:
            continue
        if workload in workloads and name not in names:
            problems.append(f"{name}: predicted exercised on {workload}, no call")
        if workload not in workloads and name in names:
            problems.append(f"{name}: predicted bypassed on {workload}, called")
    return problems


def _best_ns(op, reps, rounds=5):
    """Fastest of *rounds* loops of *reps* calls, in ns per call (the
    lambda call is included: this is the cost as Python code pays it)."""
    best = None
    for _ in range(rounds):
        t = time.perf_counter()
        for _ in range(reps):
            op()
        dt = (time.perf_counter() - t) / reps
        best = dt if best is None else min(best, dt)
    return best * 1e9


def unit_costs(rng):
    """Fp/Fp2/Fp12 and group-addition costs on both curves (best of 5)."""
    from repro.curves import get_curve
    from repro.fields.extensions import Fp12

    out = {}
    for cname in ("bn128", "bls12_381"):
        c = get_curve(cname)
        p = c.fq.modulus
        tw = c.tower

        def pairs(k):
            return tuple((rng.randrange(p), rng.randrange(p)) for _ in range(k))
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        a2, b2 = pairs(2)
        x12, y12 = Fp12(tw, pairs(3), pairs(3)), Fp12(tw, pairs(3), pairs(3))
        g1 = [c.g1.generator * rng.randrange(1, c.fr.modulus) for _ in range(2)]
        g2 = [c.g2.generator * rng.randrange(1, c.fr.modulus) for _ in range(2)]
        fq = c.fq
        out[f"fields.{cname}.fp_mul_ns"] = (_best_ns(lambda: fq.mul(a, b), 20000), "ns")
        out[f"fields.{cname}.fp2_mul_ns"] = (_best_ns(lambda: tw.f2_mul(a2, b2), 5000), "ns")
        out[f"fields.{cname}.fp12_mul_us"] = (_best_ns(lambda: x12 * y12, 200) / 1e3, "us")
        out[f"fields.{cname}.fp12_inv_us"] = (_best_ns(lambda: x12.inverse(), 50) / 1e3, "us")
        out[f"curves.{cname}.g1_add_us"] = (_best_ns(lambda: g1[0] + g1[1], 1000) / 1e3, "us")
        out[f"curves.{cname}.g2_add_us"] = (_best_ns(lambda: g2[0] + g2[1], 300) / 1e3, "us")
    return out
