"""Workload bodies.  Each invocation is one fresh interpreter.

``perfbench/run.py`` starts this module several times per run, once per
part (a keygen cycle, or a set-up plus a share of the timed phase)::

    python3 -m perfbench.workloads --workload prove-verify --part 1 \\
        --seed 3 --seconds 10 --trace 0

and reads the single JSON line it prints.  The clock starts before
``repro`` is imported, so ``setup_s`` includes every one-time cost a user
of a fresh process pays.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402

import repro.groth16 as groth16  # noqa: E402
from repro.circuit import compiler  # noqa: E402
from repro.curves import get_curve  # noqa: E402
from repro.groth16 import serialize  # noqa: E402
from repro.harness.circuits import build_exponentiate  # noqa: E402
from repro.obs import metrics  # noqa: E402

from perfbench import stats, tracing  # noqa: E402

#: Seed of the toxic waste, and of the first request's inputs in part 0;
#: their serialized bytes are pinned in ``digests.json``.
KEY_SEED = 0
#: Smallest number of timed prove-verify requests in a part.
MIN_REQUESTS = 3

KEYGEN_CURVES = ("bn128", "bls12_381")
KEYGEN_CONSTRAINTS = 512
PV_CURVE = "bn128"
PV_CONSTRAINTS = 512
SERVE_CURVE = "bls12_381"
SERVE_CONSTRAINTS = 64
SERVE_WORKERS = 2
#: prove:verify weights of the serve-mixed traffic, and the share of
#: verify requests whose public input is poisoned.
SERVE_MIX = (1, 3)
SERVE_POISON = 0.05
#: Poisson arrival rate (requests/s) of the nominal step, below the knee.
SERVE_NOMINAL_RPS = 1.0


def _digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def _key_rng(name):
    return random.Random(f"perfbench:{name}:{KEY_SEED}")


def _rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class Run:
    """What one invocation reports back to ``run.py``."""

    def __init__(self, recorder):
        self.rec = recorder
        self.setup_s = None
        self.requests = []
        self.attempted = 0
        self.errors = []
        self.digests = {}
        self.details = {}
        self.work = {}

    def phase(self, name, request=None):
        if self.rec is not None:
            self.rec.phase = name
            self.rec.request = request

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.errors.append(what)


# -- keygen --------------------------------------------------------------------


def keygen(run, seed, part):
    """One compile + trusted setup on each curve; the whole run is set-up."""
    run.phase("timed", 0)
    keys = {}
    for cname in KEYGEN_CURVES:
        curve = get_curve(cname)
        t0 = time.perf_counter()
        builder, _ = build_exponentiate(curve, KEYGEN_CONSTRAINTS)
        circuit = compiler.compile_circuit(builder)
        t1 = time.perf_counter()
        rng = (_key_rng("setup") if part == 0
               else random.Random(f"perfbench:keygen:{seed}:{part}"))
        keys[cname] = groth16.setup(curve, circuit, rng)
        run.details[cname] = {"compile_s": t1 - t0,
                              "setup_s": time.perf_counter() - t1}
    run.setup_s = time.perf_counter() - T_START
    run.requests.append({"latency_s": run.setup_s})
    run.phase("check")
    for cname, (pk, vk) in keys.items():
        pk_b, vk_b = serialize.pk_to_bytes(pk), serialize.vk_to_bytes(vk)
        if part == 0:
            run.digests[f"{cname}.pk"] = _digest(pk_b)
            run.digests[f"{cname}.vk"] = _digest(vk_b)
        else:
            run.digests[f"{cname}.pk_len"] = len(pk_b)
            run.digests[f"{cname}.vk_len"] = len(vk_b)


# -- prove-verify --------------------------------------------------------------


def prove_verify(run, seed, part, seconds, min_requests, counters):
    """Closed loop, one client: fresh witness, prove, verify per request."""
    from repro.msm.glv import glv_params

    curve = get_curve(PV_CURVE)
    builder, inputs = build_exponentiate(curve, PV_CONSTRAINTS)
    circuit = compiler.compile_circuit(builder)
    pk, vk = groth16.setup(curve, circuit, _key_rng("setup"))
    glv_params(curve.g1)
    run.setup_s = time.perf_counter() - T_START
    run.phase("check")
    run.digests["pk"] = _digest(serialize.pk_to_bytes(pk))
    run.digests["vk"] = _digest(serialize.vk_to_bytes(vk))
    xs = random.Random(f"perfbench:pv:{seed}:{part}")
    first = None
    t_timed = time.perf_counter()
    i = 0
    while i < min_requests or time.perf_counter() - t_timed < seconds:
        run.phase("timed", i)
        if part == 0 and i == 0:
            x, prng = inputs["x"], _key_rng("prove")
        else:
            x = xs.randrange(2, curve.fr.modulus)
            prng = random.Random(f"perfbench:pv:{seed}:{part}:{i}")
        before = counters() if i == 0 else None
        t0 = time.perf_counter()
        witness = groth16.generate_witness(circuit, {"x": x})
        publics = groth16.public_inputs(circuit, witness)
        t1 = time.perf_counter()
        proof = groth16.prove(pk, circuit, witness, prng)
        t2 = time.perf_counter()
        ok = groth16.verify(vk, proof, publics)
        t3 = time.perf_counter()
        if before is not None:
            after = counters()
            run.work = {k: after[k] - before[k] for k in after}
            first = (proof, publics)
        run.requests.append({"latency_s": t3 - t0, "witness_s": t1 - t0,
                             "prove_s": t2 - t1, "verify_s": t3 - t2})
        run.check(ok is True, f"request {i}: valid proof rejected")
        i += 1
    run.phase("check")
    if part != 0:
        return
    proof, publics = first
    run.digests["proof"] = _digest(serialize.proof_to_bytes(proof))
    bad = list(publics)
    bad[0] = (bad[0] + 1) % curve.fr.modulus
    run.check(groth16.verify(vk, proof, bad) is False,
              "proof accepted with a tampered public input")


# -- serve-mixed ---------------------------------------------------------------


def _plan(n, rng):
    """Exact SERVE_MIX counts with the proves spread evenly (one per slot
    of ``n / n_prove`` requests); SERVE_POISON of the verifies, at least
    one, are poisoned at seeded positions."""
    n_prove = round(n * SERVE_MIX[0] / sum(SERVE_MIX))
    proves = set(stats.spaced_positions(n_prove, n, rng)) if n_prove else set()
    verifies = [i for i in range(n) if i not in proves]
    n_bad = max(1, round(len(verifies) * SERVE_POISON)) if verifies else 0
    bad = set(rng.sample(verifies, n_bad))
    return [("prove", False) if i in proves else ("verify", i in bad)
            for i in range(n)]


async def _step(svc, gaps, plan, proof_bytes, run):
    """Open-loop arrivals: request *i* is due *gaps[i]* after request *i-1*."""
    from repro.resilience.errors import AdmissionError

    sent = []
    due = time.perf_counter()
    for gap, (kind, bad) in zip(gaps, plan):
        due += gap
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        payload = svc.verify_payload(bad=bad) if kind == "verify" else None
        submit = time.perf_counter()
        try:
            fut = svc.submit_nowait(kind, payload=payload)
        except AdmissionError:
            fut = None
        sent.append((kind, bad, due, submit, fut))
    results = await asyncio.gather(*(f for *_, f in sent if f is not None))
    results = iter(results)
    rows = []
    for kind, bad, due, submit, fut in sent:
        res = next(results) if fut is not None else None
        ok = res is not None and res.status == "ok"
        if ok and kind == "verify":
            ok = res.accepted is (not bad)
        elif ok:
            ok = res.proof_bytes == proof_bytes
        run.check(ok, f"{kind} request: "
                      f"{'shed' if res is None else res.status} "
                      f"(poisoned={bad}, accepted={getattr(res, 'accepted', None)})")
        rows.append({
            "kind": kind, "poisoned": bad,
            "late_s": submit - due,
            "latency_s": stats.due_latency(
                due, submit, res.total_s if ok else None),
            "due_s": due, "done_s": submit + res.total_s if ok else None,
            "status": "shed" if res is None else res.status,
            "phases": {} if res is None else dict(res.phases),
            "batched": 0 if res is None else res.batched,
        })
    return rows


async def _serve(run, seed, part, seconds, burst, counters):
    """Start the service, then *seconds* of nominal traffic and a burst."""
    from repro.serve.service import ARTIFACT_CACHE, ProvingService

    svc = ProvingService(curve=SERVE_CURVE, size=SERVE_CONSTRAINTS,
                         workers=SERVE_WORKERS, max_queue=1024,
                         max_inflight=1024, seed=KEY_SEED)
    await svc.start()
    try:
        # Warm-up: forks the pool and builds the pairing engine, both lazy.
        await svc.submit("prove")
        await svc.submit("verify")
        run.setup_s = time.perf_counter() - T_START
        run.phase("check")
        key = (SERVE_CURVE, "exponentiate", SERVE_CONSTRAINTS, KEY_SEED)
        _, _, pk, vk, _, _, proof0 = ARTIFACT_CACHE.get(key, None)
        run.digests["pk"] = _digest(serialize.pk_to_bytes(pk))
        run.digests["vk"] = _digest(serialize.vk_to_bytes(vk))
        run.digests["proof"] = _digest(serialize.proof_to_bytes(proof0))
        before = dict(svc.stats()["counts"])
        work0 = counters()
        run.phase("timed")
        rng = random.Random(f"perfbench:serve:{seed}:{part}")
        n = round(SERVE_NOMINAL_RPS * seconds)
        steps = [("nominal", stats.stratified_exponential(n, SERVE_NOMINAL_RPS, rng),
                  _plan(n, rng)),
                 ("saturated", [0.0] * burst, _plan(burst, rng))]
        for step, gaps, plan in steps:
            rows = await _step(svc, gaps, plan, proof0.size_bytes(), run)
            for row in rows:
                row["step"] = step
            run.requests.extend(rows)
        run.phase("check")
        work1 = counters()
        n_req = max(1, len(run.requests))
        run.work = {k: (work1[k] - work0[k]) / n_req for k in work1}
        after = svc.stats()["counts"]
        run.details["counts"] = {k: after[k] - before.get(k, 0) for k in after}
    finally:
        await svc.drain()


# -- entry point ---------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=("keygen", "prove-verify", "serve-mixed"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--min-requests", type=int, default=MIN_REQUESTS)
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--burst", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("--unit-costs", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)

    recorder = registry = None
    with contextlib.ExitStack() as stack:
        if args.trace:
            recorder = tracing.Recorder()
            stack.callback(tracing.install(recorder))
            registry = stack.enter_context(metrics.collecting())

        def counters():
            if registry is None:
                return {}
            return {k: registry.counter(v)
                    for k, v in tracing.WORK_COUNTERS.items()}

        run = Run(recorder)
        if args.workload == "keygen":
            before = counters()
            keygen(run, args.seed, args.part)
            after = counters()
            run.work = {k: after[k] - before[k] for k in after}
        elif args.workload == "prove-verify":
            prove_verify(run, args.seed, args.part, args.seconds,
                         args.min_requests, counters)
        else:
            asyncio.run(_serve(run, args.seed, args.part, args.seconds,
                               args.burst, counters))

    out = {
        "setup_s": run.setup_s, "rss_mb": _rss_mb(),
        "requests": run.requests, "attempted": run.attempted,
        "errors": run.errors, "digests": run.digests,
        "details": run.details,
    }
    if recorder is not None:
        layers = tracing.layer_metrics(recorder.spans, len(run.requests))
        if args.unit_costs:
            layers.update(tracing.unit_costs(random.Random(args.seed)))
        out["trace"] = {
            "layers": layers, "work": run.work,
            "problems": tracing.check_predictions(recorder.spans, args.workload),
            "n_spans": len(recorder.spans),
        }
        if args.spans_out:
            with open(args.spans_out, "w") as f:
                json.dump(recorder.spans, f)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
