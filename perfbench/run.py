"""Repository benchmark: one command prints every metric and checks outputs.

    python3 perfbench/run.py --workload prove-verify --seed 1 --seconds 30 --trace 0

Workloads (``perfbench/README.md`` says why each exists):

- ``keygen``: serial compile + trusted setup of ``exponentiate`` on bn128
  then bls12_381, one fresh interpreter per cycle, until ``--seconds``.
- ``prove-verify``: closed loop, one client, bn128: per request a fresh
  witness, ``prove`` and ``verify``.
- ``serve-mixed``: open-loop traffic into an in-process ``ProvingService``
  on bls12_381 with two workers: seeded Poisson arrivals at a nominal
  rate, then a burst that keeps the queue full.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload untraced and traced in separate interpreters and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object; the exit code is non-zero when any output was
wrong.  Everything else (fingerprint, per-step tables, spans) goes to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import stats, tracing  # noqa: E402

WORKLOADS = ("keygen", "prove-verify", "serve-mixed")
#: Variables that would select a kernel, worker count or ledger other
#: than the ones users get by default.
REFUSED_ENV = ("REPRO_MSM", "REPRO_BIGINT", "REPRO_WORKERS", "REPRO_LEDGER")
#: Parts per run, each a fresh interpreter and one ``setup_s`` sample
#: (keygen: at least this many cycles).
SETUP_SAMPLES = 3
#: serve-mixed runs its nominal rate for ``--seconds``, then a burst of
#: this many requests per second of ``--seconds``, all due at once.  Spread
#: over a second or two instead, the burst's completion rate moved 1.7x
#: between seeds with the order of arrivals.
SERVE_BURST_PER_S = 1.0
#: Wall-clock budget of one invocation; children are killed past it.
BUDGET_S = 170.0
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
DIGESTS = os.path.join(ROOT, "perfbench", "digests.json")

END_TO_END = (("setup_s", "s"), ("p50_s", "s"), ("tail_s", "s"),
              ("max_rps", "1/s"), ("peak_rss_mb", "MB"))


class Failure(Exception):
    """The benchmark could not run at all (no result is printed)."""


class Child:
    """Runs ``perfbench.workloads`` in fresh interpreters under one budget."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + BUDGET_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src"), ROOT]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def __call__(self, *extra):
        cmd = [sys.executable, "-m", "perfbench.workloads",
               "--workload", self.workload, "--seed", str(self.seed),
               *map(str, extra)]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            _reap_group(proc.pid)
            proc.communicate()
            raise Failure(f"{self.workload}: child exceeded the time budget")
        finally:
            # Pool workers of a child that died share its process group.
            _reap_group(proc.pid)
        if proc.returncode != 0:
            raise Failure(f"{self.workload}: child exited {proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])


def _reap_group(pgid):
    """Kill anything the child left behind in its process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


class Tally:
    """Checked operations and the failures among them."""

    def __init__(self, pinned):
        self.pinned = pinned
        self.attempted = 0
        self.errors = []

    def add(self, result):
        self.attempted += result["attempted"]
        self.errors.extend(result["errors"])
        for key, value in result["digests"].items():
            self.attempted += 1
            want = self.pinned.get(key)
            if want != value:
                self.errors.append(f"{key}: got {value}, pinned {want}")


def _latencies(result):
    """Request latencies, without serve-mixed's burst (queueing by design)."""
    return [r["latency_s"] for r in result["requests"]
            if r.get("step") != "saturated"]


def untraced(workload, seconds, child, tally, report):
    """Every end-to-end metric of one untraced run."""
    parts = []
    if workload == "keygen":
        t0 = time.monotonic()
        # Start another cycle only if it should end within --seconds.
        while (len(parts) < SETUP_SAMPLES
               or (time.monotonic() - t0) * (1 + 1 / len(parts)) <= seconds):
            parts.append(child("--part", len(parts)))
        report["cycles"] = [p["details"] for p in parts]
    else:
        # Each part is a fresh interpreter and one set-up sample.
        parts = [child(*_part_args(workload, i, seconds, SETUP_SAMPLES))
                 for i in range(SETUP_SAMPLES)]
    for part in parts:
        tally.add(part)
    setups = [p["setup_s"] for p in parts]
    report["setup_samples"] = setups
    requests = [r for p in parts for r in p["requests"]]
    if workload == "serve-mixed":
        m = serve_metrics(parts, report)
    else:
        lat = [r["latency_s"] for r in requests]
        value, pct, n = stats.tail(lat)
        m = {"p50_s": stats.median(lat), "tail_s": value, "tail_pct": pct,
             "n": n, "max_rps": len(lat) / sum(lat)}
    if workload == "prove-verify":
        for stage in ("witness_s", "prove_s", "verify_s"):
            vals = [r[stage] for r in requests]
            value, pct, n = stats.tail(vals)
            report[stage] = {"p50": stats.median(vals), "tail": value,
                             "tail_pct": pct, "n": n}
    m["setup_s"] = stats.median(setups)
    m["peak_rss_mb"] = stats.median([p["rss_mb"] for p in parts])
    return m


def _part_args(workload, i, seconds, parts):
    """Child arguments of part *i* of *parts* sharing *seconds* of timing.

    prove-verify splits the timed phase evenly, so the samples spread over
    the whole run.  serve-mixed times only in part 0: its 5% poisoned
    verifies and its burst need enough requests in one service.
    """
    if workload == "prove-verify":
        return ("--part", i, "--seconds", seconds / parts)
    if i:
        return ("--part", i, "--seconds", 0)
    return ("--part", 0, "--seconds", seconds,
            "--burst", round(seconds * SERVE_BURST_PER_S))


def serve_metrics(parts, report):
    """Latency at the nominal rate; completion rate of the burst."""
    rows = [r for p in parts for r in p["requests"] if r["step"] == "nominal"]
    lat = [r["latency_s"] for r in rows]
    late = [r["late_s"] for r in rows]
    value, pct, n = stats.tail(lat)
    burst = [r for p in parts for r in p["requests"] if r["step"] == "saturated"]
    report["late_mean_s"] = sum(late) / n
    report["late_max_s"] = max(late)
    return {"p50_s": stats.median(lat), "tail_s": value, "tail_pct": pct,
            "n": n, "max_rps": stats.completion_rate(
                [r["due_s"] for r in burst], [r["done_s"] for r in burst])}


def traced(workload, seed, seconds, child, tally, report):
    """Per-layer metrics: an untraced run, then traced ones."""
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")
    common = ("--trace", 1, "--spans-out", spans)
    if workload == "keygen":
        base = child()
        runs = [child(*common, "--unit-costs", 1), child("--trace", 1)]
    else:
        timed = _part_args(workload, 0, seconds / 2.0, 1)
        base = child(*timed)
        runs = [child(*timed, *common, "--unit-costs", 1)]
        if workload == "prove-verify":
            runs.append(child("--seconds", 0, "--min-requests", 1,
                              "--trace", 1))
    for res in (base, *runs):
        tally.add(res)
    main = runs[0]
    problems = list(main["trace"]["problems"])
    if len(runs) > 1 and runs[0]["trace"]["work"] != runs[1]["trace"]["work"]:
        problems.append(f"work counts differ between two traced runs: "
                        f"{runs[0]['trace']['work']} vs {runs[1]['trace']['work']}")
    tally.attempted += 1
    tally.errors.extend(problems)

    layers = dict(main["trace"]["layers"])
    layers.update(tracing.serve_metrics(main["requests"],
                                        main["details"].get("counts", {})))
    for name, value in main["trace"]["work"].items():
        layers[name] = (value, "count")
    p_base = stats.median(_latencies(base))
    p_traced = stats.median(_latencies(main))
    layers["trace.overhead_s"] = (p_traced - p_base, "s")
    layers["trace.overhead_frac"] = (p_traced / p_base - 1.0, "ratio")
    report["spans_file"] = os.path.relpath(spans, ROOT)
    report["trace_n_spans"] = main["trace"]["n_spans"]
    return layers


def _fingerprint():
    from repro.obs.fingerprint import fingerprint_id, machine_fingerprint

    fp = machine_fingerprint()
    return {"nproc": os.cpu_count(), "fingerprint": fp,
            "fingerprint_id": fingerprint_id(fp)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)

    set_env = [k for k in REFUSED_ENV if os.environ.get(k)]
    if set_env:
        print(f"perfbench: refusing to run with {', '.join(set_env)} set; "
              "the benchmark measures the defaults users get", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no repro sources under src/; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    with open(DIGESTS) as f:
        pinned = json.load(f)[args.workload]
    tally = Tally(pinned)
    child = Child(args.workload, args.seed)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, **_fingerprint()}
    try:
        if args.trace:
            metrics = traced(args.workload, args.seed, args.seconds, child,
                             tally, report)
        else:
            m = untraced(args.workload, args.seconds, child, tally, report)
            report["end_to_end"] = m
            metrics = {name: (m[name], unit) for name, unit in END_TO_END}
    except Failure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    failed = len(tally.errors)
    report["attempted"] = tally.attempted
    report["failed"] = failed
    report["errors"] = tally.errors
    report["metrics"] = metrics
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1, default=str)

    for line in _human(report):
        print(line)
    for err in tally.errors:
        print(f"FAILED: {err}")
    print(json.dumps({
        "correct": failed == 0, "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def _human(report):
    """The readable lines above the JSON result."""
    yield (f"# {report['workload']} seed={report['seed']} "
           f"seconds={report['seconds']} trace={report['trace']} "
           f"nproc={report['nproc']} machine={report['fingerprint_id']} "
           f"({report['fingerprint']['cpu_model']})")
    m = report.get("end_to_end")
    if m is not None:
        for name, unit in END_TO_END:
            extra = ""
            if name == "tail_s":
                extra = f"  (p{m['tail_pct']:.0f} of n={m['n']})"
            yield f"{name:<14} {m[name]:.6g} {unit}{extra}"
    for cname in ("bn128", "bls12_381"):
        cycles = [c[cname] for c in report.get("cycles", ()) if cname in c]
        if cycles:
            yield (f"  {cname:<9} setup p50 "
                   f"{stats.median([c['setup_s'] for c in cycles]):.4f} s, "
                   f"compile p50 {stats.median([c['compile_s'] for c in cycles]):.4f} s")
    for stage in ("witness_s", "prove_s", "verify_s"):
        if stage in report:
            s = report[stage]
            yield (f"  {stage[:-2]:<8} p50 {s['p50']:.4f} s  tail {s['tail']:.4f} s "
                   f"(p{s['tail_pct']:.0f} of n={s['n']})")
    if "late_max_s" in report:
        yield (f"  generator late at the nominal rate: mean "
               f"{report['late_mean_s'] * 1e3:.2f} ms, max "
               f"{report['late_max_s'] * 1e3:.2f} ms")
    if report["trace"]:
        for name, (value, unit) in sorted(report["metrics"].items()):
            yield f"{name:<40} {value:.6g} {unit}"
    frac = report["failed"] / max(1, report["attempted"])
    yield (f"fail_frac      {frac:.6g}  ({report['failed']} of "
           f"{report['attempted']} checked operations)")


if __name__ == "__main__":
    sys.exit(main())
