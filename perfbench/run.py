#!/usr/bin/env python3
"""The foxtorsion benchmark: one workload, one seed, one closed-loop run.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller sends one operation at a time and the next only after the previous
returned (closed loop, single process).  Each operation is checked against an
exact oracle outside the timed region.  A run serves the same operations in
several rounds, each in a fresh order, and every call of an operation must
return the same JSON text.

With ``--trace 0`` the run prints the end-to-end metrics, measured without
tracing: throughput, median and tail latency, peak RSS of this process, and
set-up time (median over fresh interpreters that import the program and serve
one warm-up operation); operation times are scaled to the machine's
nominal speed (see ``at_nominal_speed``).  With ``--trace 1`` it serves
every operation twice in a row, untraced and traced, and prints the
per-layer metrics from the spans and the tracing overhead.  The last line
of standard output is one JSON object; a fuller record, with the environment and an input-property summary, is
written under ``perfbench/results/``.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

SETUP_PROBES = 15
TAIL_BEYOND = 10
CAP_FACTOR = 1.25  # no new round once operations have taken this many --seconds
PROBE_TIMEOUT_S = 60
# A traced run serves every operation once untraced and once with spans, which
# costs about this many untraced calls.
TRACED_CALLS = 2.5
# The reference loop's nominal time, about its median on the 2-vCPU x86-64
# virtual machine the nominal round times come from; see ``at_nominal_speed``.
REFERENCE_ITERATIONS = 20_000
REFERENCE_NOMINAL_S = 0.004

END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import foxtorsion from this checkout's sources, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "foxtorsion", "__init__.py")):
        fail(f"no foxtorsion sources under {SRC}")
    sys.path.insert(0, SRC)
    import foxtorsion

    if os.path.dirname(os.path.dirname(os.path.abspath(foxtorsion.__file__))) != SRC:
        fail(f"foxtorsion was imported from {foxtorsion.__file__}, not from {SRC}")
    return foxtorsion


def environment(foxtorsion):
    return {
        "backend": foxtorsion.BACKEND,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
    }


def tail(latencies):
    """(value, percentile, samples beyond) at the highest percentile that
    still has TAIL_BEYOND samples beyond it; the maximum when there are fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    rank = n - TAIL_BEYOND  # 1-based rank of the reported sample
    return ordered[rank - 1], 100.0 * rank / n, TAIL_BEYOND


def summarise(ops):
    """Input properties of the operations run, for 'helps inputs with X' claims."""
    summary = {"operations": len(ops)}
    keys = sorted({k for op in ops for k in op.props})
    for key in keys:
        values = [op.props[key] for op in ops if key in op.props]
        if all(isinstance(v, str) for v in values) or key == "matrix_dim":
            mix = {}
            for v in values:
                mix[str(v)] = mix.get(str(v), 0) + 1
            summary[key] = dict(sorted(mix.items()))
        else:
            summary[key] = {
                "min": min(values),
                "median": statistics.median(values),
                "max": max(values),
            }
    return summary


def reference_loop():
    """A fixed piece of pure-Python work like the program's own (integer
    arithmetic, dict reads and writes) that allocates no containers, so it
    never starts a garbage collection."""
    table = {}
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        k = i % 97
        table[k] = table.get(k, 0) + i
        acc += (i * i) % 13
    return acc


def reference_time():
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def at_nominal_speed(latencies, references):
    """Each call's latency at the machine's nominal speed.

    ``references[i]`` was taken just before call i and ``references[i + 1]``
    just after it.  A shared host's speed swings by 10-15 % over seconds to
    minutes, as other tenants load it, and it slows the operations and the
    reference loop alike: over 8-second windows their slowdowns correlated
    at 0.96.  Dividing each call's time by the mean of the two reference
    times around it, over ``REFERENCE_NOMINAL_S``, narrowed the spread
    between the quartiles of ten runs per workload from 8-22 % in raw wall
    time to 2-7 %.
    """
    return [
        elapsed * 2 * REFERENCE_NOMINAL_S / (references[i] + references[i + 1])
        for i, elapsed in enumerate(latencies)
    ]


def setup_time(workload_name, workdir):
    """Median time from starting a fresh interpreter to its first served operation."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py"), workload_name, workdir],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.close()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            fail(f"set-up probe did not serve its warm-up operation: {line.strip()!r}")
        times.append(elapsed)
    return statistics.median(times)


class Loop:
    """Closed-loop execution of rounds of operations, with oracle checks.

    Every round serves the same operations in a new order.  An operation's
    report must pass the oracle check the first time it is served, and its
    JSON text must be byte-identical every later time.  With a tracer, every
    operation is served twice in a row, untraced and traced, so that both see
    the same machine state and their difference is the tracing overhead.

    A round starts only while the time spent in operations is below
    ``cap_s``, which bounds a run on a machine much slower than the one the
    nominal round times were taken on; at the nominal pace every round runs.
    """

    def __init__(self, rounds, cap_s, tracer=None):
        self.rounds = rounds
        self.cap_s = cap_s
        self.tracer = tracer
        self.rounds_run = 0
        self.ops = []  # one entry per operation served
        self.latencies = []  # untraced, one per operation served
        self.traced_time = 0.0
        self.references = []  # reference_time() around each untraced call
        self.failures = []
        self.texts = {}  # id(op) -> JSON text of its first call

    def run(self):
        for ops in self.rounds:
            if self.ops and sum(self.latencies) >= self.cap_s:
                break
            for op in ops:
                self._serve(len(self.ops), op)
                self.ops.append(op)
            self.rounds_run += 1
        if self.tracer is None:
            self.references.append(reference_time())

    def _serve(self, index, op):
        """Serve one operation (twice with a tracer), check it, and record
        its untraced latency."""
        # with a tracer, alternate which call goes first so that the second
        # call's warmer caches favour neither side
        traced_first = self.tracer is not None and not index % 2
        traced = self._call(op, index) if traced_first else None
        if self.tracer is None:
            self.references.append(reference_time())
        plain = self._call(op)
        if self.tracer is not None and not traced_first:
            traced = self._call(op, index)
        calls = [plain] if traced is None else [plain, traced]
        if traced is not None:
            self.traced_time += traced[0]
        self.latencies.append(plain[0])

        failure = next((result for _, result in calls if isinstance(result, str)), None)
        if failure is None and id(op) not in self.texts:
            failure = self.check(op, *calls[0][1])
            self.texts[id(op)] = calls[0][1][1]
        if failure is None and any(r[1] != self.texts[id(op)] for _, r in calls):
            failure = "JSON report differs between two identical calls"
        if failure is not None:
            self.failures.append(f"op {index}: {failure}")

    def _call(self, op, index=None):
        """One timed call, traced when ``index`` is given: (elapsed, result),
        the result being ``(report, text)`` or the error the call raised."""
        tracer = self.tracer if index is not None else None
        if tracer:
            tracer.install()
            span = tracer.begin_op(index)
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an operation that raises counts as failed
            result = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.end_op(span)
            tracer.uninstall()
        return elapsed, result

    @staticmethod
    def check(op, report, text):
        try:
            return op.check(report, text)
        except Exception as exc:  # a check that cannot run is a failed operation
            return f"check raised {type(exc).__name__}: {exc}"


def timing_metrics(latencies, verified):
    value, percentile, beyond = tail(latencies)
    metrics = {
        "throughput_ops_s": verified / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": value,
    }
    return metrics, percentile, beyond


def end_to_end(loop, setup_s):
    """End-to-end metrics, with times at the machine's nominal speed, and the
    raw times."""
    verified = len(loop.latencies) - len(loop.failures)
    lat = at_nominal_speed(loop.latencies, loop.references)
    metrics, percentile, beyond = timing_metrics(lat, verified)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["setup_s"] = setup_s
    raw = dict(metrics, **timing_metrics(loop.latencies, verified)[0])
    detail = {
        "raw": raw,
        "speed_factor": statistics.mean(loop.references) / REFERENCE_NOMINAL_S,
        "latency_tail_percentile": percentile,
        "latency_samples": len(lat),
        "latency_samples_beyond_tail": beyond,
        "error_rate": len(loop.failures) / len(lat),
    }
    return metrics, detail


def print_end_to_end(metrics, detail):
    for name, value in metrics.items():
        extra = ""
        if name == "latency_tail_s":
            extra = (
                f"  (p{detail['latency_tail_percentile']:.1f} of "
                f"{detail['latency_samples']} samples, "
                f"{detail['latency_samples_beyond_tail']} beyond)"
            )
        elif name == "setup_s":
            extra = f"  (median of {SETUP_PROBES} fresh interpreters)"
        if value != detail["raw"][name]:
            extra += f"  [raw {detail['raw'][name]:.6g}]"
        print(f"{name:<18} {value:.6g} {END_TO_END_UNITS[name]}{extra}")
    print(f"{'error_rate':<18} {detail['error_rate']:.6g} ratio")
    print(
        f"{'speed_factor':<18} {detail['speed_factor']:.4g} "
        "(mean reference time / nominal; operation times are at nominal speed)"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    foxtorsion = import_program()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    env = environment(foxtorsion)
    workdir = os.path.join(RESULTS, f"inputs-{args.workload}-{args.seed}")
    os.makedirs(workdir, exist_ok=True)

    calls = TRACED_CALLS if args.trace else 1
    rounds = workloads.make_rounds(
        workload, args.seed, workloads.rounds_for(workload, args.seconds, calls), workdir
    )
    setup_s = None if args.trace else setup_time(args.workload, workdir)
    warm = workload.warmup(workdir)
    if Loop.check(warm, *warm.run()) is not None:
        fail("the warm-up operation failed its oracle check")

    tracer = spans.Tracer() if args.trace else None
    loop = Loop(rounds, CAP_FACTOR * args.seconds, tracer)
    loop.run()
    ops = loop.ops
    print(
        f"# workload={args.workload} seed={args.seed} "
        f"rounds={loop.rounds_run} of {len(rounds)} "
        f"operations={len(ops)} backend={env['backend']} python={env['python']} "
        f"nproc={env['nproc']}"
    )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": loop.rounds_run,
        "environment": env,
        "inputs": summarise(ops),
    }
    attempted = len(loop.ops)
    if args.trace:
        metrics = spans.layer_metrics(tracer)
        metrics["trace.overhead_s"] = loop.traced_time - sum(loop.latencies)
        span_path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-spans.tsv.gz")
        tracer.write(span_path)
        record["spans_file"] = os.path.relpath(span_path, ROOT)
        record["untraced_op_time_s"] = sum(loop.latencies)
        units = {name: spans.unit_of(name) for name in metrics}
        for name, value in metrics.items():
            print(f"{name:<32} {value:.6g} {units[name]}")
    else:
        metrics, detail = end_to_end(loop, setup_s)
        record["detail"] = detail
        record["latencies_s"] = loop.latencies
        record["reference_s"] = loop.references
        units = END_TO_END_UNITS
        print_end_to_end(metrics, detail)

    failures = loop.failures
    record["failures"] = failures
    record["metrics"] = metrics
    for failure in failures[:10]:
        print(f"# FAILED {failure}")
    with open(
        os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
        "w",
        encoding="ascii",
    ) as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
