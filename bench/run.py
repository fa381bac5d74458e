"""divlab benchmark: seeded closed-loop workloads with exact output checks.

    python3 bench/run.py --workload claim_sweep --seed 1 --seconds 30 --trace 0

One client (this process, one thread) runs the workload's op sequence round
by round until --seconds have passed, and checks every op's output against an
exact reference.  --trace 0 reports the end-to-end metrics of BENCHMARK.json;
--trace 1 runs every op of a fixed number of rounds once untraced and once
traced, and reports the per-layer metrics.  The last line of stdout is one JSON object; a stamped
copy with more detail goes to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

DEFAULT_SEED = 1
HOLDOUT_SEED = 104729  # never used while tuning; confirms later claims
SETUP_REPEATS = 9
TRACE_ROUNDS = 3
REF_S = 0.0005  # nominal duration of reference_kernel(), see at_reference()
PROBE_MARGIN = 0.02  # seconds of probes on either side of a short op, see Pass.scaled


def reference_kernel():
    """Fixed stdlib-only work (Fraction and int arithmetic, dict updates)."""
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i, i + 7)
    counts = {}
    for i in range(400):
        counts[i % 37] = counts.get(i % 37, 0) + i * i
    return acc, counts


def probe():
    """(midpoint, seconds) of one timed run of reference_kernel."""
    t0 = time.perf_counter()
    reference_kernel()
    t1 = time.perf_counter()
    return (t0 + t1) / 2, t1 - t0


def at_reference(seconds, probe_seconds):
    """Wall seconds converted to a machine that runs reference_kernel in REF_S.

    On a shared host the speed at which this process runs Python code swings
    by up to 2x within seconds, and CPU time swings with it.  Rescaling by the
    kernel's mean time in the probes taken around a measurement cancels most
    of that.  Only code under bench/ runs in the kernel, so no change to
    divlab can move it.
    """
    return seconds * REF_S * len(probe_seconds) / sum(probe_seconds)


def run_op(op, tracer=None):
    """(start, end, result, problem) of op.run, traced when a tracer is given.

    A raising op is counted as failed, never fatal.
    """
    if tracer:
        tracer.install()
    start = time.perf_counter()
    try:
        result, problem = op.run(), None
    except Exception as exc:
        result, problem = None, f"raised {exc!r}"
    finally:
        end = time.perf_counter()
        if tracer:
            tracer.uninstall()
    return start, end, result, problem


def check(op, result):
    try:
        return op.check(result)
    except Exception as exc:
        return f"check raised {exc!r}"


class Pass:
    """Outcome of running a sequence of ops once, with a speed probe after each op."""

    def __init__(self):
        self.intervals = []  # (start, end) of each op's timed run
        self.probes = []  # (midpoint, seconds) of each speed probe, in time order
        self.kinds = []
        self.problems = []  # (op index, kind, description)

    def run(self, ops, tracer=None):
        """Run the ops in order and return their results (None for an op that raised)."""
        results = []
        self.probes.append(probe())
        for op in ops:
            index = len(self.intervals)
            if tracer:
                tracer.op = index
            start, end, result, problem = run_op(op, tracer)
            self.probes.append(probe())
            problem = problem or check(op, result)
            self.intervals.append((start, end))
            self.kinds.append(op.kind)
            if problem:
                self.problems.append((index, op.kind, problem))
            results.append(result)
        return results

    @property
    def times(self):
        """Wall seconds per op."""
        return [end - start for start, end in self.intervals]

    @property
    def scaled(self):
        """Seconds per op at reference speed.  An op is rescaled by the probes
        within its own duration (at least PROBE_MARGIN) on either side of it, so
        a long op gets the speed of the whole stretch around it."""
        at = [mid for mid, _ in self.probes]
        out = []
        for start, end in self.intervals:
            reach = max(end - start, PROBE_MARGIN)
            lo, hi = bisect.bisect_left(at, start - reach), bisect.bisect_right(at, end + reach)
            out.append(at_reference(end - start, [s for _, s in self.probes[lo:hi]]))
        return out


def self_test(workloads):
    """The gate must count a wrong expected value and a raising op as failures."""
    p = Pass()
    p.run([workloads.claim_op(1, measure="37/65"), workloads.Op("raises", lambda: 1 // 0, lambda out: None)])
    return len(p.problems) == 2


SETUP_SCRIPT = """
import time
t0 = time.perf_counter()
import divlab.cli
seconds = time.perf_counter() - t0
from fractions import Fraction
{kernel}
probes = []
for _ in range(3):
    t1 = time.perf_counter()
    reference_kernel()
    probes.append(time.perf_counter() - t1)
print(seconds, *probes)
"""


def setup_seconds():
    """Median time, at reference speed, for a fresh interpreter to import divlab.cli.

    The child times its own import and then the reference kernel, so the
    rescaling uses the speed of the process that did the import.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = SETUP_SCRIPT.format(kernel=inspect.getsource(reference_kernel))
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True, timeout=60
        ).stdout.split()
        seconds, *probes = map(float, out)
        times.append(at_reference(seconds, [statistics.median(probes)]))
    return statistics.median(times)


def tail(times):
    """(value, percentile): p90 when at least 10 samples lie beyond it, else the
    highest percentile that still has 10 samples beyond it."""
    s = sorted(times)
    if len(s) >= 100:
        return statistics.quantiles(s, n=10)[-1], 90.0
    i = max(len(s) - 11, 0)
    return s[i], 100.0 * (i + 1) / len(s)


def stamp(seed, nproc):
    numpy = sys.modules.get("numpy")
    digest = hashlib.sha256()
    for path in sorted((SRC / "divlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except OSError:
            pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__ if numpy else None,
        "nproc": nproc,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "holdout_seed": HOLDOUT_SEED,
    }


def by_kind(p):
    groups = {}
    for kind, t in zip(p.kinds, p.scaled):
        groups.setdefault(kind, []).append(t)
    return {k: {"count": len(v), "median_s": statistics.median(v)} for k, v in sorted(groups.items())}


def summary(times):
    """End-to-end latency metrics of a list of per-op times."""
    p90, pct = tail(times)
    return {"ops_per_s": len(times) / sum(times), "op_p50_s": statistics.median(times), "op_p90_s": p90}, pct


def measure(workloads, workload, seed, seconds):
    """End-to-end metrics with tracing off, at reference speed."""
    setup = setup_seconds()
    inputs = workloads.Inputs()
    p = Pass()
    rounds = 0
    t0 = time.perf_counter()
    while rounds == 0 or time.perf_counter() - t0 < seconds:
        p.run(workloads.make_round(workload, inputs, seed, rounds))
        rounds += 1
    metrics, pct = summary(p.scaled)
    metrics["setup_s"] = setup
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    detail = {
        "rounds": rounds,
        "samples": len(p.intervals),
        "tail_percentile": pct,
        "wall": summary(p.times)[0],
        "by_kind": by_kind(p),
    }
    return p, metrics, detail


def traced(workloads, tracing, workload, seed):
    """Per-layer metrics of fixed rounds.  Each op runs once untraced and a fresh
    copy once traced; which goes first alternates, so a repeat running faster
    does not bias the overhead."""
    inputs = workloads.Inputs()
    plain, spans = Pass(), Pass()
    tracer = tracing.Tracer()
    stdout_bytes = 0
    for r in range(TRACE_ROUNDS):
        pairs = zip(workloads.make_round(workload, inputs, seed, r), workloads.make_round(workload, inputs, seed, r))
        for i, (bare, copy) in enumerate(pairs):
            if i % 2:
                (traced_out,) = spans.run([copy], tracer)
                (plain_out,) = plain.run([bare])
            else:
                (plain_out,) = plain.run([bare])
                (traced_out,) = spans.run([copy], tracer)
            if copy.cli and traced_out is not None:
                stdout_bytes += len(traced_out[1].encode())
                if plain_out is None or plain_out[1] != traced_out[1]:
                    spans.problems.append((len(spans.intervals) - 1, copy.kind, "stdout differs with tracing on"))
    metrics = tracer.metrics()
    metrics["cli.stdout_bytes"] = stdout_bytes
    metrics["trace.overhead_s"] = sum(spans.scaled) - sum(plain.scaled)
    metrics["trace.overhead_pct"] = 100.0 * metrics["trace.overhead_s"] / sum(plain.scaled)
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
    detail = {"rounds": TRACE_ROUNDS, "spans": len(tracer.spans)}
    return plain, spans, metrics, detail


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "divlab" / "__init__.py").is_file():
        sys.exit(f"bench: no divlab sources under {SRC}")
    nproc = len(os.sched_getaffinity(0))
    # one CPU for the client and its cold-start children, so that the speed
    # probes around a measurement see the CPU that ran it
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import divlab

    if Path(divlab.__file__).resolve().parent != SRC / "divlab":
        sys.exit(f"bench: imported divlab from {divlab.__file__}, not from {SRC}")
    import tracing
    import workloads

    gate_ok = self_test(workloads)
    if args.trace:
        plain, spans, values, detail = traced(workloads, tracing, args.workload, args.seed)
        passes = [plain, spans]
        wanted = spec["per_layer"]
        known = tracing.metric_names() | {"cli.stdout_bytes", "trace.overhead_s", "trace.overhead_pct"}
    else:
        p, values, detail = measure(workloads, args.workload, args.seed, args.seconds)
        passes = [p]
        wanted = spec["end_to_end"]
        known = set(values)
    unknown = [m["name"] for m in wanted if m["name"] not in known]
    if unknown:
        sys.exit(f"bench: no measurement for metrics {unknown}")

    attempted = sum(len(p.intervals) for p in passes)
    problems = [prob for p in passes for prob in p.problems]
    failed = sum(len({index for index, _, _ in p.problems}) for p in passes)  # an op fails once
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    result = {
        "correct": gate_ok and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = dict(
        result,
        workload=args.workload,
        trace=args.trace,
        seconds=args.seconds,
        stamp=stamp(args.seed, nproc),
        error_rate=failed / attempted,
        self_test_caught=gate_ok,
        problems=problems[:20],
        detail=detail,
    )
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    for index, kind, problem in problems[:20]:
        print(f"bench: op {index} ({kind}) failed: {problem}", file=sys.stderr)
    if not gate_ok:
        print("bench: self-test: a wrong expectation was not counted as a failure", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
