"""orbitbench: the orbitforge benchmark.

    python3 orbitbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: search, orbits, criterion, fields (see workloads.py and
README.md).  Each run starts fresh processes (session.py), one at a time, each
a single-threaded closed-loop caller with workers=1 and numpy/BLAS threads
pinned to 1, importing orbitforge from this checkout's `src/`.

--trace 0 measures the end-to-end metrics.  Sessions run whole rounds of
requests until S seconds of request time have passed and at least 5*S
requests ran; set-up is timed in every session and in extra set-up-only
processes, and the median is reported.  Times are scaled to a nominal host
(session.py explains how).

--trace 1 runs the same fixed list of requests three times, each in a fresh
process: untraced, with spans around every layer call, and with tracemalloc
around make_field.  It reports the per-layer metrics, both request rates and
the tracing overhead, and writes the spans to .orbitbench/.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (stdlib only until install() is called)

WORKLOADS = ("search", "orbits", "criterion", "fields")
END_TO_END = (("setup_s", "s"), ("requests_per_s", "1/s"), ("request_p50_ms", "ms"),
              ("request_p90_ms", "ms"), ("peak_rss_mib", "MiB"))
MIN_SETUPS = 3          # set-up samples behind the setup_s median
MIN_REQUESTS_PER_S = 5  # so that at least 10 samples lie above p90 (100 at 20 s)
DEADLINE_S = 170.0      # every run ends within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """A session crashed or the run ran out of time: no result is printed."""


class Runner:
    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        **{var: "1" for var in THREAD_VARS})
        for var in ("ORBITFORGE_ELEMENT_CAP", "ORBITFORGE_POINT_CAP"):
            self.env.pop(var, None)

    def session(self, mode, session=0, budget=None, min_requests=0, fixed=False, spans=None):
        a = self.args
        cmd = [sys.executable, str(HERE / "session.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--session", str(session), "--mode", mode,
               "--budget", str(a.seconds if budget is None else budget),
               "--min-requests", str(min_requests)]
        if fixed:
            cmd.append("--fixed")
        if a.corrupt:
            cmd.append("--corrupt")
        if spans:
            cmd += ["--spans", str(spans)]
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before all sessions ran")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} session {session} timed out") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{mode} session {session} failed (exit {proc.returncode}):\n"
                             + proc.stderr[-3000:])
        result = json.loads(lines[-1])
        result["raw_setup_s"] = result["setup_done"] - spawned
        result["setup_s"] = result["raw_setup_s"] * result["setup_scale"]
        return result


def percentile(values, q):
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[q - 1]


def end_to_end(runner):
    seconds = runner.args.seconds
    sessions, probes = [], []
    busy = 0.0
    done = 0
    needed = int(MIN_REQUESTS_PER_S * seconds)
    while busy < seconds or done < needed:
        result = runner.session("plain", session=len(sessions), budget=seconds - busy,
                                min_requests=needed - done)
        if not result["requests"]:
            raise BenchError(f"session {len(sessions)} ran no requests")
        sessions.append(result)
        busy += result["busy_s"]
        done += result["requests"]
    while len(sessions) + len(probes) < MIN_SETUPS:
        probes.append(runner.session("setup"))
    setups = [s["setup_s"] for s in sessions + probes]
    latencies = [x for s in sessions for x in s["scaled"]]
    attempted = len(latencies)
    failed = sum(s["failed"] for s in sessions)
    metrics = {
        "setup_s": statistics.median(setups),
        "requests_per_s": attempted / sum(latencies),
        "request_p50_ms": percentile(latencies, 50) * 1e3,
        "request_p90_ms": percentile(latencies, 90) * 1e3,
        "peak_rss_mib": max(s["rss_mib"] for s in sessions),
    }
    above = sum(1 for x in latencies if x * 1e3 > metrics["request_p90_ms"])
    raw = [x for s in sessions for x in s["latencies"]]
    slowdown = statistics.median(s["slowdown"] for s in sessions)
    notes = [f"{len(sessions)} session(s), {attempted} requests, {busy:.2f} s of request time",
             f"request_p50_ms/request_p90_ms over n={attempted} samples, {above} above p90",
             f"setup_s is the median of {len(setups)} set-ups: "
             + ", ".join(f"{x:.3f}" for x in setups),
             f"times are scaled to the nominal host; this host took {slowdown:.3f}x "
             "the nominal reference time",
             f"unscaled: setup_s {statistics.median(s['raw_setup_s'] for s in sessions + probes):.4g}"
             f" requests_per_s {attempted / busy:.4g} request_p50_ms "
             f"{percentile(raw, 50) * 1e3:.4g} request_p90_ms {percentile(raw, 90) * 1e3:.4g}",
             f"failed_frac {failed / attempted:.4g} ratio ({failed} of {attempted})",
             f"digest sha256 {sessions[0]['digest']}"]
    problems = [p for s in sessions for p in s["problems"]]
    units = dict(END_TO_END)
    return attempted, failed, problems, {k: (v, units[k]) for k, v in metrics.items()}, notes


def traced(runner):
    spans = ROOT / ".orbitbench" / f"spans-{runner.args.workload}-{runner.args.seed}.jsonl"
    spans.parent.mkdir(exist_ok=True)
    plain = runner.session("plain", fixed=True)
    trace = runner.session("trace", fixed=True, spans=spans)
    memory = runner.session("tracemalloc", fixed=True)
    layers = dict(trace["layers"])
    layers.update(memory["layers"])
    untraced_rps = plain["requests"] / sum(plain["scaled"])
    traced_rps = trace["requests"] / sum(trace["scaled"])
    layers["trace.untraced_requests_per_s"] = untraced_rps
    layers["trace.traced_requests_per_s"] = traced_rps
    layers["trace.overhead_frac"] = 1 - traced_rps / untraced_rps
    problems = [p for s in (plain, trace, memory) for p in s["problems"]]
    if len({s["outputs"] for s in (plain, trace, memory)}) != 1:
        problems.append("traced and untraced sessions produced different outputs")
    if trace["self_time_gaps"]:
        problems.append(f"layer self times do not add up for requests {trace['self_time_gaps']}")
    attempted = plain["requests"] + trace["requests"] + memory["requests"]
    failed = plain["failed"] + trace["failed"] + memory["failed"]
    units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    spent = sorted(((v, k) for k, v in layers.items() if k.endswith(".self_s")), reverse=True)
    notes = [f"{trace['requests']} requests, each run untraced, traced and under tracemalloc",
             f"tracing overhead {layers['trace.overhead_frac']:.3f} "
             f"({untraced_rps:.3f} -> {traced_rps:.3f} requests/s)",
             "self time by layer: " + ", ".join(f"{k[:-7]} {v:.3f} s" for v, k in spent if v),
             f"spans written to {spans.relative_to(ROOT)}"]
    return (attempted, failed, problems,
            {k: (layers[k], units[k]) for k, _, _ in tracing.LAYER_METRICS}, notes)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true",
                    help="damage the first output before checking (tests the checks)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "orbitforge" / "__init__.py").is_file():
        print(f"orbitbench: no orbitforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args)
    try:
        attempted, failed, problems, metrics, notes = (traced if args.trace else end_to_end)(runner)
    except BenchError as exc:
        print(f"orbitbench: {exc}", file=sys.stderr)
        return 1
    correct = failed == 0 and not problems and attempted > 0
    print(f"orbitbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {'correct' if correct else 'INCORRECT'}")
    for line in notes + problems:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
