"""One benchmark session: a fresh process that sets up, runs requests, checks.

Started by run.py.  The session puts the checkout's `src/` first on
sys.path, builds its inputs from (seed, session), then runs whole rounds of
requests as one closed-loop caller until its request time reaches the
budget and at least --min-requests requests ran (or the workload's fixed
traced-run rounds with --fixed).  Cheap
output checks run between requests, outside the timed calls; the oracle
checks run after the timed phase.  The session prints one JSON line.

Host speed.  On a shared host the same requests can run 30-40% slower for
tens of seconds.  So the session also times a fixed reference computation
between requests, every REF_INTERVAL seconds of request time.  It calls no
orbitforge code and has two parts: a closure over Python tuples and sets,
and numpy fancy indexing.  A sample's slowdown is its time over the nominal
time, part by part, weighted by the workload's numpy share: 0 for workloads
whose library calls are pure Python, 0.5 for those that also run numpy.
Each request's time is divided by the median slowdown of the samples around
it, so it is reported as its time on the nominal host.  Set-up is scaled
the same way.

Modes:
  plain        time the requests (the end-to-end run)
  setup        stop after set-up; only the set-up time is reported
  trace        record spans around every layer call (tracing.install)
  tracemalloc  record the tracemalloc peak of every make_field call
"""

import argparse
import bisect
import gc
import hashlib
import json
import random
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

REF_NOMINAL = (0.006, 0.005)   # seconds of the two parts on the nominal host
REF_INTERVAL = 0.25     # seconds of request time between reference samples
REF_WINDOW = 2          # samples on each side of a request that set its scale
REF_PERM = np.random.default_rng(0).permutation(1 << 17)


def reference_python():
    """A closure over tuples: the shape of orbitforge's pure-Python loops."""
    seen = set()
    frontier = [(0, 0)]
    for _ in range(12000):
        t, e = frontier[-1]
        c = ((t + 3) % 16, (e * 5 + 7) % 65521)
        if c not in seen:
            seen.add(c)
            frontier.append(c)


def reference_numpy():
    """Fancy indexing and np.unique on a 1 MiB permutation."""
    np.unique(REF_PERM[REF_PERM[REF_PERM]][: 1 << 14])


def slowdown(numpy_share):
    """Time the reference parts; their weighted ratio to the nominal times."""
    # garbage collection would charge the reference for the session's heap
    gc.disable()
    try:
        times = []
        for part in (reference_python, reference_numpy):
            start = time.perf_counter()
            part()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return ((1 - numpy_share) * times[0] / REF_NOMINAL[0]
            + numpy_share * times[1] / REF_NOMINAL[1])


def session_rng(seed, session):
    return random.Random(f"orbitbench:{seed}:{session}")


def scales(samples, count):
    """One over the local median slowdown, for each of count requests."""
    marks = [index for index, _ in samples]
    slow = [s for _, s in samples]
    out = []
    for index in range(count):
        at = bisect.bisect_right(marks, index)
        out.append(1 / statistics.median(slow[max(0, at - REF_WINDOW):at + REF_WINDOW]))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--session", type=int, default=0)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--min-requests", type=int, default=0,
                    help="keep starting rounds until this many requests ran")
    ap.add_argument("--fixed", action="store_true",
                    help="run the workload's fixed traced-run rounds, whatever they take")
    ap.add_argument("--mode", choices=("plain", "setup", "trace", "tracemalloc"), default="plain")
    ap.add_argument("--corrupt", action="store_true")
    ap.add_argument("--spans", default="")
    args = ap.parse_args(argv)

    import orbitforge
    if not Path(orbitforge.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"orbitforge was imported from {orbitforge.__file__}, not {ROOT / 'src'}")
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = tracing.Tracer()
    if args.mode == "trace":
        tracing.install(tracer)
        span = tracer.span
    else:
        span = lambda name: nullcontext()  # noqa: E731
        if args.mode == "tracemalloc":
            tracing.install_field_memory(tracer)

    count = (workload.trace_rounds if args.fixed else workload.session_rounds)(args.budget)
    rounds = workload.rounds(session_rng(args.seed, args.session), count)
    requests = [req for round_ in rounds for req in round_]
    prepared = workload.setup(requests) or [None] * len(requests)
    setup_done = time.monotonic()
    share = workload.reference_numpy_share
    slowdown(share)  # the first call pays one-off warm-up costs
    ref_samples = [(0, slowdown(share)) for _ in range(3)]
    setup_scale = 1 / statistics.median(s for _, s in ref_samples)
    if args.mode == "setup":
        print(json.dumps({"setup_done": setup_done, "setup_scale": setup_scale}))
        return 0

    latencies, problems, held, digest_parts = [], {}, [], []
    outputs = hashlib.sha256()
    oracle_checked = Counter()
    busy = last_ref = 0.0
    round_size = len(rounds[0])
    for index, (req, prep) in enumerate(zip(requests, prepared)):
        if (index % round_size == 0 and not args.fixed and busy >= args.budget
                and index >= args.min_requests):
            break
        if busy - last_ref >= REF_INTERVAL:
            ref_samples.append((index, slowdown(share)))
            last_ref = busy
        tracer.request_id = index
        root = tracer.span(tracing.ROOT) if args.mode == "trace" else nullcontext()
        start = time.perf_counter()
        try:
            with root:
                out = workload.execute(req, prep, span)
        except Exception as exc:  # a failed request is counted, not fatal
            out = None
            problems[index] = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        tracer.request_id = None
        busy += elapsed
        latencies.append(elapsed)
        if out is None:
            continue
        summary = workload.summarize(req, out)
        if args.corrupt and index == 0:
            workload.corrupt(summary)
        outputs.update(json.dumps(summary, sort_keys=True).encode())
        for key, amount in workload.counts(summary).items():
            tracer.counts[key] += amount
        if args.session == 0 and index < workload.digest_requests:
            digest_parts.append(workload.canonical(req, out))
        found = workload.check(req, summary, heavy=False)
        if found:
            problems[index] = "; ".join(found)
        cls = req.get("class")
        oracle_checked[cls] += 1
        if oracle_checked[cls] <= workload.heavy_checks:
            held.append((index, summary))
        del out
    ref_samples.append((len(latencies), slowdown(share)))
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # the digest covers the first requests of session 0, finished untimed if need be
    if args.session == 0:
        for index in range(len(latencies), min(workload.digest_requests, len(requests))):
            out = workload.execute(requests[index], prepared[index], span)
            digest_parts.append(workload.canonical(requests[index], out))
    for index, summary in held:
        try:
            found = workload.check(requests[index], summary, heavy=True)
        except Exception as exc:
            found = [f"check raised {type(exc).__name__}: {exc}"]
        if found:
            problems[index] = "; ".join(found)

    request_scales = scales(ref_samples, len(latencies))
    result = {
        "setup_done": setup_done,
        "setup_scale": setup_scale,
        "requests": len(latencies),
        "failed": len(problems),
        "problems": [f"request {i}: {problems[i]}" for i in sorted(problems)[:5]],
        "latencies": latencies,
        "scaled": [t * s for t, s in zip(latencies, request_scales)],
        "busy_s": busy,
        "slowdown": statistics.median(s for _, s in ref_samples),
        "rss_mib": rss_kib / 1024,
        "digest": hashlib.sha256("\n".join(digest_parts).encode()).hexdigest()
        if args.session == 0 else None,
        "outputs": outputs.hexdigest(),
    }
    if args.mode == "trace":
        result["layers"] = tracing.layer_metrics(tracer, dict(enumerate(request_scales)))
        result["self_time_gaps"] = tracing.self_time_gaps(tracer)[:5]
        if args.spans:
            tracer.dump(args.spans)
    if args.mode == "tracemalloc":
        result["layers"] = {"field.tracemalloc_peak_mib":
                            tracer.counts["field.tracemalloc_peak_mib"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
