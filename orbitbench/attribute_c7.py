"""Where the time of acceptance criterion 7 (the three search regimes) goes.

    python3 orbitbench/attribute_c7.py

Runs the criterion-7 search configs (1000 odd/odd samples, then char2 and
even_order with the example constructions included) once, traced with the
benchmark's spans, and prints each layer's self time.  This is the check
of the claim that action.closure dominates criterion 7; the search
workload, which leaves the examples out, answers the same question for
plain sampling.
"""

import io
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import REGIMES  # noqa: E402

C7 = (("odd_odd", 1000, False), ("char2", 60, True), ("even_order", 60, True))
SEED = 20240308


def main():
    from orbitforge import search

    tracer = tracing.Tracer()
    tracing.install(tracer)
    start = time.perf_counter()
    for rid, (regime, samples, examples) in enumerate(C7):
        cfg = search.SearchConfig.from_dict(dict(REGIMES[regime], samples=samples, seed=SEED,
                                                 include_examples=examples))
        tracer.request_id = rid
        with tracer.span(tracing.ROOT):
            records = list(search.iter_search(cfg, workers=1, log=io.StringIO()))
        tracer.request_id = None
        tracer.counts["search.kept"] += len(records)
    total = time.perf_counter() - start
    layers = tracing.layer_metrics(tracer, {})
    report = {"total_s": total,
              "self_s": {k[:-7]: v for k, v in sorted(layers.items(), key=lambda kv: -kv[1])
                         if k.endswith(".self_s") and v > 0},
              "calls": {k[:-6]: v for k, v in layers.items() if k.endswith(".calls") and v},
              "is_irreducible.calls_per_record": layers["action.is_irreducible.calls_per_record"]}
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
