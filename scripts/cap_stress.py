"""Run each at-cap CLI input in a child process under an address-space limit.

    python scripts/cap_stress.py [--limit-gib 2] [--timeout 60] [case ...]

Every case writes its input file to a temporary directory and runs one
`orbitforge` subcommand in a child interpreter, in that directory.  The child sets
RLIMIT_AS on itself before it imports orbitforge, so the limit acts on
that child alone.  One line per case gives the exit code, the wall time
and the child's ru_maxrss, and whether the case met its expectation:
exit 0 for inputs the caps accept, exit 3 for inputs one past a cap.
A case killed by the timeout shows exit code "timeout".  The script exits
1 when any case misses its expectation.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """\
import resource, sys
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from orbitforge.cli import main
sys.exit(main(sys.argv[2:]))
"""


def cyclic_shift(d):
    """The d x d permutation matrix sending e_j to e_(j+1 mod d), row-major."""
    return [1 if (row - col) % d == 1 else 0 for row in range(d) for col in range(d)]


def matrix_spec(p, d, gens):
    return {"action": {"kind": "matrix", "dim": d}, "field": {"p": p}, "generators": gens}


def semilinear_spec(p, n, gens):
    return {"action": {"kind": "semilinear"}, "field": {"p": p, "k": 1, "n": n},
            "generators": [{"twist": t, "scalar": e} for t, e in gens]}


GL_2_31 = [[3, 0, 0, 1], [30, 1, 30, 0]]  # diag(3, 1) and [[-1, 1], [-1, 0]] generate GL(2, 31)
GL_2_31_ORDER = (31 ** 2 - 1) * (31 ** 2 - 31)
S9_TOP = [[2, 1, 3, 4, 5, 6, 7, 8, 9], [2, 3, 4, 5, 6, 7, 8, 9, 1]]
# S_3 on 18..20 times AGL(1, 17) on 1..17: degree 20, order 6 * 17 * 16
GLUCK_20 = {"degree": 20, "generators": [
    [x % 17 + 1 for x in range(1, 18)] + [18, 19, 20],
    [3 * x % 17 + 1 for x in range(17)] + [18, 19, 20],
    list(range(1, 18)) + [19, 18, 20],
    list(range(1, 18)) + [19, 20, 18]]}

# name -> (subcommand, input document, extra environment, expected exit code)
CASES = {
    "field-2^24": ("orbits", semilinear_spec(2, 24, [(0, 1)]), {}, 0),
    "matrix-GF(2)^24": ("orbits", matrix_spec(2, 24, [cyclic_shift(24)]), {}, 0),
    "matrix-GF(3)^15": ("orbits", matrix_spec(3, 15, [cyclic_shift(15)]), {}, 0),
    "semilinear-many-orbits-2^24": ("orbits", semilinear_spec(2, 24, [(0, (2 ** 24 - 1) // 3)]),
                                    {}, 0),
    "chain-at-cap": ("orbits", matrix_spec(31, 2, GL_2_31),
                     {"ORBITFORGE_ELEMENT_CAP": str(GL_2_31_ORDER)}, 0),
    "chain-over-cap": ("orbits", matrix_spec(31, 2, GL_2_31),
                       {"ORBITFORGE_ELEMENT_CAP": str(GL_2_31_ORDER - 1)}, 3),
    "closure-at-cap": ("orbits", {"action": {"kind": "wreath", "m": 9, "top_gens": S9_TOP},
                                  "field": {"p": 2}, "generators": [{"twist": 0, "scalar": 0}]},
                       {"ORBITFORGE_ELEMENT_CAP": "362880"}, 0),
    "closure-over-cap": ("orbits", {"action": {"kind": "wreath", "m": 9, "top_gens": S9_TOP},
                                    "field": {"p": 2}, "generators": [{"twist": 0, "scalar": 0}]},
                         {"ORBITFORGE_ELEMENT_CAP": "362879"}, 3),
    "gluck-degree-20": ("gluck", GLUCK_20, {}, 0),
    "gluck-degree-20-point-cap": ("gluck", GLUCK_20, {"ORBITFORGE_POINT_CAP": str(2 ** 19)}, 3),
    # odd parts of drawn 12 x 12 GF(2) generators, once found by multiplying to the identity
    "search-matrix-gf2^12": ("search", {"samples": 3, "seed": 7, "odd_order": True,
                                        "templates": [{"kind": "matrix", "field": {"p": 2},
                                                       "dim": 12}]}, {}, 0),
}


def run_case(command, doc, env, limit, timeout, workdir):
    """(exit code or "timeout", wall seconds, ru_maxrss in MiB) of one child."""
    path = Path(workdir) / "input.json"
    path.write_text(json.dumps(doc))
    child_env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", **env)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", CHILD, str(limit), command, str(path)],
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=child_env,
                            cwd=workdir)  # search writes its counterexamples to ./results.jsonl
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            code = os.waitstatus_to_exitcode(status)
            break
        if time.perf_counter() - start > timeout:
            proc.kill()
            _, _, usage = os.wait4(proc.pid, 0)
            code = "timeout"
            break
        time.sleep(0.02)
    proc.returncode = code  # wait4 reaped the child, so Popen must not wait for it
    return code, time.perf_counter() - start, usage.ru_maxrss / 1024


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("cases", nargs="*", metavar="case",
                        help=f"cases to run (default: all of {', '.join(CASES)})")
    parser.add_argument("--limit-gib", type=float, default=2.0)
    parser.add_argument("--timeout", type=float, default=60.0)
    args = parser.parse_args(argv)
    unknown = sorted(set(args.cases) - set(CASES))
    if unknown:
        parser.error(f"unknown cases: {', '.join(unknown)}")
    limit = int(args.limit_gib * 2 ** 30)
    missed = []
    with tempfile.TemporaryDirectory() as workdir:
        for name in args.cases or CASES:
            command, doc, env, want = CASES[name]
            code, wall, rss = run_case(command, doc, env, limit, args.timeout, workdir)
            ok = code == want
            if not ok:
                missed.append(name)
            print(f"{name:30s} exit {code!s:7s} {wall:7.2f} s {rss:8.1f} MiB  "
                  f"{'ok' if ok else f'FAILED (expected exit {want})'}", flush=True)
    print(f"{len(missed)} of {len(args.cases or CASES)} cases missed: {', '.join(missed) or '-'}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
