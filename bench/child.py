"""One cold sample: run one workload instance in this fresh interpreter.

Started by run.py with the monotonic time at which it spawned this process.
Set-up is that spawn time up to the end of `import formclass` (and its CLI
module).  The instance's library calls are timed alone; checks, hashing and
the trace summary run after the clock stops.  A fixed reference loop is timed
just before and just after the instance, so that run.py can scale this
sample's times by the machine's speed at the moment.  Prints one JSON line.
"""

import time

import formclass  # noqa: F401  (importing the package is the measured set-up)
import formclass.cli  # noqa: F401

IMPORTED = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop of integer, tuple and dict work."""
    t0 = time.perf_counter()
    seen: dict[tuple, int] = {}
    acc = 0
    for i in range(100_000):
        key = (i % 97, i * 7 % 101)
        seen[key] = seen.get(key, 0) + 1
        acc += math.gcd(i, 360)
    return time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--slot", type=int, required=True, help="index into the pool")
    ap.add_argument("--vseed", type=int, required=True, help="seed for the verify RNG")
    ap.add_argument("--spawned", type=float, required=True, help="time.monotonic() when spawned")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    inst = (wl.tiny if args.tiny else wl.pool)[args.slot]

    spans = None
    if args.trace:
        spans = tracer.Tracer()
        spans.install()
    fails: list[str] = []
    digest = None
    ref_before = reference_loop()
    t0 = time.perf_counter()
    try:
        raw = wl.run(inst, args.vseed)
    except Exception as err:  # a crashed instance is a failed operation, reported with its traceback
        traceback.print_exc()
        raw = None
        fails.append(f"raised {type(err).__name__}: {err}")
    wall = time.perf_counter() - t0
    ref_after = reference_loop()
    if raw is not None:
        fails += wl.check(inst, raw, args.corrupt)
        doc = json.dumps(wl.canonical(raw), sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(doc.encode()).hexdigest()
    summary = spans.summary() if spans is not None else None
    if summary is not None:
        missing = [name for name in wl.must_call if not summary["funcs"][name]["calls"]]
        if missing:
            fails.append(f"traced functions never called: {missing}")
    out = {
        "setup_s": IMPORTED - args.spawned,
        "wall_s": wall,
        "ref_s": (ref_before + ref_after) / 2,
        "items": wl.items(inst),
        "failures": fails,
        "digest": digest,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if summary is not None:
        out["spans"] = summary
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
