"""formclass benchmark: four cold-start workloads, end-to-end metrics, traced layer costs.

    python3 bench/run.py --workload tower-correspondence --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 10      # every workload, one after another

Every sample is a fresh interpreter (bench/child.py) that imports formclass
and runs one pool instance with cold caches, as each CLI invocation does;
warm repeats in one process would only time dictionary lookups.  Load is one
caller in a closed loop: the next sample starts when the previous one exited.
A run goes through the workload's pool in rounds, every instance once per
round in an order drawn from --seed, until --seconds have passed; the seed
also draws each instance's verify RNG seed.  Every sample is checked against
closed forms (bench/expected.py) and its result is hashed; repeats of an
instance within a run must hash alike.

On a shared 2-core host the speed of pure-Python code drifts by up to 1.9x
within seconds (a fixed loop took 0.22 to 0.40 s from one second to the next),
on CPU time as on wall time.  So each sample also times a fixed pure-Python
reference loop just before and after its instance, and every time below is
scaled by REF_S over that loop's time: seconds at the speed at which the loop
takes REF_S.  The summary line also prints the unscaled medians.

--trace 0 reports the end-to-end metrics over all samples:
  wall_s       median time of the instance's library calls (checks excluded)
  items_per_s  completed items (tower pairs, Cayley cells, oracle pairs,
               trials) over summed wall time
  setup_s      median of spawn to the end of `import formclass`
  peak_rss_mb  median ru_maxrss of a sample process
The summary line above the result adds the highest percentile of wall_s with
ten samples beyond it, and fail_frac = failed / attempted samples.

--trace 1 wraps formclass's layer functions from outside (bench/tracer.py)
and alternates traced and untraced samples.  Per-layer metrics are totals
over one round (each pool instance once): counts from the first round, which
every later round must repeat exactly, and times as medians over rounds.
trace.overhead is traced over untraced round wall time.

The last stdout line is the JSON result {correct, attempted, failed, metrics};
the line before it records instances, digests and a metadata stamp.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 120
REF_S = 0.05  # the reference loop's time that defines a scaled second

END_TO_END = {"wall_s": "s", "items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per wrapped function, the figures an optimisation of that layer should move;
# the comments name the end-to-end metric and workload that should move with them.
FUNC_METRICS = {
    # peak_rss_mb and wall_s on tower-correspondence
    "forms.reduce_form": ("calls", "hit_ratio", "cache_size"),
    "forms.sl2_equivalent": ("calls", "self_s"),
    # wall_s on tower-correspondence and classgroup-ladder
    "congruence.cong_equivalent": ("calls", "self_s", "witness_ratio"),
    "congruence.ClassIndex.locate": ("calls", "s"),
    # wall_s on tower-correspondence
    "congruence.unsigned_class_reps": ("s",),
    # wall_s on grouplaw-oracles only
    "ideals.ray_class_equal": ("calls", "s", "true_ratio"),
    "ideals.OIdeal.__mul__": ("calls", "s"),
    "ideals.principal_generator": ("calls", "s"),
    # wall_s and peak_rss_mb on classgroup-ladder, wall_s on grouplaw-oracles
    "classgroup.compose": ("calls", "s"),
    "classgroup.ClassGroupTable.build": ("s",),
    "classgroup.ClassGroupTable._validate": ("s",),
    "classgroup.ClassGroupTable.invariant_factors": ("s",),
    "classgroup.PMGroup.build": ("s",),
    "classgroup.class_of_ideal": ("calls", "s"),
    # wall_s on tower-correspondence
    "cm.equivalent_points": ("calls", "s"),
    "cm.cm_class_set": ("s",),
    "tower.act_padic": ("calls", "s"),
    "tower.kernel_reps": ("s",),
    # wall_s on padic-limits
    "tower.random_compliant_pair": ("calls", "s"),
    "tower.limits_agree": ("calls", "s"),
    # wall_s on grouplaw-oracles and padic-limits
    "cli.main": ("self_s",),
}
UNITS = {"calls": "count", "cache_size": "count", "s": "s", "self_s": "s",
         "hit_ratio": "ratio", "witness_ratio": "ratio", "true_ratio": "ratio", "overhead": "ratio"}


def per_layer_names() -> dict[str, str]:
    names = {f"{fn}.{fig}": UNITS[fig] for fn, figs in FUNC_METRICS.items() for fig in figs}
    for layer in tracer.LAYERS:
        names[f"layer.{layer}.s"] = "s"
        names[f"layer.{layer}.self_s"] = "s"
    names["trace.wall_s"] = "s"
    names["trace.overhead"] = "ratio"
    return names


# -- samples ---------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("FORMCLASS_SEED", None)  # it would override the seed the benchmark passes
    return env


def sample(wl_name: str, slot: int, vseed: int, trace: int, opts: argparse.Namespace) -> dict:
    """Spawn one child, wait for it, and return its result (or a failed stand-in)."""
    argv = [sys.executable, str(BENCH / "child.py"), "--workload", wl_name, "--slot", str(slot),
            "--vseed", str(vseed), "--trace", str(trace)]
    argv += ["--tiny"] * opts.tiny + ["--corrupt"] * opts.corrupt
    spawned = time.monotonic()
    proc = subprocess.Popen(argv + ["--spawned", repr(spawned)], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException as exc:  # a timeout, an interrupt or SIGTERM: stop the child first
        proc.kill()
        proc.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        return {"slot": slot, "trace": trace, "failures": [f"no result within {CHILD_TIMEOUT_S} s"]}
    if err:
        sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"slot": slot, "trace": trace, "failures": [f"sample exited {proc.returncode} without a result"]}
    res = json.loads(lines[-1])
    res.update(slot=slot, trace=trace)
    return res


def collect(wl, opts: argparse.Namespace) -> tuple[list[list[dict]], list[int]]:
    """Rounds of samples until --seconds have passed; always at least one round."""
    pool = wl.tiny if opts.tiny else wl.pool
    rng = random.Random(opts.seed)
    vseeds = [rng.randrange(1 << 31) for _ in pool]
    rounds: list[list[dict]] = []
    deadline = time.monotonic() + opts.seconds
    while not rounds or time.monotonic() < deadline:
        done = []
        for slot in rng.sample(range(len(pool)), len(pool)):
            modes = (0, 1) if opts.trace else (0,)
            if opts.trace and len(rounds) % 2:
                modes = (1, 0)
            done += [sample(wl.name, slot, vseeds[slot], mode, opts) for mode in modes]
        rounds.append(done)
    return rounds, vseeds


# -- metrics ---------------------------------------------------------------------


def speed(s: dict) -> float:
    """Factor that turns this sample's measured seconds into scaled seconds."""
    return REF_S / s["ref_s"]


def end_to_end(samples: list[dict]) -> tuple[dict, str]:
    walls = sorted(s["wall_s"] * speed(s) for s in samples)
    metrics = {
        "wall_s": statistics.median(walls),
        "items_per_s": sum(s["items"] for s in samples) / sum(walls),
        "setup_s": statistics.median(s["setup_s"] * speed(s) for s in samples),
        "peak_rss_mb": statistics.median(s["rss_kb"] for s in samples) / 1024,
    }
    n = len(walls)
    if n > 10:
        tail = f"p{100 * (n - 10) / n:.0f} {walls[n - 11]:.4f} s, 10 samples beyond"
    else:
        tail = f"max {walls[-1]:.4f} s, fewer than 11 samples"
    raw = (f"unscaled medians: wall_s {statistics.median(s['wall_s'] for s in samples):.4f} s, "
           f"setup_s {statistics.median(s['setup_s'] for s in samples):.4f} s, "
           f"reference loop {statistics.median(s['ref_s'] for s in samples):.4f} s")
    note = f"wall_s median of {n} samples; {tail}; {raw}"
    return metrics, note


def round_totals(round_samples: list[dict]) -> dict:
    """Sum the traced samples of one round into one summary."""
    funcs: dict[str, dict] = {}
    layers = {layer: {"s": 0.0, "self_s": 0.0} for layer in tracer.LAYERS}
    caches: dict[str, dict] = {}
    for s in round_samples:
        t, scale = s["spans"], speed(s)
        for name, f in t["funcs"].items():
            acc = funcs.setdefault(name, dict.fromkeys(f, 0))
            for k, v in f.items():
                acc[k] += v * scale if k in ("s", "self_s") else v
        for layer, v in t["layers"].items():
            layers[layer]["s"] += v["s"] * scale
            layers[layer]["self_s"] += v["self_s"] * scale
        for name, info in t["caches"].items():
            acc = caches.setdefault(name, dict.fromkeys(info, 0))
            for k, v in info.items():
                acc[k] = acc[k] + v if v is not None else None
    return {"funcs": funcs, "layers": layers, "caches": caches,
            "wall_s": sum(s["wall_s"] * speed(s) for s in round_samples)}


def counts_of(total: dict) -> dict:
    return {"funcs": {n: (f["calls"], f.get("positive")) for n, f in total["funcs"].items()},
            "caches": total["caches"]}


def figure(total: dict, fn: str, fig: str) -> float:
    f = total["funcs"][fn]
    if fig in ("calls", "s", "self_s"):
        return f[fig]
    if fig in ("witness_ratio", "true_ratio"):
        return f["positive"] / f["calls"] if f["calls"] else 0.0
    info = total["caches"][fn]
    if fig == "hit_ratio":
        looked_up = info["hits"] + info["misses"]
        return info["hits"] / looked_up if looked_up else 0.0
    return info["currsize"]


def per_layer(rounds: list[list[dict]]) -> tuple[dict, list[str], list[str]]:
    traced = [round_totals([s for s in r if s["trace"]]) for r in rounds]
    untraced_wall = statistics.median(sum(s["wall_s"] * speed(s) for s in r if not s["trace"]) for r in rounds)
    problems = [f"round {i} counts differ from round 0" for i, t in enumerate(traced)
                if counts_of(t) != counts_of(traced[0])]

    def timed(get):
        return statistics.median(get(t) for t in traced)

    metrics: dict[str, float] = {}
    for fn, figs in FUNC_METRICS.items():
        for fig in figs:
            if fig in ("s", "self_s"):
                metrics[f"{fn}.{fig}"] = timed(lambda t: figure(t, fn, fig))
            else:
                metrics[f"{fn}.{fig}"] = figure(traced[0], fn, fig)
    for layer in tracer.LAYERS:
        for fig in ("s", "self_s"):
            metrics[f"layer.{layer}.{fig}"] = timed(lambda t: t["layers"][layer][fig])
    metrics["trace.wall_s"] = timed(lambda t: t["wall_s"])
    metrics["trace.overhead"] = metrics["trace.wall_s"] / untraced_wall

    lines = [f"traced {len(rounds)} rounds; round wall {metrics['trace.wall_s']:.4f} s traced, "
             f"{untraced_wall:.4f} s untraced"]
    for layer in sorted(tracer.LAYERS, key=lambda x: -metrics[f"layer.{x}.s"]):
        calls = sum(c for n, (c, _) in counts_of(traced[0])["funcs"].items() if n.startswith(layer + "."))
        lines.append(f"  layer {layer:<10} under {metrics[f'layer.{layer}.s']:.4f} s, "
                     f"self {metrics[f'layer.{layer}.self_s']:.4f} s, {calls} calls")
    top = sorted(((n, f) for n, f in traced[0]["funcs"].items() if f["calls"]), key=lambda kv: -kv[1]["s"])[:6]
    lines.append("  top functions by time under them (round 0): "
                 + ", ".join(f"{n} {f['s']:.3f} s" for n, f in top))
    lines.append("  lru caches, entries/hits/misses (round 0): "
                 + ", ".join(f"{n} {c['currsize']}/{c['hits']}/{c['misses']}"
                             for n, c in sorted(traced[0]["caches"].items())))
    return metrics, lines, problems


# -- one workload ----------------------------------------------------------------


def metadata() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def git_sha() -> str:
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, opts: argparse.Namespace) -> None:
    wl = WORKLOADS[name]
    rounds, vseeds = collect(wl, opts)
    samples = [s for r in rounds for s in r]
    pool = wl.tiny if opts.tiny else wl.pool
    digests: dict[int, set] = {}
    for s in samples:
        if s.get("digest"):
            digests.setdefault(s["slot"], set()).add(s["digest"])
    problems = [f"slot {slot}: results differ across rounds" for slot, d in digests.items() if len(d) > 1]
    failed = [s for s in samples if s["failures"]]
    for s in failed[:5]:
        print(f"FAILED {name} slot {s['slot']} trace {s['trace']}: {s['failures']}", file=sys.stderr)

    ok = [s for s in samples if "wall_s" in s]
    if opts.trace:
        metrics, lines, more = per_layer(rounds) if len(ok) == len(samples) else ({}, [], ["a sample crashed"])
        problems += more
        units = per_layer_names()
    else:
        metrics, note = end_to_end(ok) if ok else ({}, "no sample finished")
        units = END_TO_END
        frac = len(failed) / len(samples)
        lines = [f"{name}: " + " | ".join(f"{k} {v:.6g} {units[k]}" for k, v in metrics.items())
                 + f" | fail_frac {frac:.6g} ratio ({len(failed)}/{len(samples)} samples); {note}"]
    for line in lines:
        print(line)
    for p in problems:
        print(f"PROBLEM {name}: {p}", file=sys.stderr)

    detail = {
        "workload": name,
        "seed": opts.seed,
        "meta": metadata(),
        "rounds": len(rounds),
        "instances": [{"slot": i, "instance": inst, "vseed": vseeds[i], "items": wl.items(inst),
                       "digests": sorted(digests.get(i, ()))} for i, inst in enumerate(pool)],
        "problems": problems,
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": not failed and not problems and bool(metrics),
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    ap.add_argument("--corrupt", action="store_true", help="smoke test: skew every expected value")
    opts = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwinds through sample(), which stops its child
    if opts.seconds < 0:
        ap.error("--seconds must be >= 0")
    if not (SRC / "formclass" / "__init__.py").is_file():
        print(f"formclass sources not found under {SRC}", file=sys.stderr)
        return 2
    # Compile the package once, so that no sample's set-up includes writing bytecode.
    warm = subprocess.run([sys.executable, "-c", "import formclass.cli"], cwd=ROOT, env=child_env())
    if warm.returncode != 0:
        print("importing formclass failed", file=sys.stderr)
        return 2
    for name in sorted(WORKLOADS) if opts.workload == "all" else [opts.workload]:
        run_workload(name, opts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
