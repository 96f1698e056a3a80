"""Smoke test of the benchmark itself: every workload at tiny size.

    python3 bench/smoke.py

For each workload it checks that a run is correct, that the printed metric
names and units are the ones BENCHMARK.json declares (end-to-end untraced,
per-layer traced), that a second run of the same seed hashes every instance's
result alike, and that skewed expected values are counted as failed samples,
so the correctness gate can fire.  Exits 1 if any of that does not hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402


def run(workload: str, *extra: str) -> tuple[dict, dict]:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "0", "--tiny", *extra]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {[w['name'] for w in spec['workloads']]} != {list(WORKLOADS)}")
    for name in WORKLOADS:
        detail, plain = run(name, "--trace", "0")
        again, _ = run(name, "--trace", "0")
        _, traced = run(name, "--trace", "1")
        _, skewed = run(name, "--trace", "0", "--corrupt")
        checks = {
            "untraced run is correct": plain["correct"] and plain["failed"] == 0,
            "end-to-end names and units match BENCHMARK.json": units(plain) == declared_e2e,
            "same seed gives the same results": [i["digests"] for i in detail["instances"]]
            == [i["digests"] for i in again["instances"]],
            "traced run is correct": traced["correct"] and traced["failed"] == 0,
            "per-layer names and units match BENCHMARK.json": units(traced) == declared_layer,
            "skewed expectations fail every sample": not skewed["correct"]
            and skewed["failed"] == skewed["attempted"] > 0,
        }
        for what, ok in checks.items():
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {what}")
            if not ok:
                problems.append(f"{name}: {what}")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
