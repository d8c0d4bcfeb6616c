"""wedgeflow benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's ``src``.  Each workload runs in a fresh process
that repeats whole rounds for ``--seconds`` and checks every round's outputs
against independent computations (see README.md).  ``setup_s`` is measured
first, as the median of several fresh interpreters that import
``wedgeflow.cli`` and parse the workload's configs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are BENCHMARK.json's end-to-end metrics, with ``--trace 1`` its
per-layer metrics.  ``--workload all`` (trace 0 only) runs the four workloads
in turn and reports each one's wall time under its own name.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170.0
# the name of each workload's wall time in the --workload all summary
WALL_NAMES = {
    "desk-verify": "verify_s",
    "sweep-grid": "sweep_s",
    "march-400": "march_s",
    "corner-family": "family_s",
}
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from wedgeflow.cli import parse_config; [parse_config(p) for p in sys.argv[2:]]"
)


def _run(cmd: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run cmd in its own process group; on timeout kill the whole group
    (the sweep's pool workers included) and wait for it."""
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        raise SystemExit(f"perfbench: {cmd[1:3]} timed out after {timeout:.0f} s\n{err[-2000:]}")
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def setup_seconds(cfgs: list[Path]) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        res = _run([sys.executable, "-c", SETUP_PROBE, str(ROOT / "src")] + [str(c) for c in cfgs], 60.0)
        times.append(time.perf_counter() - t0)
        if res.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{res.stderr[-2000:]}")
    return statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    import workloads

    work = ROOT / ".bench_build" / "perfbench" / name
    cfgs = workloads.WORKLOADS[name].write_configs(work / "config", seed)
    setup = setup_seconds(cfgs) if not trace else None
    cmd = [
        sys.executable, str(HERE / "workloads.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--dir", str(work),
    ]
    res = _run(cmd, CHILD_TIMEOUT_S)
    sys.stderr.write(res.stderr)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: workload {name} exited {res.returncode}")
    out = json.loads(lines[-1])
    out["setup_s"] = setup
    return out


def report(name: str, r: dict, metrics: dict):
    state = "correct" if not r["problems"] else "INCORRECT"
    print(
        f"perfbench {name}: {r['rounds']} round(s), {r['attempted']} operations attempted, "
        f"{r['failed']} failed, {state}"
    )
    for p in r["problems"]:
        print(f"  problem: {p}")
    for a in r.get("absent", []):
        print(f"  absent: {a} is not in the package; its metrics read 0")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=sorted(WALL_NAMES) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "wedgeflow" / "cli.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'wedgeflow'}", file=sys.stderr)
        return 2
    if args.workload == "all" and args.trace:
        print("perfbench: --workload all runs untraced; trace one workload at a time", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.workload != "all":
        r = run_workload(args.workload, args.seed, args.seconds, args.trace)
        specs = bench["per_layer"] if args.trace else bench["end_to_end"]
        values = r["per_layer"] if args.trace else r
        metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
        report(args.workload, r, metrics)
        total = r
    else:
        units = {s["name"]: s["unit"] for s in bench["end_to_end"]}
        metrics, setups, rss = {}, [], []
        total = {"attempted": 0, "failed": 0, "problems": []}
        for name, wall in WALL_NAMES.items():
            r = run_workload(name, args.seed, args.seconds, 0)
            report(name, r, {
                "setup_s": {"value": r["setup_s"], "unit": units["setup_s"]},
                wall: {"value": r["wall_s"], "unit": units["wall_s"]},
                "peak_rss_mb": {"value": r["peak_rss_mb"], "unit": units["peak_rss_mb"]},
            })
            metrics[wall] = {"value": r["wall_s"], "unit": units["wall_s"]}
            setups.append(r["setup_s"])
            rss.append(r["peak_rss_mb"])
            for key in ("attempted", "failed"):
                total[key] += r[key]
            total["problems"] += r["problems"]
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": units["setup_s"]}
        metrics["peak_rss_mb"] = {"value": max(rss), "unit": units["peak_rss_mb"]}

    print(json.dumps({
        "correct": not total["problems"],
        "attempted": total["attempted"],
        "failed": total["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
