"""decatkit benchmark: one run of one workload.

    python3 perfbench/run.py --workload khovanov --seed 0 --seconds 30 --trace 0

Each pass of the workload runs in a fresh interpreter (perfbench/passrun.py),
because every command-line user pays for the import and for cold caches.
With --trace 0 the run repeats passes while another one still fits in
--seconds (at least one) and reports the end-to-end metrics: the median
wall_s and peak_rss_mib over passes, and the median setup_s over those passes
plus extra set-up-only processes. Both times are scaled to the reference
machine speed (speed.py); the raw times are recorded next to them. With
--trace 1 it runs one untraced and one traced pass and reports the per-layer
metrics of the traced one, plus trace_overhead = traced wall_s / untraced
wall_s.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. Every sample goes to
.bench_work/records/<workload>-seed<seed>-trace<t>.json. The exit status is
nonzero, with no JSON line, when a pass cannot run at all, for instance when
the checkout holds no decatkit source.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_ONLY_PROCESSES = 8
RUN_LIMIT_S = 170  # every pass must end by then, so the run ends within 180 s


class PassError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, trace: int, deadline: float, setup_only: bool = False) -> dict:
    """One passrun.py process; raises PassError if it fails or overruns."""
    result = WORK / f"pass-{os.getpid()}.json"
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    # A fixed hash seed makes one benchmark seed one exact run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise PassError(f"a {workload} pass did not finish within {RUN_LIMIT_S} s of the run's start")
    if proc.returncode != 0:
        raise PassError(f"a {workload} pass exited with status {proc.returncode}")
    try:
        return json.loads(result.read_text())
    finally:
        result.unlink()


def describe(samples: list[float]) -> dict:
    quartiles = statistics.quantiles(samples, n=4) if len(samples) > 1 else [samples[0]] * 3
    return {"median": statistics.median(samples), "p25": quartiles[0], "p75": quartiles[2],
            "n": len(samples), "samples": samples}


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             env=dict(os.environ, GIT_DIR=str(ROOT / ".git")), timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    setup = [run_pass(workload, seed, 0, deadline, setup_only=True) for _ in range(SETUP_ONLY_PROCESSES)]
    if trace:
        passes = [run_pass(workload, seed, 0, deadline), run_pass(workload, seed, 1, deadline)]
    else:
        passes = []
        started = time.monotonic()
        while True:
            passes.append(run_pass(workload, seed, 0, deadline))
            spent = time.monotonic() - started
            if spent + spent / len(passes) > seconds:
                break
    setup += passes
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "python": platform.python_version(),
        "commit": git_commit(),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "setup_s": describe([p["setup_s"] for p in setup]),
        "raw_setup_s": describe([p["raw_setup_s"] for p in setup]),
        "passes": passes,
    }
    record["failure_rate"] = record["failed"] / record["attempted"]
    if trace:
        untraced, traced = passes
        record["layers"] = dict(traced["layers"], trace_overhead=traced["wall_s"] / untraced["wall_s"])
    else:
        for key in ("wall_s", "raw_wall_s", "speed", "peak_rss_mib"):
            record[key] = describe([p[key] for p in passes])
    return record


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    WORK.mkdir(exist_ok=True)
    try:
        record = measure(args.workload, args.seed, args.seconds, args.trace)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    records = WORK / "records"
    records.mkdir(exist_ok=True)
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    if args.trace:
        metrics = {m["name"]: {"value": record["layers"][m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": record[m["name"]]["median"], "unit": m["unit"]} for m in spec["end_to_end"]}
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(record['passes'])} passes, record in {path.relative_to(ROOT)}")
    for name, m in metrics.items():
        value = f"{m['value']:.6g}" if isinstance(m["value"], float) else m["value"]
        count = f"  (median of {record[name]['n']})" if name in record else ""
        print(f"  {name:48s} {value} {m['unit']}{count}")
    if not args.trace:
        for name, unit in (("raw_wall_s", "s"), ("raw_setup_s", "s"), ("speed", "ratio")):
            print(f"  {name:48s} {record[name]['median']:.6g} {unit}  (median of {record[name]['n']}; recorded only)")
    print(f"  {'failure_rate':48s} {record['failure_rate']:.6g} ratio  "
          f"({record['failed']} of {record['attempted']} operations)")
    for p in record["passes"]:
        for op in p["ops"]:
            if op["problems"]:
                print(f"  FAILED {op['name']}: {'; '.join(op['problems'])}")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
