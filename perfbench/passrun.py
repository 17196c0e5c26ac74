"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/passrun.py --workload NAME --seed N --trace 0|1 --result FILE [--setup-only]

Set-up is the import of decatkit plus building the workload's inputs. The
pass then runs every operation, timing each call alone; `raw_wall_s` is the
sum of those times, so the benchmark's own answer checks are left out. Peak
memory is this process's `getrusage` high-water mark when the last operation
returns. An operation that raises, exits nonzero or gives a wrong answer is
counted as failed and the pass goes on. The result is written as JSON.

Without tracing, `setup_s` and `wall_s` are the raw times scaled to the
reference machine speed by the probe in speed.py, which samples the speed
around set-up and throughout the operations; the probe's own time is left
out of every time. A traced pass is scaled the same way; its spans, which
the probe does not open, hold the probe's samples taken inside them.

Exit status 3 means decatkit's source is not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import shutil
import sys
import tempfile
from time import perf_counter

from speed import SpeedProbe

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def run_ops(ops, tracer=None, probe=None) -> list[dict]:
    """Run every operation, timing each call without the probe's samples
    taken during it; one outcome per operation."""
    outcomes = []
    for op_id, op in enumerate(ops):
        error = value = None
        probed = probe.spent if probe else 0.0
        started = perf_counter()
        try:
            value = op.run() if tracer is None else tracer.run_op(op_id, op.name, op.run)
        except (Exception, SystemExit) as exc:  # a failure is counted, never fatal
            error = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - started - ((probe.spent - probed) if probe else 0.0)
        outcomes.append({"name": op.name, "seconds": seconds, "error": error, "value": value})
    return outcomes


def check_ops(ops, outcomes) -> None:
    """Replace each outcome's value by the problems its check finds."""
    for op, outcome in zip(ops, outcomes):
        value = outcome.pop("value")
        if outcome["error"]:
            outcome["problems"] = [outcome["error"]]
            continue
        try:
            outcome["problems"] = op.check(value)
        except Exception as exc:  # a malformed result is a wrong answer
            outcome["problems"] = [f"check raised {type(exc).__name__}: {exc}"]


def summarize(outcomes: list[dict]) -> dict:
    failed = sum(1 for o in outcomes if o["problems"])
    return {
        "wall_s": sum(o["seconds"] for o in outcomes),
        "attempted": len(outcomes),
        "failed": failed,
        "ops": [{k: o[k] for k in ("name", "seconds", "problems")} for o in outcomes],
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # ru_maxrss is KiB on Linux


def main(argv=None) -> int:
    probe = SpeedProbe()
    probe.burst()
    started = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "decatkit" / "__init__.py").is_file():
        print(f"error: no decatkit source under {SRC}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK / "tmp"))
    try:
        import workloads  # imports decatkit: part of set-up

        import decatkit
        if pathlib.Path(decatkit.__file__).resolve().parent != SRC / "decatkit":
            print(f"error: decatkit imported from {decatkit.__file__}, not {SRC}", file=sys.stderr)
            return 3
        ops = workloads.build(args.workload, args.seed, workdir)
        raw_setup_s = perf_counter() - started
        probe.burst()
        result = {"setup_s": raw_setup_s * probe.factor(), "raw_setup_s": raw_setup_s,
                  "setup_speed": probe.factor()}
        if not args.setup_only:
            result.update(_measure(ops, args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    pathlib.Path(args.result).write_text(json.dumps(result))
    return 0


def _measure(ops, args) -> dict:
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    probe = SpeedProbe()
    try:
        probe.burst()
        with probe:
            outcomes = run_ops(ops, tracer, probe)
        probe.burst()
    finally:
        if tracer:
            tracer.uninstall()
    peak = peak_rss_mib()
    check_ops(ops, outcomes)
    result = {"peak_rss_mib": peak, **summarize(outcomes)}
    result["raw_wall_s"] = result["wall_s"]
    result["wall_s"] *= probe.factor()
    result["speed"] = probe.factor()
    result["probe_samples"] = len(probe.samples)
    if tracer:
        result["layers"] = tracer.layer_metrics()
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(traces / f"{args.workload}-seed{args.seed}.jsonl")
    return result


if __name__ == "__main__":
    sys.exit(main())
