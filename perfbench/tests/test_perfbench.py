"""Tests of the benchmark itself: answer checks, tracing and the run contract.

    python3 -m pytest -q perfbench/tests
"""

import json
import pathlib
import shutil
import signal
import subprocess
import sys
import time

import passrun
import speed
import tracer as tracing
import workloads
from decatkit import cli, cohomology, cube, exactlin, functors, liealg, operads, verma, weights

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MODULES = (cli, cohomology, cube, exactlin, functors, liealg, operads, verma, weights)


def small_ops(workdir: pathlib.Path) -> list:
    """A few seconds of every kind of operation the workloads run."""
    workdir.mkdir(exist_ok=True)
    return [
        workloads.khovanov_op(workdir, "T2_4", workloads.write_word(workdir, "T2_4", workloads.torus_word(4)),
                              "Q", None, workloads.torus_homology(4), 2),
        workloads.khovanov_op(workdir, "T2_5", workloads.write_word(workdir, "T2_5", workloads.torus_word(5)),
                              "Fp", 1009, workloads.torus_homology(5), 1),
        workloads.khovanov_op(workdir, "figure_eight", "figure_eight", "Q", None,
                              workloads.CATALOGUE_HOMOLOGY["figure_eight"], 1),
        workloads.relations_op(workdir, 2),
        workloads.euler_op("hopf", cube.DIAGRAMS["hopf"], 3, 2),
        workloads.reidemeister_op("R2", cube.DIAGRAMS["unlink2"], cube.DIAGRAMS["twist_pair"], 3),
        workloads.operad_op(workdir, 60, 7),
        workloads.blocks_op(workdir, 2, 31, 1),
        workloads.kostant_op(3, (2, 1, 0)),
    ]


def run_and_check(ops, tracer=None) -> dict:
    outcomes = passrun.run_ops(ops, tracer)
    passrun.check_ops(ops, outcomes)
    return passrun.summarize(outcomes)


def snapshot() -> dict:
    """Every attribute of every decatkit module and class, by identity."""
    holders = list(MODULES) + [v for m in MODULES for v in vars(m).values() if isinstance(v, type)]
    return {(id(h), name): value for h in holders for name, value in vars(h).items()}


def test_small_ops_pass(tmp_path):
    summary = run_and_check(small_ops(tmp_path))
    assert summary["failed"] == 0, [op for op in summary["ops"] if op["problems"]]


def test_wrong_answer_counts_as_failure(tmp_path):
    trefoil = workloads.write_word(tmp_path, "T2_3", workloads.torus_word(3))
    wrong_dims = workloads.torus_homology(4)  # T(2,3) has {0: 2, 2: 1, 3: 1}
    ops = [
        workloads.khovanov_op(tmp_path, "right", trefoil, "Q", None, workloads.torus_homology(3), 1),
        workloads.khovanov_op(tmp_path, "wrong", trefoil, "Q", None, wrong_dims, 1),
        workloads.Op("raises", lambda: 1 // 0, lambda _: []),
        workloads.khovanov_op(tmp_path, "missing", "no-such-diagram", "Q", None, {0: 2}, 1),
        workloads.kostant_op(2, (3, 0)),
    ]
    summary = run_and_check(ops)
    assert summary["attempted"] == 5
    assert summary["failed"] == 3
    failed = {op["name"] for op in summary["ops"] if op["problems"]}
    assert failed == {"khovanov wrong Q", "raises", "khovanov missing Q"}


def test_traced_run_gives_identical_documents_and_verdicts(tmp_path):
    plain = run_and_check(small_ops(tmp_path / "plain"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_and_check(small_ops(tmp_path / "traced"), tracer)
    finally:
        tracer.uninstall()
    assert [(op["name"], op["problems"]) for op in plain["ops"]] == [(op["name"], op["problems"]) for op in traced["ops"]]
    documents = sorted(p.name for p in (tmp_path / "plain").glob("*.json"))
    assert len(documents) == 6
    for name in documents:
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes(), name


def test_wrapped_attributes_are_restored(tmp_path):
    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    assert verma.matrix_rank is exactlin.matrix_rank is not before[(id(verma), "matrix_rank")]
    assert cohomology.simple_quotient is verma.simple_quotient is not before[(id(verma), "simple_quotient")]
    try:
        run_and_check([workloads.Op("raises", lambda: 1 // 0, lambda _: []), workloads.kostant_op(2, (3, 0))], tracer)
    finally:
        tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_layer_self_times_fit_in_wall_time(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        summary = run_and_check(small_ops(tmp_path), tracer)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    assert [name for name, _, _ in tracing.LAYER_METRICS] == list(layers)
    self_times = [v for name, v in layers.items() if name.endswith(".self_s")]
    assert all(v >= 0 for v in self_times)
    assert 0 < sum(self_times) <= summary["wall_s"]
    assert layers["cli.run.calls"] == 6
    assert layers["exactlin.matrix_rank.Q.calls"] > 0 and layers["exactlin.matrix_rank.Fp.calls"] > 0
    assert layers["operads.run_operad_checks.trials"] >= 60
    spans = tmp_path / "spans.jsonl"
    tracer.write_spans(spans)
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    assert {r["op"] for r in records} == set(range(len(summary["ops"])))
    assert all(r["start"] <= r["end"] for r in records)


def test_probe_restores_the_alarm_handler_and_stops_its_timer():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        time.sleep(3 * speed.INTERVAL_S)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.samples and probe.factor() > 0


def test_probe_time_is_left_out_of_operation_times():
    def spin():
        end = time.perf_counter() + 0.4
        while time.perf_counter() < end:
            pass

    probe = speed.SpeedProbe()
    started = time.perf_counter()
    with probe:
        outcomes = passrun.run_ops([workloads.Op("spin", spin, lambda _: [])], probe=probe)
    elapsed = time.perf_counter() - started
    assert len(probe.samples) >= 4
    assert outcomes[0]["seconds"] + probe.spent <= elapsed
    assert outcomes[0]["seconds"] >= 0.4 - probe.spent


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads._BUILDERS)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert per_layer == tracing.LAYER_METRICS + [("trace_overhead", "ratio", "lower")]
    assert [m["name"] for m in SPEC["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mib"]


def test_hand_answers_agree_with_independent_counts():
    assert sum(workloads.relation_placements(rel, k) for k in (2, 3, 4) for rel in workloads.RELATION_CORE_LENGTH) == 1266
    for name, value in workloads.CATALOGUE_EULER_K2.items():
        assert cube.oracle_euler_k2(cube.DIAGRAMS[name]) == value, name
    assert workloads.weyl_dimension((4, 2, 0)) == 8 and workloads.weyl_dimension((3, 2, 1, 0)) == 1


def test_seed_fixes_the_inputs(tmp_path):
    def names(seed):
        return [op.name for op in workloads.build("khovanov", seed, tmp_path)]

    assert names(4) == names(4)
    assert names(4) != names(5)
    assert len(names(4)) == 23


def test_run_fails_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "kostant", "--seed", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
