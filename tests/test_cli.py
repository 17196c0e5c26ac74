"""Command-line surface: exit codes, JSON document shape, determinism."""

import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from decatkit import cli, cohomology, cube, operads

# sha256 of the `relations --k K --all` documents as the LaurentPoly-entry
# functor layer wrote them; the flat graded terms must not change a byte.
RELATIONS_ALL_SHA256 = {
    2: "73235f530c5747c7855e97279e765a45518d5cd913c518e840e984e145578f22",
    3: "15ffcbd83a91f878958e2f6d9b721ecb315256306904c566678e29cc6edb75b9",
    4: "ff0bf1b0a0a451157dcbe3a0043a484fb4c36a9934331a270dfd56071378fcd8",
}

# sha256 of `blocks` sweep documents as written when every pair ran a full
# slice and every module built whole action matrices.
BLOCKS_SHA256 = {
    (3, 31): "bfd4f744cb993e0be4e5198b82f156264646b1222505e72e4277a2adbc09280c",
    (4, 37): "af7a7d06fe58a249d7f8d4947b45f2e5e6c1d4e7d1535732fa24d823dfb20d21",
}

# sha256 of `cohomology` documents as written when finite modules stored
# whole action matrices and slices reduced each entry through `field.of`;
# reading every module through its columns must not change a byte. The
# F_37 document was hashed when every slice was its own complex.
COHOMOLOGY_SHA256 = {
    "--n 3 --lam 4,2,0": "aeebc7a0f39c7ee4f4d3502dbf6b8212c51f435681b7f8f8cbbad3e3386930da",
    "--n 3 --lam 3,1,0 --field Fp --p 31": "ca131e51c766e32c5301517225899ba9801105e10a68a48962e42fdca5558545",
    "--n 4 --lam 3,2,1,0": "74493e8e4269ea74725345771a5e69a2918d487746bb19fcda0cc70da24c5268",
    "--n 4 --lam 3,2,1,0 --field Fp --p 37": "3243835e460082e820a844f4ead2b5e8ba99eaf3ef717df2c7f223fd85346156",
}

# sha256 of further documents as written when relation sides were built
# from matrix products and every document went through `json.dumps`.
DOCUMENT_SHA256 = {
    "khovanov --k 2 --word torus_2_8 --oracle --field Fp --p 1031": (
        "4d5edc9c7e0474cd7a9395645276526561dbdd345f2f282f48b7fba15b79e225"
    ),
    "selftest": "6bb389cfb0e826f7c9f7c6e6ef1808c122d8e0ca266593820f3539fb3536988d",
    "operad-check --budget 200": "b66bf3a31ba31c478e3c640a127e88c84f803c6d4489a60cf4f29800ae17be65",
    "relations --k 5 --relation R5 --all": "abd8382f3ffbde2d8dc8ab337bd76ef1557d7459210ddaee0c209e0e9a355700",
}


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_relations_pass(capsys):
    code, doc = run_json(capsys, ["relations", "--k", "2"])
    assert code == 0
    assert doc["schema"] == 1
    assert doc["subcommand"] == "relations"
    assert doc["passed"] is True
    for rel in ("R1", "R2", "R3", "R4", "R5", "L5"):
        assert doc[rel] is True


def test_relations_single_relation(capsys):
    code, doc = run_json(capsys, ["relations", "--k", "3", "--relation", "R4"])
    assert code == 0
    assert doc["R4"] is True
    (report,) = doc["detail"]["R4"]
    assert report["detail"]["normalization_holding"] == [6]


@pytest.mark.parametrize("k", sorted(RELATIONS_ALL_SHA256))
def test_relations_all_documents_are_pinned(tmp_path, k):
    out = tmp_path / "relations.json"
    assert cli.run(["relations", "--k", str(k), "--all", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RELATIONS_ALL_SHA256[k]


@pytest.mark.parametrize("n,p", sorted(BLOCKS_SHA256))
def test_blocks_sweep_documents_are_pinned(tmp_path, n, p):
    out = tmp_path / "blocks.json"
    assert cli.run(["blocks", "--n", str(n), "--p", str(p), "--max", "2", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BLOCKS_SHA256[n, p]


@pytest.mark.parametrize("args", sorted(COHOMOLOGY_SHA256))
def test_cohomology_documents_are_pinned(tmp_path, args):
    out = tmp_path / "cohomology.json"
    assert cli.run(["cohomology", *args.split(), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == COHOMOLOGY_SHA256[args]


@pytest.mark.parametrize("args", sorted(DOCUMENT_SHA256))
def test_further_documents_are_pinned(tmp_path, args):
    out = tmp_path / "document.json"
    assert cli.run([*args.split(), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DOCUMENT_SHA256[args]


def test_stdout_and_out_file_bytes_agree(tmp_path, capsys):
    argv = ["blocks", "--n", "3", "--p", "31", "--max", "2"]
    assert cli.run(argv) == 0
    printed = capsys.readouterr().out.encode()
    out = tmp_path / "blocks.json"
    assert cli.run([*argv, "--out", str(out)]) == 0
    assert printed == out.read_bytes()


def test_relations_unknown_relation_is_config_error(capsys):
    assert cli.run(["relations", "--k", "2", "--relation", "R9"]) == 2
    assert "unknown relation" in capsys.readouterr().err


def test_relations_k_guard(capsys):
    assert cli.run(["relations", "--k", "1"]) == 2


def test_blocks_pair(capsys):
    code, doc = run_json(
        capsys, ["blocks", "--n", "2", "--p", "31", "--a", "0,1", "--b", "1,0"]
    )
    assert code == 0
    report = doc["report"]
    assert report["vanishes"] is False
    assert report["eblock2"] is True
    assert report["dims"] == [1, 1]


def test_blocks_pair_requires_both_endpoints(capsys):
    assert cli.run(["blocks", "--n", "2", "--p", "31", "--a", "0,1"]) == 2


def test_blocks_sweep(capsys):
    code, doc = run_json(capsys, ["blocks", "--n", "2", "--p", "31", "--max", "1"])
    assert code == 0
    assert doc["passed"] is True
    assert doc["counterexamples"] == []
    assert len(doc["matrix"]) == 16


def test_small_prime_guard(capsys):
    # Floor is p > 4n: 7 does not exceed 8.
    assert cli.run(["blocks", "--n", "2", "--p", "7", "--max", "1"]) == 2
    assert "4" in capsys.readouterr().err


def test_small_prime_override(capsys):
    code = cli.run(["blocks", "--n", "2", "--p", "7", "--max", "1", "--allow-small-p"])
    captured = capsys.readouterr()
    assert code == 0
    assert "large-prime floor" in captured.err


def test_nonprime_rejected(capsys):
    assert cli.run(["blocks", "--n", "2", "--p", "9", "--max", "1"]) == 2
    assert "not prime" in capsys.readouterr().err


def test_bad_weight_rejected(capsys):
    assert cli.run(["blocks", "--n", "2", "--p", "31", "--a", "x,1", "--b", "1,0"]) == 2
    assert cli.run(["blocks", "--n", "2", "--p", "31", "--a", "1", "--b", "1,0"]) == 2


def test_cohomology_table(capsys):
    code, doc = run_json(
        capsys, ["cohomology", "--n", "2", "--lam", "2,0", "--p", "31", "--field", "Fp"]
    )
    assert code == 0
    entries = {(e["degree"], tuple(e["weight"])): e["dim"] for e in doc["entries"]}
    assert entries == {(0, (2, 0)): 1, (0, (0, 2)): 1, (1, (0, 2)): 1}


def test_cohomology_rational_default(capsys):
    code, doc = run_json(capsys, ["cohomology", "--n", "2", "--lam", "3,0"])
    assert code == 0
    assert doc["field"] == "Q"
    assert doc["depth"] >= 1


def test_cohomology_fp_requires_p(capsys):
    assert cli.run(["cohomology", "--n", "2", "--lam", "2,0", "--field", "Fp"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "--n", "2", "--lam", "3,0", "--field", "Q", "--p", "4"],
        ["cohomology", "--n", "2", "--lam", "3,0", "--p", "31"],
        ["khovanov", "--k", "2", "--word", "trefoil", "--field", "Q", "--p", "4"],
        ["khovanov", "--k", "2", "--word", "trefoil", "--p", "31"],
    ],
)
def test_rational_run_refuses_a_modulus(capsys, argv):
    # A computation over Q must not be recorded under a modulus.
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "requires --field Fp" in captured.err


def test_khovanov_trefoil_with_oracle(capsys):
    code, doc = run_json(
        capsys, ["khovanov", "--k", "2", "--word", "trefoil", "--oracle"]
    )
    assert code == 0
    assert doc["euler"] == 2
    assert doc["dims"] == [2, 0, 1, 1]
    assert doc["min_degree"] == 0
    assert doc["oracle_matches"] is True


def test_khovanov_torus_2_30_reach(capsys):
    # 2^30 resolutions; the tangle complexes and the oracle's states stay at
    # O(n) matchings.
    word = pathlib.Path(__file__).resolve().parent.parent / "words" / "torus_2_30.sw"
    argv = ["khovanov", "--k", "2", "--word", str(word), "--oracle", "--field", "Fp", "--p", "1031"]
    started = time.monotonic()
    code, doc = run_json(capsys, argv)
    elapsed = time.monotonic() - started
    assert code == 0
    assert (doc["crossings"], doc["components"], doc["euler"], doc["oracle_euler"]) == (30, 2, 4, 4)
    assert doc["oracle_matches"] is True
    # Closed form for even n: {0: 2, 2..n-1: 1, n: 2}.
    assert doc["min_degree"] == 0 and doc["dims"] == [2, 0] + [1] * 28 + [2]
    assert elapsed < 10, elapsed


def test_blocks_pair_outside_root_cone_builds_no_module(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a pair outside the root cone built a module")

    monkeypatch.setattr(cohomology, "TruncatedVerma", refuse)
    code, doc = run_json(capsys, ["blocks", "--n", "2", "--p", "31", "--a", "1,0", "--b", "0,1"])
    assert code == 0
    report = doc["report"]
    assert report["cochain_dims"] == [0, 0] and report["dims"] == [0, 0]
    assert report["vanishes"] is True and report["root_order_leq"] is False


def test_khovanov_k3_has_no_homology_block(capsys):
    code, doc = run_json(capsys, ["khovanov", "--k", "3", "--word", "trefoil"])
    assert code == 0
    assert doc["euler"] == 3
    assert "dims" not in doc


def test_khovanov_oracle_requires_k2(capsys):
    assert cli.run(["khovanov", "--k", "3", "--word", "trefoil", "--oracle"]) == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--oracle"], "--oracle is only defined for k=2"),
        (["--field", "Fp", "--p", "31"], "--field Fp is only defined for k=2"),
    ],
    ids=["oracle", "Fp"],
)
def test_khovanov_k3_refuses_k2_options_before_computing(capsys, monkeypatch, argv, message):
    def never(*args, **kwargs):
        raise AssertionError("the transfer matrices ran before the refusal")

    monkeypatch.setattr(cube, "euler_invariant", never)
    assert cli.run(["khovanov", "--k", "3", "--word", "trefoil", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_khovanov_word_file(tmp_path, capsys):
    path = tmp_path / "two_circles.sw"
    path.write_text("# nested pair of circles\ncup(1) cup(3) cap(2) cap(1)\n")
    code, doc = run_json(capsys, ["khovanov", "--k", "2", "--word", str(path)])
    assert code == 0
    assert doc["euler"] == 2


def test_khovanov_unknown_word(capsys):
    assert cli.run(["khovanov", "--k", "2", "--word", "no_such_diagram"]) == 2


def test_khovanov_word_directory_is_config_error(tmp_path, capsys):
    assert cli.run(["khovanov", "--k", "2", "--word", str(tmp_path)]) == 2
    assert "neither a file" in capsys.readouterr().err


def test_khovanov_undecodable_word_file_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.sw"
    path.write_bytes(b"x\xff\xfe")
    assert cli.run(["khovanov", "--k", "2", "--word", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_khovanov_cap_with_no_open_strand_rejected(tmp_path, capsys):
    path = tmp_path / "cap_first.sw"
    path.write_text("cap(1) cup(1)\n")
    assert cli.run(["khovanov", "--k", "2", "--word", str(path)]) == 2
    err = capsys.readouterr().err
    assert "fewer than two are open" in err and "outside" not in err


def test_khovanov_open_word_rejected(tmp_path, capsys):
    path = tmp_path / "open.sw"
    path.write_text("cup(1)\n")
    assert cli.run(["khovanov", "--k", "2", "--word", str(path)]) == 2
    assert "open" in capsys.readouterr().err


def test_operad_check(capsys):
    code, doc = run_json(capsys, ["operad-check", "--budget", "150", "--seed", "5"])
    assert code == 0
    assert doc["passed"] is True
    assert doc["seed"] == 5


def test_operad_check_budget_guard(capsys):
    assert cli.run(["operad-check", "--budget", "0"]) == 2


def test_operad_check_max_arity_guard(capsys):
    assert cli.run(["operad-check", "--max-arity", "0"]) == 2
    assert "--max-arity" in capsys.readouterr().err


def test_operad_check_refuses_exploding_arity_up_front(capsys, monkeypatch):
    def never(**_kwargs):
        raise AssertionError("the checks started")

    monkeypatch.setattr(operads, "run_operad_checks", never)
    assert cli.run(["operad-check", "--max-arity", "1000"]) == 2
    err = capsys.readouterr().err
    assert "100000000000 coordinates" in err and "--max-arity" in err


def test_operad_check_preflight_admits_budget_1200_up_to_arity_43(capsys, monkeypatch):
    started = []

    def stub(seed, budget, max_arity):
        started.append(max_arity)
        return operads.OperadReport(seed=seed, trials={"j_unit": budget}, failures=[])

    monkeypatch.setattr(operads, "run_operad_checks", stub)
    assert cli.run(["operad-check", "--budget", "1200", "--max-arity", "43"]) == 0
    assert cli.run(["operad-check", "--budget", "1200", "--max-arity", "44"]) == 2
    assert started == [43]


def test_cohomology_depth_guard(capsys):
    assert cli.run(["cohomology", "--n", "2", "--lam", "3,0", "--depth", "-1"]) == 2
    assert "--depth" in capsys.readouterr().err


def test_blocks_n_guard(capsys):
    assert cli.run(["blocks", "--n", "0", "--p", "31"]) == 2
    assert "--n" in capsys.readouterr().err


def test_blocks_max_guard(capsys):
    assert cli.run(["blocks", "--n", "2", "--p", "31", "--max", "-1"]) == 2
    assert "--max" in capsys.readouterr().err


def test_selftest(capsys):
    code, doc = run_json(capsys, ["selftest"])
    assert code == 0
    assert doc["passed"] is True
    assert all(doc["checks"].values())


def test_output_file_is_deterministic(tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for out in (out_a, out_b):
        code = cli.run(
            ["blocks", "--n", "2", "--p", "31", "--max", "1", "--out", str(out)]
        )
        assert code == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_argparse_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.run(["blocks", "--n"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.run(["no-such-subcommand"])
    assert exc.value.code == 2
    # `--field` admits Q and Fp only.
    for argv in (
        ["cohomology", "--n", "2", "--lam", "3,0", "--field", "Z"],
        ["khovanov", "--k", "2", "--word", "trefoil", "--field", "Z"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.run(argv)
        assert exc.value.code == 2


# Documents one process writes in turn through one parser, after an argparse
# refusal and a ConfigError, each with its pinned sha256 from above.
SHARED_PARSER_RUNS = [
    (["blocks", "--n", "3", "--p", "31", "--max", "2"], BLOCKS_SHA256[3, 31]),
    (["cohomology", "--n", "3", "--lam", "4,2,0"], COHOMOLOGY_SHA256["--n 3 --lam 4,2,0"]),
    (
        ["khovanov", "--k", "2", "--word", "torus_2_8", "--oracle", "--field", "Fp", "--p", "1031"],
        DOCUMENT_SHA256["khovanov --k 2 --word torus_2_8 --oracle --field Fp --p 1031"],
    ),
]


def test_one_parser_serves_every_run_of_a_process(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        cli.run(["khovanov", "--k", "2", "--word", "torus_2_8", "--field", "Z"])
    assert exc.value.code == 2
    assert cli.run(["khovanov", "--k", "2", "--word", "torus_2_8", "--field", "Fp"]) == 2
    assert "--field Fp requires --p" in capsys.readouterr().err
    shared = []
    for i, (argv, _) in enumerate(SHARED_PARSER_RUNS):
        out = tmp_path / f"shared-{i}.json"
        assert cli.run([*argv, "--out", str(out)]) == 0
        shared.append(out.read_bytes())
    for (argv, sha256), document in zip(SHARED_PARSER_RUNS, shared):
        # The first run of a process builds its parser afresh.
        cli.build_parser.cache_clear()
        out = tmp_path / "fresh.json"
        assert cli.run([*argv, "--out", str(out)]) == 0
        assert document == out.read_bytes()
        assert hashlib.sha256(document).hexdigest() == sha256


def test_no_default_leaks_between_subcommands():
    # The shared parser, parsing every subcommand in turn, reads each
    # command line as a parser built for it alone does.
    argvs = [
        ["blocks", "--n", "3", "--p", "7", "--max", "1", "--allow-small-p", "--out", "x.json"],
        ["khovanov", "--k", "2", "--word", "trefoil", "--field", "Fp", "--p", "1031", "--oracle"],
        ["cohomology", "--n", "2", "--lam", "3,0"],
        ["relations", "--k", "2"],
        ["operad-check", "--seed", "3"],
        ["selftest"],
        ["blocks", "--n", "2", "--p", "31"],
    ]
    for argv in argvs:
        assert vars(cli.build_parser().parse_args(argv)) == vars(cli.build_parser.__wrapped__().parse_args(argv))
    cohomology_args = cli.build_parser().parse_args(["cohomology", "--n", "2", "--lam", "3,0"])
    assert (cohomology_args.field, cohomology_args.p, cohomology_args.out) == ("Q", None, None)
    assert cli.build_parser().parse_args(["selftest"]).n is None


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="POSIX signal")
def test_closed_stdout_ends_the_cli_quietly():
    # The sweep document is far larger than a pipe buffer, so the writer is
    # still writing when the reader goes away.
    root = pathlib.Path(__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "decatkit.cli", "blocks", "--n", "4", "--p", "37", "--max", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=str(root / "src")),
    )
    assert proc.stdout.read(16).startswith(b"{")
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == -signal.SIGPIPE
