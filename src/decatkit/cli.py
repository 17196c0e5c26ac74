"""Command line front end.

Every subcommand runs one verification surface and emits a single JSON
document (stdout, or --out FILE) with a top-level `schema: 1` field. Output
is deterministic given the arguments and seed: keys are sorted and nothing
time- or host-dependent is written.

Exit status: 0 when every checked assertion holds, 1 when a witness against
one was found (the document carries it), 2 for configuration errors. A reader
that closes stdout early ends the process by SIGPIPE, as it ends Unix filters:
status 141 in a shell, and nothing on stderr.

Weights are passed on the command line as comma-separated shifted entries,
for example `--b 3,1,0`.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import pathlib
import signal
import sys

from . import cohomology, cube, functors, liealg, operads, verma, weights
from .exactlin import QQ, PrimeField, is_prime


class ConfigError(Exception):
    pass


def _parse_weight(text: str, n: int) -> weights.Weight:
    try:
        entries = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"weight {text!r} is not a comma-separated integer list")
    if len(entries) != n:
        raise ConfigError(f"weight {text!r} has {len(entries)} entries, expected {n}")
    return entries


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ConfigError(f"--p {p} is not prime")


def _large_prime_guard(args: argparse.Namespace) -> None:
    """The modular results are only claimed for p well above the weight data;
    4*n is the enforced floor."""
    _require_prime(args.p)
    if args.p > 4 * args.n:
        return
    if args.allow_small_p:
        print(
            f"warning: p={args.p} is not above the large-prime floor 4*n={4 * args.n}; "
            "results outside the claimed regime",
            file=sys.stderr,
        )
        return
    raise ConfigError(f"p={args.p} must exceed 4*n={4 * args.n} (pass --allow-small-p to override)")


def _field_for(args: argparse.Namespace):
    if args.field == "Q":
        # A rational computation records no modulus.
        if args.p is not None:
            raise ConfigError(f"--p {args.p} requires --field Fp")
        return QQ
    # argparse admits only Q and Fp.
    if args.p is None:
        raise ConfigError("--field Fp requires --p")
    _require_prime(args.p)
    return PrimeField(args.p)


def _pair_doc(r: cohomology.BlocksReport) -> dict:
    # componentwise_geq reads "b dominates a in every coordinate"; the
    # root-order key reads "a lies below b". Both orient a below b.
    return {
        "n": r.n,
        "p": r.p,
        "a": list(r.a),
        "b": list(r.b),
        "cochain_dims": list(r.cochain_dims),
        "dims": [r.homology.get(j, 0) for j in range(len(r.cochain_dims))],
        "vanishes": not r.nonvanishing,
        "componentwise_geq": r.componentwise_leq,
        "root_order_leq": r.root_order_leq,
        "eblock2": r.block_congruent,
        "counterexample": r.counterexample,
    }


def _run_blocks(args: argparse.Namespace) -> tuple[bool, dict]:
    _large_prime_guard(args)
    if (args.a is None) != (args.b is None):
        raise ConfigError("--a and --b must be given together")
    if args.a is not None:
        a = _parse_weight(args.a, args.n)
        b = _parse_weight(args.b, args.n)
        report = cohomology.verify_blocks_vanishing(args.n, a, b, args.p)
        return not report.counterexample, {"report": _pair_doc(report)}
    if args.max < 0:
        raise ConfigError("--max must be nonnegative")
    sweep = cohomology.blocks_sweep(args.n, args.p, args.max)
    doc = {
        "n": sweep.n,
        "p": sweep.p,
        "max_entry": sweep.max_entry,
        "pairs": sweep.pairs,
        "nonvanishing_pairs": sweep.nonvanishing_pairs,
        "counterexamples": [_pair_doc(r) for r in sweep.counterexamples],
        "componentwise_always": sweep.componentwise_always,
        "root_order_always": sweep.root_order_always,
        "nonvanishing": [_pair_doc(r) for r in sweep.nonvanishing],
        "matrix": [
            {"a": list(r.a), "b": list(r.b), "vanishes": not r.nonvanishing, "eblock2": r.block_congruent}
            for r in sweep.reports
        ],
    }
    return not sweep.counterexamples, doc


def _run_cohomology(args: argparse.Namespace) -> tuple[bool, dict]:
    lam = _parse_weight(args.lam, args.n)
    field = _field_for(args)
    if args.field == "Fp":
        _large_prime_guard(args)
    depth = args.depth
    if depth is not None and depth < 0:
        raise ConfigError("--depth must be nonnegative")
    if depth is None:
        # Window deep enough to reach every permutation of the entries.
        depth = weights.root_height(tuple(x - y for x, y in zip(lam, sorted(lam))))
        if depth is None:
            raise ConfigError("--depth required for this weight")
    module = verma.TruncatedVerma(args.n, lam, depth, field)
    table = cohomology.cohomology_table(module)
    entries = [
        {"degree": deg, "weight": list(mu), "dim": dim}
        for (deg, mu), dim in sorted(table.items())
    ]
    doc = {
        "n": args.n,
        "lam": list(lam),
        "field": args.field,
        "p": args.p,
        "depth": depth,
        "truncation_losses": len(module.truncation_losses),
        "entries": entries,
        "total_dim": sum(table.values()),
    }
    return True, doc


def _run_relations(args: argparse.Namespace) -> tuple[bool, dict]:
    if args.k < 2:
        raise ConfigError("--k must be at least 2")
    wanted = [args.relation] if args.relation else list(functors.RELATION_IDS)
    for rel in wanted:
        if rel not in functors.RELATION_IDS:
            raise ConfigError(f"unknown relation {rel!r}; known: {functors.RELATION_IDS}")
    doc: dict = {"k": args.k, "ambient_sweep": bool(args.all), "detail": {}}
    ok = True
    for rel in wanted:
        if args.all:
            reports = functors.verify_relation_everywhere(rel, args.k)
        else:
            reports = [functors.verify_relation(rel, args.k)]
        holds = all(r.holds for r in reports)
        ok = ok and holds
        doc[rel] = holds
        doc["detail"][rel] = [dataclasses.asdict(r) for r in reports]
    return ok, doc


def _load_word_text(spec: str) -> str:
    path = pathlib.Path(spec)
    if path.is_file():
        try:
            raw = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"--word file {spec!r} is unreadable: {exc}")
    elif spec in cube.DIAGRAMS:
        raw = cube.DIAGRAMS[spec]
    else:
        raise ConfigError(f"--word {spec!r} is neither a file nor a bundled diagram name")
    lines = [line.split("#", 1)[0] for line in raw.splitlines()]
    return " ".join(" ".join(lines).split())


def _run_khovanov(args: argparse.Namespace) -> tuple[bool, dict]:
    if args.k < 2:
        raise ConfigError("--k must be at least 2")
    if args.k != 2 and args.oracle:
        raise ConfigError("--oracle is only defined for k=2")
    if args.k != 2 and args.field == "Fp":
        raise ConfigError("--field Fp is only defined for k=2; at k >= 3 nothing is ranked")
    text = _load_word_text(args.word)
    try:
        word = cube.parse_slice_word(text, args.k)
    except ValueError as exc:
        raise ConfigError(f"bad slice word: {exc}")
    if not word.closed:
        raise ConfigError("slice word leaves strands open; a closed diagram is required")
    field = _field_for(args)
    euler = cube.euler_invariant(word, args.k)
    doc: dict = {
        "k": args.k,
        "word": text,
        "crossings": word.n_crossings,
        "negative_crossings": word.n_negative,
        "components": cube.link_components(word),
        "euler": euler,
    }
    ok = True
    if args.k == 2:
        table = cube.khovanov_bigraded_k2(word, field)
        dims: dict[int, int] = {}
        for (h, _), dim in table.items():
            dims[h] = dims.get(h, 0) + dim
        lo = min(dims) if dims else 0
        hi = max(dims) if dims else -1
        doc["min_degree"] = lo
        doc["dims"] = [dims.get(j, 0) for j in range(lo, hi + 1)]
        doc["total_rank"] = sum(dims.values())
        doc["bigraded"] = [[h, q, dim] for (h, q), dim in table.items()]
    if args.oracle:
        oracle = cube.oracle_euler_k2(word)
        doc["oracle_euler"] = oracle
        doc["oracle_matches"] = oracle == euler
        ok = ok and doc["oracle_matches"]
    return ok, doc


# Coordinates an operad check may build: each of its budget // 10 rounds (ten
# checks a round) composes up to max_arity**3 in one associativity trial.
# --budget 1200 --max-arity 43 (9.5 M) takes 7.5 s on a 2-core CPython 3.11 VM.
_OPERAD_COORDINATE_LIMIT = 10**7


def _run_operad_check(args: argparse.Namespace) -> tuple[bool, dict]:
    if args.budget < 1:
        raise ConfigError("--budget must be positive")
    if args.max_arity < 1:
        raise ConfigError("--max-arity must be at least 1")
    estimate = max(1, args.budget // 10) * args.max_arity**3
    if estimate > _OPERAD_COORDINATE_LIMIT:
        raise ConfigError(
            f"--budget {args.budget} --max-arity {args.max_arity} builds up to {estimate} coordinates, "
            f"over the limit {_OPERAD_COORDINATE_LIMIT}; lower --budget or --max-arity"
        )
    report = operads.run_operad_checks(seed=args.seed, budget=args.budget, max_arity=args.max_arity)
    failed = {f["check"] for f in report.failures}
    doc = {
        "seed": report.seed,
        "trials": report.trials,
        "total_trials": report.total_trials,
        "failures": report.failures,
        "checks": {
            name: {"trials": count, "passed": name not in failed} for name, count in report.trials.items()
        },
    }
    return report.passed, doc


def _run_selftest(args: argparse.Namespace) -> tuple[bool, dict]:
    checks: dict[str, object] = {}

    def run_check(name, thunk):
        try:
            checks[name] = bool(thunk())
        except Exception as exc:  # noqa: BLE001 - selftest reports, never raises
            checks[name] = False
            checks[f"{name}.error"] = f"{type(exc).__name__}: {exc}"

    run_check("free_lie_dims", lambda: liealg.free_lie_multilinear_dim(4) == (6, 6))
    run_check(
        "kostant_partition",
        lambda: weights.kostant_partition((0, 0, 0)) == 1
        and weights.kostant_partition((-1, 0, 1)) == 2,
    )

    def verma_ok():
        module = verma.TruncatedVerma(2, (3, 0), 4, QQ)
        for pair in liealg.gl(2).pairs:
            module.action(pair)
        # Window-edge spill, which only `action` records, comes from lowering generators only.
        losses = module.truncation_losses
        return not module.bracket_violations() and bool(losses) and all(i > j for (i, j), _ in losses)

    run_check("verma_bracket", verma_ok)
    run_check(
        "blocks_pair",
        lambda: cohomology.verify_blocks_vanishing(2, (0, 1), (1, 0), 7).homology
        == {0: 1, 1: 1},
    )
    run_check(
        "relations_core",
        lambda: all(functors.verify_relation(rel, 2).holds for rel in functors.RELATION_IDS),
    )

    def cube_ok():
        unknot = cube.parse_slice_word(cube.DIAGRAMS["unknot"], 2)
        trefoil = cube.parse_slice_word(cube.DIAGRAMS["trefoil"], 2)
        dims = cube.khovanov_homology_k2(trefoil, QQ)
        return cube.euler_invariant(unknot, 2) == 2 and dims == {0: 2, 2: 1, 3: 1}

    run_check("khovanov_trefoil", cube_ok)
    run_check("operads", lambda: operads.run_operad_checks(seed=args.seed, budget=200).passed)
    run_check("induction_gl2", lambda: verma.gl2_parabolic_induction_dim(3, 31).dim == 4)

    ok = all(v for key, v in checks.items() if not key.endswith(".error"))
    return ok, {"checks": checks}


_HANDLERS = {
    "blocks": _run_blocks,
    "cohomology": _run_cohomology,
    "relations": _run_relations,
    "khovanov": _run_khovanov,
    "operad-check": _run_operad_check,
    "selftest": _run_selftest,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: argparse builds a fresh namespace per
    parse and no default is mutable, so runs share it."""
    parser = argparse.ArgumentParser(
        prog="decatkit",
        description="Exact verification suite: weight blocks, nilpotent cohomology, "
        "diagram relations, cube invariants, operad axioms.",
    )
    # run reads n on every subcommand.
    parser.set_defaults(n=None)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_out(sp):
        sp.add_argument("--out", help="write the JSON document to this file")

    sp = sub.add_parser("blocks", help="modular vanishing sweep over weight pairs")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--max", type=int, default=3, help="sweep entries 0..max (default 3)")
    sp.add_argument("--a", help="single-pair mode: slice weight, shifted entries")
    sp.add_argument("--b", help="single-pair mode: highest weight, shifted entries")
    sp.add_argument("--allow-small-p", action="store_true")
    add_out(sp)

    sp = sub.add_parser("cohomology", help="nilpotent cohomology table of one module")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--lam", required=True, help="highest weight, shifted entries")
    sp.add_argument("--field", choices=("Q", "Fp"), default="Q")
    sp.add_argument("--p", type=int)
    sp.add_argument("--depth", type=int)
    sp.add_argument("--allow-small-p", action="store_true")
    add_out(sp)

    sp = sub.add_parser("relations", help="exact diagram-relation checks")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--all", action="store_true", help="sweep ambient signatures up to length 4")
    sp.add_argument("--relation", help="check a single relation id")
    add_out(sp)

    sp = sub.add_parser("khovanov", help="cube invariant of a closed slice word")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--word", required=True, help="slice-word file, or a bundled diagram name")
    sp.add_argument("--field", choices=("Q", "Fp"), default="Q")
    sp.add_argument("--p", type=int)
    sp.add_argument("--oracle", action="store_true", help="cross-check euler with the k=2 state sum over circles")
    add_out(sp)

    sp = sub.add_parser("operad-check", help="sampled operad axiom checks")
    sp.add_argument("--budget", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-arity", type=int, default=5)
    add_out(sp)

    sp = sub.add_parser("selftest", help="quick cross-module property battery")
    sp.add_argument("--seed", type=int, default=0)
    add_out(sp)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.n is not None and args.n < 1:
            raise ConfigError("--n must be at least 1")
        ok, payload = _HANDLERS[args.subcommand](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    document = {"schema": 1, "subcommand": args.subcommand, "passed": ok}
    document.update(payload)
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        json.dump(document, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return 0 if ok else 1


def main() -> None:
    if hasattr(signal, "SIGPIPE"):  # POSIX only
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(run())


if __name__ == "__main__":
    main()
