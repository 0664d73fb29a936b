"""Command-line surface: solve, cross-check, run the DARP pipeline, generate.

Exit codes: 0 success, 1 infeasible, 2 input error, 3 guard exceeded.
Every solution written to disk is validated first.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from .errors import GuardExceededError, InfeasibleError, InputError, PlanChainError
from .model import ChainingInstance
from . import instances as io
from . import oracle
from .chainsolve import solve_chaining, validate_chains
from .darp import evaluate_metrics, insertion_heuristic, run_proposed, run_single_batch, validate_darp_solution

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_GUARD = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="planchain", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    chain = sub.add_parser("chain", help="plan chaining solvers")
    chain_sub = chain.add_subparsers(dest="subcommand", required=True)

    solve = chain_sub.add_parser("solve", help="solve a chaining instance exactly")
    solve.add_argument("--instance", required=True)
    solve.add_argument("--policy", help="fleet | cost | cost-waitcap:D | cost-waitpen:A (default: the instance's)")
    solve.add_argument("--out", required=True)

    orc = chain_sub.add_parser("oracle", help="brute-force reference optimum (small instances)")
    orc.add_argument("--instance", required=True)

    dar = sub.add_parser("darp", help="dial-a-ride pipeline")
    darp_sub = dar.add_subparsers(dest="subcommand", required=True)
    run = darp_sub.add_parser("run", help="solve a DARP instance")
    run.add_argument("--instance", required=True)
    run.add_argument("--method", choices=("proposed", "ih", "single-batch"), required=True)
    run.add_argument("--batch-secs", type=int, help="batch length in ticks (proposed method)")
    run.add_argument("--time-limit-ms", type=int, help="per-batch budget for building request groups")
    run.add_argument("--wait-cap", type=int, help="optional chaining wait cap in ticks")
    run.add_argument("--out", required=True)
    run.add_argument("--metrics-dir")

    gen = sub.add_parser("gen", help="generate a random instance")
    gen_sub = gen.add_subparsers(dest="subcommand", required=True)
    genc = gen_sub.add_parser("chain", help="random chaining instance")
    genc.add_argument("--seed", type=int, required=True)
    genc.add_argument("--plans", type=int, default=5)
    genc.add_argument("--vehicles", type=int, default=2)
    genc.add_argument("--locations", type=int, default=6)
    genc.add_argument("--horizon", type=int, default=60)
    genc.add_argument("--d-max-range", default="0:10", help="lo:hi delay budget range")
    genc.add_argument("--fleet", choices=("counted", "dedicated"), default="counted")
    genc.add_argument("--policy", default="cost")
    genc.add_argument("--out", required=True)
    gend = gen_sub.add_parser("darp", help="random DARP instance")
    gend.add_argument("--seed", type=int, required=True)
    gend.add_argument("--requests", type=int, default=8)
    gend.add_argument("--locations", type=int, default=8)
    gend.add_argument("--horizon", type=int, default=40)
    gend.add_argument("--delay-range", default="0:15", help="lo:hi request delay range")
    gend.add_argument("--capacity", type=int, default=4)
    gend.add_argument("--fleet-size", type=int, help="explicit fleet size; omit for the auto fleet")
    gend.add_argument("--out", required=True)
    return parser


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(x) for x in text.split(":"))
    except ValueError as exc:
        raise InputError(f"bad range {text!r}, expected lo:hi") from exc
    if lo > hi:
        raise InputError(f"bad range {text!r}: lo > hi")
    return lo, hi


def _check_output(path, *, makes_dirs: bool = False) -> None:
    """Raise ``InputError`` unless ``path`` can be written later.

    A file needs a writable directory above it; a directory that the
    writer creates with its parents (``makes_dirs``) needs its nearest
    existing ancestor to be one.  Checked before loading and solving, so
    a bad output path fails at once and leaves no partial output behind.
    """
    path = Path(path)
    if makes_dirs:
        folder = next(p for p in (path, *path.parents) if p.exists())
    elif path.is_dir():
        raise InputError(f"cannot write {path}: it is a directory")
    else:
        folder = path.parent
    if not folder.is_dir() or not os.access(folder, os.W_OK | os.X_OK):
        raise InputError(f"cannot write {path}: {folder} is not a writable directory")


def _cmd_chain_solve(args) -> int:
    _check_output(args.out)
    instance = io.load_instance(args.instance)
    if not isinstance(instance, ChainingInstance):
        raise InputError(f"{args.instance} is not a chaining instance")
    if args.policy:
        instance = instance.with_policy(io.policy_from_cli(args.policy))
    started = time.perf_counter()
    solution = solve_chaining(instance)
    solve_ms = (time.perf_counter() - started) * 1000.0
    report = validate_chains(instance, solution.chains, solution.objective)
    if not report.ok:
        for issue in report.issues:
            print(f"validation: {issue.message}", file=sys.stderr)
        raise InputError("solver produced an invalid solution")  # pragma: no cover
    io.save_json(args.out, io.chain_solution_to_dict(solution, instance.policy))
    print(f"objective {solution.objective} with {len(solution.chains)} chains -> {args.out}")
    print(f"solved in {solve_ms:.0f} ms", file=sys.stderr)
    return EXIT_OK


def _cmd_chain_oracle(args) -> int:
    instance = io.load_instance(args.instance)
    if not isinstance(instance, ChainingInstance):
        raise InputError(f"{args.instance} is not a chaining instance")
    result = oracle.brute_force_optimal(instance)
    if result.objective is None:
        print(f"infeasible after examining {result.covers_examined} covers")
        return EXIT_INFEASIBLE
    print(f"optimal objective {result.objective} ({result.covers_examined} feasible covers)")
    return EXIT_OK


def _cmd_darp_run(args) -> int:
    _check_output(args.out)
    if args.metrics_dir:
        _check_output(args.metrics_dir, makes_dirs=True)
    instance = io.load_instance(args.instance)
    if isinstance(instance, ChainingInstance):
        raise InputError(f"{args.instance} is not a DARP instance")
    chain_policy = None
    if args.wait_cap is not None:
        from .model import TravelCostWaitCapped

        chain_policy = TravelCostWaitCapped(args.wait_cap)
    started = time.perf_counter()
    if args.method == "ih":
        solution = insertion_heuristic(instance)
    elif args.method == "single-batch":
        solution = run_single_batch(instance, time_limit_ms=args.time_limit_ms, chain_policy=chain_policy)
    else:
        if args.batch_secs is None:
            raise InputError("--batch-secs is required for the proposed method")
        solution = run_proposed(
            instance,
            args.batch_secs,
            time_limit_ms=args.time_limit_ms,
            chain_policy=chain_policy,
        )
    comp_ms = int((time.perf_counter() - started) * 1000)
    issues = validate_darp_solution(instance, solution)
    if issues:  # pragma: no cover - solver output is validated defensively
        for issue in issues:
            print(f"validation: {issue}", file=sys.stderr)
        raise InputError("solver produced an invalid DARP solution")
    io.save_json(args.out, io.darp_solution_to_dict(solution))
    if args.metrics_dir:
        metrics = evaluate_metrics(solution, instance)
        io.write_metrics_files(args.metrics_dir, solution, metrics, comp_ms)
    print(
        f"method {solution.method}: objective {solution.objective}, "
        f"{len(solution.routes)} vehicles, {comp_ms} ms -> {args.out}"
    )
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.subcommand == "chain":
        params = io.ChainGenParams(
            seed=args.seed,
            plans=args.plans,
            vehicles=args.vehicles,
            locations=args.locations,
            horizon=args.horizon,
            d_max_range=_parse_range(args.d_max_range),
            fleet=args.fleet,
            policy=io.policy_from_cli(args.policy),
        )
        generate, load = io.generate_chain_instance, io.chain_instance_from_dict
    else:
        params = io.DarpGenParams(
            seed=args.seed,
            requests=args.requests,
            locations=args.locations,
            horizon=args.horizon,
            delay_range=_parse_range(args.delay_range),
            capacity=args.capacity,
            fleet_size=args.fleet_size,
        )
        generate, load = io.generate_darp_instance, io.darp_instance_from_dict
    doc = generate(params)
    load(doc)  # never write a document that the loader rejects
    io.save_json(args.out, doc)
    print(f"wrote {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "chain" and args.subcommand == "solve":
            return _cmd_chain_solve(args)
        if args.command == "chain" and args.subcommand == "oracle":
            return _cmd_chain_oracle(args)
        if args.command == "darp":
            return _cmd_darp_run(args)
        if args.command == "gen":
            return _cmd_gen(args)
        parser.error(f"unknown command {args.command}")
    except GuardExceededError as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PlanChainError as exc:  # pragma: no cover - defensive
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
