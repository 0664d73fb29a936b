"""planchain benchmark: one workload per run, the result as the last stdout line.

    python3 bench/run.py --workload chain-large --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``src/planchain``
directly; nothing is installed.  With ``--trace 0`` it reports the
end-to-end metrics of BENCHMARK.json, timed by ``HostSpeed`` so that the
shared host's drifting speed is taken out, with ``--trace 1`` the per-layer
metrics, taken from spans recorded around each layer call and written
to ``bench/out/``.  Every timed pass is checked outside its timed region;
a pass that raises or fails its check counts in ``failed``.  See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SETUP_PROBES = 7
PROBE_PERIOD_S = 0.02
# one _probe_work on the machine described in bench/README.md, in a quiet minute
PROBE_REFERENCE_S = 0.0004
WORKLOADS = ("chain-large", "chain-exhaustive", "chain-small-many", "darp-pipeline")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--instances",
        choices=("default", "held-out", "tiny"),
        default="default",
        help="pinned instance set: the benchmark's, one kept for confirming a claim, or a smoke-test size",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class WallClock:
    """Wall time of a ``with`` region, as ``wall`` and ``seconds``."""

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = self.seconds = time.perf_counter() - self.start


_PROBE_TABLE = {i: i * 7 % 1009 for i in range(4096)}


def _probe_work() -> int:
    """A fixed bit of interpreter work: dict lookups, integer arithmetic, a sort.

    Of what it allocates only the list is tracked by the garbage collector,
    so a probe almost never sets off a collection of the program's objects.
    """
    acc = 0
    seen = []
    for i in range(1500):
        acc += _PROBE_TABLE[(i * 31 + acc) & 4095]
        seen.append(acc * 4096 + i)
    seen.sort()
    return acc


class HostSpeed(WallClock):
    """Wall time of a region, rescaled to a host of fixed speed.

    The benchmark runs on a few cores of a shared host, whose speed drifts
    by a third within minutes (bench/README.md, "Host speed"), so plain wall
    times of the same code spread past every bound.  While the region runs,
    a timer signal every ``PROBE_PERIOD_S`` runs ``_probe_work`` between the
    program's bytecodes and times it.  ``seconds`` is the region's wall time
    less the probes, divided by ``slowdown``: the mean probe over
    ``PROBE_REFERENCE_S``, what one probe takes on a quiet host.  A region
    shorter than one period is probed once, after it ends.
    """

    def __enter__(self):
        self.probes: list[float] = []
        self._probing = False
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return super().__enter__()

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        super().__exit__(*exc)
        signal.signal(signal.SIGALRM, self._previous)
        net = self.wall - sum(self.probes)
        if not self.probes:
            self._probe(None, None)
        self.slowdown = statistics.mean(self.probes) / PROBE_REFERENCE_S
        self.seconds = net / self.slowdown

    def _probe(self, signum, frame) -> None:
        if self._probing:  # a probe that outlasted the period; skip the nested one
            return
        self._probing = True
        start = time.perf_counter()
        _probe_work()
        self.probes.append(time.perf_counter() - start)
        self._probing = False


def setup_probe(args) -> float:
    """One set-up in this interpreter: import planchain, generate, load."""
    with HostSpeed() as region:
        from tracer import NullTracer
        from workloads import make_workload

        make_workload(args.workload, args.instances, args.seed).setup(NullTracer())
    return region.seconds


def setup_seconds(args) -> float:
    """Median set-up time of fresh interpreters: import, generate, load."""
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload]
        cmd += ["--seed", str(args.seed), "--seconds", "0", "--instances", args.instances]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def run_passes(workload, solve, seconds, check, clock=HostSpeed):
    """Repeat timed passes until ``seconds`` of them are measured; check each after.

    Returns the ``clock`` of every pass, the solves attempted and those failed.
    """
    regions: list[WallClock] = []
    attempted = failed = 0
    while not regions or sum(r.wall for r in regions) < seconds:
        try:
            with clock() as region:
                output = solve()
        except Exception:
            regions.append(region)
            traceback.print_exc()
            attempted += 1
            failed += 1
            break
        regions.append(region)
        problems = check(output)
        attempted += workload.attempts(output)
        failed += len(problems)
        for problem in problems[:5]:
            print(f"check failed: {problem}", file=sys.stderr)
    return regions, attempted, failed


def layer_metrics(tracer, passes: int, untraced: list[float], traced: list[float]) -> dict:
    """Per-layer numbers: set-up spans once plus the median over traced passes."""

    def per_pass(fn):
        return statistics.median(fn(k) for k in range(passes))

    def seconds(name):
        return sum(tracer.durations(name, None)) + per_pass(lambda k: sum(tracer.durations(name, k)))

    def total(name, key):
        return per_pass(lambda k: sum(tracer.counts(name, key, k)))

    def bnb(k):
        inner = ("variantgen.generate", "variantgen.exhaustive", "flownet.build", "flownet.root_mcf")
        return sum(tracer.durations("chainsolve.solve", k)) - sum(sum(tracer.durations(n, k)) for n in inner)

    batches = per_pass(lambda k: len(tracer.durations("darp.batch_exact", k)))
    proven = total("darp.batch_exact", "proven")
    instance_times = [d for k in range(passes) for d in tracer.durations("instance", k)]
    return {
        "instances.generate_s": seconds("instances.generate"),
        "instances.load_s": seconds("instances.load"),
        "instances.dump_s": seconds("instances.dump"),
        "variantgen.generate_s": seconds("variantgen.generate"),
        "variantgen.exhaustive_s": seconds("variantgen.exhaustive"),
        "variantgen.variants": total("variantgen.generate", "variants") + total("variantgen.exhaustive", "variants"),
        "variantgen.connections": total("variantgen.generate", "connections")
        + total("variantgen.exhaustive", "connections"),
        "flownet.build_s": seconds("flownet.build"),
        "flownet.edges": total("flownet.build", "edges"),
        "flownet.root_mcf_s": seconds("flownet.root_mcf"),
        "flownet.root_bound": total("flownet.root_mcf", "bound"),
        "chainsolve.solve_s": seconds("chainsolve.solve"),
        "chainsolve.bnb_s": per_pass(bnb),
        "chainsolve.relaxations": per_pass(
            lambda k: len(tracer.durations("flownet.root_mcf", k)) + len(tracer.durations("flownet.mcf", k))
        ),
        "chainsolve.nodes": total("chainsolve.solve", "nodes"),
        "chainsolve.infeasible": total("chainsolve.solve", "infeasible"),
        "chainsolve.validate_s": seconds("chainsolve.validate"),
        # the highest percentile with ten samples beyond it needs 400 of them
        "chainsolve.instance_p975_s": (
            statistics.quantiles(instance_times, n=40)[-1] if len(instance_times) >= 400 else 0.0
        ),
        "darp.batch_exact_s": seconds("darp.batch_exact"),
        "darp.batch_exact_max_s": per_pass(lambda k: max(tracer.durations("darp.batch_exact", k), default=0.0)),
        "darp.batches": batches,
        "darp.batch_max_requests": per_pass(lambda k: max(tracer.counts("darp.batch_exact", "requests", k), default=0)),
        "darp.plans": total("darp.batch_exact", "plans"),
        "darp.proven_optimal_frac": proven / batches if batches else 0.0,
        "darp.convert_s": seconds("darp.convert"),
        "darp.chain_s": seconds("darp.chain"),
        "darp.insertion_s": seconds("darp.insertion"),
        "darp.validate_s": seconds("darp.validate"),
        "darp.metrics_s": seconds("darp.metrics"),
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
    }


def environment(args, passes: int) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "instances": args.instances,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "planchain" / "__init__.py").is_file():
        print(f"planchain sources not found under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(setup_probe(args))
        return 0
    from tracer import NullTracer, Tracer
    from workloads import make_workload

    workload = make_workload(args.workload, args.instances, args.seed)
    untimed = NullTracer()
    if not args.trace:
        workload.setup(untimed)
        setup = setup_seconds(args)
        passes, attempted, failed = run_passes(
            workload, workload.solve, args.seconds, lambda out: workload.check(out, untimed)
        )
        metrics = {
            "solve_s": (statistics.median(r.seconds for r in passes), "s"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        env = environment(args, len(passes)) | {
            "solve_wall_s": statistics.median(r.wall for r in passes),
            "slowdown": statistics.median(r.slowdown for r in passes),
        }
    else:
        tracer = Tracer()
        workload.setup(tracer)
        untraced, attempted, failed = run_passes(
            workload, workload.solve, args.seconds / 2, lambda out: workload.check(out, untimed), WallClock
        )

        def traced_pass():
            tracer.pass_index = 0 if tracer.pass_index is None else tracer.pass_index + 1
            return workload.solve_traced(tracer)

        traced, traced_attempted, traced_failed = run_passes(
            workload, traced_pass, args.seconds / 2, lambda out: workload.check(out, tracer), WallClock
        )
        tracer.pass_index = None
        attempted += traced_attempted
        failed += traced_failed
        baseline_problems = workload.trace_baseline(tracer)
        if baseline_problems is not None:
            attempted += 1
            failed += len(baseline_problems)
            for problem in baseline_problems:
                print(f"check failed: {problem}", file=sys.stderr)
        units = {"_s": "s", "_frac": "ratio"}
        metrics = {
            name: (value, next((u for suffix, u in units.items() if name.endswith(suffix)), "count"))
            for name, value in layer_metrics(
                tracer, len(traced), [r.wall for r in untraced], [r.wall for r in traced]
            ).items()
        }
        env = environment(args, len(traced))
        tracer.write(BENCH / "out" / f"{args.workload}-{args.instances}-seed{args.seed}.spans.json", env)

    print(json.dumps({"environment": env}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
