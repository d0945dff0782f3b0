"""barthslice benchmark: end-to-end CLI runs, or a traced in-process replay.

    python3 perfbench/run.py --workload census-gate --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the benchmark imports and runs the
package from `src/` of that checkout and writes only under perfbench/out/.

--trace 0 (end to end): a closed loop with one client and one child at a
time.  Each sample is a fresh `barthslice` process of the workload's
command, timed from spawn to exit and certificate-checked; the loop cycles
through the workload's CLI seeds, at least one whole pass, until --seconds
have elapsed.
setup_s is the median of several fresh `barthslice dims --n 1` processes,
spread over the run.

--trace 1 (per layer): each unit runs the CLI once for its certificate,
then replays the same computation in-process twice, once with spans
around every layer call and once with tracing off (alternating which goes
first).  Per-layer numbers are means per replay; the replay must
reproduce the certificate or the run fails without printing a result.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  A fuller report, with every sample, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from importlib import metadata

from workloads import (HERE, SETUP_ARGV, SRC, WORKLOADS, check_output, child_env,
                       load_pinned, run_child, thread_caps)

OUT = HERE / "out"
SETUP_RUNS = 9
TRACE_SETUP_RUNS = 3

# (name, unit, better, bound): what a user of the CLI sees, tracing off.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("systems_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("pass_frac", "ratio", "higher", 0.01),
)

# Layers timed by spans in the replay; each gives <name>_ms and <name>.calls.
LAYER_SPANS = (
    "census.sample_half",
    "census.kernel_point",
    "barth.fiber_system",
    "linalg.kernel_basis",
    "barth.canonical",
    "linalg.spans_match",
    "barth.residual",
    "monad.pencil_check",
    "monad.monad_condition",
    "monad.point_rank",
    "barth.jacobian",
    "linalg.jacobian_rank",
)

# (name, unit, better); the counters are computed by the benchmark from the
# replay's matrices and results, not reported by the program.
COMPUTED = (
    ("linalg.elim_rows", "count", "lower"),
    ("linalg.elim_cols", "count", "lower"),
    ("linalg.elim_rank", "count", "lower"),
    ("linalg.elim_work", "count", "lower"),
    ("linalg.elim_rate", "1/s", "higher"),
    ("linalg.max_bits", "bits", "lower"),
    ("monad.points_checked", "count", "higher"),
    ("census.hit_frac", "ratio", "higher"),
)
PER_LAYER = (
    tuple((f"{s}_ms", "ms", "lower") for s in LAYER_SPANS)
    + tuple((f"{s}.calls", "count", "lower") for s in LAYER_SPANS)
    + COMPUTED
    + (
        ("cli.setup_ms", "ms", "lower"),
        ("cli.other_ms", "ms", "lower"),
        ("trace.unattributed_ms", "ms", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.overhead_s", "s", "lower"),
    )
)


def machine_facts() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    return 100 * (n - 10) // n, sorted(samples)[n - 11]


class Tally:
    """Attempted and failed operations, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, label: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems)}")


class Children:
    """Runs checked child processes, one at a time."""

    def __init__(self, tally: Tally):
        self.env = child_env()
        self.pinned = load_pinned()
        self.tally = tally

    def setup(self):
        res = run_child(SETUP_ARGV, self.env)
        self.tally.add("dims --n 1", check_output(None, 0, res.returncode, res.stdout,
                                                  self.pinned))
        return res

    def workload(self, w, cli_seed: int):
        res = run_child(w.argv(cli_seed), self.env)
        problems = check_output(w, cli_seed, res.returncode, res.stdout, self.pinned)
        self.tally.add(f"{w.name} seed {cli_seed}", problems)
        return res, not problems


def run_end_to_end(w, bench_seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    children = Children(tally)
    run_child(SETUP_ARGV, children.env)  # warm-up: byte-compile, fill the file cache
    seeds = w.cli_seeds(bench_seed)
    setups, samples = [], []
    start = time.perf_counter()
    while len(samples) < len(seeds) or time.perf_counter() - start < seconds:
        # setup samples spread over the run see the same machine as the workload
        while (len(setups) < SETUP_RUNS
               and time.perf_counter() - start >= len(setups) * seconds / SETUP_RUNS):
            setups.append(children.setup().wall_s)
        res, _ = children.workload(w, seeds[len(samples) % len(seeds)])
        samples.append(res)
    while len(setups) < SETUP_RUNS:
        setups.append(children.setup().wall_s)
    walls = [r.wall_s for r in samples]
    wall, setup = statistics.median(walls), statistics.median(setups)
    metrics = {
        "wall_s": wall,
        "systems_per_s": w.systems_per_process / (wall - setup),
        "setup_s": setup,
        "peak_rss_mb": statistics.median(r.peak_rss_kb for r in samples) / 1024,
        "pass_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    tail = tail_percentile(walls)
    detail = {
        "samples": len(walls),
        "wall_quartiles_s": statistics.quantiles(walls, n=4) if len(walls) > 1 else walls,
        "wall_tail_s": None if tail is None else {f"p{tail[0]}": tail[1]},
        "walls_s": walls,
        "setups_s": setups,
        "peak_rss_kb": [r.peak_rss_kb for r in samples],
    }
    return metrics, detail


def run_traced(w, bench_seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    from replay import ROOT_SPAN, Counters, NullTracer, ReplayDrift, Tracer, compare, replay

    children = Children(tally)
    run_child(SETUP_ARGV, children.env)
    setup = statistics.median(children.setup().wall_s for _ in range(TRACE_SETUP_RUNS))
    seeds = w.cli_seeds(bench_seed)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{w.name}-seed{bench_seed}.jsonl"
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    cli_walls, traced_walls, plain_walls = [], [], []
    counters = Counters()
    tracers = []
    units = 0
    start = time.perf_counter()
    while units == 0 or time.perf_counter() - start < seconds:
        cli_seed = seeds[units % len(seeds)]
        res, ok = children.workload(w, cli_seed)
        if not ok:
            raise SystemExit(f"perfbench: {tally.problems[-1]}")
        certs = json.loads(res.stdout)
        cli_walls.append(res.wall_s)
        for traced in (units % 2 == 0, units % 2 == 1):
            tracer = Tracer(f"{w.name}/{units}") if traced else NullTracer()
            t0 = time.perf_counter()
            try:
                verdicts = replay(w, cli_seed, tracer, counters if traced else Counters())
                elapsed = time.perf_counter() - t0
                compare(verdicts, certs)
            except ReplayDrift as exc:
                raise SystemExit(f"perfbench: replay drift on {w.name} seed {cli_seed}: {exc}")
            tally.add(f"replay seed {cli_seed}", [])
            if not traced:
                plain_walls.append(elapsed)
                continue
            traced_walls.append(elapsed)
            tracers.append(tracer)
            for name, ms in tracer.self_ms().items():
                self_ms[name] = self_ms.get(name, 0.0) + ms
            for name, k in tracer.calls().items():
                calls[name] = calls.get(name, 0) + k
        units += 1
    with open(spans_path, "w", encoding="utf-8") as fh:
        for tracer in tracers:
            tracer.write_jsonl(fh)

    mean = statistics.fmean
    metrics = {}
    for name in LAYER_SPANS:
        metrics[f"{name}_ms"] = self_ms.get(name, 0.0) / units
        metrics[f"{name}.calls"] = calls.get(name, 0) / units
    kernel_s = self_ms.get("linalg.kernel_basis", 0.0) / 1000
    layer_s = sum(self_ms.get(name, 0.0) for name in LAYER_SPANS) / 1000 / units
    metrics.update({
        "linalg.elim_rows": counters.rows / counters.kernels,
        "linalg.elim_cols": counters.cols / counters.kernels,
        "linalg.elim_rank": counters.rank / counters.kernels,
        "linalg.elim_work": counters.work / units,
        "linalg.elim_rate": counters.work / kernel_s,
        "linalg.max_bits": counters.max_bits,
        "monad.points_checked": counters.points_checked / units,
        "census.hit_frac": counters.hits / counters.kernels,
        "cli.setup_ms": setup * 1000,
        "cli.other_ms": (mean(cli_walls) - setup - mean(plain_walls)) * 1000,
        "trace.unattributed_ms": self_ms.get(ROOT_SPAN, 0.0) / units,
        "trace.coverage": (layer_s + setup) / mean(cli_walls),
        "trace.overhead_s": mean(traced_walls) - mean(plain_walls),
    })
    detail = {
        "units": units,
        "spans": str(spans_path.relative_to(HERE.parent)),
        "cli_walls_s": cli_walls,
        "traced_replay_s": traced_walls,
        "untraced_replay_s": plain_walls,
        "computed": [name for name, _, _ in COMPUTED],
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "barthslice" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update(thread_caps())

    w = WORKLOADS[args.workload]
    tally = Tally()
    measure = run_traced if args.trace else run_end_to_end
    metrics, detail = measure(w, args.seed, args.seconds, tally)
    units = dict((name, unit) for name, unit, *_ in (END_TO_END + PER_LAYER))
    report = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        "problems": tally.problems,
        **detail,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"report-{w.name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"perfbench: {w.name} seed {args.seed}: machine {report['machine']}; "
          + ", ".join(f"{k}={v}" for k, v in detail.items() if not isinstance(v, list)))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
