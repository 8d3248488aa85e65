"""Pipeline benchmark: per-command time and accuracy on seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload construct-convex --seed 1 \
        --seconds 25 --trace 0

The program under test is ``src/ma_singular`` of this checkout, driven
in-process through ``ma_singular.cli.main(argv)`` on generated config files,
on one process and one thread.  Human-readable lines go to stdout first;
the last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a separate traced run with ``--trace 1``.  See
perfbench/README.md for the metrics and workloads.
"""

import os

# A single-threaded baseline: thread pools are sized when numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import fcntl  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Scratch space, relative to the checkout root.  Reports embed the output
#: path, so it must not vary between runs for artifact sizes to repeat.
WORK = Path(".perfbench-out")
OPDIR = WORK / "op"
CFGDIR = WORK / "config"

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_PROBES = 5

#: The reference kernel's time on a quiet host of the kind the benchmark
#: was tuned on (2-core VM, Python 3.11, numpy 2.4).  ``setup_s`` is scaled
#: to that host speed; see README.md, "Run-to-run noise".
REFERENCE_KERNEL_S = 0.020

#: Traced ops the per-layer metrics cover.  Fixed, so counts repeat exactly
#: for a seed however many ops fit in the run.
TRACED_OPS = 3

#: Ops, from the first (the warm-up), whose accuracy headrooms count.  Fixed,
#: so a headroom is deterministic for a seed whatever the host's speed.
ACCURACY_OPS = 8

SETUP_SNIPPET = ("import sys; sys.path.insert(0, sys.argv[1]); "
                 "from ma_singular.cli import main; "
                 "sys.exit(main(['construct', '--print-config']))")


def import_cli():
    """The checkout's ``ma_singular.cli``; exits when the sources are absent."""
    if not (SRC / "ma_singular" / "cli.py").is_file():
        sys.exit(f"perfbench: no src/ma_singular under {ROOT}; "
                 "run it from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import ma_singular.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "ma_singular":
        sys.exit(f"perfbench: imported {cli.__file__}, not the checkout's copy")
    return cli


def host_line() -> str:
    import numpy
    import scipy
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, nproc {len(os.sched_getaffinity(0))}, "
            "BLAS/OpenMP threads 1")


def reference_kernel() -> float:
    """Seconds for fixed work like the march's: small FFTs and array
    arithmetic on a (5, 128) block.  It uses nothing from the program under
    test, so its time measures only the host's speed at that moment."""
    t0 = time.perf_counter()
    a = np.linspace(0.0, 1.0, 5 * 128).reshape(5, 128)
    for _ in range(1000):
        a = np.fft.irfft(np.fft.rfft(a) * 0.5, n=128) + 0.5 * a
    return time.perf_counter() - t0


class Stats:
    """Checks, wall times and headrooms of the commands run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.ops = 0
        self.times = defaultdict(list)          # command -> untraced seconds
        self.kernel = []                        # reference kernel seconds
        self.ratios = defaultdict(list)         # command -> seconds / kernel
        self.headrooms = defaultdict(list)      # kind -> per-command values

    def record(self, label: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")


def measure_setup(cli, stats: Stats) -> tuple:
    """Wall seconds for fresh interpreters to run ``construct --print-config``,
    as measured and scaled to the reference host speed."""
    expected = json.loads(json.dumps(cli.DEFAULT_CONFIG))
    times, scaled = [], []
    kernel = reference_kernel()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC)],
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        after = reference_kernel()
        scaled.append(times[-1] * REFERENCE_KERNEL_S / (0.5 * (kernel + after)))
        kernel = after
        problems = []
        if proc.returncode != 0:
            problems.append(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        else:
            try:
                if json.loads(proc.stdout) != expected:
                    problems.append("printed config differs from DEFAULT_CONFIG")
            except ValueError as err:
                problems.append(f"printed config is not JSON: {err}")
        stats.record("setup probe", problems)
    return times, scaled


def run_op(cli, checker, commands, stats: Stats, tracer=None,
           paced=False) -> tuple:
    """Run and check one op.

    Returns (seconds per command, artifact bytes).  With ``paced`` each
    command is bracketed by reference kernel runs, and its time over their
    mean goes to ``stats.ratios``.
    """
    shutil.rmtree(OPDIR, ignore_errors=True)
    OPDIR.mkdir(parents=True)
    CFGDIR.mkdir(parents=True, exist_ok=True)
    times = []
    kernel = reference_kernel() if paced else None
    for cmd in commands:
        outdir = OPDIR / cmd.outdir
        argv = [cmd.name, "--out", str(outdir)]
        if cmd.config is not None:
            path = CFGDIR / f"{cmd.name}.json"
            path.write_text(json.dumps(cmd.config))
            argv += ["--config", str(path)]
        code = error = None
        span = tracer.open(f"cli.{cmd.name}") if tracer else None
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as err:  # noqa: BLE001 - an escape is a failed check
            error = err
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.close(span, error=error is not None)
        times.append(elapsed)
        if paced:
            after = reference_kernel()
            stats.kernel.append(after)
            stats.ratios[cmd.name].append(elapsed / (0.5 * (kernel + after)))
            kernel = after
        problems, headrooms = checker.check(cmd, outdir, code, error)
        stats.record(cmd.name, problems)
        if stats.ops < ACCURACY_OPS:
            for kind, value in headrooms.items():
                stats.headrooms[kind].append(value)
    stats.ops += 1
    nbytes = sum(f.stat().st_size for f in OPDIR.rglob("*") if f.is_file())
    return times, nbytes


def high_percentile(values):
    """(p, value): the highest nearest-rank percentile with >= 10 samples
    above it, or None when there are fewer than 20 samples."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99, 95, 90, 75, 50):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def describe_times(name: str, values) -> str:
    line = f"{name:<24} median {statistics.median(values):.4f} s"
    tail = high_percentile(values)
    if tail:
        line += f", p{tail[0]} {tail[1]:.4f} s"
    else:
        line += ", no percentile above the median (< 20 samples)"
    return line + f", n={len(values)}"


def end_to_end(commands, stats: Stats, setup_scaled) -> dict:
    main_cmd, follow_cmd = (c.name for c in commands)
    every = [v for values in stats.headrooms.values() for v in values]
    values = {
        "main_ref": (statistics.median(stats.ratios[main_cmd]), "ref"),
        "follow_ref": (statistics.median(stats.ratios[follow_cmd]), "ref"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "residual_headroom_dec": (min(stats.headrooms["residual"], default=0.0),
                                  "dec"),
        "headroom_dec": (min(every, default=0.0), "dec"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def print_accuracy(stats: Stats) -> None:
    for kind in ("residual", "hausdorff", "oracle"):
        values = stats.headrooms.get(kind)
        if values:
            print(f"{kind + '_headroom_dec':<24} {min(values):.4f} dec "
                  f"(worst of {len(values)} commands in the first "
                  f"{ACCURACY_OPS} ops)")
    print(f"{'failed_frac':<24} {stats.failed / max(stats.attempted, 1):.4f} "
          f"({stats.failed} of {stats.attempted} commands failed)")
    for problem in stats.problems[:10]:
        print(f"  failed: {problem}")


def run_untraced(cli, checker, ops, seconds: int, stats: Stats) -> dict:
    setup_times, setup_scaled = measure_setup(cli, stats)
    run_op(cli, checker, next(ops), stats)          # warm-up, not timed
    deadline = time.perf_counter() + seconds
    timed_ops = 0
    while time.perf_counter() < deadline or stats.ops < ACCURACY_OPS:
        commands = next(ops)
        times, _ = run_op(cli, checker, commands, stats, paced=True)
        for cmd, elapsed in zip(commands, times):
            stats.times[cmd.name].append(elapsed)
        timed_ops += 1
    print(f"closed loop, 1 client: {timed_ops} timed ops of "
          f"{' + '.join(c.name for c in commands)}, each command between "
          "two reference kernel runs")
    for cmd in commands:
        print(describe_times(f"{cmd.name}_s", stats.times[cmd.name]))
    print(describe_times("reference_kernel_s", stats.kernel))
    print(describe_times("setup_s (as measured)", setup_times))
    metrics = end_to_end(commands, stats, setup_scaled)
    for role, cmd in zip(("main_ref", "follow_ref"), commands):
        print(f"{role:<24} {metrics[role]['value']:.4f} ref (median over ops "
              f"of {cmd.name}_s / the mean of the kernel runs around it)")
    print(f"{'setup_s':<24} {metrics['setup_s']['value']:.4f} s (median over "
          f"probes, scaled by {REFERENCE_KERNEL_S} s / the mean of the kernel "
          "runs around each)")
    print(f"{'peak_rss_mb':<24} {metrics['peak_rss_mb']['value']:.1f} MB")
    print_accuracy(stats)
    return metrics


def run_traced(cli, checker, ops, seconds: int, stats: Stats, spans_path):
    from spans import Tracer
    tracer = Tracer()
    run_op(cli, checker, next(ops), stats)          # warm-up, not traced
    deadline = time.perf_counter() + seconds
    traced_bytes = []
    overhead = []
    pair = 0
    # Untraced and traced ops alternate on the same input, in alternating
    # order, so their difference is the tracing overhead.
    while time.perf_counter() < deadline or pair < TRACED_OPS:
        commands = next(ops)
        wall = {}
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced:
                tracer.install(pair)
            try:
                times, nbytes = run_op(cli, checker, commands, stats,
                                       tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            wall[traced] = sum(times)
            if traced:
                traced_bytes.append(nbytes)
            else:
                for cmd, elapsed in zip(commands, times):
                    stats.times[cmd.name].append(elapsed)
        overhead.append(wall[True] - wall[False])
        pair += 1
    metrics = tracer.layer_metrics(range(TRACED_OPS))
    metrics["cli.artifact_bytes"] = statistics.fmean(traced_bytes[:TRACED_OPS])
    untraced_op = statistics.median(sum(t) for t in zip(
        *(stats.times[c.name] for c in commands)))
    metrics["trace.overhead_s"] = statistics.median(overhead)
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / untraced_op
    tracer.write_csv(spans_path)

    print(f"traced run: {pair} pairs of untraced and traced "
          f"{' + '.join(c.name for c in commands)}; per-layer metrics are per "
          f"op over the first {TRACED_OPS} traced ops; spans in {spans_path}")
    for name in sorted(metrics):
        print(f"{name:<40} {metrics[name]:.6g} {layer_unit(name)}")
    print_accuracy(stats)
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}


def layer_unit(name: str) -> str:
    if name.endswith(".us"):
        return "us"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name == "cli.artifact_bytes":
        return "B"
    if name in ("geometry.rhs_passes_per_level", "trace.overhead_frac"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    os.chdir(ROOT)
    cli = import_cli()
    # Runs share the scratch paths, which reports embed; a second run in the
    # same checkout would read the first one's artifacts.
    WORK.mkdir(exist_ok=True)
    lock = open(WORK / "lock", "w")
    try:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        sys.exit(f"perfbench: another run is using {WORK} in this checkout")
    from check import Checker
    checker = Checker(cli.report_schema())
    workload = WORKLOADS[args.workload]
    ops = workload.ops(args.seed)
    stats = Stats()
    print(f"perfbench workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"host: {host_line()}")
    try:
        if args.trace:
            spans_path = WORK / f"spans-{workload.name}-seed{args.seed}.csv"
            metrics = run_traced(cli, checker, ops, args.seconds, stats,
                                 spans_path)
        else:
            metrics = run_untraced(cli, checker, ops, args.seconds, stats)
    finally:
        shutil.rmtree(OPDIR, ignore_errors=True)
        shutil.rmtree(CFGDIR, ignore_errors=True)
    result = {"correct": stats.failed == 0, "attempted": stats.attempted,
              "failed": stats.failed, "metrics": metrics}
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
