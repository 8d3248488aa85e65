"""One traced run of the default config, for the baseline table in README.md.

Run from the repository root:

    python3 perfbench/baseline.py

Runs ``construct``, ``roundtrip`` and ``verify`` once each on the default
config (circle, pure-one, n_u=128, R=0.15, dv=1e-3, 151 levels) with the
tracer installed, plus a span on the CLI's strip CSV writer, and prints
milliseconds per call for the stages the ROADMAP baseline names.
"""

import shutil
import sys
import time
from collections import defaultdict

import run  # pins BLAS/OpenMP threads before numpy loads
from spans import TARGETS, Tracer

#: (span name, ROADMAP baseline in ms per call).
ROWS = (
    ("curves.classify_curve", 200),
    ("march.march", 144),
    ("geometry.jacobian", 39),
    ("geometry.reconstruct_graph", 78),
    ("geometry.pde_residual", 57),
    ("cli.strip_csv", 175),
    ("geometry.patch_to_csv", 184),
    ("extract.limit_gradient", 288),
    ("extract.hausdorff_distance", 56),
    ("cli.construct", 830),
    ("cli.roundtrip", 1740),
    ("cli.verify", 1100),
)


def main() -> int:
    run.os.chdir(run.ROOT)
    cli = run.import_cli()
    tracer = Tracer(TARGETS + (("ma_singular.cli", "_strip_csv", "cli.strip_csv"),))
    out = run.WORK / "baseline"
    tracer.install(0)
    try:
        for command in ("construct", "roundtrip", "verify"):
            span = tracer.open(f"cli.{command}")
            code = cli.main([command, "--out", str(out / command)])
            tracer.close(span)
            if code != 0:
                print(f"{command} exited {code}", file=sys.stderr)
                return 1
    finally:
        tracer.uninstall()
        shutil.rmtree(out, ignore_errors=True)

    total = defaultdict(float)
    calls = defaultdict(int)
    for name, start, end in zip(tracer.names, tracer.start, tracer.end):
        total[name] += end - start
        calls[name] += 1
    print(f"host: {run.host_line()}; {time.strftime('%Y-%m-%d')}")
    print(f"{'span':<28} {'calls':>5} {'ms/call':>9} {'ROADMAP ms':>10}")
    for name, roadmap in ROWS:
        per_call = 1e3 * total[name] / calls[name] if calls[name] else float("nan")
        print(f"{name:<28} {calls[name]:>5} {per_call:>9.1f} {roadmap:>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
