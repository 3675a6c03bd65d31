"""contrastlab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) from the root of a checkout,
importing the package from ``src/``. With ``--trace 0`` it reports the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` the
per-layer ones, from spans recorded around the calls into each module.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Lines before it give
the environment, quartiles and any failure. Scratch files go under
``.bench_work/``; the spans of a traced run are left there as
``spans.npz``.
"""
import os

# One BLAS/OpenMP thread, set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def parse_args(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args, spec


def main(argv=None) -> int:
    args, spec = parse_args(argv)
    if not (SRC / "contrastlab" / "__init__.py").is_file():
        print(f"error: no contrastlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH), str(SRC)]
    import harness
    from workloads import WORKLOADS

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    print("environment:", json.dumps(harness.environment()))
    result = harness.run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work,
        per_layer=[m["name"] for m in spec["per_layer"]],
        end_to_end_names=[m["name"] for m in spec["end_to_end"]])
    for failure in result.details["failures"]:
        print("FAILED", failure)
    line = result.line({m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]})
    print(f"ops_failed_frac: {line['failed'] / line['attempted']!r} "
          f"({line['failed']} of {line['attempted']})")
    print("details:", json.dumps(result.details, default=str))
    (work / "result.json").write_text(json.dumps(
        {"line": line, "details": result.details}, indent=1, default=str))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
