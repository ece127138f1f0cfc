"""Command line of the evidfuse benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the program is imported from ``src/`` beside this
directory.  Prints the machine, every metric with its unit and the error
rate, then as the last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones and writes the spans
to ``.bench_runs/trace-<workload>-seed<n>.json``.  ``--workload all`` runs
every workload in one process and ends with one combined JSON line.
Exits non-zero without a result when ``src/evidfuse`` is missing.
"""

import argparse
import json
import logging
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".bench_runs"
# one BLAS thread: the workloads are dominated by per-op Python overhead,
# and a single thread keeps runs steady on a shared 2-core machine
BLAS_THREADS = "1"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "evidfuse" / "__init__.py").is_file():
        print(f"error: evidfuse sources not found under {src}", file=sys.stderr)
        return 2
    # must precede the first numpy import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(src), str(HERE)]
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    import harness

    if args.workload != "all" and args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(harness.WORKLOADS)} or all")
    names = tuple(harness.WORKLOADS) if args.workload == "all" else (args.workload,)
    WORK_DIR.mkdir(exist_ok=True)
    results = {}
    for name in names:
        result, trace_doc, notes = harness.run_workload(
            harness.WORKLOADS[name], args.seed, args.seconds, args.trace, str(WORK_DIR))
        results[name] = result, notes
        if trace_doc is not None:
            path = WORK_DIR / f"trace-{name}-seed{args.seed}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"workload": name, "seed": args.seed,
                           "machine": harness.machine_info(ROOT), **trace_doc}, fh)
            print(f"# {name}: spans written to {path.relative_to(ROOT)}")

    print("# machine " + json.dumps(harness.machine_info(ROOT), sort_keys=True))
    for name, (result, notes) in results.items():
        harness.print_result(name, result, notes)
    if len(names) > 1:
        combined = [r for r, _ in results.values()]
        print(json.dumps({
            "correct": all(r["correct"] for r in combined),
            "attempted": sum(r["attempted"] for r in combined),
            "failed": sum(r["failed"] for r in combined),
            "metrics": {f"{name}/{metric}": entry for name, (r, _) in results.items()
                        for metric, entry in r["metrics"].items()},
        }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
