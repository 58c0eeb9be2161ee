"""Command line of the end-to-end benchmark (see ``README.md``).

The driver's contract is the first form; the others are for people::

    python3 -m benchmarks.e2e --workload W --seed N --seconds S --trace 0|1
    python3 -m benchmarks.e2e --all [--seed N] [--runs R] [--smoke] [--out FILE]
    python3 -m benchmarks.e2e --fidelity
    python3 -m benchmarks.e2e --compare A.json B.json
    python3 -m benchmarks.e2e --selfcheck [--runs R] [--smoke]
    python3 -m benchmarks.e2e --emit-spec
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from benchmarks.e2e import ROOT, spec


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 -m benchmarks.e2e", description=__doc__.split("\n")[0]
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--workload", choices=sorted(spec.WORKLOAD_BY_NAME),
        help="run one workload in this process and print its result line",
    )
    mode.add_argument(
        "--all", action="store_true",
        help="every workload plus the traced ladder, each in a fresh process",
    )
    mode.add_argument(
        "--fidelity", action="store_true",
        help="assert the paper's qualitative claims from operation counts",
    )
    mode.add_argument(
        "--compare", nargs=2, metavar=("A.json", "B.json"),
        help="compare two --all outputs metric by metric",
    )
    mode.add_argument(
        "--selfcheck", action="store_true",
        help="two sets of runs of this code, compared like --compare",
    )
    mode.add_argument(
        "--emit-spec", action="store_true", help="print BENCHMARK.json"
    )
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--runs", type=int, default=1,
        help="runs per workload and set, on seeds seed, seed+1, ...",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="~10x smaller inputs, k and run length; same checks",
    )
    parser.add_argument("--out", help="write the collected runs to this file")
    return parser


def _seconds(args: argparse.Namespace) -> float:
    if args.seconds is not None:
        return args.seconds
    return 1.0 if args.smoke else spec.RUN_SECONDS


def _print_metrics(metrics: dict) -> None:
    for name, metric in metrics.items():
        spread = ""
        if "q1" in metric:
            spread = f"   [q1 {metric['q1']:.4f}  q3 {metric['q3']:.4f}]"
        print(f"  {name:<48} {metric['value']:>16.4f} {metric['unit']}{spread}")


def run_one(args: argparse.Namespace) -> int:
    """The contract entry point: one workload, one result line, exit code."""
    workload = spec.WORKLOAD_BY_NAME[args.workload]
    if args.smoke:
        workload = workload.smoke()
    if args.trace:
        from benchmarks.e2e.ladder import run_ladder

        result = run_ladder(args.workload, args.seed, smoke=args.smoke)
    else:
        from benchmarks.e2e.workloads import run_workload

        result = run_workload(workload, args.seed, _seconds(args))
    print(f"{workload.name}  seed {args.seed}  trace {args.trace}")
    _print_metrics(result["metrics"])
    expected = spec.PER_LAYER if args.trace else spec.END_TO_END
    missing = [m.name for m in expected if m.name not in result["metrics"]]
    correct = result["failed"] == 0 and not missing
    if missing:
        print(f"  missing metrics: {', '.join(missing)}")
    print("detail " + json.dumps(result))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    metric.name: {
                        "value": result["metrics"][metric.name]["value"],
                        "unit": metric.unit,
                    }
                    for metric in expected
                    if metric.name in result["metrics"]
                },
            }
        )
    )
    return 0 if correct else 1


def _child_run(
    workload: str, seed: int, trace: int, args: argparse.Namespace
) -> dict:
    """Run one workload in a fresh interpreter; return its parsed lines."""
    command = [
        sys.executable, "-m", "benchmarks.e2e",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(_seconds(args)), "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900
    )
    lines = done.stdout.strip().splitlines()
    for line in lines:
        if not line.startswith(("{", "detail ")):
            print(line)
    run = {"workload": workload, "seed": seed, "trace": trace,
           "exit_code": done.returncode}
    for line in lines:
        if line.startswith("detail "):
            run["detail"] = json.loads(line[len("detail "):])
    if lines and lines[-1].startswith("{"):
        run["result"] = json.loads(lines[-1])
    return run


def run_set(args: argparse.Namespace, first_seed: int) -> list[dict]:
    """One set: ``--runs`` end-to-end runs per workload, plus one ladder."""
    runs = []
    for workload in spec.WORKLOADS:
        for offset in range(args.runs):
            runs.append(_child_run(workload.name, first_seed + offset, 0, args))
    runs.append(_child_run(spec.WORKLOADS[0].name, first_seed, 1, args))
    return runs


def _failed_runs(runs: list[dict]) -> list[str]:
    return [
        f"{run['workload']} seed {run['seed']} trace {run['trace']}"
        for run in runs
        if run["exit_code"] != 0 or not run.get("result", {}).get("correct")
    ]


def run_all(args: argparse.Namespace) -> int:
    runs = run_set(args, args.seed)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"seed": args.seed, "smoke": args.smoke, "runs": runs},
                      handle, indent=1)
            handle.write("\n")
        print(f"wrote {args.out}")
    failed = _failed_runs(runs)
    for name in failed:
        print(f"FAILED: {name}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.workload:
        return run_one(args)
    if args.all:
        return run_all(args)
    if args.emit_spec:
        print(json.dumps(spec.benchmark_json(), indent=2))
        return 0
    if args.fidelity:
        from benchmarks.e2e.fidelity import run_fidelity

        return run_fidelity()
    from benchmarks.e2e import compare

    if args.compare:
        return compare.compare_files(*args.compare)
    first = run_set(args, args.seed)
    second = run_set(args, args.seed + args.runs)
    failed = _failed_runs(first + second)
    for name in failed:
        print(f"FAILED: {name}")
    verdict = compare.compare_runs(first, second, selfcheck=True)
    return 1 if failed else verdict


if __name__ == "__main__":
    sys.exit(main())
