#!/usr/bin/env python3
"""Benchmark of the sphere-of-influence system, end to end or per layer.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload cold-sphere --seed 1 --seconds 10 --trace 0

Every input is generated from ``--seed``.  The last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it give each metric with its unit and sample count, the error rate
with its base, generator lateness, any process that had to be killed, and
run metadata.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` the per-layer ones, and writes the spans
to ``.perfbench-out/``.  The exit code is 0 only when every checked output
was correct and the run was valid.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODES = {0: "end_to_end", 1: "per_layer"}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cold-sphere", "hot-fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rate", type=float, default=20.0,
                        help="open-loop requests per second (HTTP workloads)")
    return parser.parse_args(argv)


def metadata() -> dict:
    import numpy

    sha = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, check=False)
        sha = probe.stdout.strip() or sha
    src_lines = sum(
        len(path.read_bytes().splitlines()) for path in SRC.rglob("*.py")
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "src_py_lines": src_lines,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}/repro; run from a checkout",
              file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(HERE), str(SRC)]
    from tracing import Tracer
    from workloads import WORKLOADS, Run

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    tracer = Tracer() if args.trace else None
    run = Run(workdir, args.seed, args.seconds, args.rate, env, tracer)
    crashed = None
    try:
        WORKLOADS[args.workload](run)
    except Exception:  # noqa: BLE001 - report, tear down, exit non-zero
        crashed = traceback.format_exc()
    finally:
        run.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)
    res = run.result
    expected = {m["name"]: m["unit"] for m in benchmark[MODES[args.trace]]}
    for name, unit in expected.items():
        if name not in res.metrics and args.trace:
            res.put(name, 0.0, unit, "not measured by this workload's traced run")
    for name, (_, unit, _) in res.metrics.items():
        if expected.get(name) != unit:
            res.problems.append(f"metric {name} [{unit}] is not in BENCHMARK.json as such")
    for name in expected.keys() - res.metrics.keys():
        res.problems.append(f"metric {name} was not measured")
    for note in res.notes:
        print(f"# {note}")
    if crashed is not None:
        print(crashed, file=sys.stderr)
        print("# run aborted; no result", file=sys.stderr)
        return 1
    print(f"# meta {json.dumps(metadata(), sort_keys=True)}")
    if tracer is not None:
        out = ROOT / ".perfbench-out" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(out)
        print(f"# self time per layer (ms): {json.dumps(tracer.self_ms_by_layer())}")
        print(f"# {len(tracer.spans)} spans written to {out.relative_to(ROOT)}")
    for name, (value, unit, note) in res.metrics.items():
        print(f"# {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    rate = res.failed / res.attempted if res.attempted else 0.0
    print(f"# error_rate = {rate:.6g} ({res.failed} failed of {res.attempted} attempted)")
    for problem in res.problems:
        print(f"# FAIL {problem}")
    correct = not res.problems
    print(json.dumps({
        "correct": correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in res.metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
