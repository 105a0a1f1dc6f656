"""End-to-end benchmark of fgw: run one workload and print its metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload radial-sweep --seed 1 --seconds 20 --trace 0

Workloads: radial-sweep, columns, explicit-sets (see README.md).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (``time_ref``, ``setup_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones, from a
run that first measures untraced and then traced, so the tracing
overhead is reported too.

The package is imported from ``src/`` of the checkout, never from an
installed copy; without ``src/fgw`` the benchmark exits with code 2.
Lines before the last one are for readers.  A full record of the run is
written to ``perfbench/results/``.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("radial-sweep", "columns", "explicit-sets")

#: Whole-run limit; the worker is stopped after this many seconds.
RUN_LIMIT_S = 170.0

END_TO_END = (("time_ref", "ref"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _layer_units(name: str) -> str:
    return "ref" if name.endswith("_ref") else "count"


def _parse():
    ap = argparse.ArgumentParser(description="fgw end-to-end benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def _env():
    env = dict(os.environ)
    env.pop("FGW_THREADS", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(argv, env, deadline):
    """Run the worker to completion and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + argv
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    args = _parse()
    if not os.path.isfile(os.path.join(ROOT, "src", "fgw", "__init__.py")):
        print(f"error: no fgw sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    env = _env()
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        res = _worker(base + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                      env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, err in sorted(res["errors"].items()):
        print(f"failed operation {name}: {err}")
    for problem in res["problems"]:
        print(f"check failed: {problem}")
    print(f"workload {args.workload} seed {args.seed}: {res['rounds']} rounds, "
          f"time_ref {res['time_ref']:.2f} ref, wall {res['wall_s']:.3f} s summed medians, "
          f"reference {res['ref_s'] * 1000:.3f} ms, peak RSS {res['peak_rss_mb']:.1f} MB")
    if args.trace:
        print(f"backend {res['backend']}; untraced {res['time_ref_untraced']:.2f} ref, "
              f"traced {res['time_ref_traced']:.2f} ref")
        metrics = {k: {"value": v, "unit": _layer_units(k)} for k, v in res["layers"].items()}
    else:
        print(f"setup {res['setup_s'] * 1000:.1f} ms (median of {len(res['setups'])} probes)")
        metrics = {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END}

    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
