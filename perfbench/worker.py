"""One workload in one fresh process: set up, run timed rounds, check.

Started by run.py, never by hand.  ``--setup-only`` times ``import fgw``
plus building the workload's inputs, in an interpreter that has loaded
only this file's standard-library imports, and exits.  Otherwise the
worker runs whole rounds of the workload's operations, one at a time,
until the run time is spent, then checks every output and prints one
JSON object.  Between untraced rounds it starts one ``--setup-only``
probe; setup_s is the median of the probes.

Each operation's time is divided by the mean of the reference
computation timed just before and just after it (consecutive operations
share the reference between them).  ``time_ref`` is the sum over the
operations of the median of that ratio over the run's rounds.
"""

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time

#: Set-up probes: one after each round, at most this many ...
SETUP_PROBES = 24
#: ... and at least this many, topped up after the last round.
MIN_SETUP_PROBES = 7


def _parse():
    ap = argparse.ArgumentParser(description="run one benchmark workload")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args()


class Phase:
    """Timings and outputs of the rounds run with one tracing setting."""

    def __init__(self, ops):
        self.ops = ops
        self.ratios = [[] for _ in ops]
        self.walls = [[] for _ in ops]
        self.refs = []
        self.digests = [[] for _ in ops]
        self.outputs = [None] * len(ops)
        self.errors = {}
        self.attempted = 0
        self.failed = 0
        self.rounds = 0

    def time_ref(self) -> float:
        return sum(statistics.median(r) for r in self.ratios)


def run_rounds(phase: Phase, seconds: float, reference, tracer=None, after_round=None):
    """Whole rounds until ``seconds`` have passed; at least one round."""
    deadline = time.perf_counter() + seconds
    while True:
        ref_prev = reference()
        for i, op in enumerate(phase.ops):
            if tracer is not None:
                tracer.begin_root()
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a failing operation is counted, not fatal
                out = None
                phase.errors.setdefault(op.name, f"{type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_root()
            ref_next = reference()
            phase.ratios[i].append(dt / (0.5 * (ref_prev + ref_next)))
            phase.walls[i].append(dt)
            phase.refs.append(ref_next)
            ref_prev = ref_next
            phase.attempted += 1
            if out is None:
                phase.failed += 1
                continue
            phase.digests[i].append(hashlib.sha256("\0".join(out).encode()).hexdigest())
            if phase.outputs[i] is None:
                phase.outputs[i] = out
        phase.rounds += 1
        if after_round is not None:
            after_round()
        if time.perf_counter() >= deadline:
            return


def setup_probe(args) -> float:
    """Set-up time of a fresh interpreter running this workload."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=60)
    return json.loads(proc.stdout)["setup_s"]


def main():
    args = _parse()
    t0 = time.perf_counter()
    import workloads  # imports fgw

    ops = workloads.build(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0

    import refcalc

    for _ in range(5):
        refcalc.reference_seconds()
    result = {"workload": args.workload, "seed": args.seed}
    layers = None
    if args.trace:
        import tracer as tracer_mod

        plain = Phase(ops)
        run_rounds(plain, args.seconds / 2, refcalc.reference_seconds)
        tr = tracer_mod.Tracer()
        tr.install()
        traced = Phase(ops)
        try:
            run_rounds(traced, args.seconds / 2, refcalc.reference_seconds, tr,
                       after_round=tr.end_round)
        finally:
            tr.uninstall()
        ref_s = statistics.median(traced.refs)
        layers = tr.metrics(ref_s)
        layers["trace.overhead_ref"] = traced.time_ref() - plain.time_ref()
        result["backend"] = getattr(sys.modules.get("fgw._kernels"), "backend", "unknown")
        result["time_ref_untraced"] = plain.time_ref()
        result["time_ref_traced"] = traced.time_ref()
        for i, digests in enumerate(plain.digests):
            traced.digests[i].extend(digests)
        phase = traced
    else:
        # set-up is timed in fresh interpreters between rounds, so the
        # probes see the machine at many moments of the run
        setup_probe(args)  # warm-up: leaves the bytecode cache written
        setups = []

        def probe():
            if len(setups) < SETUP_PROBES:
                setups.append(setup_probe(args))

        phase = Phase(ops)
        run_rounds(phase, args.seconds, refcalc.reference_seconds, after_round=probe)
        while len(setups) < MIN_SETUP_PROBES:
            setups.append(setup_probe(args))
        result["setup_s"] = statistics.median(setups)
        result["setups"] = setups
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks

    problems = [
        f"{op.name}: output differs between rounds"
        for op, digests in zip(ops, phase.digests)
        if checks.repeats_differ(digests)
    ]
    problems += checks.check_outputs(ops, phase.outputs)
    problems += checks.self_test(ops, phase.outputs)
    result.update(
        time_ref=phase.time_ref(),
        wall_s=sum(statistics.median(w) for w in phase.walls),
        ref_s=statistics.median(phase.refs),
        rounds=phase.rounds,
        attempted=phase.attempted,
        failed=phase.failed,
        errors=phase.errors,
        problems=problems,
        correct=not problems,
        per_op={op.name: statistics.median(r) for op, r in zip(ops, phase.ratios)},
    )
    if layers is not None:
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
