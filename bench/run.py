#!/usr/bin/env python3
"""extremefit benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload fit_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; extremefit is imported from ./src.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run is traced and
the metrics are the per-layer ones. ``--quick`` shrinks every input so that
a run, checks included, takes seconds. See bench/README.md.
"""

from __future__ import annotations

import os

# One thread everywhere: numpy's BLAS/OpenMP pools in this process and in
# every child it starts (setup probes and CLI commands).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("fit_sweep", "cli_pipeline")
PROBES_PER_CYCLE = 2
MAX_WALL_S = 150.0  # cycles stop starting once a run has used this long


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="small inputs, for the self-test")
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.pop("EXTREMEFIT_SEED", None)
    return env


def require_source():
    """Exit without a result unless this checkout holds src/extremefit."""
    if not os.path.isfile(os.path.join(SRC, "extremefit", "__init__.py")):
        sys.exit(f"bench: no extremefit source under {SRC}; run from a source checkout")


def import_program():
    """Import extremefit from this checkout's src/."""
    require_source()
    sys.path[:0] = [SRC, BENCH]
    import extremefit

    if not os.path.abspath(extremefit.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported extremefit from {extremefit.__file__}, not {SRC}")
    return extremefit


def probe(args):
    """Fresh-interpreter set-up: import the program, then make the inputs."""
    t0 = time.perf_counter()
    import_program()
    t1 = time.perf_counter()
    import workloads

    workdir = os.path.join(OUT, f"probe-{os.getpid()}")
    t2 = time.perf_counter()
    workloads.WORKLOADS[args.workload](args.seed, args.quick, workdir)
    t3 = time.perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"import_s": t1 - t0, "gen_s": t3 - t2}))


def setup_probe(args):
    """One fresh-interpreter set-up; returns its probe() record."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1"] + (["--quick"] if args.quick else [])
    res = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                         timeout=120)
    if res.returncode:
        sys.stderr.write(res.stderr)
        sys.exit(f"bench: set-up probe exited with {res.returncode}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def _feed(h, obj):
    import numpy as np

    if isinstance(obj, np.ndarray):
        h.update(obj.dtype.str.encode())
        h.update(repr(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        for k in sorted(obj):
            h.update(str(k).encode())
            _feed(h, obj[k])
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for v in obj:
            _feed(h, v)
        h.update(b"]")
    elif isinstance(obj, float):
        h.update(float(obj).hex().encode())
    else:
        h.update(repr(obj).encode())


def digest(ops):
    h = hashlib.sha256()
    for op in ops:
        h.update(op.name.encode())
        _feed(h, op.out)
    return h.hexdigest()


def inprocess_runner(tracer):
    """CLI commands through extremefit.cli.main, so library spans nest under them."""
    import extremefit.cli as cli

    def run(argv, cwd):
        prev = os.getcwd()
        os.chdir(cwd)
        t0 = time.perf_counter()
        try:
            code = tracer.call(f"cli.{argv[0]}", cli.main, list(argv))
        finally:
            seconds = time.perf_counter() - t0
            os.chdir(prev)
        return code, seconds, 0

    return run


def main(argv=None):
    args = parse_args(argv)
    if args.probe:
        probe(args)
        return 0
    run_start = time.perf_counter()
    require_source()
    # Unmeasured, so every measured probe finds the bytecode cache in one state.
    setup_probe(args)

    ef = import_program()
    import workloads

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    workload = workloads.WORKLOADS[args.workload](args.seed, args.quick, workdir)
    tracer = None
    pause = contextlib.nullcontext
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        pause = tracer.paused
    if args.workload == "cli_pipeline":
        cycle_arg = (inprocess_runner(tracer) if tracer
                     else workloads.subprocess_runner(child_env()))
    else:
        cycle_arg = pause

    cycle_s, part_s, chain_s, parts_per_run = [], {}, {}, {}
    bytes_written, probes, op_s = [], [], {}
    child_rss_kb = 0
    first, first_digest, mismatched = None, None, 0
    deadline = time.perf_counter() + args.seconds
    while True:
        # Set-up is measured before every cycle, so its samples spread over
        # the run and every cycle follows the same kind of work.
        probes += [setup_probe(args) for _ in range(PROBES_PER_CYCLE)]
        cycle = workload.cycle(ef, cycle_arg)
        d = digest(cycle.ops)
        if first is None:
            first, first_digest = cycle, d
        elif d != first_digest:
            mismatched += 1
        cycle_s.append(sum(cycle.parts.values()))
        child_rss_kb = max(child_rss_kb, cycle.child_rss_kb)
        for name, seconds in cycle.parts.items():
            part_s.setdefault(name, []).append(seconds)
        for op in cycle.ops:
            op_s.setdefault(op.name, []).append(op.seconds)
        for kind, parts in cycle.chain_s.items():
            chain_s.setdefault(kind, []).extend(parts)
            parts_per_run[kind] = len(parts)
        bytes_written.append(sum(len(text.encode()) for op in cycle.ops
                                 for text in op.out.get("files", {}).values()))
        now = time.perf_counter()
        if now >= deadline or now - run_start > MAX_WALL_S:
            break
    n_cycles = len(cycle_s)
    med = statistics.median
    # Linux reports KiB; for cli_pipeline, the largest CLI child's own peak.
    peak_rss_mb = (child_rss_kb if args.workload == "cli_pipeline"
                   else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) / 1024.0

    layer = None
    if tracer:
        tracer.uninstall()
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, f"spans-{tag}.npz"))
        layer = tracer.layer_metrics(n_cycles, {
            "cli.import_s": (med(p["import_s"] for p in probes), "s"),
            "cli.bytes_written": (med(bytes_written), "bytes"),
        })

    t_check = time.perf_counter()
    verdict = workload.check(ef, first.ops)
    check_s = time.perf_counter() - t_check
    shutil.rmtree(workdir, ignore_errors=True)
    if mismatched:
        verdict.errors.append(f"{mismatched} of {n_cycles - 1} later cycles did not "
                              f"reproduce the first cycle's outputs")

    for name, fault, reason in verdict.failures:
        print(f"FAILED {name} fault={fault} ({workloads.FAULTS[fault]}): {reason}")
    for err in verdict.errors:
        print(f"CHECK ERROR {err}")
    correct = not verdict.errors and all(k in verdict.min_ess for k in workloads.SAMPLERS)

    # A sampler run is made of equal parts (its chains, or one CLI command):
    # the median part times their number estimates its time.
    sampler_s = {kind: med(v) * parts_per_run[kind] for kind, v in chain_s.items()}
    if tracer:
        chosen = layer
    else:
        chosen = {
            "setup_s": (med(p["import_s"] + p["gen_s"] for p in probes), "s"),
            "cycle_s": (med(cycle_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        for kind in workloads.SAMPLERS:
            chosen[f"min_ess_per_s.{kind}"] = (verdict.min_ess.get(kind, 0.0) / sampler_s[kind],
                                               "1/s")
    metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in chosen.items()}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick, "cycles": n_cycles, "check_s": check_s,
        "setup_samples": probes, "cycle_s": cycle_s, "sampler_s": sampler_s,
        "part_s": part_s, "chain_s": chain_s, "op_s": op_s,
        "min_ess": verdict.min_ess, "max_rhat": verdict.max_rhat,
        "failures": [{"op": n, "fault": f, "reason": r} for n, f, r in verdict.failures],
        "errors": verdict.errors,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"report-{tag}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": len(first.ops) * n_cycles,
        "failed": len(verdict.failed_ops) * n_cycles,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
