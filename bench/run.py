"""Benchmark of the qreglp package: three workloads, timed end to end,
with a separate traced run that splits each round's time by module.

Run from the root of a checkout:

    python3 bench/run.py --workload ot-experiment --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload oracle-battery --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --quick          # every workload once, small, checked

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  See
bench/README.md for the workloads, metrics and reference figures.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

T0 = time.perf_counter()
# One BLAS thread, set before numpy loads: two threads on two cores are
# slower on these small factorizations and change the last digits of eta*.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("ot-experiment", "oracle-battery", "analyze-vertex"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="run every workload once at small size and check it")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.quick and args.workload is None:
        p.error("--workload is required unless --quick is given")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Import qreglp from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import qreglp
    except ImportError as exc:
        sys.exit(f"error: cannot import qreglp from {SRC}: {exc}")
    if not Path(qreglp.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: qreglp imported from {qreglp.__file__}, not from {SRC}")


def openblas_threads() -> dict:
    """Thread count of each loaded OpenBLAS, asked from the library itself."""
    found = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = int(fn())
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        blas = {}
    try:
        threads = openblas_threads()
    except OSError:
        threads = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_round(ops, results, failures, durations):
    """Run one round; return its wall time.

    Results of operations that finished go to ``results`` for the checks,
    errors to ``failures``; ``durations`` gets the wall time of each
    finished operation.
    """
    t_round = time.perf_counter()
    for label, op in ops:
        t = time.perf_counter()
        try:
            out = op()
        except Exception as exc:  # the program's fault: counted, run goes on
            failures.append((label, f"{type(exc).__name__}: {exc}"))
            continue
        durations.append(time.perf_counter() - t)
        results.append((label, out))
    return time.perf_counter() - t_round


def timed_rounds(ops, seconds, results, failures, durations, on_round=None):
    """Whole rounds until ``seconds`` have passed; returns round wall times."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(ops, results, failures, durations))
        if on_round is not None:
            on_round()
        if time.perf_counter() - start >= seconds:
            return rounds


def set_up(args, workdir):
    """Input generation and one untimed warm-up operation.

    The set-up time returned also counts the imports since start-up.
    """
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, str(workdir))
    ops = wl.ops()
    warm_results, warm_failures = [], []
    run_round(ops[:1], warm_results, warm_failures, [])
    return wl, ops, warm_results, time.perf_counter() - T0


def setup_probes(args, count):
    """Set-up times of ``count`` fresh processes of this benchmark."""
    samples = []
    for _ in range(count):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, ops):
    results, failures, durations = [], [], []
    t = time.perf_counter()
    timed_rounds(ops, args.seconds, results, failures, durations)
    wall = time.perf_counter() - t
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "ops_per_s": metric(len(durations) / wall, "ops/s"),
        "op_median_s": metric(statistics.median(durations) if durations else float("nan"), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    return metrics, results, failures


def per_layer(args, ops):
    import tracing

    results, failures = [], []
    untraced = timed_rounds(ops, args.seconds / 2, results, failures, [])
    per_round, first_spans = [], []
    with tracing.Tracer() as tracer:

        def collect():
            per_round.append(tracing.layer_metrics(tracer.spans))
            if not first_spans:
                first_spans.extend(tracing.span_records(tracer.spans))
            tracer.clear()

        traced = timed_rounds(ops, args.seconds / 2, results, failures, [], on_round=collect)
    metrics = {}
    for key in per_round[0]:
        if key in tracing.COUNTS:
            values = {r[key] for r in per_round}
            if len(values) != 1:
                print(f"warning: {key} differs between rounds: {sorted(values)}", file=sys.stderr)
            metrics[key] = metric(per_round[0][key], "count")
        else:
            unit = "s" if key.endswith("_s") else "ratio"
            metrics[key] = metric(statistics.median(r[key] for r in per_round), unit)
    metrics["trace.round_s"] = metric(statistics.median(traced), "s")
    metrics["trace.overhead_ratio"] = metric(
        statistics.median(traced) / statistics.median(untraced), "ratio"
    )
    return metrics, results, failures, first_spans


def write_json(path: Path, obj):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def quick():
    """Every workload once at small size, with its checks."""
    from workloads import WORKLOADS

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ok = True
    try:
        for name, cls in WORKLOADS.items():
            wl = cls(0, str(workdir), quick=True)
            results, failures, durations = [], [], []
            wall = run_round(wl.ops(), results, failures, durations)
            problems = wl.check(results)
            ok = ok and not problems
            print(f"{name}: {len(durations) + len(failures)} ops, {len(failures)} failed, "
                  f"{wall:.2f} s, {'correct' if not problems else 'WRONG'}")
            for label, err in failures:
                print(f"  failed {label}: {err}")
            for msg in problems:
                print(f"  check: {msg}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    import_program()
    if args.quick:
        return quick()
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl, ops, warm_results, setup_s = set_up(args, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            metrics, results, failures, spans = per_layer(args, ops)
            write_json(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json",
                       {"workload": args.workload, "seed": args.seed,
                        "spans": ["name", "start", "end", "parent"], "round": spans})
        else:
            metrics, results, failures = end_to_end(args, ops)
        problems = wl.check(warm_results + results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        samples = [setup_s] + setup_probes(args, SETUP_SAMPLES - 1)
        metrics["setup_s"] = metric(statistics.median(samples), "s")
    for (label, err), count in Counter(failures).items():
        print(f"failed {count}x: {label}: {err}", file=sys.stderr)
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(results) + len(failures),
        "failed": len(failures),
        "metrics": metrics,
    }
    env = environment()
    write_json(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
               {"env": env, "args": vars(args), "result": result})
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
