"""Benchmark of the simba reproduction: three closed-loop workloads.

    python3 perfbench/run.py --workload toy_train --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1``
they are the per-layer metrics, from a run that measures its first third
with no tracer and then traces every other timed operation.  The line
before it is a JSON object with the details: the
environment, the shapes, exact counts, the tail percentile and its sample
count, the output checks, and in a traced run each span's self time.
Results and spans are also written under ``perfbench/out/``.

The program is imported from ``src/`` next to this directory; without it
the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
MAX_BLAS_THREADS = 2

# (name, unit) in the order of BENCHMARK.json
END_TO_END = [("setup_s", "s"), ("samples_per_s", "1/s"), ("step_ms_p50", "ms"),
              ("step_ms_tail", "ms"), ("peak_rss_mib", "MiB")]


def per_layer_names():
    from spans import BWD_LAYERS, FWD_LAYERS, PHASES
    names = [("tensor.backward_ms", "ms"), ("tensor.graph_nodes", "count"),
             ("tensor.recorded_mib", "MiB")]
    for layer in FWD_LAYERS:
        names.append((f"{layer}.fwd_ms", "ms"))
        if layer in BWD_LAYERS:
            names.append((f"{layer}.bwd_ms", "ms"))
    names += [(phase, "ms") for phase in PHASES]
    names += [("train.eval_ms", "ms"), ("data.load_ms", "ms"), ("data.assemble_ms", "ms"),
              ("checkpoint.save_ms", "ms"), ("checkpoint.saves", "count"),
              ("checkpoint.bytes", "B"), ("model.params", "count"),
              ("quality.final_train_loss", "nats"), ("trace.plain_step_ms_p50", "ms"),
              ("trace.untraced_step_ms_p50", "ms"), ("trace.traced_step_ms_p50", "ms"),
              ("trace.overhead_ms", "ms")]
    return names


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def blas_threads():
    threads = min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("SIMBA_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def openblas_threads():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def environment(threads):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "blas_threads_requested": threads, "blas_threads": openblas_threads(),
            "machine": platform.machine()}




def med(values):
    return statistics.median(values) if values else 0.0


def end_to_end(run, tail_pct):
    import numpy as np
    values = {
        "setup_s": med(run.setup_s),
        "samples_per_s": run.samples / run.loop_s if run.loop_s else 0.0,
        "step_ms_p50": med(run.ops.ms),
        "step_ms_tail": float(np.percentile(run.ops.ms, tail_pct)) if run.ops.ms else 0.0,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    beyond = sum(1 for ms in run.ops.ms if ms > values["step_ms_tail"])
    detail = {"step_ms_tail_percentile": tail_pct, "steps": len(run.ops.ms),
              "steps_beyond_tail": beyond}
    return values, detail


def per_layer(run, tracer):
    layers = run.ops.layers
    values = {}
    for name, _ in per_layer_names():
        if layers and name in layers[0]:
            values[name] = med([s[name] for s in layers])
    if run.ops.name == "bench.eval_batch":
        values["train.eval_ms"] = med([s["op_ms"] for s in layers])
    else:  # the per-epoch evaluate() calls of train(), every other one traced
        values["train.eval_ms"] = med(tracer.durations("train.evaluate"))
    values["data.load_ms"] = med(run.load_ms)
    values["data.assemble_ms"] = med(tracer.durations("data.assemble_batch"))
    values["checkpoint.save_ms"] = med(tracer.durations("checkpoint.save_checkpoint"))
    values["checkpoint.saves"] = run.counts.get("checkpoint.saves", 0)
    values["checkpoint.bytes"] = run.counts.get("checkpoint.bytes", 0)
    values["model.params"] = run.counts["model.params"]
    values["quality.final_train_loss"] = run.quality.get("final_train_loss", 0.0)
    values["trace.plain_step_ms_p50"] = med(run.ops.plain_ms)
    values["trace.untraced_step_ms_p50"] = med(run.ops.untraced_ms)
    values["trace.traced_step_ms_p50"] = med(run.ops.traced_ms)
    values["trace.overhead_ms"] = values["trace.traced_step_ms_p50"] - values["trace.plain_step_ms_p50"]
    for name, _ in per_layer_names():
        values.setdefault(name, 0.0)
    return values


def self_time_table(tracer, run):
    """Per traced operation: calls, total and self ms of every span name, by self time."""
    ops = max(1, len(run.ops.layers))
    rows = sorted(tracer.self_times().items(), key=lambda kv: -kv[1][2])
    return {name: {"calls": round(calls / ops, 2), "total_ms": round(tot / ops, 3),
                   "self_ms": round(own / ops, 3)} for name, (calls, tot, own) in rows}


def main():
    args = parse_args()
    threads = blas_threads()  # before numpy loads
    from workloads import TAIL, WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import simba  # noqa: F401
        import simba.train  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the simba package from {os.path.join(ROOT, 'src')}: {exc}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    tracer = None
    if args.trace:  # the workload installs it after its plain phase
        from spans import Tracer
        tracer = Tracer()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        run = WORKLOADS[args.workload](args.seed, args.seconds, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if tracer is not None:
            tracer.uninstall()

    failed = run.ops.failed + len(run.checks_failed)
    tag = f"{args.workload}-seed{args.seed}"
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(threads), "shapes": run.shapes,
        "counts_computed": run.counts, "quality": run.quality,
        "checks_failed": run.checks_failed, "error_rate": failed / max(1, run.ops.attempted),
        "setup_s_each": run.setup_s, "import_s": import_s,
    }
    if args.trace:
        metrics = per_layer(run, tracer)
        units = dict(per_layer_names())
        detail["traced_ops"] = len(run.ops.layers)
        detail["self_time_per_op"] = self_time_table(tracer, run)
        tracer.write(os.path.join(OUT, f"{tag}-spans.tsv.gz"))
    else:
        metrics, more = end_to_end(run, TAIL[args.workload][0])
        units = dict(END_TO_END)
        detail.update(more)
        detail.update(run.extra)
    result = {
        "correct": failed == 0,
        "attempted": run.ops.attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    with open(os.path.join(OUT, f"{tag}-trace{args.trace}.json"), "w") as f:
        json.dump({"detail": detail, "result": result}, f, indent=1, default=str)
    print(json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
