"""Benchmark for fedhin: end-to-end metrics, or per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload preset-round --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # listed workloads, each in a fresh process

One run repeats a workload's whole experiment (set-up, rounds 1..R,
checkpoint round trip) with the same seed until ``--seconds`` would be
exceeded, at least twice, so that every run also checks that the
metrics stream is byte-identical across repeats.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
experiments and prints the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted and failed uploads, and
the metrics.  Any failed check makes the exit code nonzero.
"""

import os

# pin BLAS to one thread before numpy is imported anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    if not (SRC / "fedhin" / "__init__.py").is_file():
        sys.exit(f"error: no fedhin sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import fedhin

    if Path(fedhin.__file__).resolve().parent != SRC / "fedhin":
        sys.exit(f"error: imported fedhin from {fedhin.__file__}, not from {SRC}")


def environment() -> dict:
    def blas(module):
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas(np)['name']} {blas(np)['version']}",
        "scipy_blas": f"{blas(scipy)['name']} {blas(scipy)['version']}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
    }


def repeat(body, seconds: float, minimum: int) -> None:
    """Call ``body`` until one more call would overrun ``seconds``, at least
    ``minimum`` times; stop early when it returns False."""
    start = time.perf_counter()
    done = 0
    while True:
        if body() is False:
            return
        done += 1
        elapsed = time.perf_counter() - start
        if done >= minimum and elapsed + elapsed / done > seconds:
            return


def measure(workload, seed: int, seconds: float, workdir: Path):
    """Untraced repeats; returns the experiments and the end-to-end metrics."""
    from experiment import check_stream, run_once
    from spans import Tracer

    exps = []
    peak_rss_kib = []

    def body():
        exp = run_once(workload, seed, Tracer(enabled=False), workdir)
        check_stream(exp, exps[0] if exps else None)
        exps.append(exp)
        if len(exps) == 1:
            # the fresh process's peak over one experiment: later repeats only
            # add allocator growth, which would tie the figure to run length
            peak_rss_kib.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        return not exp.failures

    repeat(body, seconds, minimum=2)
    if any(e.failures for e in exps):
        return exps, {}, []
    rounds = [r for e in exps for r in e.round_s]
    n = len(rounds)
    # the highest percentile up to p90 with ten samples beyond it, never
    # below the median; with fewer than 20 rounds that is the median itself
    q_hi = max(0.5, min(0.9, 1.0 - 10 / n))
    metrics = {
        "setup_s": statistics.median(e.setup_s for e in exps),
        "train_nodes_per_s": sum(e.examples for e in exps) / sum(rounds),
        "round_s.p50": float(np.quantile(rounds, 0.5)),
        "round_s.p90": float(np.quantile(rounds, q_hi)),
        "peak_rss_mb": peak_rss_kib[0] / 1024,
        "final_micro_f1": exps[0].final_micro_f1,
    }
    notes = [
        f"setup_s: median of {len(exps)} set-ups",
        f"round_s: {n} rounds pooled over {len(exps)} experiments; "
        f"round_s.p90 is the p{100 * q_hi:.0f} ({n - int(q_hi * n)} samples beyond it)",
        f"final_loss: {exps[0].final_loss!r} nats (deterministic; also model.final_loss)",
    ]
    return exps, metrics, notes


def trace(workload, seed: int, seconds: float, workdir: Path):
    """Pairs of untraced and traced repeats; returns the per-layer metrics."""
    from experiment import check_stream, fail, run_once
    from spans import Tracer
    from spec import EXACT_LAYER_METRICS

    start = time.perf_counter()
    # an untraced warm-up first: it is the stream reference, and it keeps
    # first-call costs out of the pairs that measure the tracing overhead
    exps = [run_once(workload, seed, Tracer(enabled=False), workdir)]
    traced, tracers, overheads = [], [], []

    def body():
        tracer = Tracer()
        exp = run_once(workload, seed, tracer, workdir)
        plain = run_once(workload, seed, Tracer(enabled=False), workdir)
        for e in (exp, plain):
            check_stream(e, exps[0])
            exps.append(e)
        if exp.failures or plain.failures:
            return False
        if traced:
            for name in EXACT_LAYER_METRICS:
                if exp.layers[name] != traced[0].layers[name]:
                    fail(exp, f"{name} is {exp.layers[name]} here, {traced[0].layers[name]} before")
        traced.append(exp)
        tracers.append(tracer)
        overheads.append(exp.wall_s - plain.wall_s)
        return not exp.failures

    if not exps[0].failures:
        repeat(body, seconds - (time.perf_counter() - start), minimum=1)
    with open(workdir / f"spans-{workload.name}-seed{seed}.jsonl", "w") as fh:
        for i, tracer in enumerate(tracers):
            tracer.write(fh, experiment=i)
    if any(e.failures for e in exps):
        return exps, {}, []
    # counts are equal across the traced experiments (checked above)
    metrics = {
        name: value if name in EXACT_LAYER_METRICS else statistics.median(e.layers[name] for e in traced)
        for name, value in traced[0].layers.items()
    }
    metrics["trace.overhead_s"] = statistics.median(overheads)
    notes = [f"{len(traced)} traced experiments, each paired with an untraced one; "
             f"spans in {workdir.relative_to(ROOT)}"]
    return exps, metrics, notes


def run_workload(args) -> int:
    from spec import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = HERE / "out"
    workdir.mkdir(exist_ok=True)
    print("env", json.dumps(environment()))
    run = trace if args.trace else measure
    exps, values, notes = run(workload, args.seed, args.seconds, workdir)
    specs = PER_LAYER if args.trace else END_TO_END
    correct = not any(e.failures for e in exps)
    attempted = sum(e.uploads_expected for e in exps)
    failed = sum(e.uploads_failed for e in exps)

    print(f"workload {workload.name} seed {args.seed}: {len(exps)} experiments, "
          f"stream_sha256 {exps[0].stream_sha256 or '-'}")
    for exp in exps:
        for reason in exp.failures:
            print(f"FAILED: {reason}")
    # a failed run has no metrics; a correct one must have every listed metric
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs} if correct else {}
    for name, metric in metrics.items():
        print(f"  {name:<36} {metric['value']!r} {metric['unit']}")
    for note in notes:
        print(f"  note: {note}")
    print(f"  op_fail_ratio {failed}/{attempted} uploads")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload BENCHMARK.json lists in its own fresh process, so each
    peak RSS is its own; unlisted workloads run only by name."""
    from spec import LISTED_WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in LISTED_WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        if proc.returncode != 0 or not result["correct"]:
            status = 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main() -> int:
    import_program()
    from spec import RUN_SECONDS
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = RUN_SECONDS
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
