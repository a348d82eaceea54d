"""driftcast benchmark: one workload per run, closed loop, checked outputs.

    python3 perfbench/run.py --workload desk-uniform --seed 1 --seconds 10 --trace 0

Run from anywhere; the program is imported from ``src/`` beside this
directory.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of the traced run with
``--trace 1``.  The exit code is 1 when an output check fails and 2 when the
program cannot be imported or a run cannot be set up.  Outputs, spans and a
result record with the machine description go to ``.perfbench_out/``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread, set before numpy loads: it is no more than any machine's
# core count, and results repeat bitwise only at a fixed thread count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

END_TO_END = {
    "setup_s": "s",
    "offline_train_s": "s",
    "online_day_s": "s",
    "grid_s": "s",
    "artefact_io_s": "s",
    "rmse": "metric",
    "nrmse": "1",
    "peak_rss_mb": "MiB",
}


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    mem_kib = None
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                mem_kib = int(line.split()[1])
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "memory_mib": mem_kib // 1024 if mem_kib else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": BLAS_THREADS,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, t0: float | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (the result line, the full record)."""
    import spans
    import workloads

    w = workloads.WORKLOADS[name]
    if smoke:
        w = workloads.smoke(w)
    out = OUT / (name + ("-smoke" if smoke else ""))
    out.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if trace else None
    if tracer:
        tracer.install()
    runner = workloads.Runner(w, seed, seconds, out, tracer)
    try:
        runner.setup(T0 if t0 is None else t0)
        res = runner.run()
    finally:
        if tracer:
            tracer.uninstall()
    work_s = time.perf_counter() - (T0 if t0 is None else t0)

    if tracer:
        units = dict(spans.per_layer_names())
        metrics = {k: {"value": v, "unit": units[k]} for k, v in tracer.metrics().items()}
        tracer.write(out / f"spans-seed{seed}.json")
    else:
        metrics = {k: {"value": res.metrics[k], "unit": u} for k, u in END_TO_END.items()
                   if k in res.metrics}
    line = {
        "correct": not res.check_failures,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "machine": machine(),
        "run_total_s": work_s,
        "end_to_end": res.metrics,
        "info": res.info,
        "failed_operations": res.failures,
        "check_failures": res.check_failures,
    }
    if tracer:
        record["per_layer"] = tracer.metrics()
        record["traced_total_s"] = tracer.total_s
        record["layer_shares"] = tracer.layer_shares()
        record["layer_shares_rounds"] = tracer.layer_shares(*runner.round_window)
        record["missing"] = tracer.missing
    (out / f"result-trace{int(trace)}-seed{seed}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return line, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the workload at reduced size")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "driftcast" / "__init__.py").is_file():
        print(f"error: the program is not at {src / 'driftcast'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    line, record = run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace), args.smoke)
    m = record["machine"]
    print(f"# {args.workload} seed {args.seed}: nproc {m['nproc']}, numpy {m['numpy']}, "
          f"{m['blas']}, {m['blas_threads']} BLAS thread(s); "
          f"{record['info'].get('rounds')} round(s)")
    for msg in record["failed_operations"] + record["check_failures"]:
        print(f"# FAIL {msg}")
    if record.get("missing"):
        print(f"# not traced (absent from the program): {', '.join(record['missing'])}")
    for name, metric in line["metrics"].items():
        print(f"# {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
