"""Benchmark of the mvmatch CLI: one workload, closed loop, one client.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload group-planar-168 --seed 1 --seconds 30 --trace 0

Operations run one after another in this process through ``mvmatch.cli.main``
until ``--seconds`` have passed (at least the workload's minimum count). Each
operation's outputs are checked outside its timed section; a failed check
counts as a failed operation and the run goes on. With ``--trace 0`` the
end-to-end metrics are reported; with ``--trace 1`` untraced and traced
operations alternate and the per-layer metrics of the traced ones are
reported. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A full record (environment,
every metric, op times, failed checks) and, when traced, the spans are
written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_OPS = 2  # the determinism check compares each operation with the first


def _cap_blas_threads() -> int:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    cap = NPROC
    for var in BLAS_THREAD_VARS:
        if os.environ.get(var, "").isdigit():
            cap = min(cap, max(1, int(os.environ[var])))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def _import_package():
    """Import mvmatch from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "mvmatch" / "__init__.py").is_file():
        print(f"error: no mvmatch sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import mvmatch
    if Path(mvmatch.__file__).resolve().parent != SRC / "mvmatch":
        print(f"error: imported mvmatch from {mvmatch.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return mvmatch


def environment(seed: int, blas_cap: int) -> dict:
    import numpy as np
    from mvmatch import kernels
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"backend": kernels.BACKEND, "numpy": np.__version__, "blas": blas,
            "blas_threads": blas_cap, "nproc": NPROC,
            "python": platform.python_version(), "seed": seed}


def tail(times: list[float]):
    """Highest percentile with at least 10 samples beyond it: (value, pct) or None."""
    n = len(times)
    if n < 11:
        return None
    return sorted(times)[n - 11], 100.0 * (n - 10) / n


def time_setup(workload: str, seed: int, work: Path) -> list[float]:
    """Wall time of fresh processes doing imports, scene generation and input writes."""
    samples = []
    for k in range(SETUP_REPEATS):
        target = work / f"setup{k}"
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                        "--seed", str(seed), "--setup-only", str(target)],
                       check=True, stdout=subprocess.DEVNULL)  # a timeout would poll in 50 ms steps
        samples.append(time.perf_counter() - t0)
        shutil.rmtree(target)
    return samples


class Run:
    """Closed loop over one workload's operations, with checks and bookkeeping."""

    def __init__(self, workload, work: Path, seed: int):
        self.workload = workload
        self.work = work
        self.seed = seed
        self.times: list[float] = []
        self.traced: list[bool] = []
        self.failed = 0
        self.problems: list[str] = []
        self.quality: dict[str, float] = {}
        self.digest = None

    def op(self, tracer=None) -> None:
        from workloads import output_digest
        op_id = len(self.times)
        out = self.work / f"op{op_id}"
        if tracer is not None:
            tracer.op = op_id
        t0 = time.perf_counter()
        try:
            code = self.workload.op(self.work, out, self.seed)
        except Exception:  # a crashing operation is a failed one; the run goes on
            traceback.print_exc(file=sys.stderr)
            code = -1
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = None
        problems = [] if code == 0 else [f"exit code {code}"]
        if code == 0:
            try:
                quality, found = self.workload.check(self.work, out)
                problems += found
                self.quality = quality
                digest = output_digest(out)
                if self.digest is None:
                    self.digest = digest
                elif digest != self.digest:
                    problems.append("outputs differ from the first operation's")
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"output check raised {exc!r}")
        if problems:
            self.failed += 1
            self.problems += [f"op {op_id}: {p}" for p in problems]
        shutil.rmtree(out, ignore_errors=True)
        self.times.append(elapsed)
        self.traced.append(tracer is not None)

    def loop(self, seconds: float, tracer=None) -> None:
        """Run operations until ``seconds`` pass; with a tracer, alternate off/on."""
        start = time.perf_counter()
        while (len(self.times) < MIN_OPS
               or time.perf_counter() - start < seconds):
            traced = tracer is not None and len(self.times) % 2 == 1
            self.op(tracer if traced else None)
            if tracer is not None and len(self.times) == 1:
                from tracing import instrument
                instrument(tracer)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=Path, default=None,
                        help=argparse.SUPPRESS)  # used by the set-up timing
    args = parser.parse_args(argv)

    blas_cap = _cap_blas_threads()
    _import_package()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.setup_only is not None:
        args.setup_only.mkdir(parents=True)
        workload.setup(args.setup_only, args.seed)
        return 0

    import resource
    work = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    outdir = ROOT / ".perfbench_out"
    stem = f"{workload.name}-s{args.seed}-t{args.trace}"
    work.mkdir(parents=True)
    try:
        setup_times = time_setup(workload.name, args.seed, work)
        workload.setup(work, args.seed)
        run = Run(workload, work, args.seed)
        if args.trace:
            from tracing import Tracer, per_layer_metrics
            tracer = Tracer()
            run.loop(args.seconds, tracer)
            traced = [t for t, on in zip(run.times, run.traced) if on]
            plain = [t for t, on in zip(run.times, run.traced) if not on]
            metrics = per_layer_metrics(tracer, len(traced))
            metrics["trace.overhead_frac"] = (statistics.median(traced)
                                              / statistics.median(plain) - 1.0)
            coverage = min(tracer.top_level_time(i) / run.times[i]
                           for i, on in enumerate(run.traced) if on)
            metrics["trace.top_level_coverage"] = coverage
            if coverage < 0.95:
                run.problems.append(f"top-level spans cover {coverage:.3f} < 0.95 of an op")
            tracer.write_spans(outdir / f"{stem}.spans.jsonl")
        else:
            run.loop(args.seconds)
            metrics = {"op_s_p50": statistics.median(run.times),
                       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       * 1024 / 1e6,
                       "setup_s": statistics.median(setup_times)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    units = _units()
    report = {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()}
    extra = {"fail_frac": run.failed / len(run.times), **run.quality}
    if not args.trace:
        t = tail(run.times)
        extra["op_s_tail"] = t[0] if t else None
        extra["op_s_tail_pct"] = t[1] if t else None
    record = {"workload": workload.name, "params": asdict(workload),
              "env": environment(args.seed, blas_cap), "trace": args.trace,
              "metrics": report, "extra": extra, "op_s": run.times,
              "setup_s": setup_times, "problems": run.problems}
    outdir.mkdir(exist_ok=True)
    (outdir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"# {workload.name} env {json.dumps(record['env'], sort_keys=True)}")
    print(f"# ops {len(run.times)}: " + " ".join(f"{t:.3f}" for t in run.times))
    for name, entry in sorted(report.items()):
        print(f"# {name:<48} {entry['value']:>14.6g} {entry['unit']}")
    for name, value in extra.items():
        shown = "n/a (fewer than 11 ops)" if value is None else f"{value:.6g}"
        print(f"# {name:<48} {shown:>14} {units.get(name, '')}")
    print(json.dumps({"correct": not run.problems, "attempted": len(run.times),
                      "failed": run.failed, "metrics": report}))
    return 0


def _units() -> dict[str, str]:
    """Units of every metric, from BENCHMARK.json plus those only in the record."""
    units = {"fail_frac": "fraction", "epe_px": "px", "completeness_5cm": "fraction",
             "accuracy_5cm": "fraction", "tracks": "count", "triangulated": "count",
             "op_s_tail": "s", "op_s_tail_pct": "%"}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in bench["end_to_end"] + bench["per_layer"]:
        units[entry["name"]] = entry["unit"]
    return units


if __name__ == "__main__":
    sys.exit(main())
