"""fastproj benchmark: time to a certified projection, traced per module.

Run from the repository root:

    python3 perfbench/run.py --workload wy-4096-m2 --seed 1 --seconds 30 --trace 0

One caller issues ops back to back (a closed loop) for ``--seconds``; every
op's answer is checked.  With ``--trace 0`` no hook is installed and the
end-to-end metrics are printed; with ``--trace 1`` each op is run twice in a
row, once untraced and once traced, and the per-layer metrics are printed.
The last line of standard output is the result object; the line before it
holds the machine record and the details behind the metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PINNED: list[str] = []
# glibc mallopt parameters: keep freed memory in the heap (no trimming) and
# serve blocks up to 32 MB from it, instead of returning them to the kernel.
MALLOPT = {"M_TRIM_THRESHOLD": (-1, 1 << 30), "M_MMAP_THRESHOLD": (-3, 32 << 20)}
ALLOCATOR: dict = {}


def _keep_freed_memory() -> dict:
    """Stop glibc from handing freed blocks back to the kernel.  By default a
    norm-100k op took ~15,000 page faults (about a third of its time), whose
    cost on a shared VM swung with host load; with this, 2 per op."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return {"mallopt": "unavailable"}
    return {name: bool(libc.mallopt(param, value)) and value for name, (param, value) in MALLOPT.items()}


if __name__ == "__main__":
    # One BLAS thread unless the caller says otherwise: on a small shared box
    # threaded BLAS made run-to-run times several times noisier.  Must be set
    # before numpy loads.
    PINNED = [var for var in THREAD_VARS if var not in os.environ]
    for var in PINNED:
        os.environ[var] = "1"
    ALLOCATOR = _keep_freed_memory()

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# A tail percentile needs at least this many samples beyond it.
TAIL_SAMPLES = 10
# Per-layer metrics of the norm conversion, emitted only by norm workloads.
NORM_LAYER_METRICS = {
    "norm_duality.rounds_per_op": "count",
    "norm_duality.self_share": "frac",
    "reference.dual_ball_us": "us",
}


def _import_fastproj():
    """Import fastproj from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "fastproj" / "__init__.py").is_file():
        raise SystemExit(f"error: no fastproj sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fastproj

    if SRC.resolve() not in Path(fastproj.__file__).resolve().parents:
        raise SystemExit(f"error: imported fastproj from {fastproj.__file__}, not {SRC}")


def machine_record(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            names = (line.split(":", 1)[1] for line in fh if line.startswith("model name"))
            cpu = next(names).strip()
    except (OSError, StopIteration):
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = (
                (index / f).read_text().strip() for f in ("level", "type", "size")
            )
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
        "blas": blas,
        "env": {k: os.environ.get(k) for k in THREAD_VARS},
        "env_set_by_benchmark": PINNED,
        "allocator": ALLOCATOR,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
    }


class Ledger:
    """Attempted and failed ops, and failure reasons, of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.reasons: list[str] = []

    def fail(self, i: int, reason: str) -> None:
        self.failed_ops.add(i)
        if len(self.reasons) < 20:
            self.reasons.append(f"op {i}: {reason}")


def timed_op(workload, inst, ledger: Ledger, i: int, tracer=None):
    """Run op ``i`` and check it; return (seconds, result), result None if it
    raised.  With a tracer, the hooks are installed and the op is one span."""
    ledger.attempted += 1
    if tracer:
        tracer.install()
        tracer.op_id = i
    t0 = perf_counter()
    try:
        with tracer.span(workload.root) if tracer else nullcontext():
            result = workload.op(inst)
    except Exception as err:  # a raising op is a failed op, never dropped
        ledger.fail(i, f"raised {type(err).__name__}: {err}")
        return perf_counter() - t0, None
    finally:
        if tracer:
            tracer.op_id = -1
            tracer.uninstall()
    seconds = perf_counter() - t0
    reason = workload.check(inst, result)
    if reason:
        ledger.fail(i, reason)
    return seconds, result


class Pool:
    """The run's instances, each built on first use.  Building lazily spreads
    the set-up timings over the run, so a short burst of load on the machine
    skews a few of them instead of all.  With a tracer, the constructors run
    with the hooks installed and ``traced(k)`` is the span-recording copy."""

    def __init__(self, workload, seed: int, tracer=None):
        self.workload, self.seed, self.tracer = workload, seed, tracer
        self.built: dict = {}
        self._traced: dict = {}

    def __getitem__(self, i: int):
        k = i % self.workload.pool
        if k not in self.built:
            if self.tracer:
                self.tracer.install()
            try:
                self.built[k] = self.workload.build(self.seed, k)
            finally:
                if self.tracer:
                    self.tracer.uninstall()
        return self.built[k]

    def traced(self, i: int):
        k = i % self.workload.pool
        if k not in self._traced:
            self._traced[k] = self.workload.traced(self[k], self.tracer)
        return self._traced[k]

    def setup_s(self) -> float:
        return statistics.median(inst.setup_s for inst in self.built.values())


def run_grid_checks(workload, pool, first_results, ledger: Ledger) -> None:
    """Untimed dual-grid check of the first op on each of the first instances."""
    for k in range(workload.grid_checks):
        if k in first_results:
            reason = workload.grid_check(pool[k], first_results[k])
            if reason:
                ledger.fail(k, f"grid check: {reason}")


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_SAMPLES beyond it;
    the maximum when there are too few samples."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_SAMPLES:
        return ordered[-1], 100.0
    return ordered[n - TAIL_SAMPLES - 1], 100.0 * (n - TAIL_SAMPLES) / n


def run_end_to_end(workload, pool, seconds: float) -> tuple[dict, Ledger, dict]:
    ledger = Ledger()
    times, evals, calls, first = [], 0, 0, {}
    workload.op(pool[0])  # untimed warm-up: allocator, BLAS and import state
    deadline = perf_counter() + seconds
    i = 0
    while i == 0 or perf_counter() < deadline:
        t, result = timed_op(workload, pool[i], ledger, i)
        if result is not None:
            times.append(t)
            st = workload.stats(result)
            evals += st.grad_evals
            calls += st.oracle_calls
            if i < workload.grid_checks:
                first[i] = result
        i += 1
    run_grid_checks(workload, pool, first, ledger)
    if not times:
        raise RuntimeError("every op raised: " + "; ".join(ledger.reasons))

    total = sum(times)
    tail_value, tail_pct = tail(times)
    metrics = {
        "ops_per_s": (len(times) / total, "1/s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (tail_value, "s"),
        "grad_evals_per_op": (evals / len(times), "count"),
        "oracle_calls_per_op": (calls / len(times), "count"),
        "us_per_grad_eval": (1e6 * total / evals, "us"),
        "setup_s": (pool.setup_s(), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "op_s.tail": {
            "percentile": tail_pct,
            "samples": len(times),
            "samples_beyond": min(TAIL_SAMPLES, len(times) - 1),
        },
        "timed_s": total,
    }
    return metrics, ledger, details


def run_traced(workload, pool, seconds: float, tracer) -> tuple[dict, Ledger, dict]:
    """Paired ops on one instance, one untraced and one traced, for the overhead."""
    ledger = Ledger()
    plain, traced, stats, first = [], [], [], {}
    workload.op(pool[0])
    deadline = perf_counter() + seconds
    j = 0
    while j == 0 or perf_counter() < deadline:
        # Alternate which of the pair runs first, so order effects cancel.
        if j % 2:
            t_traced, result = timed_op(workload, pool.traced(j), ledger, 2 * j, tracer)
            t, _ = timed_op(workload, pool[j], ledger, 2 * j + 1)
        else:
            t, _ = timed_op(workload, pool[j], ledger, 2 * j)
            t_traced, result = timed_op(workload, pool.traced(j), ledger, 2 * j + 1, tracer)
        if result is not None:
            plain.append(t)
            traced.append(t_traced)
            stats.append(workload.stats(result))
            if j < workload.grid_checks:
                first[j] = result
        j += 1
    tracer.install()
    try:
        run_grid_checks(workload, pool, first, ledger)
    finally:
        tracer.uninstall()
    if not traced:
        raise RuntimeError("every op raised: " + "; ".join(ledger.reasons))
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics = layer_metrics(workload, tracer, stats, len(pool.built), overhead)
    details = {
        "traced_ops": len(traced),
        "untraced": tracer.untraced,
        "computed": "model.grad.flops and model.grad.bytes are computed from the "
        "array shapes, not measured",
        "grad_kernel": workload.grad_kernel(),
    }
    return metrics, ledger, details


def layer_metrics(workload, tracer, stats, pool_size: int, overhead: float) -> dict:
    """Per-layer metrics from the traced ops; 0 where a layer did not run.
    The norm conversion's metrics appear only on norm workloads."""
    sp = tracer.spans()
    root = workload.root
    n_ops = len(stats)
    op_wall = float(sp.dur[sp.mask(root)].sum())

    def count(name):
        return int(sp.mask(name).sum())

    def total(name, ops_only=True):
        return float(sp.dur[sp.mask(name, ops_only)].sum())

    def self_total(name):
        return float(sp.self_time[sp.mask(name)].sum())

    def mean_us(name):
        c = count(name)
        return 1e6 * total(name) / c if c else 0.0

    def share(seconds):
        return seconds / op_wall if op_wall else 0.0

    kernel = workload.grad_kernel()
    grad_calls = count("model.grad")
    grad_time = total("model.grad")

    construct = sp.mask("model.construct", ops_only=False) & ~sp.parent_is("model.construct")
    from_json = sp.mask("model.from_json", ops_only=False)
    grid = sp.mask("reference.grid", ops_only=False)

    oracle = sp.mask("dual_oracle")
    agd_children = np.bincount(
        sp.parent[sp.mask("agd")], minlength=sp.dur.size
    )[oracle] if oracle.any() else np.zeros(0)
    budgeted = agd_children >= 1

    rounds = sum(s.rounds for s in stats)
    in_box = sum(s.in_box_rounds for s in stats)
    steps = tracer.counts["agd"]

    values = {
        "model.grad.us": (mean_us("model.grad"), "us"),
        "model.grad.calls_per_op": (grad_calls / n_ops, "count"),
        "model.grad.share": (share(grad_time), "frac"),
        "model.grad.flops": (float(kernel["flops"]) if grad_calls else 0.0, "flop"),
        "model.grad.bytes": (float(kernel["bytes"]) if grad_calls else 0.0, "B"),
        "model.grad.gflops": (
            kernel["flops"] * grad_calls / grad_time / 1e9 if grad_time else 0.0,
            "GFLOP/s",
        ),
        "model.eval.us": (mean_us("model.eval"), "us"),
        "model.construct_s": (float(sp.dur[construct].sum()) / pool_size, "s"),
        "model.from_json_s": (float(sp.dur[from_json].mean()) if from_json.any() else 0.0, "s"),
        "agd.calls_per_op": (count("agd") / n_ops, "count"),
        "agd.self_us_per_step": (1e6 * self_total("agd") / steps if steps else 0.0, "us"),
        "dual_oracle.calls_per_op": (count("dual_oracle") / n_ops, "count"),
        "dual_oracle.us": (mean_us("dual_oracle"), "us"),
        "dual_oracle.self_share": (share(self_total("dual_oracle")), "frac"),
        "dual_oracle.first_budget_frac": (
            float(np.mean(agd_children[budgeted] == 1)) if budgeted.any() else 0.0,
            "frac",
        ),
        "cutting_plane.rounds_per_op": (rounds / n_ops, "count"),
        "cutting_plane.in_box_frac": (in_box / rounds if rounds else 0.0, "frac"),
        "cutting_plane.update_us": (mean_us("cutting_plane.update"), "us"),
        "cutting_plane.self_share": (
            share(self_total("cutting_plane") + self_total("cutting_plane.update")),
            "frac",
        ),
        "projector.final_extract_share": (
            share(float(sp.dur[oracle & sp.parent_is("projector.project")].sum())),
            "frac",
        ),
        "projector.self_share": (share(self_total("projector.project")), "frac"),
        "norm_duality.rounds_per_op": (tracer.counts["norm_duality.bisection"] / n_ops, "count"),
        "norm_duality.self_share": (
            share(self_total("norm_duality.project") + self_total("norm_duality.bisection")),
            "frac",
        ),
        "reference.dual_ball_us": (mean_us("reference.dual_ball"), "us"),
        "reference.grid_s": (float(sp.dur[grid].mean()) if grid.any() else 0.0, "s"),
        "trace.overhead_frac": (overhead, "frac"),
    }
    if not root.startswith("norm_duality"):
        for name in NORM_LAYER_METRICS:
            del values[name]
    return values


def run(workload_name: str, seed: int, seconds: float, trace: bool, workloads=None):
    """One benchmark run; returns (result object, details).  ``workloads``
    replaces the table of workloads (the tests pass tiny ones)."""
    from tracer import Tracer, leaked_hooks
    from workloads import WORKLOADS

    workload = (workloads or WORKLOADS)[workload_name]
    if not trace and leaked_hooks():
        raise RuntimeError(f"span hooks installed before an untraced run: {leaked_hooks()}")
    tracer = Tracer() if trace else None
    pool = Pool(workload, seed, tracer)
    if tracer:
        metrics, ledger, details = run_traced(workload, pool, seconds, tracer)
    else:
        metrics, ledger, details = run_end_to_end(workload, pool, seconds)
        if leaked_hooks():
            raise RuntimeError(f"span hooks installed during an untraced run: {leaked_hooks()}")

    failed = len(ledger.failed_ops)
    details.update(
        workload=workload.name,
        trace=int(trace),
        machine=machine_record(seed),
        failed_frac=failed / ledger.attempted,
        failures=ledger.reasons,
    )
    result = {
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_fastproj()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
