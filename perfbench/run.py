"""End-to-end benchmark of the repro package: one closed-loop caller.

Usage (from the repository root)::

    python3 perfbench/run.py --workload plan_cold --seed 1 --seconds 10
    python3 perfbench/run.py --workload multiply_data --seed 1 --trace 1

The untraced run (``--trace 0``) times each operation and prints the
end-to-end metrics.  The traced run (``--trace 1``) runs one pass
untraced as its reference, replays the same pass under cProfile and
prints the per-layer metrics.  The last line of standard
output is one JSON object with the result.  See README.md.
"""

import os

# Before numpy is imported: one BLAS thread, so the local GEMM does not
# fight the simulator for the cores (data-mode SUMMA n=1024, p=64 took
# 11-17 s with default OpenBLAS threads beside one busy process, 0.3 s
# pinned).
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import cProfile  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import pkgutil  # noqa: E402
import pstats  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: The closed loop stops after this many seconds even when the tail
#: percentile is short of samples, to end well within the time limit.
LOOP_CAP_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Counters of the traced run, each per operation unless noted.
COUNTER_UNITS = {
    "planner.candidates": "count",
    "planner.refine_macro_calls": "count",
    "planner.refine_predictor_calls": "count",
    "planner.refine_per_candidate": "ratio",
    "sim.messages": "count",
    "sim.bytes": "B",
    "sim.virtual_s": "s",
    "engine.msgs_per_s": "1/s",
    "blocks.gemm_gflops": "GFLOP/s",
    "cluster.jobs_done": "count",
    "cluster.retried_attempts": "count",
    "cluster.virtual_p99_s": "s",
    "trace.overhead": "ratio",
}


def per_layer_units(layers) -> dict[str, str]:
    units = {}
    for layer in layers:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
    units.update(COUNTER_UNITS)
    return units


def samples_beyond(count: int, q: float) -> int:
    """Samples above the nearest-rank ``q`` percentile of ``count``."""
    return count - math.ceil(q / 100 * count)


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def fix_malloc_policy() -> None:
    """Pin glibc's mmap threshold at its 128 KiB default.  Left dynamic,
    it rises after the first large free, and whether a later matrix is
    mapped (and returned on free) or carved from the heap (and kept)
    then depends on the order of the operations, which moves the peak
    RSS of one and the same pass by several percent."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return  # not glibc: nothing to pin
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    m_mmap_threshold = -3
    libc.mallopt(m_mmap_threshold, 128 * 1024)


def import_program() -> float:
    """Import every module of the package; returns the seconds taken."""
    start = time.perf_counter()
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: package sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import repro

    for mod in pkgutil.walk_packages(repro.__path__, "repro."):
        if not mod.name.endswith(".__main__"):
            importlib.import_module(mod.name)
    return time.perf_counter() - start


def fresh_import_seconds() -> float:
    """:func:`import_program` in a new interpreter, so the import can be
    timed more than once per run (the parent's modules stay loaded)."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
            "print(run.import_program())")
    out = subprocess.run([sys.executable, "-c", code, str(HERE)],
                         capture_output=True, text=True, check=True,
                         timeout=60)
    return float(out.stdout.split()[-1])


def execute(wl, desc, profiler=None) -> dict:
    """Prepare, run (timed) and check one operation."""
    from workloads import CheckFailed

    # Simulation results hold reference cycles (rank generators): free the
    # previous operation's now, so peak RSS does not depend on when the
    # collector last ran.
    gc.collect()
    t0 = time.perf_counter()
    inputs = wl.prepare(desc)
    rec = {"gen_s": time.perf_counter() - t0, "check_s": 0.0, "counters": {}}
    try:
        if profiler is not None:
            profiler.enable()
        t1 = time.perf_counter()
        try:
            out = wl.op(inputs)
        finally:
            t2 = time.perf_counter()
            if profiler is not None:
                profiler.disable()
    except Exception as exc:
        if wl.refused(exc):
            status = "refused"
        else:  # a crash is a wrong answer, not a refusal
            status = "crashed"
            traceback.print_exc(file=sys.stderr)
        rec.update(op_s=t2 - t1, status=status,
                   reason=f"{type(exc).__name__}: {str(exc)[:60]}")
        return rec
    rec["op_s"] = t2 - t1
    try:
        wl.check(inputs, out)
        rec.update(status="ok", counters=wl.counters(inputs, out))
        if wl.fingerprint is not None:
            rec["fingerprint"] = wl.fingerprint(out)
    except CheckFailed as exc:
        rec.update(status="wrong", reason=str(exc)[:80])
    rec["check_s"] = time.perf_counter() - t2
    return rec


def is_correct(recs) -> bool:
    """A run is correct when no operation crashed or failed its check; a
    known refusal is failed but not wrong."""
    return not any(r["status"] in ("wrong", "crashed") for r in recs)


def set_up(wl, seed: int) -> float:
    """One set-up: build a pass of inputs and run a warm-up operation."""
    t0 = time.perf_counter()
    wl.deck(random.Random(seed))
    execute(wl, wl.warmup)
    return time.perf_counter() - t0


def closed_loop(wl, rng: random.Random, seconds: float, min_beyond: int):
    """Whole passes until ``seconds`` of wall time have gone by and
    ``min_beyond`` correct operations lie beyond the workload's tail
    percentile (so the percentile stays the same whatever the speed of
    the program)."""
    start = time.perf_counter()
    descs, recs, ok = [], [], 0
    while True:
        for desc in wl.deck(rng):
            descs.append(desc)
            recs.append(execute(wl, desc))
            ok += recs[-1]["status"] == "ok"
        elapsed = time.perf_counter() - start
        if elapsed >= LOOP_CAP_S or (
                elapsed >= seconds
                and samples_beyond(ok, wl.tail_q) >= min_beyond):
            return descs, recs


def best_of_rounds(wl, descs, recs, rng: random.Random) -> None:
    """Run every operation ``wl.rounds - 1`` more times, each round in a
    new seeded order, and keep each operation's fastest time.  A round
    that fails, or whose output differs from the first round's (when the
    workload has a ``fingerprint``), marks the operation so."""
    for _ in range(wl.rounds - 1):
        order = list(range(len(descs)))
        rng.shuffle(order)
        for i in order:
            rec, again = recs[i], execute(wl, descs[i])
            if rec["status"] != "ok":
                continue
            if again["status"] != "ok":
                rec.update(status=again["status"], reason=again["reason"])
            elif again.get("fingerprint") != rec.get("fingerprint"):
                rec.update(status="wrong", reason="rounds are not identical")
            else:
                rec["op_s"] = min(rec["op_s"], again["op_s"])


def end_to_end(recs, setup_s: float, tail_q: float) -> dict:
    times = sorted(r["op_s"] for r in recs if r["status"] == "ok")
    print(f"op_tail_s is p{tail_q:g} of {len(times)} correct operations "
          f"({samples_beyond(len(times), tail_q)} beyond it)")
    return {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(times),
        "op_tail_s": percentile(times, tail_q),
        "ops_per_s": len(times) / sum(r["op_s"] for r in recs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def report_failures(recs) -> None:
    """Print the error rate, the commonest failures and the untimed work."""
    failed = [f"{r['status']} {r['reason']}" for r in recs
              if r["status"] != "ok"]
    print(f"error_rate = {len(failed) / len(recs):.4f} "
          f"({len(failed)} of {len(recs)} operations failed)")
    for reason, count in collections.Counter(failed).most_common(5):
        print(f"  {count} x {reason}")
    print("untimed per operation: input generation median "
          f"{statistics.median(r['gen_s'] for r in recs):.4g} s, output "
          f"check median {statistics.median(r['check_s'] for r in recs):.4g} s")


def per_layer(descs, recs, wl) -> dict:
    """Replay ``descs`` under cProfile; per-layer metrics per operation.
    ``recs`` are the untraced records of the same operations."""
    from layers import LAYERS, call_count, layer_self_times

    profiler = cProfile.Profile()
    traced = [execute(wl, desc, profiler) for desc in descs]
    stats = pstats.Stats(profiler)
    self_s = layer_self_times(stats)
    total = sum(self_s.values())
    nops = len(traced)
    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_s[layer] / nops
        values[f"{layer}.share"] = self_s[layer] / total if total else 0.0

    counts: dict[str, list] = {}
    for rec in traced:
        for key, v in rec["counters"].items():
            counts.setdefault(key, []).append(v)

    def mean(key):
        return statistics.fmean(counts[key]) if key in counts else 0.0

    macro = call_count(stats, "experiments/stepmodel.py",
                       ("summa_step_model", "hsumma_step_model"))
    predictor = call_count(stats, "simulator/predictor.py",
                           lambda name: name.startswith("predict_"))
    candidates = sum(counts.get("candidates", []))
    engine_s = self_s["simulator.engine"]
    blocks_s = self_s["blocks"]
    p99 = [v for v in counts.get("virtual_p99_s", []) if math.isfinite(v)]
    values.update({
        "planner.candidates": mean("candidates"),
        "planner.refine_macro_calls": macro / nops,
        "planner.refine_predictor_calls": predictor / nops,
        "planner.refine_per_candidate":
            (macro + predictor) / candidates if candidates else 0.0,
        "sim.messages": mean("messages"),
        "sim.bytes": mean("bytes"),
        "sim.virtual_s": mean("virtual_s"),
        "engine.msgs_per_s":
            sum(counts.get("messages", [])) / engine_s if engine_s else 0.0,
        "blocks.gemm_gflops":
            sum(counts.get("flops", [])) / blocks_s / 1e9 if blocks_s else 0.0,
        "cluster.jobs_done": mean("jobs_done"),
        "cluster.retried_attempts": mean("retried_attempts"),
        "cluster.virtual_p99_s": statistics.median(p99) if p99 else 0.0,
        "trace.overhead": sum(r["op_s"] for r in traced)
        / sum(r["op_s"] for r in recs),
    })
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    fix_malloc_policy()
    import_program()
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    print("blas threads: " + " ".join(f"{v}={os.environ[v]}"
                                      for v in BLAS_VARS))

    # The first import compiles the sources; the timed ones, each in a
    # fresh interpreter, load them as a user's would on every start.
    imports = [fresh_import_seconds() for _ in range(SETUP_REPEATS)]
    setups = [set_up(wl, args.seed + i) for i in range(SETUP_REPEATS)]
    setup_s = statistics.median(imports) + statistics.median(setups)

    # The traced run's untraced reference is a single pass (in the
    # workload's rounds): the replay under cProfile is 2-4x slower, and
    # both must end within the limit.
    rng = random.Random(args.seed)
    descs, recs = closed_loop(wl, rng, 0 if args.trace else args.seconds,
                              0 if args.trace else 10)
    best_of_rounds(wl, descs, recs, rng)
    if not any(r["status"] == "ok" for r in recs):
        print(f"error: no {wl.name} operation succeeded", file=sys.stderr)
        return 1
    report_failures(recs)
    if args.trace:
        from layers import LAYERS

        metrics = per_layer(descs, recs, wl)
        units = per_layer_units(LAYERS)
    else:
        metrics = end_to_end(recs, setup_s, wl.tail_q)
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{wl.name} {name} = {value:.6g} {units[name]}")

    print(json.dumps({
        "correct": is_correct(recs),
        "attempted": len(recs),
        "failed": sum(r["status"] != "ok" for r in recs),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
