"""The benchmark's three workloads: seeded inputs, the timed operation,
and the check of each operation's output.

Every workload is a deck: one pass is a fixed list of configurations in
a seeded order, with seeded contents.  Host cost per operation spans two
to three orders of magnitude across each deck (a cold plan costs 5 ms
to 4 s depending on ``(platform, p, n)``), so a deck drawn at random per
seed would make two runs incomparable; instead every pass covers the
same configurations and the seed draws what varies inside them (gamma
jitter, matrix entries, arrival times, job sizes, kills) and the order.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from typing import Any, Callable

import numpy as np


class CheckFailed(Exception):
    """An operation returned an output that fails its check."""


@dataclasses.dataclass(frozen=True)
class Workload:
    """One closed-loop workload.

    ``deck(rng)`` gives one pass of operation descriptors and
    ``warmup`` is a small descriptor run once per set-up.  ``tail_q``
    is the percentile ``op_tail_s`` reports.  It is fixed per workload,
    so it does not move when the program gets faster; a run keeps going
    until ten correct operations lie beyond it.
    ``prepare(desc)`` builds the inputs (untimed), ``op(inputs)`` is the
    timed call, ``check(inputs, out)`` raises :class:`CheckFailed` on a
    wrong output (untimed) and ``counters(inputs, out)`` reads per-layer
    counts from the output.  ``rounds`` is how often a run executes each
    of its operations, each round in a new seeded order; an operation's
    time is its fastest round, and when ``fingerprint`` is set every
    round must reproduce the first round's output exactly (see
    ``run.best_of_rounds``).
    """

    name: str
    tail_q: float
    deck: Callable[[random.Random], list]
    warmup: Any
    prepare: Callable[[Any], Any]
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], None]
    counters: Callable[[Any, Any], dict]
    refused: Callable[[BaseException], bool] = lambda exc: False
    fingerprint: Callable[[Any], str] | None = None
    rounds: int = 1


def _finite(name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        raise CheckFailed(f"{name} is not a finite number: {value!r}")


# -- plan_cold ----------------------------------------------------------

PLAN_PLATFORMS = ("bluegene-p", "grid5000-graphene", "exascale-2012")
#: Rank counts, powers of two and the 3 * 2^k grids between them.
PLAN_PS = (64, 96, 128, 192, 256, 384, 512, 768, 1024, 2048, 4096)
#: Matrix sizes, multiples of 256; 768 and 1536 tile the 3 * 2^k grids
#: and send their pipelined leaders through macro refinement.
PLAN_NS = (512, 768, 1024, 1536, 2048)
#: Relative jitter on the preset's gamma, as a user with their own
#: calibration of the machine would send.  Alpha and beta stay exact: a
#: 2% jitter on them reorders close candidates, and the Python calls of
#: one pass then ranged from 46M to 81M across seeds.  Gamma prices every
#: candidate's local GEMM alike; with it jittered they varied by under 1%.
GAMMA_JITTER = 0.02


def _preset(name: str, p: int):
    from repro.platforms import bluegene_p, exascale_2012, grid5000_graphene

    return {"bluegene-p": bluegene_p, "grid5000-graphene": grid5000_graphene,
            "exascale-2012": exascale_2012}[name](p)


def plan_deck(rng: random.Random) -> list:
    from repro.planner import PlanQuery

    deck = []
    for name in PLAN_PLATFORMS:
        for p in PLAN_PS:
            gamma = _preset(name, p).gamma
            for n in PLAN_NS:
                jitter = 1.0 + rng.uniform(-GAMMA_JITTER, GAMMA_JITTER)
                deck.append(PlanQuery(n=n, p=p, platform=name,
                                      gamma=gamma * jitter))
    rng.shuffle(deck)
    return deck


def _plan_warmup():
    from repro.planner import PlanQuery

    return PlanQuery(n=512, p=64, platform="bluegene-p")


def grid_refusal(exc: BaseException) -> bool:
    """The one refusal ``plan_cold`` tolerates: the internal "grid rows
    into C rows" / "grid cols into C cols" error, raised when a 3 * 2^k
    grid does not tile n (ROADMAP item 4)."""
    from repro.errors import ConfigurationError

    return isinstance(exc, ConfigurationError) and (
        "into C rows" in str(exc) or "into C cols" in str(exc))


def plan_op(query):
    from repro.planner import PlanService

    return PlanService().plan(query)


def check_plan(query, plan) -> None:
    """A plan must answer the query, be finite and survive strict JSON."""
    try:
        json.dumps(plan.to_dict(), allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise CheckFailed(f"plan is not JSON-safe: {exc}") from None
    for name in ("predicted_time", "comm_time", "compute_time",
                 "closed_form_time", "lower_bound_time", "lower_bound_gap"):
        _finite(name, getattr(plan, name))
    if plan.predicted_time <= 0 or plan.lower_bound_gap <= 0:
        raise CheckFailed("plan predicts a non-positive time")
    if (plan.query.get("n"), plan.query.get("p")) != (query.n, query.p):
        raise CheckFailed(f"plan answers {plan.query}, not n={query.n}, "
                          f"p={query.p}")
    if plan.candidates < 1:
        raise CheckFailed("plan searched no candidates")


def plan_counters(query, plan) -> dict:
    return {"candidates": plan.candidates}


# -- multiply_data ------------------------------------------------------

#: ``(algorithm, p, n, platform, groups)``.  Every entry tiles: the
#: near-square grid of ``p`` divides ``n``, Cannon and Fox get square
#: grids, each HSUMMA group count is feasible on its grid, and BG/P
#: entries pack 4 ranks per node.
MULTIPLY_DECK = (
    ("summa", 16, 512, "grid5000-graphene", None),
    ("hsumma", 16, 512, "bluegene-p", 4),
    ("cannon", 16, 512, "bluegene-p", None),
    ("summa", 64, 1024, "bluegene-p", None),
    ("summa", 96, 1536, "grid5000-graphene", None),
    ("summa", 128, 2048, "bluegene-p", None),
    ("hsumma", 32, 1024, "grid5000-graphene", 2),
    ("hsumma", 64, 1024, "grid5000-graphene", 4),
    ("hsumma", 64, 1024, "bluegene-p", 16),
    ("hsumma", 128, 2048, "bluegene-p", 8),
    ("hsumma", 128, 1024, "grid5000-graphene", 32),
    ("cannon", 16, 2048, "grid5000-graphene", None),
    ("cannon", 36, 1536, "bluegene-p", None),
    ("cannon", 64, 1024, "bluegene-p", None),
    ("fox", 16, 1024, "bluegene-p", None),
    ("fox", 36, 768, "grid5000-graphene", None),
    ("fox", 64, 2048, "grid5000-graphene", None),
    ("cyclic", 32, 512, "bluegene-p", None),
    ("cyclic", 64, 1024, "grid5000-graphene", None),
    ("cyclic", 128, 2048, "bluegene-p", None),
)


def tiles(algorithm: str, p: int, n: int, platform: str, groups) -> bool:
    """Whether a deck entry is a configuration ``multiply`` accepts."""
    from repro.core.grouping import valid_group_counts
    from repro.util.gridmath import factor_grid

    s, t = factor_grid(p)
    if n % s or n % t:
        return False
    if algorithm in ("cannon", "fox") and s != t:
        return False
    if algorithm == "hsumma" and groups not in valid_group_counts(s, t):
        return False
    return platform != "bluegene-p" or p % 4 == 0


def multiply_deck(rng: random.Random) -> list:
    deck = [(cfg, rng.getrandbits(32)) for cfg in MULTIPLY_DECK]
    rng.shuffle(deck)
    return deck


def multiply_prepare(desc):
    (algorithm, p, n, platform, groups), data_seed = desc
    gen = np.random.default_rng(data_seed)
    A = gen.standard_normal((n, n))
    B = gen.standard_normal((n, n))
    plat = _preset(platform, p)
    kwargs = dict(nprocs=p, algorithm=algorithm, network=plat.network(p),
                  params=plat.params, gamma=plat.gamma, options=plat.options,
                  backend="des")
    if groups is not None:
        kwargs["groups"] = groups
    return A, B, kwargs


def multiply_op(inputs):
    from repro import multiply

    A, B, kwargs = inputs
    return multiply(A, B, **kwargs)


#: Rows of ``A @ B`` the check computes at a time.  The check's
#: temporaries (a block of the reference and its difference to ``C``)
#: then stay a few MB, well below the operation's own footprint, so the
#: check does not set the process's peak RSS.
CHECK_ROWS = 128


def check_product(A, B, C) -> None:
    """``C`` must equal ``A @ B`` to float64 rounding."""
    if getattr(C, "shape", None) != (A.shape[0], B.shape[1]):
        raise CheckFailed(f"product has shape {getattr(C, 'shape', None)}")
    C = np.asarray(C)
    errs, scales = [], []
    for i in range(0, A.shape[0], CHECK_ROWS):
        ref = A[i:i + CHECK_ROWS] @ B
        errs.append(np.max(np.abs(C[i:i + CHECK_ROWS] - ref)))
        scales.append(np.max(np.abs(ref)))
    err = float(np.max(errs))  # NaN anywhere in C makes err NaN
    # Summation order differs from numpy's: allow the rounding bound of
    # a length-k float64 dot product, k * eps * |entry|, with 64x headroom.
    bound = 64 * np.finfo(np.float64).eps * A.shape[1] * max(
        1.0, float(np.max(scales)))
    if not err <= bound:
        raise CheckFailed(f"product differs from A @ B by {err:.3g}")


def multiply_check(inputs, result) -> None:
    A, B, _ = inputs
    check_product(A, B, result.C)
    _finite("total_time", result.total_time)
    if result.total_time <= 0:
        raise CheckFailed("multiply took no virtual time")


def multiply_counters(inputs, result) -> dict:
    A, B, _ = inputs
    m, k = A.shape
    return {"messages": result.sim.total_messages,
            "bytes": result.sim.total_bytes,
            "virtual_s": result.total_time,
            "flops": 2.0 * m * k * B.shape[1]}


# -- serve_stream -------------------------------------------------------

STREAM_JOBS = 40
STREAM_RATE = 2000.0  # jobs per virtual second: ~80% utilisation
#: ``((n, p), jobs)``: every stream holds this mix of job sizes, in a
#: seeded order.  Drawn per job instead, the count of the costliest
#: jobs, and with it a stream's cost, varied from stream to stream
#: (binomially, 5.7 +- 2.2 of 40).
STREAM_MIX = (((256, 4), 14), ((384, 4), 12), ((512, 16), 8), ((1024, 64), 6))
STREAM_TORUS = (4, 4, 4)
STREAM_SLOT_GRID = (8, 8)
STREAM_KILLS = 3
#: Streams per pass.
STREAM_PASS = 8
#: Rounds over a run's streams.  A stream's host time swings with the
#: shared machine: it ran up to 1.5x slower for stretches of 10 s to
#: several minutes, so the median of single executions moved by a third
#: from run to run.  A stream's faster of two rounds, some 20 s apart,
#: misses the shorter stretches.  Over four seeds, p50 spanned 0.31-0.35 s with two
#: rounds and 0.33-0.47 s with one; a third round (0.31-0.35 s) did not
#: pay for the 20 s it adds to a run.
STREAM_ROUNDS = 2


def stream_deck(rng: random.Random) -> list:
    return [rng.getrandbits(32) for _ in range(STREAM_PASS)]


def stream_prepare(stream_seed):
    from repro.cluster import poisson_stream

    rng = random.Random(stream_seed)
    sizes = [size for size, count in STREAM_MIX for _ in range(count)]
    rng.shuffle(sizes)
    jobs = [dataclasses.replace(job, n=n, p=p) for job, (n, p) in zip(
        poisson_stream(STREAM_JOBS, rate=STREAM_RATE,
                       seed=rng.getrandbits(32)), sizes)]
    slots = STREAM_TORUS[0] * STREAM_TORUS[1] * STREAM_TORUS[2]
    horizon = jobs[-1].arrival
    failures = sorted((rng.randrange(slots), rng.uniform(0.0, horizon))
                      for _ in range(STREAM_KILLS))
    return jobs, failures


def stream_op(inputs):
    from repro.cluster import serve
    from repro.network.torus import Torus3D
    from repro.simulator.runtime import DEFAULT_PARAMS

    jobs, failures = inputs
    return serve(jobs, machine=Torus3D(STREAM_TORUS, DEFAULT_PARAMS),
                 slot_grid=STREAM_SLOT_GRID, scheduler="planner",
                 gamma=1e-11, failures=failures, max_retries=1)


def check_stream(njobs: int, result) -> None:
    """Every job must end done, failed or rejected, exactly once."""
    rep = result.report
    if rep.jobs != njobs or len(result.records) != njobs:
        raise CheckFailed(f"stream of {njobs} jobs reports {rep.jobs}")
    if rep.completed + rep.failed + rep.rejected != njobs:
        raise CheckFailed(
            f"completed {rep.completed} + failed {rep.failed} + rejected "
            f"{rep.rejected} != {njobs} jobs")
    ended = sum(r.status in ("done", "failed", "rejected")
                for r in result.records)
    if ended != njobs:
        raise CheckFailed(f"{njobs - ended} jobs never ended")


def stream_check(inputs, result) -> None:
    check_stream(len(inputs[0]), result)


def stream_fingerprint(result) -> str:
    return json.dumps(
        [result.report.to_dict(),
         [(r.job.jid, r.status, r.finish, r.failed_attempts)
          for r in result.records]],
        sort_keys=True)


def stream_counters(inputs, result) -> dict:
    done = [r.result for r in result.records if r.result is not None]
    return {"messages": sum(s.total_messages for s in done),
            "bytes": sum(s.total_bytes for s in done),
            "virtual_s": result.report.makespan,
            "jobs_done": result.report.completed,
            "retried_attempts": result.report.retried_attempts,
            "virtual_p99_s": result.report.latency_p99}


WORKLOADS = {
    "plan_cold": Workload(
        "plan_cold", tail_q=96, deck=plan_deck, warmup=_plan_warmup(),
        prepare=lambda query: query, op=plan_op, check=check_plan,
        counters=plan_counters, refused=grid_refusal),
    "multiply_data": Workload(
        "multiply_data", tail_q=75, deck=multiply_deck,
        warmup=(MULTIPLY_DECK[0], 0), prepare=multiply_prepare,
        op=multiply_op, check=multiply_check, counters=multiply_counters),
    "serve_stream": Workload(
        "serve_stream", tail_q=75, deck=stream_deck, warmup=0,
        prepare=stream_prepare, op=stream_op, check=stream_check,
        counters=stream_counters, fingerprint=stream_fingerprint,
        rounds=STREAM_ROUNDS),
}
