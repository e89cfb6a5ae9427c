"""Closed-form performance prediction: the zero-stepping backend.

The macro backend executes rank generators and satisfies every
collective from a :class:`~repro.experiments.stepmodel.CollectiveCoster`
oracle.  On a homogeneous fault-free network the resulting virtual
times follow a *fixed critical chain* per algorithm step — e.g. one
SUMMA step is exactly ``clock += T_row; clock += T_col; clock += g`` —
so the whole run can be priced without ever building generators,
communicators or an event queue.  This module composes those chains
directly from the coster's analytic forms (see ``docs/cost_model.md``
for the derivations and the congruence argument).

Fidelity contract versus ``backend="macro"`` on the same network:

* ``total_time`` and ``compute_time`` are **bit-identical** — the
  predictor performs the same float additions in the same order as the
  critical rank's clock in the macro engine.
* ``comm_time`` is bit-identical for the flat variants (SUMMA, cyclic
  SUMMA) and agrees within a few ULPs (documented as 1e-9 relative)
  for the hierarchical variants, where macro ranks accumulate the same
  per-step phase times under different groupings.

The contract covers the segmented broadcast family (``segmented``,
``fourcolor``, ``hypersystolic``) under SUMMA and HSUMMA too: the
macro engine prices each such broadcast bulk-synchronously through the
same coster, at the depth ``options.bcast_segments``.  Neither tier
models the stage overlap a DES run gets, so both sit at or above the
DES time for that family (pinned by
``tests/property/test_pipelined_predictor.py``).

The prediction carries **one representative rank** in
``SimResult.stats`` (a p=2^20 grid would otherwise materialise a
million ``RankStats``) and empty ``return_values``; the runners build
the phantom ``C`` themselves.  Use ``backend="predictor"`` through
:func:`repro.core.summa.run_summa` / :func:`repro.core.hsumma.
run_hsumma` / :func:`repro.core.cyclic.run_cyclic` or the CLI.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.errors import ConfigurationError
from repro.network.model import Network
from repro.simulator.backends import Backend
from repro.simulator.tracing import RankStats, SimResult


class PredictorBackend(Backend):
    """Marker backend returned by ``resolve_backend("predictor")``.

    The predictor never steps rank programs, so :meth:`run` cannot
    exist in a meaningful form — the algorithm runners detect
    ``backend="predictor"`` *before* building programs and call the
    ``predict_*`` functions below instead.  Resolving the name still
    succeeds (so generic plumbing can validate backend specs), but
    executing it raises with directions.
    """

    def __init__(self, network: Network, *, faults: Any = None) -> None:
        if faults is not None and not getattr(faults, "empty", False):
            raise ConfigurationError(
                "backend='predictor' cannot run: feature 'fault "
                "injection' requires execution — closed forms price "
                "healthy runs only; fallback: use backend='des' for "
                "faulted runs"
            )
        self.network = network

    def run(self, programs: Any) -> SimResult:
        raise ConfigurationError(
            "the predictor backend composes closed forms and cannot "
            "execute rank programs; call it through the algorithm "
            "runners (run_summa/run_hsumma/run_cyclic/run_cannon/"
            "run_fox/run_dns3d/run_25d with backend='predictor') or "
            "the CLI"
        )


def _refuse(name: str, feature: str, detail: str, fallback: str) -> None:
    """Raise the predictor's structured refusal.

    Every refusal names the offending *feature* and the cheapest
    backend that supports it, so a caller (or the planner) can react
    programmatically instead of parsing prose.
    """
    raise ConfigurationError(
        f"backend='predictor' cannot price {name}: feature "
        f"{feature!r} requires execution — {detail}; "
        f"fallback: use {fallback}"
    )


def _require_predictable(
    name: str,
    *,
    phantom: bool,
    faults: Any,
    verify: Any,
    contention: bool,
    trace: bool = False,
) -> None:
    """Validate a runner's arguments for ``backend="predictor"``.

    The predictor produces timings only; anything that needs actual
    execution — concrete data, fault injection, the verifier's
    recorder, contention modelling, transfer tracing — has no closed
    form and must use a simulating backend.  Each refusal names the
    offending feature and suggests the fallback backend.
    """
    from repro.verify.session import coerce_verify

    if not phantom:
        _refuse(
            name, "concrete data",
            "the predictor composes closed forms and never computes a "
            "concrete C; pass PhantomArray inputs (scale mode)",
            "backend='des' or backend='macro' for real data",
        )
    if faults is not None and not getattr(faults, "empty", False):
        _refuse(
            name, "fault injection",
            "closed forms price healthy runs only (retransmission "
            "schedules depend on event interleaving)",
            "backend='des' for faulted runs",
        )
    if coerce_verify(verify) is not None:
        _refuse(
            name, "verify",
            "the predictor runs no rank programs, so there is nothing "
            "for the verifier's recorder to observe",
            "backend='des' or backend='macro' with verify=",
        )
    if contention:
        _refuse(
            name, "contention",
            "the closed forms assume an uncontended network",
            "backend='des' with contention=True",
        )
    if trace:
        _refuse(
            name, "trace",
            "the predictor produces no transfers or spans to record",
            "backend='des' or backend='macro' with trace=True",
        )


def _refuse_pipelined(name: str, algorithm: str | None) -> None:
    """Refuse the segmented broadcast family on the chains whose
    agreement with the macro engine was never checked for it (cyclic,
    Cannon, Fox, DNS-3D, 2.5D).

    The SUMMA and HSUMMA chains price the family and match the macro
    engine within the module's fidelity contract; the plain
    ``pipelined`` chain is priced everywhere.
    """
    if algorithm in ("segmented", "fourcolor", "hypersystolic"):
        _refuse(
            name, f"pipelined broadcast {algorithm}",
            "this phase chain has not been checked against the macro "
            "engine for segmented schedules",
            "backend='macro' (oracle pricing, same closed forms) or "
            "backend='des'",
        )


def _resolve_coster(network: Network, coster: Any) -> Any:
    from repro.simulator.backends import _default_coster

    if coster is None:
        coster = _default_coster(network, contention=False)
    if not getattr(coster, "participant_invariant", False):
        raise ConfigurationError(
            "backend='predictor' cannot price this run: feature "
            "'participant-dependent costs' requires stepping — this "
            "network/coster prices collectives per participant set "
            "(heterogeneous links or a topology-positional coster), "
            "not per participant count; fallback: use backend='macro' "
            "(per-rank stepping with the same coster) or backend='des'"
        )
    return coster


class _Chain:
    """The critical rank's clock chain, mirroring the macro engine's
    float operations exactly.

    A macro collective finishes at ``start + T`` with ``start`` the
    latest participant clock and charges ``finish - block_start`` of
    comm time; on the critical chain ``start == block_start == clock``,
    so each phase is ``finish = clock + T; comm += finish - clock;
    clock = finish`` — reproduced verbatim here.  Compute requests add
    ``seconds`` to both the compute counter and the clock, as in
    :meth:`repro.simulator.engine.Engine._handle_compute`.
    """

    __slots__ = ("clock", "comm", "compute", "_coster", "_network",
                 "_memo")

    def __init__(self, coster: Any, network: Network | None = None) -> None:
        self.clock = 0.0
        self.comm = 0.0
        self.compute = 0.0
        self._coster = coster
        self._network = network
        self._memo: dict[tuple, float] = {}

    def collective(self, op: str, algorithm: str | None, p: int,
                   nbytes: int, *, segments: Any = None,
                   cid0: int = 0) -> None:
        if p <= 1:
            # The engine expands single-rank collectives as free no-ops.
            return
        key = (op, algorithm, p, nbytes, segments, cid0)
        duration = self._memo.get(key)
        if duration is None:
            duration = self._memo[key] = self._coster.collective_time(
                op, algorithm, tuple(range(p)), 0, nbytes,
                segments=segments, cid=(cid0, 0),
            )
        finish = self.clock + duration
        self.comm += finish - self.clock
        self.clock = finish

    def p2p(self, nbytes: int) -> None:
        """One blocking point-to-point hop on the critical chain.

        On the chains below the partner always posted at or before the
        critical rank's clock, so the engine's
        ``finish = max(now, partner_post) + wire`` collapses to
        ``finish = clock + wire`` — the same float addition, with the
        wire time taken from the (uniform) network.
        """
        key = ("p2p", nbytes)
        duration = self._memo.get(key)
        if duration is None:
            duration = self._memo[key] = self._network.transfer_time(
                0, 1, nbytes)
        finish = self.clock + duration
        self.comm += finish - self.clock
        self.clock = finish

    def compute_seconds(self, seconds: float) -> None:
        self.compute += seconds
        self.clock = self.clock + seconds

    def result(self) -> SimResult:
        rep = RankStats(rank=0, clock=self.clock, comm_time=self.comm,
                        compute_time=self.compute)
        return SimResult(stats=[rep], return_values=[])


def _bcast_alg(override: Any, options: Any) -> str:
    if override is not None:
        return override
    if options is not None:
        return options.bcast
    from repro.mpi.comm import CollectiveOptions

    return CollectiveOptions().bcast


def _reduce_alg(options: Any) -> str:
    if options is not None:
        return options.reduce
    from repro.mpi.comm import CollectiveOptions

    return CollectiveOptions().reduce


def _segments(options: Any) -> Any:
    return options.bcast_segments if options is not None else None


def predict_summa(
    cfg: Any,
    *,
    network: Network,
    options: Any = None,
    gamma: float = 0.0,
    coster: Any = None,
    a_itemsize: int = 8,
    b_itemsize: int = 8,
) -> SimResult:
    """Closed-form prediction of a SUMMA run (``cfg`` as
    :class:`repro.core.summa.SummaConfig`); see the module docstring
    for the fidelity contract."""
    from repro.blocks.ops import gemm_flops

    coster = _resolve_coster(network, coster)
    alg = _bcast_alg(cfg.bcast, options)
    seg = _segments(options)
    chain = _Chain(coster)
    mloc, nloc = cfg.m // cfg.s, cfg.n // cfg.t
    a_bytes = mloc * cfg.block * a_itemsize
    b_bytes = cfg.block * nloc * b_itemsize
    gemm = gemm_flops(mloc, cfg.block, nloc) * gamma
    for _ in range(cfg.nsteps):
        chain.collective("bcast", alg, cfg.t, a_bytes, segments=seg, cid0=0)
        chain.collective("bcast", alg, cfg.s, b_bytes, segments=seg, cid0=1)
        chain.compute_seconds(gemm)
    return chain.result()


def predict_hsumma(
    cfg: Any,
    *,
    network: Network,
    options: Any = None,
    gamma: float = 0.0,
    coster: Any = None,
    a_itemsize: int = 8,
    b_itemsize: int = 8,
) -> SimResult:
    """Closed-form prediction of an HSUMMA run (``cfg`` as
    :class:`repro.core.hsumma.HSummaConfig`).

    Per outer step the critical chain is outer-row, outer-col, then
    ``inner_steps`` repetitions of inner-row, inner-col, gemm — the
    order every macro rank's clock converges to (the guarded outer
    phases desynchronise ranks within a step; the first unguarded
    inner collective re-synchronises them at the latest arrival).
    """
    from repro.blocks.ops import gemm_flops

    coster = _resolve_coster(network, coster)
    outer_alg = _bcast_alg(cfg.outer_bcast, options)
    inner_alg = _bcast_alg(cfg.inner_bcast, options)
    seg = _segments(options)
    chain = _Chain(coster)
    mloc, nloc = cfg.m // cfg.s, cfg.n // cfg.t
    si, tj = cfg.inner_s, cfg.inner_t
    a_outer = mloc * cfg.outer_block * a_itemsize
    b_outer = cfg.outer_block * nloc * b_itemsize
    a_inner = mloc * cfg.inner_block * a_itemsize
    b_inner = cfg.inner_block * nloc * b_itemsize
    gemm = gemm_flops(mloc, cfg.inner_block, nloc) * gamma
    for _ in range(cfg.outer_steps):
        chain.collective("bcast", outer_alg, cfg.J, a_outer,
                         segments=seg, cid0=2)
        chain.collective("bcast", outer_alg, cfg.I, b_outer,
                         segments=seg, cid0=3)
        for _ in range(cfg.inner_steps):
            chain.collective("bcast", inner_alg, tj, a_inner,
                             segments=seg, cid0=4)
            chain.collective("bcast", inner_alg, si, b_inner,
                             segments=seg, cid0=5)
            chain.compute_seconds(gemm)
    return chain.result()


def predict_cyclic(
    cfg: Any,
    *,
    network: Network,
    options: Any = None,
    gamma: float = 0.0,
    coster: Any = None,
    a_itemsize: int = 8,
    b_itemsize: int = 8,
) -> SimResult:
    """Closed-form prediction of a block-cyclic (H)SUMMA run (``cfg``
    as :class:`repro.core.cyclic.CyclicConfig`, blocking schedule).

    The flat variant is two broadcasts and a gemm per rotating pivot;
    the hierarchical variant follows :func:`repro.core.cyclic.
    cyclic_summa_program`'s ``hier_blocking`` order (outer-row,
    inner-row, outer-col, inner-col).  The overlap schedule posts
    split-phase broadcasts through the point-to-point machinery and
    has no closed form here.
    """
    from repro.blocks.ops import gemm_flops

    coster = _resolve_coster(network, coster)
    alg = _bcast_alg(None, options)
    _refuse_pipelined("a block-cyclic run", alg)
    seg = _segments(options)
    chain = _Chain(coster)
    mloc, nloc = cfg.m // cfg.s, cfg.n // cfg.t
    a_bytes = mloc * cfg.nb * a_itemsize
    b_bytes = cfg.nb * nloc * b_itemsize
    gemm = gemm_flops(mloc, cfg.nb, nloc) * gamma
    if not cfg.hierarchical:
        for _ in range(cfg.nsteps):
            chain.collective("bcast", alg, cfg.t, a_bytes,
                             segments=seg, cid0=0)
            chain.collective("bcast", alg, cfg.s, b_bytes,
                             segments=seg, cid0=1)
            chain.compute_seconds(gemm)
        return chain.result()
    si, tj = cfg.s // cfg.I, cfg.t // cfg.J
    for _ in range(cfg.nsteps):
        chain.collective("bcast", alg, cfg.J, a_bytes, segments=seg, cid0=2)
        chain.collective("bcast", alg, tj, a_bytes, segments=seg, cid0=4)
        chain.collective("bcast", alg, cfg.I, b_bytes, segments=seg, cid0=3)
        chain.collective("bcast", alg, si, b_bytes, segments=seg, cid0=5)
        chain.compute_seconds(gemm)
    return chain.result()


@dataclasses.dataclass(frozen=True)
class CannonConfig:
    """Shape of a Cannon run on a square ``q x q`` torus."""

    m: int
    l: int
    n: int
    q: int

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ConfigurationError(f"grid dim must be >= 1, got {self.q}")
        for label, dim in (("m", self.m), ("l", self.l), ("n", self.n)):
            if dim % self.q:
                raise ConfigurationError(
                    f"{label}={dim} not divisible by grid dim {self.q}")


@dataclasses.dataclass(frozen=True)
class FoxConfig:
    """Shape of a Fox run on a square ``q x q`` grid."""

    m: int
    l: int
    n: int
    q: int

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ConfigurationError(f"grid dim must be >= 1, got {self.q}")
        for label, dim in (("m", self.m), ("l", self.l), ("n", self.n)):
            if dim % self.q:
                raise ConfigurationError(
                    f"{label}={dim} not divisible by grid dim {self.q}")


@dataclasses.dataclass(frozen=True)
class Dns3dConfig:
    """Shape of a 3-D (DNS) run on a ``q x q x q`` mesh."""

    m: int
    l: int
    n: int
    q: int

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ConfigurationError(f"mesh dim must be >= 1, got {self.q}")
        for label, dim in (("m", self.m), ("l", self.l), ("n", self.n)):
            if dim % self.q:
                raise ConfigurationError(
                    f"{label}={dim} not divisible by mesh dim {self.q}")


@dataclasses.dataclass(frozen=True)
class Summa25dConfig:
    """Shape of a 2.5D run: ``q x q`` layer grid, replication ``c``.

    Mirrors :func:`repro.algorithms.algo25d._layer_grid`'s constraints
    so a planner-built config fails fast instead of at replay time.
    """

    m: int
    l: int
    n: int
    q: int
    c: int

    def __post_init__(self) -> None:
        if self.c < 1:
            raise ConfigurationError(
                f"replication c must be >= 1, got {self.c}")
        if self.q < 1:
            raise ConfigurationError(f"grid dim must be >= 1, got {self.q}")
        if self.q % self.c:
            raise ConfigurationError(
                f"2.5D step split needs c | q (q={self.q}, c={self.c})")
        for label, dim in (("m", self.m), ("l", self.l), ("n", self.n)):
            if dim % self.q:
                raise ConfigurationError(
                    f"{label}={dim} not divisible by grid dim {self.q}")

    @property
    def nprocs(self) -> int:
        return self.q * self.q * self.c


def predict_cannon(
    cfg: CannonConfig,
    *,
    network: Network,
    options: Any = None,
    gamma: float = 0.0,
    coster: Any = None,
    a_itemsize: int = 8,
    b_itemsize: int = 8,
) -> SimResult:
    """Closed-form prediction of a Cannon run.

    The chain follows a doubly-interior rank (``i >= 1, j >= 1``):
    skew A, skew B, then ``q`` rounds of gemm and (except after the
    last) the A and B ring shifts.  The round-0 A shift resynchronises
    every rank at the interior rank's clock (its wait for the skewed
    neighbour dominates), so this chain's final clock is the run's
    ``total_time`` bit-for-bit; per-rank ``comm_time`` groups the same
    phase floats differently on the boundary ranks, hence the
    documented 1e-9 relative tolerance on comm.
    """
    from repro.blocks.ops import gemm_flops

    coster = _resolve_coster(network, coster)
    _refuse_pipelined("Cannon's algorithm", _bcast_alg(None, options))
    chain = _Chain(coster, network)
    q = cfg.q
    mloc, lloc, nloc = cfg.m // q, cfg.l // q, cfg.n // q
    a_bytes = mloc * lloc * a_itemsize
    b_bytes = lloc * nloc * b_itemsize
    gemm = gemm_flops(mloc, lloc, nloc) * gamma
    if q > 1:
        chain.p2p(a_bytes)  # skew A
        chain.p2p(b_bytes)  # skew B
    for step in range(q):
        chain.compute_seconds(gemm)
        if step == q - 1:
            break
        chain.p2p(a_bytes)  # shift A
        chain.p2p(b_bytes)  # shift B
    return chain.result()


def predict_fox(
    cfg: FoxConfig,
    *,
    network: Network,
    options: Any = None,
    gamma: float = 0.0,
    coster: Any = None,
    a_itemsize: int = 8,
    b_itemsize: int = 8,
) -> SimResult:
    """Closed-form prediction of a Fox run.

    Fully lockstep: every round is a row broadcast of the pivot A
    tile, a gemm, and (except after the last) the B roll — the same
    floats on every rank, so total, compute *and* comm replay
    bit-identically.
    """
    from repro.blocks.ops import gemm_flops

    coster = _resolve_coster(network, coster)
    alg = _bcast_alg(None, options)
    _refuse_pipelined("Fox's algorithm", alg)
    seg = _segments(options)
    chain = _Chain(coster, network)
    q = cfg.q
    mloc, lloc, nloc = cfg.m // q, cfg.l // q, cfg.n // q
    a_bytes = mloc * lloc * a_itemsize
    b_bytes = lloc * nloc * b_itemsize
    gemm = gemm_flops(mloc, lloc, nloc) * gamma
    for k in range(q):
        chain.collective("bcast", alg, q, a_bytes, segments=seg, cid0=0)
        chain.compute_seconds(gemm)
        if k == q - 1:
            break
        chain.p2p(b_bytes)  # roll B
    return chain.result()


def predict_dns3d(
    cfg: Dns3dConfig,
    *,
    network: Network,
    options: Any = None,
    gamma: float = 0.0,
    coster: Any = None,
    a_itemsize: int = 8,
    b_itemsize: int = 8,
) -> SimResult:
    """Closed-form prediction of a 3-D (DNS) run.

    The chain follows rank ``(k, k, k)`` (``k >= 1``), which receives
    both routed tiles: route A hop, j-axis broadcast, route B hop,
    i-axis broadcast, one gemm, and the k-axis reduction.  Every axis
    broadcast starts at the routed tile's arrival and every reduction
    starts at the (global) gemm finish, so the final clock is
    ``total_time`` bit-for-bit.
    """
    from repro.blocks.ops import gemm_flops

    coster = _resolve_coster(network, coster)
    alg = _bcast_alg(None, options)
    _refuse_pipelined("the 3-D (DNS) algorithm", alg)
    seg = _segments(options)
    chain = _Chain(coster, network)
    q = cfg.q
    mloc, lloc, nloc = cfg.m // q, cfg.l // q, cfg.n // q
    a_bytes = mloc * lloc * a_itemsize
    b_bytes = lloc * nloc * b_itemsize
    if q > 1:
        chain.p2p(a_bytes)  # route A (i,j,0) -> (i,j,j)
    chain.collective("bcast", alg, q, a_bytes, segments=seg, cid0=0)
    if q > 1:
        chain.p2p(b_bytes)  # route B (i,j,0) -> (i,j,i)
    chain.collective("bcast", alg, q, b_bytes, segments=seg, cid0=1)
    chain.compute_seconds(gemm_flops(mloc, lloc, nloc) * gamma)
    chain.collective("reduce", _reduce_alg(options), q,
                     mloc * nloc * 8, cid0=2)
    return chain.result()


def predict_summa25d(
    cfg: Summa25dConfig,
    *,
    network: Network,
    options: Any = None,
    gamma: float = 0.0,
    coster: Any = None,
    a_itemsize: int = 8,
    b_itemsize: int = 8,
) -> SimResult:
    """Closed-form prediction of a 2.5D run.

    Fully lockstep: two layer-axis replication broadcasts, then each
    layer's ``q/c`` pivot steps (row broadcast, column broadcast,
    gemm), then the layer-axis reduction of the partial C — every rank
    performs the same floats, so total, compute and comm replay
    bit-identically against the macro backend.
    """
    from repro.blocks.ops import gemm_flops

    coster = _resolve_coster(network, coster)
    alg = _bcast_alg(None, options)
    _refuse_pipelined("the 2.5D algorithm", alg)
    seg = _segments(options)
    chain = _Chain(coster, network)
    q, c = cfg.q, cfg.c
    mloc, lloc, nloc = cfg.m // q, cfg.l // q, cfg.n // q
    a_bytes = mloc * lloc * a_itemsize
    b_bytes = lloc * nloc * b_itemsize
    gemm = gemm_flops(mloc, lloc, nloc) * gamma
    chain.collective("bcast", alg, c, a_bytes, segments=seg, cid0=0)
    chain.collective("bcast", alg, c, b_bytes, segments=seg, cid0=0)
    for _ in range(q // c):
        chain.collective("bcast", alg, q, a_bytes, segments=seg, cid0=1)
        chain.collective("bcast", alg, q, b_bytes, segments=seg, cid0=2)
        chain.compute_seconds(gemm)
    chain.collective("reduce", _reduce_alg(options), c,
                     mloc * nloc * 8, cid0=0)
    return chain.result()
