"""The predictor prices the segmented broadcast family under SUMMA and
HSUMMA at macro fidelity, and neither tier understates the DES.

For ``segmented``, ``fourcolor`` and ``hypersystolic`` broadcasts at
pipeline depths 1, 2 and 4 on grids up to 8x8:

1.  *Predictor = macro*: ``total_time`` and ``compute_time`` are
    bit-identical and ``comm_time`` agrees within 1e-9 relative (the
    contract of ``repro.simulator.predictor``).  The macro engine
    prices each broadcast bulk-synchronously through the same coster,
    so the phase chain reproduces it exactly.
2.  *Predictor >= DES*: the DES overlaps pipeline stages with the
    neighbouring gemm and the next step's broadcast, which neither
    closed-form tier models, so the prediction is an upper bound (up
    to float rounding, 1e-12 relative).
"""

import math

from hypothesis import given, settings, strategies as st

from repro.core.hsumma import run_hsumma
from repro.core.summa import run_summa
from repro.network.model import HockneyParams
from repro.payloads import PhantomArray

N = 192
DIMS = (1, 2, 3, 4, 6, 8)
PARAMS = (HockneyParams(alpha=1e-4, beta=1e-9),
          HockneyParams(alpha=1e-6, beta=1e-10))


def _run(family, backend, *, grid, block, groups, bcast, segments,
         params, gamma):
    A, B = PhantomArray((N, N)), PhantomArray((N, N))
    common = dict(grid=grid, params=params, gamma=gamma,
                  bcast_segments=segments, backend=backend)
    if family == "summa":
        _, sim = run_summa(A, B, block=block, bcast=bcast, **common)
    else:
        _, sim = run_hsumma(A, B, groups=groups, outer_block=block,
                            outer_bcast=bcast, inner_bcast=bcast, **common)
    return sim


@st.composite
def configs(draw):
    s, t = draw(st.sampled_from(DIMS)), draw(st.sampled_from(DIMS))
    tile = math.gcd(N // s, N // t)
    block = draw(st.sampled_from([b for b in (4, 8, 16) if tile % b == 0]))
    groups = (draw(st.sampled_from([d for d in DIMS if s % d == 0])),
              draw(st.sampled_from([d for d in DIMS if t % d == 0])))
    return dict(
        family=draw(st.sampled_from(("summa", "hsumma"))),
        grid=(s, t), block=block, groups=groups,
        bcast=draw(st.sampled_from(("segmented", "fourcolor",
                                    "hypersystolic"))),
        segments=draw(st.sampled_from((1, 2, 4))),
        params=draw(st.sampled_from(PARAMS)),
        gamma=draw(st.sampled_from((0.0, 1e-10, 1e-8))),
    )


@settings(max_examples=40, deadline=None)
@given(cfg=configs())
def test_predictor_equals_macro_and_bounds_des(cfg):
    pred = _run(backend="predictor", **cfg)
    macro = _run(backend="macro", **cfg)
    des = _run(backend="des", **cfg)
    assert pred.total_time == macro.total_time
    assert pred.compute_time == macro.compute_time
    assert math.isclose(pred.comm_time, macro.comm_time, rel_tol=1e-9)
    assert pred.total_time >= des.total_time * (1 - 1e-12)
