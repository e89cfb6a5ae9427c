#!/usr/bin/env python
"""Dump or compare the planner's winners on the ``plan_cold`` decks.

Usage::

    PYTHONPATH=src python benchmarks/plan_winners.py dump --out new.json
    PYTHONPATH=src python benchmarks/plan_winners.py compare old.json new.json

``dump`` plans every query of the ``plan_cold`` benchmark deck for each
seed (default 1 2 3; a fresh ``PlanService`` per query, as the
benchmark does) and records the winner, its times as exact float reprs
and its backend, or the refusal message.  Run it against two source
trees (``PYTHONPATH=<tree>/src``) to get one dump per tree.

``compare`` checks that two dumps agree: the same refusals, the same
winning algorithm and parameters, bit-identical ``predicted_time``,
``compute_time`` and ``closed_form_time``, and ``comm_time`` within
the predictor's documented 1e-9 relative contract.  It prints how many
plans changed their ``backend`` label and exits 1 on any disagreement.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def dump(seeds, out):
    sys.path.insert(0, str(REPO_ROOT / "perfbench"))
    from workloads import plan_deck

    from repro.errors import ConfigurationError
    from repro.planner import PlanService

    rows = []
    for seed in seeds:
        for query in plan_deck(random.Random(seed)):
            row = {"seed": seed, "n": query.n, "p": query.p,
                   "platform": query.platform, "gamma": repr(query.gamma)}
            try:
                plan = PlanService().plan(query)
            except ConfigurationError as exc:
                row["refused"] = str(exc)
            else:
                row.update(algorithm=plan.algorithm, params=plan.params,
                           backend=plan.backend,
                           predicted_time=repr(plan.predicted_time),
                           comm_time=repr(plan.comm_time),
                           compute_time=repr(plan.compute_time),
                           closed_form_time=repr(plan.closed_form_time))
            rows.append(row)
    pathlib.Path(out).write_text(json.dumps(rows, indent=1) + "\n")
    answered = sum("refused" not in r for r in rows)
    print(f"wrote {len(rows)} queries ({answered} answered) to {out}")


def compare(old_path, new_path):
    old = json.loads(pathlib.Path(old_path).read_text())
    new = json.loads(pathlib.Path(new_path).read_text())
    if len(old) != len(new):
        print(f"different decks: {len(old)} vs {len(new)} queries")
        return 1
    bad = relabelled = comm_ulps = 0
    for a, b in zip(old, new):
        where = f"seed {a['seed']} n={a['n']} p={a['p']} {a['platform']}"
        if any(a[k] != b[k] for k in ("seed", "n", "p", "platform", "gamma")):
            print(f"{where}: decks differ")
            return 1
        if ("refused" in a) != ("refused" in b):
            print(f"{where}: refused on one side only")
            bad += 1
            continue
        if "refused" in a:
            continue
        for key in ("algorithm", "params", "predicted_time", "compute_time",
                    "closed_form_time"):
            if a[key] != b[key]:
                print(f"{where}: {key} {a[key]} -> {b[key]}")
                bad += 1
        ca, cb = float(a["comm_time"]), float(b["comm_time"])
        if ca != cb:
            comm_ulps += 1
            if abs(ca - cb) > 1e-9 * abs(ca):
                print(f"{where}: comm_time {ca!r} -> {cb!r}")
                bad += 1
        relabelled += a["backend"] != b["backend"]
    answered = sum("refused" not in r for r in old)
    print(f"{len(old)} queries, {answered} answered; {relabelled} backend "
          f"labels changed; {comm_ulps} comm_time within 1e-9 but not "
          f"bit-identical; {bad} disagreements")
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    d = sub.add_parser("dump", help="plan the decks and write a JSON dump")
    d.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    d.add_argument("--out", required=True)
    c = sub.add_parser("compare", help="check two dumps agree")
    c.add_argument("old")
    c.add_argument("new")
    args = parser.parse_args(argv)
    if args.cmd == "dump":
        dump(args.seeds, args.out)
        return 0
    return compare(args.old, args.new)


if __name__ == "__main__":
    raise SystemExit(main())
