"""The counter guard: the cost snapshots of every paper experiment.

The paper's result is a cost claim — which index structure answers which
probe, and what maintenance costs — and the reproduction counts those
costs (:mod:`repro.indexes.cost`).  The counters are deterministic for a
seeded workload and independent of the machine, so they are pinned
exactly, for every reproduced table and figure.

``python -m repro bench`` runs every experiment of
:data:`~repro.bench.experiments.REGISTRY`, in registry order and in one
process, under the fixed :data:`PLAN`, and records the cost snapshot of
every ``measure_ops`` / ``measure_block`` call: experiment id, label,
operation count and nonzero counters.  A cached sweep's snapshots belong
to the first experiment that measures it, so a run starts from an empty
sweep cache and always covers the whole registry.  An experiment whose
expectations fail (an integrity report, reader locks, shared fsyncs)
fails the run.  Wall clock is not judged here; ``benchmarks/e2e`` does
that.

Usage::

    python -m repro bench                            # print the snapshots
    python -m repro bench --out BENCH_hotpath.json   # refresh the baseline
    python -m repro bench --check                    # compare with it
"""

from __future__ import annotations

import json
import sys
from collections.abc import Sequence
from pathlib import Path
from typing import Any

from . import experiments
from .measure import recording
from .scale import ScalePlan

#: The plan ``REPRO_QUICK=1 REPRO_OPS=60`` gives, fixed so that the
#: snapshots do not depend on the environment.
PLAN = ScalePlan(scale=1_000, insert_ops=60, delete_ops=16, quick=True)

#: The committed baseline, at the repository root.
BASELINE = Path(__file__).resolve().parents[3] / "BENCH_hotpath.json"

#: ``[experiment id, label, operation count, {counter: nonzero value}]``.
Snapshot = list[Any]


def record(experiment_ids: Sequence[str] | None = None) -> list[Snapshot]:
    """Run the experiments (every registry one, in order, by default)
    from an empty sweep cache; return their cost snapshots in call order."""
    experiments._SWEEP_CACHE.clear()
    snapshots: list[Snapshot] = []
    for experiment_id in experiment_ids or experiments.REGISTRY:
        with recording() as taken:
            result = experiments.REGISTRY[experiment_id](PLAN)
        if result.failures:
            raise AssertionError(f"{experiment_id}: {'; '.join(result.failures)}")
        snapshots += [
            [experiment_id, m.label, m.count,
             {name: value for name, value in sorted(m.cost.as_dict().items()) if value}]
            for m in taken
        ]
        print(f"  {experiment_id:16s} {len(taken):4d} snapshots", flush=True)
    return snapshots


def render(snapshots: list[Snapshot]) -> str:
    """The baseline file: JSON with one snapshot per line, so a counter
    change reads as a one-line diff."""
    lines = ",\n".join(json.dumps(snapshot) for snapshot in snapshots)
    return f'{{"plan": {json.dumps(repr(PLAN))}, "snapshots": [\n{lines}\n]}}\n'


def load_baseline(experiment_ids: Sequence[str] | None = None) -> dict[str, Any]:
    """The committed baseline, cut to *experiment_ids* when given."""
    baseline = json.loads(BASELINE.read_text())
    if experiment_ids is not None:
        baseline["snapshots"] = [
            s for s in baseline["snapshots"] if s[0] in experiment_ids
        ]
    return baseline


def compare(current: list[Snapshot], baseline: dict[str, Any]) -> list[str]:
    """Every way *current* differs from *baseline* (empty = identical),
    named by experiment, position within it, label and counter."""
    if baseline["plan"] != repr(PLAN):
        return [f"the baseline was recorded under {baseline['plan']}, not {PLAN!r}"]
    now, then = _by_experiment(current), _by_experiment(baseline["snapshots"])
    problems = []
    for experiment_id in dict.fromkeys([*then, *now]):
        mine, theirs = now.get(experiment_id, []), then.get(experiment_id, [])
        if len(mine) != len(theirs):
            problems.append(
                f"{experiment_id}: {len(mine)} snapshots, baseline {len(theirs)}"
            )
        for position, (snapshot, base) in enumerate(zip(mine, theirs)):
            (label, ops, counters), (base_label, base_ops, base_counters) = snapshot, base
            where = f"{experiment_id} #{position} {label!r}"
            if (label, ops) != (base_label, base_ops):
                problems.append(
                    f"{where} x{ops}: baseline has {base_label!r} x{base_ops}"
                )
            elif counters != base_counters:
                problems.append(f"{where}: " + ", ".join(
                    f"{name} {base_counters.get(name, 0)} -> {counters.get(name, 0)}"
                    for name in sorted({*counters, *base_counters})
                    if counters.get(name) != base_counters.get(name)
                ))
    return problems


def _by_experiment(snapshots: list[Snapshot]) -> dict[str, list[Snapshot]]:
    grouped: dict[str, list[Snapshot]] = {}
    for experiment_id, *rest in snapshots:
        grouped.setdefault(experiment_id, []).append(rest)
    return grouped


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    check = False
    out: Path | None = None
    it = iter(argv)
    for arg in it:
        if arg == "--check":
            check = True
        elif arg == "--out":
            out = Path(next(it))
        elif arg in ("-h", "--help"):
            print(__doc__)
            return 0
        else:
            print(f"unknown bench option {arg!r}", file=sys.stderr)
            return 2

    print(f"counter guard: every registry experiment under {PLAN}")
    snapshots = record()
    print(f"{len(snapshots)} snapshots, "
          f"{sum(1 for s in snapshots if s[3])} with nonzero counters")
    if out is not None:
        out.write_text(render(snapshots))
        print(f"wrote {out}")
    if not check:
        if out is None:
            print(render(snapshots), end="")
        return 0

    problems = compare(snapshots, load_baseline())
    if problems:
        print(f"FAIL: {len(problems)} difference(s) from {BASELINE.name}:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"PASS: counters bit-identical to {BASELINE.name}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
