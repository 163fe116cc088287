"""Mapping between the paper's data sizes and simulator sizes.

The paper's synthetic grid runs 1M–15M parent rows (and one 100M set) on
MySQL; a pure-Python engine is roughly three orders of magnitude slower
per row, so the default scale factor is 1,000 — 15M becomes 15k — and
operation counts shrink proportionally (5,000 inserts → 150 by default).
Because every competing index structure is scaled identically, relative
orderings and growth trends survive the scaling; absolute times do not
(and are not claimed to).

Environment knobs (read once at import):

* ``REPRO_SCALE``     — rows divisor (default 1000; 100 gives a 10x
  bigger, 10x slower run closer to the paper's regime),
* ``REPRO_OPS``       — operations per measured cell (default 150
  inserts / 40 deletes, scaled together),
* ``REPRO_QUICK``     — set to 1 to shrink the grid to three sizes for
  CI-speed benchmark runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

#: The paper's synthetic parent-table sizes (§7.1).
PAPER_SIZES = (1_000_000, 3_000_000, 5_000_000, 10_000_000, 15_000_000)

#: The one-off large set of Table 3.
PAPER_LARGEST = 100_000_000

#: Paper operation counts per cell (§7.1).
PAPER_INSERTS = 5_000
PAPER_DELETES = 5_000

#: Paper transaction sizes (§7.4).
PAPER_TXN_INSERTS = 5_000
PAPER_TXN_DELETES = 2_000


def _env_int(name: str, default: int) -> int:
    try:
        return max(1, int(os.environ.get(name, default)))
    except ValueError:
        return default


@dataclass(frozen=True)
class ScalePlan:
    """Concrete sizes for one benchmark run."""

    scale: int
    insert_ops: int
    delete_ops: int
    quick: bool

    @property
    def sizes(self) -> tuple[int, ...]:
        scaled = tuple(s // self.scale for s in PAPER_SIZES)
        return scaled[:3] if self.quick else scaled

    @property
    def largest(self) -> int:
        return PAPER_LARGEST // self.scale

    @property
    def txn_inserts(self) -> int:
        return max(50, PAPER_TXN_INSERTS // self.scale * 100)

    @property
    def txn_deletes(self) -> int:
        return max(20, PAPER_TXN_DELETES // self.scale * 100)

    def size_label(self, scaled_rows: int) -> str:
        """Render a scaled size as the paper's label (e.g. '15M (15000)')."""
        paper = scaled_rows * self.scale
        if paper >= 1_000_000:
            return f"{paper // 1_000_000}M ({scaled_rows})"
        return f"{paper} ({scaled_rows})"


def default_plan() -> ScalePlan:
    """The plan derived from the environment knobs."""
    scale = _env_int("REPRO_SCALE", 1_000)
    inserts = _env_int("REPRO_OPS", 150)
    deletes = max(10, int(inserts * PAPER_DELETES / PAPER_INSERTS * 0.27))
    quick = os.environ.get("REPRO_QUICK", "0") not in ("0", "", "false")
    return ScalePlan(scale=scale, insert_ops=inserts, delete_ops=deletes, quick=quick)
