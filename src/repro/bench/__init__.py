"""Benchmark harness: ``harness`` builds and measures cells, ``measure``
times operations and captures logical costs, ``scale`` maps the paper's
sizes to a :class:`~repro.bench.scale.ScalePlan`, ``report`` renders
tables and series, ``experiments`` holds the registry of paper tables
and figures and its runner, ``concurrency`` the multi-session
experiments, and ``hotpath`` the counter guard, which pins the cost
snapshots of every registry experiment."""
