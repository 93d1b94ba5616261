"""The memoization layer — cold vs warm labeling and cache hit ratios.

The hot-path caches (label interning, pairwise relations, predicate and
group-result memos) exist so repeated labeling of the same domain —
the service's steady state — skips the quadratic Definition-1/2 work.
This bench measures exactly that workload through
:func:`repro.perf.profile_labeling`: every domain labeled once cold and
``repeats`` times warm over one shared comparator, no response-cache
shortcuts (the full pipeline runs every time).

Artifacts:

* ``benchmarks/results/perf.txt`` — human-readable table;
* ``benchmarks/results/BENCH_perf.json`` — the machine-readable report
  (ops/sec, hit ratios, cold/warm wall time) future PRs diff against to
  track the perf trajectory.  Regenerate with
  ``repro profile -o benchmarks/results/BENCH_perf.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench import format_table, write_result
from repro.perf import profile_labeling

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: The acceptance floor: warm labeling of the full seven-domain sweep must
#: be at least this much faster than cold.  Measured ~10-15x while the
#: Combine* closure dominated the cold sweep, 3.0-3.9x once its bitset
#: kernel made cold labeling ~5x cheaper, 4.1-4.6x since LI1's pairs are
#: found once per labeling; the floor keeps the caches from rotting.
MIN_TOTAL_SPEEDUP = 3.0


def test_perf_report():
    report = profile_labeling(seed=0, repeats=3)

    rows = []
    for name, row in report["domains"].items():
        rows.append([
            name, f"{row['cold_ms']:.1f}", f"{row['warm_ms']:.1f}",
            f"{row['speedup']:.1f}x",
        ])
    totals = report["totals"]
    rows.append([
        "TOTAL", f"{totals['cold_ms']:.1f}", f"{totals['warm_ms']:.1f}",
        f"{totals['speedup']:.1f}x",
    ])
    caches = report["caches"]
    for cache_name in ("labels", "relations", "predicates", "group_results"):
        snap = caches[cache_name]
        rows.append([
            f"cache: {cache_name}",
            f"{snap['hits']} hits",
            f"{snap['misses']} misses",
            f"{snap['hit_rate']:.1%}",
        ])

    table = format_table(
        ["domain / cache", "cold ms", "warm ms", "speedup / hit rate"],
        rows,
        title=("Memoization layer — cold vs warm labeling per domain "
               "(one shared comparator, full pipeline each run, seed 0) "
               f"and final cache hit ratios; warm throughput "
               f"{totals['warm_labelings_per_s']} labelings/s"),
    )
    write_result("perf", table)

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "BENCH_perf.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )

    # The acceptance criterion: repeated labeling of the same domains must
    # come back at least MIN_TOTAL_SPEEDUP faster warm than cold.
    assert totals["speedup"] >= MIN_TOTAL_SPEEDUP, report["totals"]
    # The caches must actually be carrying the load, not sitting idle.
    assert caches["labels"]["hit_rate"] > 0.5
    assert caches["relations"]["hit_rate"] > 0.5
    assert caches["group_results"]["hits"] > 0
