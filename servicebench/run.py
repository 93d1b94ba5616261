"""The labeling-service benchmark: one workload, end to end or layer by layer.

Run from the repository root::

    python3 servicebench/run.py --workload label_warm --seed 1 --seconds 10 --trace 0

``--workload all`` runs the three workloads one after another.

It starts the server (``repro serve``) in its own process, drives it from this
process with at most two closed-loop clients, checks every answer, and prints
one JSON object as the last line of its output.  ``--trace 0`` reports the
end-to-end metrics.  ``--trace 1`` measures the workload twice, first
untraced and then under ``traced_server.py``, and reports the per-layer
metrics and the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("label_warm", "label_cold", "batch_corpus")

#: Setups per untraced run; ``setup_s`` is their median.
SETUPS = 5

#: Per-run working files and the count history live under the working directory.
STATE_DIR = Path(".servicebench")
COUNTS_FILE = STATE_DIR / "counts.json"


@dataclass
class Phase:
    """One server's timed phase, with everything measured around it."""

    samples: list
    start: float
    setup_s: list[float]
    rss_mb: float
    before: dict
    after: dict
    failed: int
    mismatches: list[str]
    exhausted: bool
    spans: list = field(default_factory=list)

    @property
    def valid(self) -> bool:
        """Every answer passed the check and the timed phase ran its full
        length."""
        return not self.mismatches and self.failed == 0 and not self.exhausted

    @property
    def attempted(self) -> int:
        return sum(s.request.items for s in self.samples)

    def end_to_end(self) -> dict[str, float]:
        latencies = [s.latency_ms for s in self.samples]
        cuts = statistics.quantiles(latencies, n=10, method="inclusive")
        elapsed = max(s.end for s in self.samples) - self.start
        ok = self.attempted - self.failed
        return {
            "items_per_s": ok / elapsed,
            "latency_p50_ms": statistics.median(latencies),
            "latency_p90_ms": cuts[8],
            "success_rate": ok / self.attempted,
            "setup_s": statistics.median(self.setup_s),
            "server_peak_rss_mb": self.rss_mb,
        }


END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_rate": "ratio",
    "setup_s": "s",
    "server_peak_rss_mb": "MB",
}


def run_phase(workload, src: Path, run_dir: Path, seconds: int, traced: bool,
              setups: int) -> Phase:
    from loadgen import Client, run_closed_loop, run_sequential
    from serverproc import ServerProcess
    from workloads import Checker

    setup_s, mismatches, server = [], [], None
    try:
        for index in range(setups):
            tag = f"{'traced' if traced else 'plain'}-{index}"
            began = time.perf_counter()
            server = ServerProcess(src, run_dir, tag, workload.serve_args,
                                   workload.disk_cache, traced).start()
            client = Client(server.host, server.port, workload.keepalive)
            warmup = run_sequential(client, workload.warmup, f"w{index}")
            client.close()
            setup_s.append(time.perf_counter() - began)
            checker = Checker(workload)
            for sample in warmup:
                checker.check(sample.request, sample.status, sample.body)
            if index < setups - 1:
                mismatches.extend(checker.mismatches)
                server.stop()

        before = server.metrics()
        clients = [Client(server.host, server.port, workload.keepalive)
                   for _ in range(workload.clients)]
        for client in clients:
            client.open()
        samples, start, exhausted = run_closed_loop(clients, workload.timed, seconds, "t")
        for client in clients:
            client.close()
        after = server.metrics()
        rss_mb = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    # The last warm-up's answers are the ones the timed hits must equal.
    failed = sum(checker.check(s.request, s.status, s.body) for s in samples)
    mismatches.extend(checker.mismatches)
    phase = Phase(samples, start, setup_s, rss_mb, before, after, failed, mismatches, exhausted)
    if traced:
        import spans

        phase.spans = spans.load(server.spans_path)
    return phase


def _report_phase(name: str, phase: Phase, label: str) -> None:
    print(f"{name} ({label}): {len(phase.samples)} requests, {phase.attempted} items, "
          f"{phase.failed} failed")
    if phase.exhausted:
        print(f"{name} ({label}): NOT CORRECT: the generated inputs ran out before the "
              f"deadline, so the timed phase was shorter than --seconds")
    for problem in phase.mismatches[:20]:
        print(f"{name}: output check: {problem}", file=sys.stderr)


def untraced_run(workload, src: Path, run_dir: Path, seconds: int) -> dict:
    phase = run_phase(workload, src, run_dir, seconds, traced=False, setups=SETUPS)
    _report_phase(workload.name, phase, "untraced")
    metrics = phase.end_to_end()
    print("  setups: " + ", ".join(f"{t:.3f} s" for t in phase.setup_s))
    for name, value in metrics.items():
        print(f"  {name:<22} {value:12.4f} {END_TO_END_UNITS[name]}")
    return {
        "correct": phase.valid,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                    for name, value in metrics.items()},
    }


def traced_run(workload, src: Path, run_dir: Path, seconds: int, seed: int) -> dict:
    import layers

    plain = run_phase(workload, src, run_dir, seconds, traced=False, setups=1)
    _report_phase(workload.name, plain, "untraced")
    traced = run_phase(workload, src, run_dir, seconds, traced=True, setups=1)
    _report_phase(workload.name, traced, "traced")

    values = layers.compute(traced.samples, traced.spans, traced.before, traced.after)
    base, with_spans = plain.end_to_end(), traced.end_to_end()
    values["trace.overhead_items_per_s_pct"] = 100.0 * (
        base["items_per_s"] - with_spans["items_per_s"]) / base["items_per_s"]
    values["trace.overhead_latency_p50_pct"] = 100.0 * (
        with_spans["latency_p50_ms"] - base["latency_p50_ms"]) / base["latency_p50_ms"]

    print(f"mean self time per item, by span ({workload.name}, traced):")
    for name, calls, ms_per_item, share in layers.self_time_table(traced.samples, traced.spans):
        print(f"  {name:<28} {calls:8d} calls {ms_per_item:10.4f} ms/item {share:7.1%}")
    print(f"per-layer metrics ({workload.name}):")
    for layer in layers.LAYERS:
        print(f"  {layer.name:<36} {values[layer.name]:12.4f} {layer.unit:<7} "
              f"moves {layer.moves}")
    _flag_counts(workload.name, seed, {
        layer.name: values[layer.name] for layer in layers.LAYERS if layer.is_count
    })
    failed = plain.failed + traced.failed
    return {
        "correct": plain.valid and traced.valid,
        "attempted": plain.attempted + traced.attempted,
        "failed": failed,
        "metrics": {layer.name: {"value": values[layer.name], "unit": layer.unit}
                    for layer in layers.LAYERS},
    }


def _flag_counts(workload: str, seed: int, counts: dict[str, float]) -> None:
    """Compare this run's counts with the last traced run of the same
    workload and seed in this checkout; flag any that differ."""
    key = f"{workload}/{seed}"
    try:
        history = json.loads(COUNTS_FILE.read_text())
    except (OSError, ValueError):
        history = {}
    previous = history.get(key)
    if previous is None:
        print(f"counts: first traced run of {key} here; nothing to compare")
    else:
        changed = [n for n in counts if n in previous and previous[n] != counts[n]]
        for name in changed:
            print(f"counts: FLAG {name} did not repeat: {previous[name]!r} -> {counts[name]!r}")
        if not changed:
            print(f"counts: all {len(counts)} counts repeat the last run of {key}")
    history[key] = counts
    COUNTS_FILE.write_text(json.dumps(history, indent=1, sort_keys=True))


def _combine(results: dict[str, dict]) -> dict:
    """One result for several workloads: metric names gain a workload prefix."""
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src, golden = Path("src").resolve(), Path("tests", "golden")
    if not (src / "repro" / "__init__.py").is_file() or not golden.is_dir():
        print("servicebench: run from the repository root; src/repro or tests/golden "
              "is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import build

    results = {}
    run_dir = STATE_DIR / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        for name in WORKLOADS if args.workload == "all" else (args.workload,):
            workload = build(name, args.seed, args.seconds, golden)
            if args.trace:
                results[name] = traced_run(workload, src, run_dir, args.seconds, args.seed)
            else:
                results[name] = untraced_run(workload, src, run_dir, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(results[args.workload] if len(results) == 1 else _combine(results)))
    return 0

if __name__ == "__main__":
    sys.exit(main())
