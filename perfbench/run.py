"""End-to-end benchmark of deltamoney over three seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload long_pair --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the run repeats one episode of the workload, with the
same inputs each time, for at most about ``--seconds`` seconds (at least
``MIN_EPISODES`` times), and reports the end-to-end metrics.  Timings are
taken from the fastest repeat of each fixed chunk of work, because the
shared host's slow phases only ever add time, and are scaled to a fixed
host speed: a yardstick, a fixed piece of Python work timed after every
chunk, tells how fast the host ran (see ``workloads.yardstick``).

With ``--trace 1`` it runs the episode twice, untraced and then traced,
and reports the per-layer metrics of the traced copy plus the tracing
overhead (the difference between the two).  Spans of the traced copy are
written to ``.bench_out/spans-<workload>.tsv``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when a correctness check failed and 2 when the program
under test cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_EPISODES = 3
YARDSTICK_S = 0.0004  # the yardstick's fastest time on the reference host

# end-to-end metric -> unit, reported in the JSON line of every workload.
# The other figures are printed only, because they apply to some workloads.
END_TO_END = {
    "setup_s": "s",
    "transfers_per_s": "transfers/s",
    "peak_rss_mb": "MB",
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, so p99 of 1000 samples has 10 beyond it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def slowdown(latencies) -> float:
    """Median of the last tenth of latencies over that of the first tenth."""
    tenth = max(1, len(latencies) // 10)
    return statistics.median(latencies[-tenth:]) / statistics.median(latencies[:tenth])


def import_program():
    """Import deltamoney from this checkout's ``src``, or exit with code 2."""
    if not (SRC / "deltamoney" / "__init__.py").is_file():
        print(f"error: no deltamoney package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import deltamoney

    if SRC not in Path(deltamoney.__file__).resolve().parents:
        print(f"error: deltamoney imported from {deltamoney.__file__}, "
              f"not {SRC}", file=sys.stderr)
        sys.exit(2)


def run_episode(workload: str, seed: int, tracer=None):
    import workloads

    # every episode starts from the same heap, so collections fall alike
    gc.collect()
    rng = random.Random(f"{workload}:{seed}")
    return workloads.WORKLOADS[workload](rng, seed, tracer or workloads.NO_TRACE)


# per-chunk and per-operation timings, kept at their fastest repeat
SERIES = ("setup_chunk_s", "chunk_s", "yardstick_s", "transfer_ms", "query_ms",
          "recover_ms")


def fold(episodes: list, ep) -> None:
    """Append ``ep``, keeping each timing series at its fastest repeat.

    The first episode holds the element-wise minimum; later repeats drop
    their series, so memory, and with it ``peak_rss_mb``, does not grow
    with the number of repeats.
    """
    episodes.append(ep)
    best = episodes[0]
    if ep is best:
        return
    for name in SERIES:
        setattr(best, name, list(map(min, getattr(best, name), getattr(ep, name))))
        setattr(ep, name, None)
    ep.commit_ticks = ep.settle_ticks = None


def summarize(workload: str, episodes) -> tuple[dict, list]:
    """End-to-end metrics for JSON plus report lines for every figure."""
    first, n = episodes[0], len(episodes)
    best_s = sum(first.chunk_s)
    yardstick_s = statistics.mean(first.yardstick_s)
    speed = YARDSTICK_S / yardstick_s  # the host's speed over the reference's
    setup_s = sum(first.setup_chunk_s)
    latencies = first.transfer_ms
    metrics = {
        "setup_s": setup_s * speed,
        "transfers_per_s": first.committed / best_s / speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    median_tps = statistics.median(ep.committed / ep.wall_s for ep in episodes)
    lines = [
        f"  host speed         {speed:.3f} of the reference  (yardstick "
        f"{yardstick_s * 1e3:.4f} ms, fastest repeat after each chunk)",
        f"  setup_s            {metrics['setup_s']:.4f} s  (fastest repeat of each of "
        f"{len(first.setup_chunk_s)} chunks, {n} repeats; on this host {setup_s:.4f})",
        f"  transfers_per_s    {metrics['transfers_per_s']:.1f} transfers/s  "
        f"(fastest repeat of each of {len(first.chunk_s)} chunks, {n} repeats; "
        f"on this host {first.committed / best_s:.1f}, median repeat {median_tps:.1f})",
        f"  transfer_ms.p50    {percentile(latencies, 50):.3f} ms  (n={len(latencies)})",
        f"  transfer_ms.p99    {percentile(latencies, 99):.3f} ms  (n={len(latencies)})",
    ]
    if workload == "long_pair":
        lines.append(f"  history_slowdown   {slowdown(latencies):.2f} ratio")
    if workload == "audit_mix":
        for name, quantiles in (("query_ms", (50, 99)), ("recover_ms", (50,))):
            values = getattr(first, name)
            for q in quantiles:
                lines.append(f"  {name + f'.p{q}':<18} {percentile(values, q):.3f} ms  "
                             f"(n={len(values)})")
    commit, settle = first.commit_ticks, first.settle_ticks
    lines += [
        f"  commit_ticks.p50   {percentile(commit, 50)} ticks  (n={len(commit)})",
        f"  commit_ticks.p99   {percentile(commit, 99)} ticks  (n={len(commit)})",
        f"  settle_ticks.p99   {percentile(settle, 99)} ticks  (n={len(settle)})",
    ]
    attempted = sum(ep.attempted for ep in episodes)
    failed = sum(ep.failed for ep in episodes)
    lines.append(f"  failed_share       {failed / attempted:.4f} ratio  "
                 f"({failed} of {attempted})")
    lines.append(f"  peak_rss_mb        {metrics['peak_rss_mb']:.1f} MB")
    return metrics, lines


def diverged(episodes) -> list:
    """Repeats of one seed must write the same event log."""
    if len({ep.log_digest for ep in episodes}) > 1:
        return ["repeats of one seed wrote different event logs"]
    return []


def outcome_lines(episodes) -> list:
    totals = {}
    for ep in episodes:
        for name, count in ep.outcomes.items():
            totals[name] = totals.get(name, 0) + count
    requested = sum(ep.requested for ep in episodes)
    queries = sum(ep.queries for ep in episodes)
    false = sum(ep.false_verdicts for ep in episodes)
    out = [
        "  outcomes: requested {} = committed {committed} + aborted {aborted} "
        "+ refused {refused} + gave up {gave_up}".format(requested, **totals)
    ]
    if queries:
        out.append(f"  verdicts: {false} of {queries} queries on honest subjects "
                   "were not all-true")
    failures = [f for ep in episodes for f in ep.failures] + diverged(episodes)
    out.append("  checks: " + ("passed" if not failures else "FAILED"))
    out += [f"    {f}" for f in failures]
    return out


def trace_run(workload: str, seed: int) -> tuple[dict, list, list]:
    from tracing import LAYERS, METRICS, Tracer

    plain = run_episode(workload, seed)
    tracer = Tracer()
    traced = run_episode(workload, seed, tracer)
    metrics = tracer.metrics(traced)
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    metrics["trace.overhead_pct"] = 100 * (traced.wall_s - plain.wall_s) / plain.wall_s
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}.tsv"
    tracer.write(spans)
    lines = [f"  {name:<44} {metrics[name]:.6g} {unit}" for name, unit in METRICS.items()]
    shares = ", ".join(
        f"{layer} {metrics[f'{layer}.self_ms'] / (10 * traced.wall_s):.1f}%"
        for layer in LAYERS)
    lines.append(f"  self time as a share of the traced phase: {shares}")
    lines.append(f"  spans: {len(tracer.start)} written to {spans.relative_to(ROOT)}")
    return {name: (metrics[name], unit) for name, unit in METRICS.items()}, lines, [
        plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["long_pair", "busy_mesh", "audit_mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    import_program()

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    if args.trace:
        metrics, lines, episodes = trace_run(args.workload, args.seed)
    else:
        episodes, started = [], perf_counter()
        while True:
            fold(episodes, run_episode(args.workload, args.seed))
            elapsed = perf_counter() - started
            # stop before an episode of average length would overrun the budget
            if (len(episodes) >= MIN_EPISODES
                    and elapsed * (len(episodes) + 1) / len(episodes) > args.seconds):
                break
        values, lines = summarize(args.workload, episodes)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    for line in lines + outcome_lines(episodes):
        print(line)
    correct = not any(ep.failures for ep in episodes) and not diverged(episodes)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(ep.attempted for ep in episodes),
        "failed": sum(ep.failed for ep in episodes),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
