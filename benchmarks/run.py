"""filterlab benchmark: closed-loop challenge games at the paper's parameter points.

    python3 benchmarks/run.py --workload adaptive_u13 --seed 1 --seconds 30 --trace 0

One client plays one game at a time, alternating the workload's two configs,
for --seconds of wall time (and at least the workload's fixed pairs of
games).  With --trace 0 the last line of standard output is a JSON object
with the end-to-end metrics; with --trace 1 it holds the per-layer metrics
of a run that alternates traced and untraced blocks of games.  The line
before it is the full record: stamps, deterministic outputs, counts and the
unscaled times.  Records (and, when traced, game spans) are also written
under .bench_out/.

Times are reported at a fixed machine speed.  On a shared machine other
tenants slow a core by tens of percent for minutes at a time, so a fixed
pure-Python loop (`SpeedReference`) is timed right before and right after
every timed interval, and the interval is scaled by REF_MS over the loop's
mean time.  The loop is benchmark code, so a faster program still shows as
faster; only the machine's momentary speed is divided out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from tracing import PER_LAYER, Tracer
from workloads import (ROOT, SRC, WORKLOADS, GameLoop, MissingProgram, Outcomes,
                       load_filterlab, xcache_size)

END_TO_END = {
    "games_per_s": ("1/s", "higher"),
    "game_ms_p50": ("ms", "lower"),
    "game_ms_p90": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
SETUP_PROBES = 4  # set-ups in fresh processes, besides the run's own
OUT_DIR = ROOT / ".bench_out"

# SpeedReference's time on the 2-core x86_64 box the baseline was taken on,
# so that scaled times read as that box's milliseconds
REF_MS = 1.5


def _clmul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


class SpeedReference:
    """A fixed loop of small-int shifts and XORs (carry-less products), the
    interpreter work that dominates every workload, timed beside each
    measured interval.  In trials its time tracked the games' times on all
    three workloads; a wide-int AND/popcount loop did not track wide_u32."""

    def ms(self) -> float:
        acc = 0
        t0 = time.perf_counter_ns()
        for i in range(300):
            acc ^= _clmul((i * 2654435761) & 0xFFFFFFFF, 0x9E3779B9)
        return (time.perf_counter_ns() - t0) / 1e6

    def speed(self, before_ms: float) -> float:
        """Factor that scales an interval to reference speed, given the loop's
        time just before it; times the loop again just after."""
        return REF_MS / ((before_ms + self.ms()) / 2)


def set_up(workload, seed, ref, tracer_wanted=False):
    """Import, build configs and play the warm-up games.  Returns the time
    taken at reference speed, the unscaled time, the loop and the tracer."""
    before = ref.ms()
    t0 = time.perf_counter()
    lab = load_filterlab()
    loop = GameLoop(lab, workload, seed)
    tracer = Tracer(lab) if tracer_wanted else None
    if tracer:
        tracer.install()
    loop.warm_up()
    if tracer:
        tracer.uninstall()
    raw = time.perf_counter() - t0
    return raw * ref.speed(before), raw, loop, tracer


def probe_setup(workload, seed) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload.name, "--seed", str(seed),
         "--setup-probe"],
        capture_output=True, text=True, timeout=150, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["raw_s"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def stamps(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                    capture_output=True, text=True).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "filterlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": commit, "source_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()}


def play_run(loop, ref, seconds, tracer):
    """The timed closed loop.  Blocks of pairs alternate traced/untraced when
    a tracer is given (starting traced); checks run outside every timed span.
    Each game yields (failed, ns, ns at reference speed, speed, traced)."""
    wl = loop.workload
    games, blocks = [], []
    outcomes = Outcomes()
    fixed = None
    scan = [0, 0]  # consistency-search self ns, candidates, over traced games
    cuckoo_counts = [0, 0]  # bit comparisons, queries, over traced games
    start = time.perf_counter()
    j = 0
    while True:
        traced = tracer is not None and (j // wl.block_pairs) % 2 == 0
        if j % wl.block_pairs == 0:
            blocks.append({"traced": traced, "games": 0, "ns": 0})
        for c in range(len(loop.configs)):
            before_ms = ref.ms()
            if traced:
                mark = tracer.mark()
                tracer.install()
            game = loop.play(c, j)
            if traced:
                tracer.uninstall()
            speed = ref.speed(before_ms)
            if traced:
                adv_self = tracer.record_game(game, mark)
                if game.candidates is not None:
                    scan[0] += adv_self
                    scan[1] += game.candidates
                cuckoo_counts[0] += game.bit_comparisons
                cuckoo_counts[1] += game.cuckoo_queries
            loop.check(game, audit=(j == 0))
            if game.failed:
                print(f"game {c}/{j} failed: {'; '.join(game.problems)}", file=sys.stderr)
            blocks[-1]["games"] += 1
            blocks[-1]["ns"] += game.ns * speed
            games.append((game.failed, game.ns, game.ns * speed, speed, traced))
            if j < wl.fixed_pairs:
                outcomes.add(game)
        j += 1
        if j == wl.fixed_pairs:
            xc = xcache_size(loop.lab)
            fixed = {"deterministic": outcomes.as_dict(xc and xc[0]),
                     "peak_rss_mb": peak_rss_mb()}
        if (j >= wl.fixed_pairs and j % wl.block_pairs == 0
                and time.perf_counter() - start >= seconds):
            return games, blocks, fixed, scan, cuckoo_counts


def block_rate(blocks, traced):
    rates = [b["games"] / b["ns"] * 1e9 for b in blocks if b["traced"] == traced]
    return statistics.median(rates) if rates else 0.0


def latency(ms):
    return statistics.median(ms), statistics.quantiles(ms, n=10, method="inclusive")[8]


def end_to_end(games, blocks, fixed, setup_s):
    p50, p90 = latency([scaled / 1e6 for failed, _, scaled, _, _ in games if not failed])
    return {"games_per_s": block_rate(blocks, False), "game_ms_p50": p50,
            "game_ms_p90": p90, "setup_s": setup_s, "peak_rss_mb": fixed["peak_rss_mb"]}


def unscaled(games, setups):
    """The end-to-end times as the wall clock read them, for the record."""
    ns = [raw for failed, raw, _, _, traced in games if not failed and not traced]
    p50, p90 = latency([x / 1e6 for x in ns])
    return {"games_per_s": len(ns) / sum(ns) * 1e9, "game_ms_p50": p50, "game_ms_p90": p90,
            "setup_s": statistics.median(setups),
            "speed": statistics.median(speed for *_, speed, _ in games)}


def per_layer(tracer, setup_stats, loop, blocks, scan, cuckoo_counts, speed):
    """Per-layer metrics of the traced games; times scaled by the run's speed."""
    t = tracer
    games = len(t.games)
    per_game = (lambda ns_or_n, scale: ns_or_n / games / scale) if games else (lambda *_: 0.0)
    miss_n = t.calls("gfamily.x_miss") + setup_stats.get("gfamily.x_miss", [0, 0, 0])[0]
    miss_ns = t.total_ns("gfamily.x_miss") + setup_stats.get("gfamily.x_miss", [0, 0, 0])[1]
    gets = t.calls("gfamily.x_get")
    builds = t.calls("cuckoo.build")
    shield_q = t.calls("shield.query")
    xc = xcache_size(loop.lab) or (0, 0.0)
    traced_rate, untraced_rate = block_rate(blocks, True), block_rate(blocks, False)
    values = {
        "core.build_ms": per_game(t.total_ns("core.build"), 1e6),
        "core.adversary_ms": per_game(t.total_ns("core.adversary"), 1e6),
        "core.oracle_queries": per_game(t.calls("core.oracle_query"), 1),
        "core.oracle_query_us": t.per_call("core.oracle_query", 1e3),
        "core.enumerator_ms": per_game(t.total_ns("core.enumerator"), 1e6),
        "cuckoo.query_us": t.per_call("cuckoo.query", 1e3),
        "cuckoo.bit_comparisons_per_query":
            cuckoo_counts[0] / cuckoo_counts[1] if cuckoo_counts[1] else 0.0,
        "cuckoo.build_self_ms": t.self_ns("cuckoo.build") / builds / 1e6 if builds else 0.0,
        "gfamily.fingerprint_us": t.per_call("gfamily.fingerprint", 1e3),
        "gfamily.xvector_miss_us": miss_ns / miss_n / 1e3 if miss_n else 0.0,
        "gfamily.xcache_hit_ratio": 1 - t.calls("gfamily.x_miss") / gets if gets else 0.0,
        "gfamily.xcache_entries": xc[0],
        "gfamily.xcache_mb": xc[1],
        "gfamily.g_sample_ms": t.per_call("gfamily.g_sample", 1e6),
        "bloom.query_us": t.per_call("bloom.query", 1e3),
        "bloom.build_ms": t.per_call("bloom.build", 1e6),
        "adversaries.self_ms": per_game(t.self_ns("core.adversary"), 1e6),
        "adversaries.candidates_scanned": per_game(scan[1], 1),
        "adversaries.scan_ns_per_candidate": scan[0] / scan[1] if scan[1] else 0.0,
        "permutation.permute_us": t.per_call("permutation.permute", 1e3),
        "shield.permute_per_query":
            t.calls_under["permutation.permute", "shield.query"] / shield_q if shield_q else 0.0,
        "trace.games_per_s": traced_rate,
        "trace.untraced_games_per_s": untraced_rate,
        "trace.overhead_frac": untraced_rate / traced_rate - 1 if traced_rate else 0.0,
    }
    assert values.keys() == PER_LAYER.keys()
    return {k: v * speed if PER_LAYER[k][0] in ("ms", "us", "ns") else v
            for k, v in values.items()}


def write_out(name, obj):
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / name).write_text(json.dumps(obj, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time one set-up and print it (used by the run itself)")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    ref = SpeedReference()
    try:
        setup_s, setup_raw, loop, tracer = set_up(wl, args.seed, ref,
                                                  tracer_wanted=bool(args.trace))
    except MissingProgram as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        loop.close()
        print(json.dumps({"setup_s": setup_s, "raw_s": setup_raw}))
        return 0
    probes = [] if args.trace else [probe_setup(wl, args.seed) for _ in range(SETUP_PROBES)]
    setups = probes + [(setup_s, setup_raw)]
    setup_stats = tracer.take() if tracer else {}
    try:
        games, blocks, fixed, scan, cuckoo_counts = play_run(loop, ref, args.seconds, tracer)
    finally:
        loop.close()
    failed = sum(g[0] for g in games)
    if args.trace:
        speed = statistics.median(g[3] for g in games if g[4])
        metrics = per_layer(tracer, setup_stats, loop, blocks, scan, cuckoo_counts, speed)
        units = PER_LAYER
    else:
        metrics = end_to_end(games, blocks, fixed, statistics.median(s for s, _ in setups))
        units = END_TO_END
    record = {**stamps(args), "games": len(games), "pairs": len(games) // 2,
              "latency_samples": len(games) - failed, "blocks": len(blocks),
              "fixed_pairs": wl.fixed_pairs, "failed_frac": failed / len(games),
              "setup_samples_s": [s for s, _ in setups], **fixed, "metrics": metrics,
              "unscaled": unscaled(games, [raw for _, raw in setups])}
    if tracer:
        record["hooks_missing"] = tracer.missing
    tag = f"{wl.name}_seed{args.seed}_trace{args.trace}"
    write_out(f"{tag}.json", {**record, "game_ms": [
        (raw / 1e6, scaled / 1e6, traced) for _, raw, scaled, _, traced in games]})
    if tracer:
        write_out(f"{tag}_spans.json", {"stats": tracer.take(), "games": tracer.games})
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(games), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
