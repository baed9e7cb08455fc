"""octaq benchmark: one workload, one seed, measured for about --seconds.

    python3 perfbench/run.py --workload corpus|family|proofs \
        --seed N --seconds S --trace 0|1

Run from anywhere; the program under test is imported from ``src/`` of
the checkout this file sits in.  Each pass is a fresh interpreter
(perfbench/worker.py) that imports octaq, builds its inputs and runs one
item at a time, like one ``octaq`` CLI call: a closed loop with one
client, so module-level caches start cold in every pass.

--trace 0 prints the end-to-end metrics; --trace 1 runs untraced and
traced passes in pairs and prints the per-layer metrics.  The last line
of stdout is the JSON result; notes and warnings go to stderr.  Exit
code 1 means a wrong answer or a crashed pass, 2 a bad invocation or a
checkout without octaq.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from math import ceil
from pathlib import Path

from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("item_p50_ms", "ms", "lower"),
    ("item_tail_ms", "ms", "lower"),
    ("ops_completed_frac", "frac", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)
PER_LAYER = LAYER_METRICS + (("trace.overhead_s", "s", "lower"),)

REFERENCE_S = 1e-3    # the worker's reference loop counts as 1 ms
SETUP_PROBES = 10     # set-up-only interpreters per untraced run
PASS_TIMEOUT_S = 60   # one interpreter; a pass takes 3-12 s
RUN_LIMIT_S = 100     # start no pass after this, even below MIN_PASSES

# The family candidates: acceptance criterion 6's ten principal seeds
# (b, c), each with the odd integers s in its range -4..4.  The set is
# fixed and the seed only orders it: drawing the set from the seed made
# the mean member cost, and so throughput, differ by 13-20% between seeds
# from the choice of members alone.
PRINCIPAL_SEEDS = ((1, -1), (2, -1), (3, 1), (1, 1), (2, 2), (4, 4), (8, 4),
                   (2, -2), (3, -1), (5, 3))
FAMILY_S = (-3, -1, 1, 3)


class BenchError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# -- inputs: each generator yields the inputs of successive passes -------------


def corpus_size() -> int:
    """Data rows of the bundled table; '#' starts a comment."""
    text = (SRC / "octaq" / "data" / "tables.txt").read_text(encoding="utf-8")
    return sum(1 for line in text.splitlines() if line.split("#", 1)[0].strip())


def corpus_inputs(rng: random.Random):
    rows = corpus_size()
    while True:
        order = list(range(rows))
        rng.shuffle(order)
        yield {"order": order}


def family_inputs(rng: random.Random):
    while True:
        candidates = [[b, c, s] for b, c in PRINCIPAL_SEEDS for s in FAMILY_S]
        rng.shuffle(candidates)
        yield {"candidates": candidates}


def proofs_inputs(rng: random.Random):
    while True:
        yield {}


# name -> (inputs, tail percentile).  The tail is the highest percentile
# with ten items beyond it; proofs has only nine items and takes the
# corpus's p88 (its 8th of 9).
WORKLOADS = {
    "corpus": (corpus_inputs, 88),   # 85 rows a pass
    "family": (family_inputs, 75),   # 40 candidates a pass
    "proofs": (proofs_inputs, 88),   # 9 proof checks a pass
}
MIN_PASSES = 3


# -- passes --------------------------------------------------------------------


def launch(job: dict) -> tuple[float, dict]:
    """Run one worker interpreter; returns (launch time, its result)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps({"src": str(SRC), **job}), stdout=subprocess.PIPE,
            text=True, env=env, cwd=ROOT, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a {job['workload']} pass exceeded"
                         f" {PASS_TIMEOUT_S} s", 1) from exc
    if proc.returncode != 0:
        raise BenchError(f"a {job['workload']} pass exited with code"
                         f" {proc.returncode}", proc.returncode)
    return started, json.loads(proc.stdout.splitlines()[-1])


def nearest_rank(sorted_values: list, pct: int) -> float:
    return sorted_values[max(0, ceil(pct / 100 * len(sorted_values)) - 1)]


def check_digests(results: list[dict]) -> None:
    """Warn (never fail) when outputs differ from the recorded ones."""
    reference = json.loads((HERE / "digests.json").read_text())
    differing = {key for res in results for key, value in res["digests"].items()
                 if reference.get(key) != value}
    for key in sorted(differing):
        print(f"perfbench: warning: digest-mismatch: {key} differs from"
              " perfbench/digests.json", file=sys.stderr)


def run_untraced(workload: str, stream, seconds: int) -> tuple[dict, dict]:
    """Set-up probes, then passes until about ``seconds`` have gone by.

    The host's speed drifts by up to 2x, in bursts and in slow spells
    that can last a whole run, so every time is normalized: divided by
    the time of the worker's reference loop measured next to it, and
    expressed with that loop counted as 1 ms.  An item's latency is then
    the median of its normalized times over the run's passes; every pass
    is a fresh interpreter, so each repeat starts cold."""
    tail_pct = WORKLOADS[workload][1]
    first = next(stream)
    setups, passes = [], []
    for _ in range(SETUP_PROBES):
        started, res = launch({"workload": workload, "mode": "setup",
                               "trace": False, "inputs": first})
        setups.append((res["ready"] - started) * REFERENCE_S / res["refs"][0])
    begin, inputs = time.monotonic(), first
    while True:
        started, res = launch({"workload": workload, "mode": "pass",
                               "trace": False, "inputs": inputs})
        setups.append((res["ready"] - started) * REFERENCE_S / res["refs"][0])
        passes.append(res)
        elapsed = time.monotonic() - begin
        if elapsed > RUN_LIMIT_S or (len(passes) >= MIN_PASSES and
                                     elapsed + (res["end"] - started) / 2
                                     >= seconds):
            break
        inputs = next(stream)
    check_digests(passes)

    runs = [item for res in passes for item in res["items"]]
    repeats: dict[str, list] = {}
    for res in passes:
        refs = res["refs"]
        for i, (key, ms, _) in enumerate(res["items"]):
            repeats.setdefault(key, []).append(
                ms * 2 * REFERENCE_S / (refs[i] + refs[i + 1]))
    latency = sorted(statistics.median(v) for v in repeats.values())
    statuses = [status for _, _, status in runs]
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": 1e3 * len(latency) / sum(latency),
        "item_p50_ms": nearest_rank(latency, 50),
        "item_tail_ms": nearest_rank(latency, tail_pct),
        "ops_completed_frac": statuses.count("ok") / len(statuses),
        "peak_rss_mb": statistics.median(res["rss_mib"] for res in passes),
    }
    print(f"perfbench: {workload}: {len(passes)} passes of {len(latency)}"
          f" items, {len(setups)} set-ups; {statuses.count('skipped')} item"
          f" runs skipped a re-check at a limit, {statuses.count('failed')}"
          f" failed at one; item_tail_ms is p{tail_pct}", file=sys.stderr)
    return values, {"attempted": len(runs), "failed": statuses.count("failed"),
                    "env": passes[0]["env"]}


def run_traced(workload: str, stream, seconds: int, trace_path: Path
               ) -> tuple[dict, dict]:
    """Untraced and traced passes on the same inputs, in pairs.  Counters
    come from the first traced pass, so they repeat exactly for a given
    seed; times are medians over the pairs."""
    pairs = []
    begin = time.monotonic()
    for inputs in stream:
        job = {"workload": workload, "mode": "pass", "inputs": inputs}
        plain_start, plain = launch({**job, "trace": False})
        traced_start, traced = launch({
            **job, "trace": True,
            "trace_path": None if pairs else str(trace_path)})
        pairs.append((plain["end"] - plain_start, traced["end"] - traced_start,
                      plain, traced))
        elapsed = time.monotonic() - begin
        if elapsed > RUN_LIMIT_S or elapsed + elapsed / len(pairs) / 2 >= seconds:
            break
    check_digests([res for pair in pairs for res in pair[2:]])

    values = dict(pairs[0][3]["layers"])
    for name, unit, _ in LAYER_METRICS:
        if unit == "s":
            values[name] = statistics.median(p[3]["layers"][name] for p in pairs)
    values["trace.overhead_s"] = statistics.median(t - u for u, t, _, _ in pairs)
    runs = [item for pair in pairs for res in pair[2:] for item in res["items"]]
    print(f"perfbench: {workload}: {len(pairs)} untraced/traced pairs,"
          f" spans of the first traced pass in {trace_path}", file=sys.stderr)
    return values, {"attempted": len(runs),
                    "failed": sum(status == "failed" for _, _, status in runs),
                    "env": pairs[0][2]["env"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not (SRC / "octaq" / "__init__.py").is_file():
        print(f"perfbench: no octaq sources under {SRC}", file=sys.stderr)
        return 2

    stream = WORKLOADS[args.workload][0](random.Random(args.seed))
    try:
        if args.trace:
            (HERE / "traces").mkdir(exist_ok=True)
            path = HERE / "traces" / f"{args.workload}-seed{args.seed}.json"
            values, info = run_traced(args.workload, stream, args.seconds, path)
            specs = PER_LAYER
        else:
            values, info = run_untraced(args.workload, stream, args.seconds)
            specs = END_TO_END
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return exc.code if exc.code in (1, 2) else 1
    env = info["env"]
    print(f"perfbench: workload={args.workload} seed={args.seed}"
          f" python={env['python']} mpmath={env['mpmath']}"
          f" nproc={os.cpu_count()}", file=sys.stderr)
    print(json.dumps({
        "correct": True,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
