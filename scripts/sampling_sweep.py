#!/usr/bin/env python3
"""Sampler sweep: pooled_report's one draw against per-iteration draws.

    python scripts/sampling_sweep.py [--out BENCH_sampling.json]

For iterations in {1, 10, 100, 1000} and outcomes in {3, 5} (the filter's
target entries of one column plus the rest outcome, at s = 1 and s = 2)
it draws 16384 shots per iteration with the filter's entropy tuple
(seed, step, column). Per point it records the median over REPEATS
timings of the ms per call of `sampling.pooled_report` and of the
reference below, which builds one SeedSequence child and one Philox
generator per iteration and draws `shots` shots from each, where
`pooled_report` draws all shots * iterations shots at once. A timing
covers ceil(CALLS / iterations) back-to-back calls, so a 1-iteration
call (tens of microseconds) is not timed alone. The two are timed in
alternation. Both are draws of Multinomial(N, p), N = shots *
iterations, from different streams, so their counts differ; the
difference of two independent such draws has variance 2 N p (1 - p)
per outcome, and every outcome's difference must lie within 6 standard
deviations. The script exits 1 if one does not.
"""

import argparse
import json
import os
import pathlib
import platform
import statistics
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from qkalman import sampling  # noqa: E402

ITERATIONS = (1, 10, 100, 1000)
OUTCOMES = (3, 5)
SHOTS = 16384
ENTROPY = (301, 1, 1)
REPEATS = 21
CALLS = 100


def reference(amplitudes, shots: int, iterations: int, seed) -> np.ndarray:
    """Pooled counts with one spawned SeedSequence child and Philox per iteration."""
    probs = sampling._probabilities(amplitudes)
    counts = np.zeros(probs.size, dtype=np.int64)
    for child in np.random.SeedSequence(seed).spawn(iterations):
        counts += np.random.Generator(np.random.Philox(child)).multinomial(shots, probs)
    return counts


def ms_per_call(fn, args, calls: int):
    """(last result, wall ms per call) of `calls` back-to-back calls."""
    t0 = time.perf_counter()
    for _ in range(calls):
        out = fn(*args)
    return out, 1e3 * (time.perf_counter() - t0) / calls


def sweep() -> list[dict]:
    rng = np.random.Generator(np.random.Philox(ENTROPY[0]))
    rows = []
    for outcomes in OUTCOMES:
        targets = rng.standard_normal(outcomes - 1)
        amps = sampling.with_rest(0.1 * targets / np.linalg.norm(targets))
        probs = sampling._probabilities(amps)
        for iterations in ITERATIONS:
            args = (amps, SHOTS, iterations, ENTROPY)
            calls = -(-CALLS // iterations)
            sigma = np.sqrt(2 * SHOTS * iterations * probs * (1 - probs))
            new_ms, ref_ms = [], []
            for _ in range(REPEATS):
                report, ms = ms_per_call(sampling.pooled_report, args, calls)
                new_ms.append(ms)
                counts, ms = ms_per_call(reference, args, calls)
                ref_ms.append(ms)
            agree = bool(np.all(np.abs(report.counts - counts) <= 6 * sigma))
            new, ref = statistics.median(new_ms), statistics.median(ref_ms)
            rows.append({"outcomes": outcomes, "iterations": iterations,
                         "calls_per_timing": calls, "pooled_ms": new,
                         "reference_ms": ref, "speedup": ref / new,
                         "within_6_sigma": agree})
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path,
                        default=ROOT / "BENCH_sampling.json")
    args = parser.parse_args()

    rows = sweep()
    report = {
        "environment": {
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": len(os.sched_getaffinity(0)),
        },
        "shots": SHOTS,
        "entropy": list(ENTROPY),
        "repeats": REPEATS,
        "calls": CALLS,
        "rows": rows,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"{'outcomes':>8} {'iterations':>10} {'pooled ms':>10} "
          f"{'reference ms':>12} {'speedup':>8} within 6 sigma")
    for r in rows:
        print(f"{r['outcomes']:>8} {r['iterations']:>10} {r['pooled_ms']:>10.3f} "
              f"{r['reference_ms']:>12.3f} {r['speedup']:>8.2f} {r['within_6_sigma']}")
    print(f"wrote {args.out}")
    return 0 if all(r["within_6_sigma"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
