"""qkalman benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from ./src, never
from an installed copy. The run repeats whole rounds of the workload
(see workloads.py) until another round would end past S seconds, checks
every filter step against checks.py, and prints one JSON object as its
last line of stdout:

  --trace 0: setup_s, run_s, step_s, peak_rss_mb (end to end, untraced)
  --trace 1: the per-layer metrics of spans.py (spans on)

One operation is one filter step. A step that raises counts as failed,
and so do the steps of its track it could not reach; a step whose output
fails a check counts as failed and makes `correct` false. Details of the
run (round and step times, set-up samples, and spans when traced) go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Set before numpy loads: at most two BLAS threads, never more than the cores.
THREADS = str(min(2, len(os.sched_getaffinity(0))))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

from checks import StepOutput, check_step  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5


def import_package():
    """Import qkalman from ./src; exit with an error when it is absent."""
    if not (SRC / "qkalman" / "__init__.py").is_file():
        sys.exit(f"no package source at {SRC}/qkalman: run from a full checkout")
    sys.path.insert(0, str(SRC))
    import qkalman
    if SRC not in Path(qkalman.__file__).resolve().parents:
        sys.exit(f"qkalman imported from {qkalman.__file__}, not from {SRC}")
    return qkalman


def prepare(qk, workload, seed: int, rnd: int):
    """Inputs of one round, with the program's model and state objects."""
    return [(tr, qk.KalmanModel(tr.A, tr.B, tr.H, tr.Q, tr.R),
             qk.FilterState(tr.x0, tr.P0))
            for tr in workload.make_round(seed, rnd)]


def setup_probe(workload: str, seed: int):
    """Child side of the set-up measurement: import, make and validate the
    first round's inputs, then report the wall clock."""
    prepare(import_package(), WORKLOADS[workload], seed, 0)
    print(repr(time.time()))


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from process start to the first filter step, in fresh processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.time()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]) - started)
    return samples


def run_rounds(qk, workload, seed: int, seconds: float, inspect=None) -> dict:
    """Whole rounds until another would end past `seconds` (at least one).

    `inspect`, when given, sees every completed step as
    (track, prior state, u, z, StepOutput, shots) after it is checked.
    """
    policy = (qk.KappaPolicy.margin(1.1) if workload.kappa is None
              else qk.KappaPolicy.fixed(workload.kappa))
    shots = workload.shots * workload.iterations if workload.readout_mode == "sampled" else None
    step_s, round_s = [], []
    attempted = failed = check_failures = 0
    start = time.perf_counter()
    rnd = 0
    while True:
        round_start = time.perf_counter()
        busy = 0.0
        for t, (track, model, state) in enumerate(prepare(qk, workload, seed, rnd)):
            for j in range(track.steps):
                attempted += 1
                u, z = track.controls[j], track.measurements[j]
                t0 = time.perf_counter()
                try:
                    trajectory, ledger = qk.q_filter_run(
                        model, state, [u], [z], 1, workload.readout_mode,
                        shots=workload.shots, iterations=workload.iterations,
                        seed=workload.program_seed(seed, rnd, t),
                        kappa_policy=policy)
                except qk.errors.QkError as exc:
                    lost = track.steps - j
                    attempted += lost - 1
                    failed += lost
                    print(f"round {rnd} track {t} step {j}: {type(exc).__name__}: {exc}",
                          file=sys.stderr)
                    break
                dt = time.perf_counter() - t0
                step_s.append(dt)
                busy += dt
                out = StepOutput.from_run(trajectory, ledger)
                fails = check_step(track, state.x_hat, state.P, u, z, out, shots)
                if fails:
                    failed += 1
                    check_failures += 1
                    print(f"round {rnd} track {t} step {j}: " + "; ".join(fails),
                          file=sys.stderr)
                if inspect is not None:
                    inspect(track, state, u, z, out, shots)
                state = trajectory[-1]
        round_s.append(busy)
        rnd += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    return {"rounds": rnd, "round_s": round_s, "step_s": step_s,
            "attempted": attempted, "failed": failed,
            "check_failures": check_failures}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    qk = import_package()
    workload = WORKLOADS[args.workload]
    setup = measure_setup(args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        res = run_rounds(qk, workload, args.seed, args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "run_s": (statistics.median(res["round_s"]), "s"),
            "step_s": (statistics.median(res["step_s"]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = tracer.layer_metrics(res["rounds"])

    OUT.mkdir(exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "blas_threads": THREADS, "setup_s": setup, **res}
    if tracer is not None:
        detail["spans"] = {"columns": ["id", "name", "parent", "start_s", "end_s"],
                           "rows": tracer.dump()}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail))

    print(json.dumps({
        "correct": res["check_failures"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
