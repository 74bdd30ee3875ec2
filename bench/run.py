"""pinchsec benchmark: study throughput per CPU-second, set-up time and peak memory.

Run from the repository root:

    python3 bench/run.py --workload power-sweep-n20 --seed 1 --seconds 30 --trace 0

A run sets up (imports, configuration, one warm-up study), then runs the
workload's study in rounds, one process, one worker, until ``--seconds``
of wall time have passed.  Each round is a study call plus
``write_outputs``, timed in process CPU time.  After the timed part every
round's written outputs are checked against the benchmark's own model
(``checks.py``), and the checker is tested on corrupted copies.

The last line of standard output is one JSON object:

    {"correct": true, "attempted": <trials>, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones:

    trials_per_cpu_s  trials finished per CPU-second over all timed rounds
    setup_s           CPU time from process start to the first timed trial
                      (interpreter, imports, configuration, warm-up study)
    peak_rss_mb       peak resident set (VmHWM, MiB) of a fresh process
                      that sets up and runs one round

The last two are medians over seven fresh processes, started after the
timed part, that each set up and run one of the run's first seven rounds.
A whole run's own peak is the maximum over thousands of trials, and on
the power sweep it follows the rare trial with the largest coalition
memo; one round's peak does not.

With ``--trace 1`` they are the per-layer ones: the same study runs with
the layer wrappers of ``tracing.py`` for half the time, then untraced on
the same rounds (the difference is the tracing overhead), then the layer
probes of ``probes.py`` run.  Spans go to ``bench/runs/``, next to a
JSON record of every run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "runs"
SOURCES = ROOT / "src" / "pinchsec"

if not SOURCES.is_dir():
    sys.exit(f"bench: no pinchsec sources at {SOURCES.relative_to(ROOT)}; run from a checkout")
sys.path.insert(0, str(SOURCES.parent))

import numpy as np  # noqa: E402

import pinchsec  # noqa: E402
from pinchsec import write_outputs  # noqa: E402

if Path(pinchsec.__file__).resolve().parent != SOURCES:
    sys.exit(f"bench: imported pinchsec from {pinchsec.__file__}, not from the checkout")

import checks  # noqa: E402
import probes  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FRESH_PROCESSES = 7     # fresh processes that give setup_s and peak_rss_mb
EXHAUSTIVE_ROUNDS = 6   # rounds whose deep trial is checked against a 2^N table

# past 24 antennas the convergence study says, every round, that it uses
# annealing as the reference; the workload chose that on purpose
warnings.filterwarnings("ignore", message=".*exhaustive limit", category=RuntimeWarning)


def setup(workload, work: Path) -> float:
    """Warm-up study; returns the process CPU time at its end."""
    config = workload.warmup_config(work / "warmup")
    write_outputs(workload.study(config), config)
    return time.process_time()


def timed_rounds(workload, seed: int, seconds: float, work: Path, study, write) -> list:
    """Run rounds until ``seconds`` of wall time pass: [(config, cpu_s, wall_s)]."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        config = workload.round_config(seed, len(rounds), work / f"round-{len(rounds):04d}")
        rounds.append((config,) + _timed(study, write, config))
    return rounds


def _timed(study, write, config) -> tuple[float, float]:
    c0, t0 = time.process_time(), time.perf_counter()
    write(study(config), config)
    return time.process_time() - c0, time.perf_counter() - t0


def check_rounds(workload, seed: int, rounds: list) -> list[str]:
    """Check every round; one drawn trial per round also gets the deep checks."""
    kind = workload.kind
    rng = np.random.default_rng([seed, len(rounds)])
    exhaustive_rounds = set(rng.choice(len(rounds), size=min(EXHAUSTIVE_ROUNDS, len(rounds)),
                                       replace=False).tolist())
    failures = []
    for i, (config, _, _) in enumerate(rounds):
        tables = checks.load_outputs(config.out_dir)
        points = len(config.power_dbm_axis) if kind == "power" else 1
        deep = [(int(rng.integers(points)), int(rng.integers(config.trials)))]
        exhaustive = ()
        if i in exhaustive_rounds and kind == "convergence" and config.n_antennas <= 24:
            exhaustive = deep
        failures += checks.check_study(kind, config, tables, deep, exhaustive)
        if i == 0:
            failures += checks.self_test(kind, config, tables)
    return failures


def fresh_process_samples(workload, seed: int) -> list[dict]:
    """Set-up CPU time and peak RSS of fresh processes that each run one round."""
    samples = []
    for i in range(FRESH_PROCESSES):
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload",
                               workload.name, "--seed", str(seed), "--probe-round", str(i)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def peak_rss_mib() -> float:
    """High-water resident set of this process image, in MiB.

    ``ru_maxrss`` would do, but exec carries the parent's high-water mark
    over into it, so a child of a large process reads the parent's peak.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def probe_round(workload, seed: int, index: int, work: Path, setup_cpu: float) -> dict:
    config = workload.round_config(seed, index, work / "round")
    write_outputs(workload.study(config), config)
    return {"setup_s": setup_cpu, "peak_rss_mb": peak_rss_mib()}


def untraced_run(workload, seed, seconds, work, own_setup):
    rounds = timed_rounds(workload, seed, seconds, work, workload.study, write_outputs)
    peak_mib = peak_rss_mib()
    failures = check_rounds(workload, seed, rounds)
    fresh = fresh_process_samples(workload, seed)
    trials = workload.trials_per_round * len(rounds)
    metrics = {
        "trials_per_cpu_s": {"value": trials / sum(r[1] for r in rounds), "unit": "1/s"},
        "peak_rss_mb": {"value": statistics.median(f["peak_rss_mb"] for f in fresh), "unit": "MiB"},
        "setup_s": {"value": statistics.median(f["setup_s"] for f in fresh), "unit": "s"},
    }
    record = {"rounds": [(r[0].master_seed, r[1], r[2]) for r in rounds],
              "fresh_processes": fresh, "own_setup_s": own_setup, "own_peak_rss_mb": peak_mib}
    return trials, failures, metrics, record


def _output_bytes(config) -> dict:
    return {f.name: f.read_bytes() for f in sorted(Path(config.out_dir).iterdir())}


def traced_run(workload, seed, seconds, work, spans_path):
    with tracing.Tracer() as tracer:
        study = tracer.span("study", "harness", workload.study)

        def traced_study(config):
            try:
                return study(config)
            finally:
                tracer.close()
        rounds = timed_rounds(workload, seed, seconds / 2, work, traced_study,
                              tracer.span("write_outputs", "harness", write_outputs))
    tracer.write_spans(spans_path)
    traced_bytes = [_output_bytes(r[0]) for r in rounds]
    # the same rounds again, untraced but for one CPU-clock read per trial
    with tracing.TrialClock() as clock:
        def clocked_study(config):
            try:
                return workload.study(config)
            finally:
                clock.close()
        plain = [_timed(clocked_study, write_outputs, r[0]) for r in rounds]
    failures = check_rounds(workload, seed, rounds)
    failures += [f"round {i}: traced and untraced outputs differ"
                 for i, r in enumerate(rounds) if _output_bytes(r[0]) != traced_bytes[i]]
    output_bytes = sum(len(data) for r in rounds for data in _output_bytes(r[0]).values())
    layer_probes = probes.run_all()

    n = workload.trials_per_round * len(rounds)
    v_ns, overhead_ns = tracer.replay(pinchsec.SecrecyEvaluator)
    self_ms = tracer.layer_self_ms(v_ns, overhead_ns)
    trial_ms = np.array(clock.cpu_s) * 1e3
    values = {
        "game.self_ms": ("ms", self_ms["game"] / n),
        "game.payoff_calls": ("count", tracer.calls["shapley_value"] / n),
        "game.subset_terms": ("count", tracer.subset_terms / n),
        "game.scan_cycles": ("count", tracer.scan_cycles / n),
        "secrecy.self_ms": ("ms", self_ms["secrecy"] / n),
        "secrecy.v_calls": ("count", tracer.v_calls / n),
        "secrecy.memo_hit_ratio": ("ratio", tracer.v_hits / tracer.v_calls),
        "secrecy.v_ns": ("ns", v_ns),
        "baselines.self_ms": ("ms", self_ms["baselines"] / n),
        "geometry.drop_us": ("us", tracer.total_ns["sample_drop"] / tracer.calls["sample_drop"] / 1e3),
        "channel.vector_us": ("us", tracer.total_ns["channel_vector"] / tracer.calls["channel_vector"] / 1e3),
        "geometry.self_ms": ("ms", self_ms["geometry"] / n),
        "channel.self_ms": ("ms", self_ms["channel"] / n),
        "harness.self_ms": ("ms", self_ms["harness"] / n),
        "harness.write_ms": ("ms", tracer.total_ns["write_outputs"] / 1e6 / n),
        "harness.output_bytes": ("bytes", output_bytes / n),
        "harness.trial_cpu_ms.p50": ("ms", float(np.percentile(trial_ms, 50))),
        "harness.trial_cpu_ms.p99": ("ms", float(np.percentile(trial_ms, 99))),
        "harness.trial_count": ("count", len(trial_ms)),
        "harness.study_wall_s": ("s", statistics.median(p[1] for p in plain)),
        "harness.trials_per_wall_s": ("1/s", n / sum(p[1] for p in plain)),
        "bench.trace_overhead_pct": ("%", 100.0 * (sum(r[1] for r in rounds) / sum(p[0] for p in plain) - 1.0)),
    }
    units = {"payoffs_ms": "ms", "scan_ms": "ms", "table_ms": "ms", "table_peak_mb": "MiB",
             "anneal_steps_per_s": "1/s", "task_pickle_bytes": "bytes", "pool_trials_per_s": "1/s"}
    for name, value in layer_probes.items():
        values[name] = (units[name.split(".")[1]], value)
    metrics = {name: {"value": value, "unit": unit} for name, (unit, value) in values.items()}
    record = {"rounds": [(r[0].master_seed, r[1], r[2]) for r in rounds],
              "untraced": plain, "wrapper_ns_per_lookup": overhead_ns,
              "layer_calls": dict(tracer.calls), "layer_total_ns": dict(tracer.total_ns)}
    return n, failures, metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-round", type=int, default=None,
                        help="set up, run this one round untimed and print set-up CPU "
                             "time and peak RSS (a fresh-process sample)")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 40:
        parser.error("seed must be in [0, 2^40)")
    if args.seconds <= 0:
        parser.error("seconds must be positive")
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = RUNS / f"work-{tag}-{os.getpid()}"
    try:
        own_setup = setup(workload, work)
        if args.probe_round is not None:
            print(json.dumps(probe_round(workload, args.seed, args.probe_round, work, own_setup)))
            return 0
        if args.trace:
            trials, failures, metrics, record = traced_run(
                workload, args.seed, args.seconds, work, RUNS / f"{tag}-spans.csv")
        else:
            trials, failures, metrics, record = untraced_run(
                workload, args.seed, args.seconds, work, own_setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": not failures, "attempted": trials, "failed": 0, "metrics": metrics}
    record.update(result, workload=workload.name, seed=args.seed, seconds=args.seconds,
                  failures=failures[:50], python=sys.version.split()[0], numpy=np.__version__)
    (RUNS / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for failure in failures[:20]:
        print(f"bench: check failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
