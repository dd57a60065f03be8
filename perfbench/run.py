"""Pipeline benchmark: the latprog CLI stages on two workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload train|forecast|all \
        [--seed N] [--seconds S] [--trace 0|1]

Each workload's set-up stages run first, three times, each time in a
fresh process: set-up time is their median, their outputs must agree, and
the last one's outputs feed the timed process.  The timed stages then run
in one fresh process, twice, and again (each time from a fresh link copy
of the set-up outputs) while another repetition fits in --seconds;
repetitions must produce the same outputs.  Every process is
single-threaded: BLAS is pinned to one thread through the environment
before numpy loads, as the CLI's `--threads 1` does.  Each stage is one
in-process call to `latprog.cli.main`; the workload config file sets only
the keys that define the workload, and --seed is the master seed.

Other tenants of the shared host change its speed by up to half over
minutes, far more than a regression bound allows.  So every process also
runs a fixed numpy kernel a few times before each stage and after the
last (child.calibrate), and `wall_s` and `setup_s` are given at reference
speed: the median repetition (or set-up) time, times CAL_REF_S over the
median kernel time of the same process.  The measured seconds are
reported as `wall_raw_s` and `setup_raw_s`.

With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run (one traced set-up, then one untraced and one traced timed
repetition).  A full record, with the machine description and the
workload config, goes to .bench_results/.  Output checks that fail are
counted in `failed`, not fatal.  Every figure is also printed as a
`<workload> <name> <value> <unit>` line, the quality figures and the error
rate included; `--workload all` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import layer_metrics, merge  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "BLIS_NUM_THREADS",
)
HERE = Path(__file__).resolve().parent

# Every figure a run prints, with its unit.  The raw times, the kernel time,
# the quality figures and the error rate are printed and recorded but are not
# in END_TO_END, the metrics of the result line: raw times follow the host's
# speed, each quality figure exists on some workloads only, after one epoch
# of the current optimizer the train workload's reconstruction quality
# varies from seed to seed by more than any regression bound could allow,
# and the error rate is 0 when all is well.
REPORTED_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "setup_raw_s": "s",
    "wall_raw_s": "s",
    "calibration_ms": "ms",
    "peak_rss_mb": "MiB",
    "artifact_mb": "MiB",
    "error_rate": "fraction",
    "recon_ssim": "1",
    "recon_dice": "1",
    "forecast_mae_pct": "%",
}
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "artifact_mb")


# Seconds the calibration kernel takes at reference speed: a typical time on
# the 2-core Xeon host the benchmark was built on (medians of 22-33 ms over
# twenty runs).
CAL_REF_S = 0.030


class BenchError(RuntimeError):
    pass


def at_reference_speed(seconds: float, cals: list[float]) -> float:
    """Seconds scaled to a host on which the calibration kernel takes CAL_REF_S."""
    return seconds * CAL_REF_S / median(cals)


def run_child(job: dict, work: Path, deadline: float) -> dict:
    job_path = work / f"job-{job['role']}-{job['index']}.json"
    job["result"] = str(work / f"result-{job['role']}-{job['index']}.json")
    job_path.write_text(json.dumps(job))
    env = dict(os.environ, LATPROG_LOG="WARNING", PYTHONDONTWRITEBYTECODE="1")
    env.update({var: "1" for var in THREAD_VARS})
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the " + job["role"] + " process")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(job_path)],
                              env=env, timeout=timeout, stdout=sys.stderr)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise BenchError(f"{job['role']} process ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"{job['role']} process exited with {proc.returncode}")
    return json.loads(Path(job["result"]).read_text())


def run_workload(name: str, seed: int, seconds: int, trace: bool, root: Path) -> dict:
    wl = WORKLOADS[name]
    deadline = time.monotonic() + DEADLINE_S
    work = root / ".bench_work" / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(wl.config, indent=2))
        base = {"seed": seed, "config_path": str(config_path), "trace": trace,
                "run_id": f"{name}-seed{seed}"}
        setups = []
        n_setups = 1 if trace else SETUP_REPEATS
        for i in range(n_setups):
            # The timed process uses the last set-up's outputs; the others are
            # deleted before their writeback can overlap a timed span.
            keep = i == n_setups - 1
            out = work / f"setup{i}"
            job = {**base, "role": "setup", "index": i, "stages": list(wl.setup),
                   "out": str(out), "keep": keep}
            setups.append(run_child(job, work, deadline))
            if not keep:
                shutil.rmtree(out)
        timed = run_child({**base, "role": "timed", "index": 0, "stages": list(wl.timed),
                           "setup_dir": str(out), "work": str(work / "timed"),
                           "seconds": seconds, "artifacts": list(wl.artifacts),
                           "quality": list(wl.quality)}, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(wl, seed, trace, setups, timed)


def summarize(wl, seed: int, trace: bool, setups: list[dict], timed: dict) -> dict:
    checks: dict[str, bool] = {}
    for i, s in enumerate(setups):
        for stage, code in zip(wl.setup, s["codes"]):
            checks[f"setup{i}.{stage}.exit0"] = code == 0
        if i:
            checks[f"setup{i}.digests_match"] = s["digests"] == setups[0]["digests"]
    reps = timed["reps"]
    for i, rep in enumerate(reps):
        for stage, code in zip(wl.timed, rep["codes"]):
            checks[f"rep{i}.{stage}.exit0"] = code == 0
        if i:
            checks[f"rep{i}.digests_match"] = rep["digests"] == reps[0]["digests"]
    for rel in wl.artifacts:
        checks[f"artifact.{rel}"] = rel not in timed["missing_artifacts"]
    quality = timed["quality"]
    for q in wl.quality:
        checks[f"finite.{q}"] = q in quality and math.isfinite(quality[q])

    failed = sum(not ok for ok in checks.values())
    untraced = [r for r in reps if not r["traced"]]
    figures = {
        "setup_s": median(at_reference_speed(s["setup_s"], s["cals"]) for s in setups),
        "wall_s": at_reference_speed(median(r["wall_s"] for r in untraced), timed["cals"]),
        "setup_raw_s": median(s["setup_s"] for s in setups),
        "wall_raw_s": median(r["wall_s"] for r in untraced),
        "calibration_ms": 1000.0 * median(timed["cals"]),
        "peak_rss_mb": timed["peak_rss_mb"],
        "artifact_mb": reps[-1]["artifact_bytes"] / 2**20,
        "error_rate": failed / len(checks),
        **quality,
    }
    record = {
        "workload": wl.name,
        "seed": seed,
        "trace": trace,
        "config": wl.config,
        "env": timed["env"],
        "figures": figures,
        "setup_s_runs": [s["setup_s"] for s in setups],
        "wall_s_reps": [r["wall_s"] for r in reps],
        "calibration_s": {"setup": [s["cals"] for s in setups], "timed": timed["cals"]},
        "stage_s_reps": [r["stage_s"] for r in reps],
        "failed_checks": sorted(k for k, ok in checks.items() if not ok),
        "attempted": len(checks),
        "failed": failed,
    }
    if trace:
        dump = merge([s["trace"] for s in setups] + [timed["trace"]])
        layers = layer_metrics(dump)
        traced_wall = next(r["wall_s"] for r in reps if r["traced"])
        layers["trace_overhead_pct"] = (100.0 * (traced_wall / figures["wall_raw_s"] - 1.0), "%")
        record["layers"] = layers
        record["spans"] = dump["spans"]
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {k: {"value": figures[k], "unit": REPORTED_UNITS[k]}
                   for k in END_TO_END}
    record["result"] = {"correct": failed == 0, "attempted": len(checks), "failed": failed,
                        "metrics": metrics}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "latprog" / "cli.py").is_file():
        print("error: run from the root of a latprog checkout (src/latprog not found)",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace), root)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        results = root / ".bench_results"
        results.mkdir(exist_ok=True)
        (results / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1))
        print(f"env {json.dumps(record['env'])}")
        print(f"config {name} {json.dumps(record['config'])}")
        for key, value in record["figures"].items():
            print(f"{name} {key} {value:.6g} {REPORTED_UNITS[key]}")
        if record["failed_checks"]:
            print(f"{name} failed checks: {', '.join(record['failed_checks'])}")
        records.append(record)
    if len(records) == 1:
        print(json.dumps(records[0]["result"]))
    else:
        print(json.dumps({r["workload"]: r["result"] for r in records}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
