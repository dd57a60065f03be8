"""One benchmark process: run set-up or timed stages in-process.

Usage: python3 perfbench/child.py JOB.json

The job file names the role (`setup` or `timed`), the workload, seed,
directories and whether to trace.  The process runs each stage as one call
to `latprog.cli.main` and writes its measurements as JSON to the job's
`result` path.  BLAS threads are pinned by the parent through the
environment before this process imports numpy.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from statistics import median

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.abspath("src"))

from tracer import Tracer  # noqa: E402

SKIPPED = {"runs", ".lock"}  # run records hold wall times, so they differ run to run
# Untraced repetitions a timed process makes at least, so that the reported
# median wall time and the digest check always have two to compare.
MIN_REPS = 2
# Calibration kernel runs at each calibration point: one run is noisy, and a
# single-stage workload has only two points per repetition.
CAL_SAMPLES = 3


def run_stage(stage: str, job: dict, out: Path) -> int:
    from latprog import cli

    argv = [stage, "--config", job["config_path"], "--seed", str(job["seed"]), "--out", str(out)]
    try:
        return cli.main(argv)
    except Exception:  # a crash counts as a failed operation, like a non-zero exit
        traceback.print_exc()
        return 2


def snapshot(root: Path) -> dict[str, tuple[int, int]]:
    """Relative path -> (size, mtime_ns) of every file under root."""
    out = {}
    for path in root.rglob("*"):
        if path.is_file():
            st = path.stat()
            out[path.relative_to(root).as_posix()] = (st.st_size, st.st_mtime_ns)
    return out


def flush(root: Path) -> None:
    """Write our files to disk, so that their writeback does not overlap a timed span."""
    for path in root.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def digests(root: Path, rels) -> dict[str, str]:
    out = {}
    for rel in sorted(rels):
        if rel.split("/")[0] in SKIPPED:
            continue
        h = hashlib.sha256()
        with open(root / rel, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        out[rel] = h.hexdigest()
    return out


def calibrate() -> float:
    """Seconds a fixed kernel takes now, outside any stage's time.

    Other tenants of the shared host change its speed by up to half over
    minutes.  This kernel mixes the program's kinds of work (streaming over
    an array too large for L2, small dense matmuls, interpreter-bound steps
    on small arrays) and slows with them, so the orchestrator scales each
    process's timings by the median of its samples.  It uses only numpy, so
    no change to the program changes the kernel.  The array is allocated
    before the clock starts: the cost of faulting in fresh pages swings far
    more with the host than the program's run time does.
    """
    import numpy as np

    big = np.ones(6 << 20)  # 48 MiB
    start = time.perf_counter()
    for _ in range(3):
        big.sum()
    small = np.ones((128, 128))
    for _ in range(40):
        small @ small
    x = np.ones(64)
    for _ in range(1000):
        x = x * 0.999 + 0.001
    return time.perf_counter() - start


def run_stages(stages, job: dict, out: Path, tracer: Tracer | None,
               cals: list[float]) -> tuple[list, dict]:
    """Run stages in order; return (exit codes, per-stage wall seconds).

    The calibration kernel runs CAL_SAMPLES times before each stage and after
    the last one, appending its times to cals.
    """
    codes, walls = [], {}
    for stage in stages:
        cals.extend(calibrate() for _ in range(CAL_SAMPLES))
        start = time.perf_counter()
        if tracer is None:
            code = run_stage(stage, job, out)
        else:
            with tracer.span(f"pipeline.{stage}"):
                code = run_stage(stage, job, out)
        walls[stage] = time.perf_counter() - start
        codes.append(code)
    cals.extend(calibrate() for _ in range(CAL_SAMPLES))
    return codes, walls


def role_setup(job: dict) -> dict:
    out = Path(job["out"])
    tracer = Tracer(run_id=f"{job['run_id']}/setup") if job["trace"] else None
    import latprog.pipeline  # noqa: F401  imports are not part of any stage's time

    cals: list[float] = []
    if tracer is None:
        codes, walls = run_stages(job["stages"], job, out, None, cals)
    else:
        with tracer.installed():
            codes, walls = run_stages(job["stages"], job, out, tracer, cals)
    if job["keep"]:
        flush(out)
    return {
        "setup_s": sum(walls.values()),
        "cals": cals,
        "codes": codes,
        "stage_s": walls,
        "digests": digests(out, snapshot(out)),
        "trace": tracer.dump() if tracer else None,
    }


def recon_quality(out: Path) -> tuple[float, float]:
    """Mean SSIM and generalized Dice of test-split scans against their reconstruction."""
    from latprog import evaluation, phantom
    from latprog.autoencoder import decode, encode, load_model
    from latprog.manifest import load_cohort
    from latprog.ssim import ssim3d

    model = load_model(out / "ae" / "model.mrxt", out / "ae" / "model.json")
    cohort = load_cohort(out / "cohort")
    spec = cohort.spec
    ssims, dices = [], []
    for subject in cohort.split("test").subjects:
        for scan in subject.scans:
            recon = decode(model, encode(model, scan.volume).mean)
            ssims.append(float(ssim3d(scan.volume, recon)))
            truth = phantom.segment_oracle(spec, subject.rate_multipliers, scan.age)
            seg = phantom.segment_by_intensity(recon, spec)
            dices.append(float(evaluation.generalized_dice(truth, seg)))
    return sum(ssims) / len(ssims), sum(dices) / len(dices)


def forecast_quality(out: Path) -> dict[str, float]:
    """Row-weighted forecast error (% of first-scan TBV) from metrics/summary.json."""
    summary = json.loads((out / "metrics" / "summary.json").read_text())
    holdout = summary["holdout"].values()
    rows = sum(g["rows"] for g in holdout)
    return {"forecast_mae_pct": sum(g["mean_mae"] * g["rows"] for g in holdout) / rows}


def role_timed(job: dict) -> dict:
    setup_dir = Path(job["setup_dir"])
    before = snapshot(setup_dir)
    import latprog.pipeline  # noqa: F401

    reps, spent = [], 0.0
    cals: list[float] = []
    tracer = None

    def another() -> bool:
        # A traced run makes one untraced and one traced repetition.
        if job["trace"]:
            return len(reps) < 2
        if len(reps) < MIN_REPS:
            return True
        return spent + median(r["wall_s"] for r in reps) <= job["seconds"]

    while another():
        out = Path(job["work"]) / f"rep{len(reps)}"
        # Timed stages write new files only, so set-up outputs can be shared by links.
        shutil.copytree(setup_dir, out, copy_function=os.link)
        traced = job["trace"] and len(reps) == 1
        if traced:
            tracer = Tracer(run_id=f"{job['run_id']}/timed")
            with tracer.installed():
                codes, walls = run_stages(job["stages"], job, out, tracer, cals)
        else:
            codes, walls = run_stages(job["stages"], job, out, None, cals)
        wall = sum(walls.values())
        spent += wall
        flush(out)
        after = snapshot(out)
        written = [rel for rel, st in after.items() if before.get(rel) != st]
        reps.append({
            "wall_s": wall,
            "traced": traced,
            "codes": codes,
            "stage_s": walls,
            "artifact_bytes": sum(after[rel][0] for rel in written),
            "digests": digests(out, written),
        })
        if len(reps) > 1:
            shutil.rmtree(Path(job["work"]) / f"rep{len(reps) - 2}")
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    last = Path(job["work"]) / f"rep{len(reps) - 1}"
    missing = [rel for rel in job["artifacts"] if not (last / rel).is_file()]
    quality: dict[str, float] = {}
    try:
        if "recon_ssim" in job["quality"]:
            quality["recon_ssim"], quality["recon_dice"] = recon_quality(last)
        if "forecast_mae_pct" in job["quality"]:
            quality.update(forecast_quality(last))
    except Exception:  # reported as missing quality figures, which fail their checks
        traceback.print_exc()
    return {
        "reps": reps,
        "cals": cals,
        "peak_rss_mb": peak_rss_kib / 1024.0,
        "missing_artifacts": missing,
        "quality": quality,
        "trace": tracer.dump() if tracer else None,
        "env": environment(),
    }


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    role = {"setup": role_setup, "timed": role_timed}[job["role"]]
    result = role(job)
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
