"""Time-to-solution benchmark of the SBFEM pipeline.

    python3 perfbench/run.py --workload congruent --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; sbfem is imported from its `src/`.
The launcher pins BLAS to one thread before anything imports numpy, writes
the workload's inputs, and starts a fresh interpreter (worker.py) for the
measured run.  With `--trace 0` it starts two more for extra set-up samples
and reports the end-to-end metrics of BENCHMARK.json; with `--trace 1` the
worker wraps the layers in spans and it reports the per-layer metrics.

Every pass is checked (workloads.py); failed passes count in `failed`.  The
last line of standard output is the JSON result; the full record, with the
environment and the pass-time quartiles, goes to
`.perfbench-work/results/<workload>-seed<n>-trace<t>.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
EXTRA_SETUPS = 2
DEADLINE_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def spawn(spec: dict, tmp: Path, tag: str, start: float) -> dict:
    """Run one worker process to completion and return its record."""
    spec_path, out_path = tmp / f"{tag}.spec.json", tmp / f"{tag}.out.json"
    spec_path.write_text(json.dumps(spec))
    remaining = DEADLINE_S - (time.monotonic() - start)
    if remaining <= 0:
        raise BenchError(f"no time left for the {tag} worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path),
             str(out_path)], stdout=sys.stderr, cwd=ROOT, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{tag} worker killed after {remaining:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{tag} worker exited with code {proc.returncode}")
    return json.loads(out_path.read_text())


def revision() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sbfem").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    git = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            git = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git": git, "src_sha256": digest.hexdigest()}


def summarize(times: list) -> dict:
    """Median, quartiles, count, and the highest percentile with ten beyond it."""
    out = {"n": len(times), "median": statistics.median(times)}
    if len(times) >= 2:
        out["p25"], _, out["p75"] = statistics.quantiles(times, n=4)
    if len(times) >= 20:
        p = math.floor(100 * (1 - 10 / len(times)))
        out[f"p{p}"] = statistics.quantiles(times, n=100)[p - 1]
    return out


def main(argv=None) -> int:
    os.environ.update(BLAS_ENV)     # before any process imports numpy
    sys.path.insert(0, str(HERE))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "sbfem" / "__init__.py",
              ROOT / "configs" / "coupled-singular.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a source checkout, missing {missing}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    start = time.monotonic()
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        spec = workloads.prepare_inputs(args.workload, args.seed, tmp)
        spec.update(root=str(ROOT), seconds=args.seconds, trace=args.trace,
                    mode="main")
        main_rec = spawn(spec, tmp, "main", start)
        setups = [main_rec] + [
            spawn({**spec, "mode": "setup"}, tmp, f"setup{i}", start)
            for i in range(0 if args.trace else EXTRA_SETUPS)]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(r["attempted"] for r in setups)
    failed = sum(r["failed"] for r in setups)
    wall = summarize(main_rec["times"] or main_rec["failed_times"])
    values = {"wall_ref_s": main_rec.get("wall_ref_s"),
              "setup_s": statistics.median(r["setup_s"] for r in setups),
              "peak_rss_mb": main_rec.get("peak_rss_mb")}
    values.update(main_rec.get("per_layer", {}))
    values["probe.coupled_l6_k2"] = main_rec["probe"]["code"]
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values.get(m["name"]) or 0.0, "unit": m["unit"]}
               for m in bench[kind]}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "revision": revision(), "env": main_rec["env"],
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "passes": {"attempted": attempted, "failed": failed,
                   "warm": len(main_rec["times"])},
        "fail_ratio": failed / attempted, "wall_s": wall,
        "wall_s_samples": main_rec["times"],
        "calib_ratio_samples": main_rec["calib_ratios"],
        "case_s": {case: summarize(t) for case, t in main_rec["case_times"].items()},
        "setup_s_samples": [r["setup_s"] for r in setups],
        "import_s_samples": [r["import_s"] for r in setups],
        "probe.coupled_l6_k2": main_rec["probe"],
        "failures": [f for r in setups for f in r["failures"]],
        "metrics": metrics,
    }
    out_file = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} passes, {failed} failed (fail_ratio "
          f"{failed / attempted:.3f})")
    for name, stats in [("wall_s", wall)] + [
            (f"{case} part", t) for case, t in record["case_s"].items()]:
        print(f"  warm pass {name}: " + ", ".join(
            f"{k} {v:.4f}" if isinstance(v, float) else f"{k} {v}"
            for k, v in stats.items()))
    for fail in record["failures"]:
        print(f"  FAILED: {'; '.join(fail)}")
    print(f"  probe.coupled_l6_k2 = {main_rec['probe']['code']}: "
          f"{main_rec['probe']['outcome']}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  record: {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
