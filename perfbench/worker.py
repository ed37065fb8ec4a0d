"""One benchmark process: `python3 worker.py SPEC.json RESULT.json`.

The launcher starts a fresh interpreter for each workload run and for each
extra set-up sample.  The set-up clock starts before `import sbfem`, so
`setup_s` holds the import of sbfem, numpy and scipy plus one cold pass,
which fills the lru caches in `polyspace` and `mesh`.

Modes (the spec's "mode" and "trace" keys):
  setup         import plus the cold pass only;
  main, trace 0 untraced warm passes for the run's seconds;
  main, trace 1 untraced and traced warm passes in turn (see spans.py).
A pass that raises or fails a check counts as failed.  After the timed
passes, the worker builds coupled-singular level 6 with k=2 once, untimed,
and records how that ends.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

MIN_PASSES = 3
# `wall_ref_s` is a pass's time over the time of the calibration kernel run
# just before it, times CALIB_REF_S: the pass time on a machine whose speed
# makes the kernel take CALIB_REF_S.  On a shared machine both times drift
# together by tens of percent over minutes; their ratio stays within a few.
CALIB_REF_S = 0.05
CALIB_REPS = 3000


def calibrate() -> float:
    """Seconds for a fixed mix of small numpy calls and Python loops."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((12, 12)) + 12.0 * np.eye(12)
    start = time.perf_counter()
    acc = 0.0
    for i in range(CALIB_REPS):
        x = np.linalg.solve(a, np.full(12, float(i)))
        y = np.einsum("ij,j->i", a, x)
        d = {j: j * 0.5 for j in range(20)}
        acc += float(y[0]) + sum(d.values()) + len([k for k in d if k % 3])
    return time.perf_counter() - start


def run_pass(spec: dict, root: Path, workloads,
             on_case=None) -> tuple[float, list, dict]:
    """Time one pass; returns (seconds, failed checks, seconds per case)."""
    with workloads.Pass(spec, root) as p:
        p.on_case = on_case
        start = time.perf_counter()
        try:
            p.run()
        except Exception as exc:    # a failing pass is counted, not fatal
            return (time.perf_counter() - start,
                    [f"{type(exc).__name__}: {exc}"], p.case_s)
        elapsed = time.perf_counter() - start
        return (elapsed, workloads.check(spec["workload"], spec["seed"],
                                         p.outputs()), p.case_s)


class Tally:
    """Pass counts, and the times of the warm passes by outcome."""

    def __init__(self):
        self.times = []
        self.failed_times = []
        self.ratios = []            # pass time / calibration time
        self.failed_ratios = []
        self.case_times = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, elapsed: float, bad: list, case_s: dict,
            calib: float | None = None) -> bool:
        """Count a pass; a warm pass comes with its calibration time."""
        self.attempted += 1
        if bad:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(bad)
        if calib is not None:
            (self.failed_times if bad else self.times).append(elapsed)
            (self.failed_ratios if bad else self.ratios).append(elapsed / calib)
            if not bad:
                for case, seconds in case_s.items():
                    self.case_times.setdefault(case, []).append(seconds)
        return not bad


def probe() -> dict:
    """Build coupled-singular level 6, k=2, which raised SpectrumError when
    the benchmark was added."""
    from sbfem import cli, solver
    from sbfem.errors import SbfemError, SpectrumError

    try:
        solver.assemble_global(cli.build_mesh("coupled-singular", 6), 2)
    except SpectrumError as exc:
        return {"code": 1, "outcome": f"SpectrumError: {exc}"}
    except SbfemError as exc:
        return {"code": 2, "outcome": f"{type(exc).__name__}: {exc}"}
    except Exception as exc:        # reported, never fatal: the probe is untimed
        return {"code": 3, "outcome": f"{type(exc).__name__}: {exc}"}
    return {"code": 0, "outcome": "built without error"}


def environment() -> dict:
    import ctypes
    import glob
    import os
    import platform

    import numpy
    import scipy

    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__,
           "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = None
    env["blas_threads"] = None
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                env["blas_threads"] = int(fn())
                break
    return env


def timed_loop(spec, root, workloads, tally, seconds, each=None):
    deadline = time.perf_counter() + seconds
    n = 0
    while n < MIN_PASSES or time.perf_counter() < deadline:
        calib = calibrate()
        if each is not None:
            each.before()
        elapsed, bad, case_s = run_pass(
            spec, root, workloads, each.case_started if each else None)
        if tally.add(elapsed, bad, case_s, calib) and each is not None:
            each.after(elapsed, case_s)
        n += 1


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    root = Path(spec["root"])
    src = root / "src"
    sys.path.insert(0, str(src))
    import sbfem
    if Path(sbfem.__file__).resolve().parent != (src / "sbfem").resolve():
        print(f"worker: imported sbfem from {sbfem.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T0
    import workloads

    tally = Tally()
    cold, bad, case_s = run_pass(spec, root, workloads)
    tally.add(cold, bad, case_s)
    record = {"import_s": import_s, "setup_s": import_s + cold}
    if spec["mode"] == "main":
        if spec["trace"]:
            from spans import traced_run
            record["per_layer"] = traced_run(spec, root, workloads, tally,
                                             timed_loop)
        else:
            timed_loop(spec, root, workloads, tally, spec["seconds"])
            record["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            record["wall_ref_s"] = CALIB_REF_S * statistics.median(
                tally.ratios or tally.failed_ratios)
        record["probe"] = probe()
        record["env"] = environment()
    record.update(times=tally.times, failed_times=tally.failed_times,
                  calib_ratios=tally.ratios,
                  case_times=tally.case_times,
                  attempted=tally.attempted, failed=tally.failed,
                  failures=tally.failures)
    Path(sys.argv[2]).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
