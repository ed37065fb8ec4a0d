"""Store the outputs the benchmark's checks compare against.

    OPENBLAS_NUM_THREADS=1 python3 perfbench/record_reference.py

Writes perfbench/reference/errors.json (full-precision errors of the
quad-k3 and hex-k2 cases, and of jittered-k2 at seed 0) and the CSVs of the
coupled-sweep case.  Re-run only
when a change is meant to alter these outputs, and say so in its review.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402


def main():
    outputs = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name in workloads.WORKLOADS:
            spec = workloads.prepare_inputs(name, 0, Path(tmp))
            with workloads.Pass(spec, ROOT) as p:
                p.run()
                outputs.update(p.outputs())
    dest = workloads.REFERENCE / "coupled-sweep"
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    for fname, text in outputs.pop("coupled-sweep")["csv"].items():
        (dest / fname).write_text(text)
    errors = {case: {"dof": out["dof"], "e_l2": out["e_l2"], "e_h1": out["e_h1"]}
              for case, out in outputs.items()}
    errors["jittered-k2"] = {"0": errors["jittered-k2"]}
    (workloads.REFERENCE / "errors.json").write_text(
        json.dumps(errors, indent=1) + "\n")


if __name__ == "__main__":
    main()
