"""Write the expected results of every workload at amplitude 1.

    python3 perfbench/expected.py [workload ...]

Run from the root of a checkout of the commit whose results are the
reference. The expected values change only together with the benchmark.
"""

from __future__ import annotations

import json
import sys

import check
import run


def main(names: list[str]) -> int:
    spec = json.loads((run.HERE / "workloads.json").read_text())
    env = run.child_env()
    out_dir = run.HERE / "expected"
    out_dir.mkdir(exist_ok=True)
    work = run.ROOT / ".perfbench" / "expected"
    work.mkdir(parents=True, exist_ok=True)
    for name in names or sorted(spec["workloads"]):
        config_path = work / f"{name}.json"
        config_path.write_text(json.dumps(run.scaled_config(spec["workloads"][name]["config"], 1.0)))
        outputs = run.run_child("sweep", config_path, env, run.CHILD_TIMEOUT_S)["outputs"]
        if not outputs["passed"]:
            print(f"{name}: the report does not pass its own tolerances", file=sys.stderr)
            return 1
        _, stdout = run.run_solve(config_path, env, run.CHILD_TIMEOUT_S)
        if not check.check_solve(stdout, outputs, 1.0, spec["output_check"]["rtol"]):
            print(f"{name}: sgpde solve disagrees with the sweep's finest point: {stdout}",
                  file=sys.stderr)
            return 1
        (out_dir / f"{name}.json").write_text(json.dumps(outputs, indent=1) + "\n")
        print(f"wrote {out_dir / f'{name}.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
