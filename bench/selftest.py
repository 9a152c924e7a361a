"""Self-test of the benchmark's checks: each must pass the program's correct
outputs and flag a known defect or a deliberate perturbation.

    python3 bench/selftest.py

Exits 0 when every check bites, 1 otherwise.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as W  # noqa: E402

GOOD_DESIGN = (W.ONE_THIRD, W.ONE_THIRD, 1.0, 1.0, 0.8, 1.2, 0.6)


def design_result(params):
    workload = W.Workload(W.DESIGN, 0, "", [params])
    return workload.run(0)


def main() -> int:
    failures = []

    def expect(label: str, problems: list[str], flagged: bool, needle: str = "") -> None:
        hit = any(needle in p for p in problems) if flagged else not problems
        print(f"{'ok  ' if hit else 'FAIL'} {label}: {problems[:1] or 'no problems'}")
        if not hit:
            failures.append(label)

    good = design_result(GOOD_DESIGN)
    expect("correct design passes", W.check_design(GOOD_DESIGN, good), False)

    fault2 = dict(W.FAULT_DESIGNS)["fault2-cancellation"]
    expect("quadrant check flags the fault-2 design",
           W.check_design(fault2, design_result(fault2)), True, "quadrant measure")

    perturbed = good[:5] + (good[5] * (1.0 + 1e-6),) + good[6:]
    expect("quadrature check flags a relay spend off by 1e-6",
           W.check_design(GOOD_DESIGN, perturbed), True, "quadrature")

    from tdbcsim import scenario_cli
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "selftest-sweep.csv")
    blobs = []
    for _ in range(2):
        assert scenario_cli.main(["sweep-total-power", "--trials", "1000", "--grid", "0:4:2",
                                  "--seed", "7", "--out", path]) == 0
        with open(path, "rb") as fh:
            blobs.append(fh.read())
    expect("same-seed CSVs pass the identity check", W.check_repeat(blobs[:1], blobs[1:]), False)
    changed = bytearray(blobs[1])
    changed[-2] ^= 1
    expect("a changed CSV byte fails the identity check",
           W.check_repeat(blobs[:1], [bytes(changed)]), True, "differs")

    print("selftest:", "FAILED " + ", ".join(failures) if failures else "all checks bite")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
