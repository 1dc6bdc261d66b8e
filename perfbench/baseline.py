"""Re-time two rows of the ROADMAP baseline table with the test suite's inputs.

    python3 perfbench/baseline.py

* criterion-05: 200 random PrA formulas (tests/test_acceptance.py, seed 105)
  on the 21 algebras of the k <= 3 quarter grid; times qe, the oracle on
  the formula and the oracle on the QE result separately.
* validating the 15 random means of test_mean_output_validates (seed 23);
  times building the means and validating them separately.

Each figure is one wall-clock run, as in the table.  The inputs come from
the test helpers, so this needs the repository's tests/ directory.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from affinelogic.pra import algebras_up_to, oracle_eval, qe  # noqa: E402
from affinelogic.structures import validate  # noqa: E402
from affinelogic.ultramean import ultramean  # noqa: E402
from helpers import rand_charge, rand_family, rand_signature  # noqa: E402
from test_pra import _random_quantified, all_assignments  # noqa: E402


def criterion_05() -> dict:
    rng = random.Random(105)
    grid = algebras_up_to(3, 4)
    t_qe = t_phi = t_out = 0.0
    assignments = 0
    for _ in range(200):
        phi = _random_quantified(rng, nvars=3, prefix=2, close=rng.random() < 0.4)
        t0 = time.perf_counter()
        out = qe(phi)
        t_qe += time.perf_counter() - t0
        free = sorted(phi.free)
        for alg in grid:
            for asg in all_assignments(alg, free):
                t0 = time.perf_counter()
                a = oracle_eval(phi, alg, asg)
                t1 = time.perf_counter()
                b = oracle_eval(out, alg, asg)
                t2 = time.perf_counter()
                t_phi += t1 - t0
                t_out += t2 - t1
                assignments += 1
                if a != b:
                    raise SystemExit(f"oracle disagrees with QE on {phi}")
    return {"algebras": len(grid), "assignments": assignments,
            "qe_s": t_qe, "oracle_phi_s": t_phi, "oracle_qe_s": t_out}


def random_means() -> dict:
    rng = random.Random(23)
    t_build = t_validate = 0.0
    for _ in range(15):
        sig = rand_signature(rng)
        family = rand_family(rng, sig)
        mu = rand_charge(rng, len(family))
        t0 = time.perf_counter()
        mean = ultramean(family, mu)
        t1 = time.perf_counter()
        valid = validate(mean.structure, sig).valid
        t2 = time.perf_counter()
        if not valid:
            raise SystemExit("a random mean did not validate")
        t_build += t1 - t0
        t_validate += t2 - t1
    return {"means": 15, "build_s": t_build, "validate_s": t_validate}


if __name__ == "__main__":
    c5 = criterion_05()
    print(f"criterion-05: {c5['assignments']} assignments on {c5['algebras']} algebras: "
          f"qe {c5['qe_s']:.2f} s; oracle_eval(phi) {c5['oracle_phi_s']:.1f} s; "
          f"oracle_eval(qe(phi)) {c5['oracle_qe_s']:.1f} s")
    rm = random_means()
    print(f"random means (seed 23): validate {rm['validate_s']:.1f} s "
          f"(building the means takes {rm['build_s']:.2f} s)")
