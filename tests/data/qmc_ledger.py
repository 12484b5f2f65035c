"""Print the QMC work ledger on the committed held-out set
(heldout_reference.json): for each accuracy, the points per net summed over
the calls, the calibration (mean |value - ref| / err_estimate; honest 3-SE
bars read about 0.27-0.38), the number of calls above 1 and the seconds per
pass over the calls, the median of 3 passes.

Query i runs at QMC seed offset + i, once per offset given (0 if none), and
the columns pool the offsets. Points, calibration and counts are exact for
the committed set and seeds; the seconds are a wall time. Run from the
repository root; point PYTHONPATH at another checkout's src/ to ledger that
code on the same set:

    PYTHONPATH=src python tests/data/qmc_ledger.py
    PYTHONPATH=src python tests/data/qmc_ledger.py 1000 2000 3000 4000 5000
"""

import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent.parent))

from qmc_sets import bar_ratios, heldout_queries  # noqa: E402

ACCURACIES = (1e-4, 1e-5, 1e-6)
PASSES = 3


def main(offsets: list[int]) -> None:
    print("accuracy  calls  points_per_net  mean_ratio  above_1  seconds")
    for accuracy in ACCURACIES:
        queries = heldout_queries(accuracy=accuracy)
        seconds = []
        for _ in range(PASSES):
            start = time.perf_counter()
            runs = [bar_ratios(queries, offset) for offset in offsets]
            seconds.append(time.perf_counter() - start)
        ratios = np.concatenate([r for r, _ in runs])
        points = sum(est.n_points for _, estimates in runs for est in estimates)
        print(f"{accuracy:8.0e}  {ratios.size:5d}  {points:14d}  {ratios.mean():10.3f}  "
              f"{(ratios > 1.0).sum():7d}  {statistics.median(seconds):7.2f}")


if __name__ == "__main__":
    main([int(arg) for arg in sys.argv[1:]] or [0])
