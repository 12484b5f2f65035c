"""Write heldout_reference.json: a fixed held-out set of 300 MVN CDF queries
with scipy's Genz value for each, at abseps 1e-9. The QMC error-bar test
``test_error_bars_are_honest_on_the_held_out_set`` and the work ledger
``qmc_ledger.py`` judge the QMC path against it.

The queries come from their own stream, ``default_rng(34034)``, which no
test, check or benchmark pool draws from. N is drawn uniform in 3..8 and
the kinds cycle:

* ``orthant``: a probit orthant F(D_y mu | 0, I + D_y Sigma D_y), limits
  y * U(-2, 2);
* ``vector``: a vector-mixing query F(mu | m, diag(v^2) + Sigma), limits
  and means U(-2, 2) and U(-1.5, 1.5), v U(0.3, 2);
* ``factor``: a correlation matrix from A A^T + diag(d) with A standard
  normal of 1..3 columns and d U(0.05, 0.5), so the correlations are strong
  and of either sign, limits U(-2, 2).

Sigma is ``verify._random_pd``. Every entry is rounded to 6 decimals before
the reference is computed, so the stored query is the one evaluated. Each
entry holds kind, upper, mean, cov and ref.

The set is the bulk: a draw whose reference is below 1e-4 is passed over.
scipy's error is absolute (it stops once its own bar is below 1e-9), so at a
probability of 4e-7 it is five times the 2e-10 bar of a tilted QMC estimate
at accuracy 1e-4, and the ratio |value - ref| / err_estimate would measure
the reference. Above 1e-4 it stays under a tenth of every first-level bar.
Judging the tilted bars in the tails needs references with a relative error.

Run from the repository root (it takes about 25 minutes on one core):

    PYTHONPATH=src python tests/data/make_heldout_reference.py
"""

import itertools
import json
from pathlib import Path

import numpy as np
from scipy.stats import multivariate_normal

from phiprod.verify import _random_pd

OUT = Path(__file__).with_name("heldout_reference.json")
SIZE = 300
FLOOR = 1e-4
KINDS = ("orthant", "vector", "factor")


def _rounded(a: np.ndarray) -> list:
    return np.round(a, 6).tolist()


def candidates():
    """The (kind, upper, mean, cov) of each draw, rounded, without end."""
    rng = np.random.default_rng(34034)
    for i in itertools.count():
        kind = KINDS[i % 3]
        n = int(rng.integers(3, 9))
        if kind == "orthant":
            ys = rng.choice([-1.0, 1.0], size=n)
            upper = ys * rng.uniform(-2.0, 2.0, n)
            mean = np.zeros(n)
            cov = np.eye(n) + _random_pd(rng, n).entries * np.outer(ys, ys)
        elif kind == "vector":
            upper = rng.uniform(-2.0, 2.0, n)
            mean = rng.uniform(-1.5, 1.5, n)
            cov = np.diag(rng.uniform(0.3, 2.0, n) ** 2) + _random_pd(rng, n).entries
        else:
            a = rng.standard_normal((n, int(rng.integers(1, 4))))
            s = a @ a.T + np.diag(rng.uniform(0.05, 0.5, n))
            d = 1.0 / np.sqrt(np.diagonal(s))
            upper = rng.uniform(-2.0, 2.0, n)
            mean = np.zeros(n)
            cov = s * np.outer(d, d)
        yield kind, _rounded(upper), _rounded(mean), _rounded(cov)


def main() -> None:
    entries = []
    for i, (kind, upper, mean, cov) in enumerate(candidates()):
        ref = float(multivariate_normal(mean=mean, cov=cov, abseps=1e-9, releps=0.0,
                                        maxpts=20_000_000, seed=i).cdf(upper))
        if ref >= FLOOR:
            entries.append({"kind": kind, "upper": upper, "mean": mean, "cov": cov,
                            "ref": ref})
            if len(entries) == SIZE:
                break
    OUT.write_text(json.dumps(entries) + "\n")


if __name__ == "__main__":
    main()
