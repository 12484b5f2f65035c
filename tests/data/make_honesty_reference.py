"""Write honesty_reference.json: scipy's Genz value at abseps 1e-8 for each
draw of ``test_error_bars_stay_honest``, the reference that test judges the
QMC error bars against.

Run from the repository root (it takes about four minutes):

    PYTHONPATH=src python tests/data/make_honesty_reference.py
"""

import json
import sys
from pathlib import Path

from scipy.stats import multivariate_normal

HERE = Path(__file__).parent
sys.path.insert(0, str(HERE.parent))

from test_mvn_cdf import HONESTY_REFERENCE, honesty_queries  # noqa: E402


def main() -> None:
    values = [float(multivariate_normal(mean=mean, cov=cov, abseps=1e-8, releps=0.0,
                                        seed=i).cdf(upper))
              for i, upper, mean, cov in honesty_queries()]
    HONESTY_REFERENCE.write_text(json.dumps(values, indent=0) + "\n")


if __name__ == "__main__":
    main()
