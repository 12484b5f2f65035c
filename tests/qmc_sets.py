"""The held-out QMC reference set and the error-bar ratio by which the
honesty tests and tests/data/qmc_ledger.py judge a QMC estimate."""

import json
from pathlib import Path

import numpy as np

from phiprod.mvn_cdf import MvnQuery, cdf
from phiprod.pd_matrix import PdMatrix

HELDOUT_REFERENCE = Path(__file__).parent / "data" / "heldout_reference.json"


def heldout_queries(**kw):
    """[(query, ref)] of the committed held-out set, ``kw`` the accuracy and
    budget of every query: 300 bulk queries and scipy's value at abseps
    1e-9, written by make_heldout_reference.py."""
    return [(MvnQuery(q["upper"], q["mean"], PdMatrix.from_entries(len(q["upper"]), q["cov"]),
                      **kw), q["ref"])
            for q in json.loads(HELDOUT_REFERENCE.read_text())]


def bar_ratios(queries, seed_offset=0):
    """(ratios, estimates) of cdf(query, seed=seed_offset + i) over the
    [(query, ref)] ``queries``, each ratio |value - ref| / err_estimate.
    Honest 3-SE bars over 12 Gaussian per-net means give a mean ratio near
    0.27 and a ratio above 1 on 1.2% of calls (P(|t_11| > 3))."""
    estimates = [cdf(query, seed=seed_offset + i) for i, (query, _) in enumerate(queries)]
    ratios = np.array([abs(est.value - ref) / est.err_estimate
                       for est, (_, ref) in zip(estimates, queries)])
    return ratios, estimates
