"""Gaussian CDF product integrals in closed form, and the distributions they induce.

The package evaluates expectations of products of standard normal CDFs
under scalar or vector Gaussian mixing variables by reducing them to a
single multivariate normal CDF, provides the sign-vector Bernoulli
distribution driven by probit trials on a latent Gaussian, and verifies
every reduction against independent quadrature / Monte Carlo oracles.
"""

from .gauss_scalar import cdf, inv_cdf, owen_t, phi
from .identities import (
    ScalarMixParams,
    VectorMixParams,
    cdf_product_scalar,
    cdf_product_vector,
    scalar_mix_query,
    shared_noise_cov,
)
from .mvn_cdf import MvnEstimate, MvnQuery, bivariate_cdf
from .pd_matrix import (
    InternalConsistencyError,
    NotPositiveDefiniteError,
    PdMatrix,
    PrecisionBlocks,
    cholesky_solve,
    full_cov_determinant,
    partitioned_inverse_check,
)
from .probit_bernoulli import ProbitBernoulli, SignVector

__version__ = "0.1.0"

__all__ = [
    "phi",
    "cdf",
    "inv_cdf",
    "owen_t",
    "PdMatrix",
    "PrecisionBlocks",
    "NotPositiveDefiniteError",
    "InternalConsistencyError",
    "cholesky_solve",
    "full_cov_determinant",
    "partitioned_inverse_check",
    "MvnQuery",
    "MvnEstimate",
    "bivariate_cdf",
    "ScalarMixParams",
    "VectorMixParams",
    "shared_noise_cov",
    "scalar_mix_query",
    "cdf_product_scalar",
    "cdf_product_vector",
    "ProbitBernoulli",
    "SignVector",
    "__version__",
]
