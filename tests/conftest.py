import numpy as np
import pytest

from phiprod.pd_matrix import PdMatrix


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def sign_fixture() -> tuple[np.ndarray, PdMatrix]:
    """Latent parameters whose orthant correlations are exactly +/- 1/2.

    With mu = 0 and Sigma = [[1.5, 1.25], [1.25, 1.5]] the noise-augmented
    covariance I + D_y Sigma D_y has correlation y1 y2 / 2, so the four
    sign-vector probabilities are 1/3, 1/3, 1/6, 1/6.
    """
    return np.zeros(2), PdMatrix.from_entries(2, [[1.5, 1.25], [1.25, 1.5]])
