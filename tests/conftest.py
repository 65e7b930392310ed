import numpy as np
import pytest

from hosvd3 import normalize


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def amplitudes(**kwargs):
    """8-vector with entries named by their indices, e.g. a111=0.8, a222=0.6."""
    flat = np.zeros(8, dtype=complex)
    for key, value in kwargs.items():
        i1, i2, i3 = (int(ch) for ch in key.lstrip("a"))
        flat[4 * (i1 - 1) + 2 * (i2 - 1) + (i3 - 1)] = value
    return flat


@pytest.fixture
def ghz_86():
    """Generalized GHZ with coefficients 0.8 and 0.6 (already unit norm)."""
    return normalize(amplitudes(a111=0.8, a222=0.6))


@pytest.fixture
def ghz_equal():
    return normalize(amplitudes(a111=1, a222=1))


@pytest.fixture
def w_state():
    return normalize(amplitudes(a112=1, a121=1, a211=1))


@pytest.fixture
def s1_fixture():
    """Slice-1 state: t111 = t221 = sqrt(.3), t112 = sqrt(.2), t222 = -sqrt(.2)."""
    return normalize(
        amplitudes(
            a111=np.sqrt(0.3), a221=np.sqrt(0.3), a112=np.sqrt(0.2), a222=-np.sqrt(0.2)
        )
    )


@pytest.fixture
def b1_fixture():
    """Beechnut-1 support with four equal amplitudes 1/2."""
    return normalize(amplitudes(a111=0.5, a122=0.5, a212=0.5, a221=0.5))


@pytest.fixture
def bisep_cab():
    """(|11> + |22>)/sqrt(2) on AB, |1> on C."""
    return normalize(amplitudes(a111=1, a221=1))
