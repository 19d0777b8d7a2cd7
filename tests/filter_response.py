"""Frequency-domain views of a designed bandpass cascade, for the tests
that check the design itself; the program only filters with it."""

import numpy as np


def freq_response(cascade, freqs_hz, sampling_rate: float) -> np.ndarray:
    """Complex cascade response at the given frequencies (Hz)."""
    z = np.exp(2j * np.pi * np.asarray(freqs_hz, dtype=np.float64) / sampling_rate)
    h = np.ones_like(z, dtype=np.complex128)
    for b0, b1, b2, a1, a2 in cascade.sections:
        h *= (b0 * z * z + b1 * z + b2) / (z * z + a1 * z + a2)
    return h


def poles(cascade) -> np.ndarray:
    """All denominator roots of the cascade."""
    roots = [np.roots([1.0, a1, a2]) for _, _, _, a1, a2 in cascade.sections]
    return np.concatenate(roots)
