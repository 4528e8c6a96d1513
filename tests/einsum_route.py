"""Reference route for the projection tests: the analyzer bras themselves,
contracted with the literal states at each setting.  The package only ever
uses them precontracted with the state."""

import numpy as np

from nchvsim.experiment import _EVENTREADY, _FIXED, _GHZ, _PHASED

# By analyzer count: the state, the rows of _FIXED and _PHASED that hold its
# analyzers (A, B[, C]), and the subscripts over N settings.
_ROUTE = {
    3: (_GHZ, [0, 1, 2], "nax,nby,ncz,xyz->nabc"),
    2: (_EVENTREADY, [3, 1], "nax,nby,xy->nab"),
}


def bras(n_analyzers: int, phases) -> np.ndarray:
    """Conjugated analyzer eigenstates at N settings, shape (N, k, 2, 2):
    setting, analyzer (A, B[, C]), sign (+1, -1), basis index on that
    analyzer's axis of the state."""
    _, rows, _ = _ROUTE[n_analyzers]
    z = np.exp(-1j * np.asarray(phases, dtype=np.float64))
    return _FIXED[rows] + _PHASED[rows] * z[:, :, None, None]


def einsum_table(n_analyzers: int, phases) -> np.ndarray:
    """Born probabilities at N settings, shape (N, 2**k) in outcome order:
    the state contracted with the bras, which ``_setting_table`` reads from
    the precontracted coefficients instead."""
    state, _, subscripts = _ROUTE[n_analyzers]
    setting_bras = bras(n_analyzers, phases)
    amplitudes = np.einsum(subscripts, *(setting_bras[:, j] for j in range(n_analyzers)), state)
    return np.square(np.abs(amplitudes)).reshape(len(setting_bras), -1)
