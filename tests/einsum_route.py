"""Reference route for the projection tests: the analyzer bras themselves,
which the package only ever uses precontracted with the state."""

import numpy as np

from nchvsim.experiment import _ROUTES


def bras(n_analyzers: int, phases) -> np.ndarray:
    """Conjugated analyzer eigenstates at N settings, shape (N, k, 2, 2):
    setting, analyzer (A, B[, C]), sign (+1, -1), basis index on that
    analyzer's axis of the state.  Contracted with the state by
    ``_Route.subscripts`` they give the amplitudes that ``_outcome_table``
    reads from the precontracted coefficients instead."""
    route = _ROUTES[n_analyzers]
    z = np.exp(-1j * np.asarray(phases, dtype=np.float64))
    return route.fixed + route.phased * z[:, :, None, None]
