"""The packed parameter map, re-implemented with numpy for inputs and checks.

Kept apart from ``oracle`` so that making inputs does not import scipy.
"""

from __future__ import annotations

import numpy as np


def realize(config, cov, theta):
    """Per-observation (loc, scale, shape) for one or many packed vectors.

    theta has shape (d,) or (S, d); the result arrays have shape (n,) or
    (S, n). The first a / b / c covariate columns feed location, log-scale
    and shape; the scale is raw when b == 0.
    """
    a, b, c = config
    th = np.atleast_2d(np.asarray(theta, dtype=float))
    cov = np.asarray(cov, dtype=float)
    if cov.ndim == 1:
        cov = cov[:, None]
    loc = th[:, :1] + th[:, 1:a + 1] @ cov[:, :a].T
    i = a + 1
    if b == 0:
        scale = np.repeat(th[:, i:i + 1], cov.shape[0], axis=1)
    else:
        with np.errstate(over="ignore"):
            scale = np.exp(th[:, i:i + 1] + th[:, i + 1:i + b + 1] @ cov[:, :b].T)
    i += b + 1
    shape = th[:, i:i + 1] + th[:, i + 1:i + c + 1] @ cov[:, :c].T
    if np.ndim(theta) == 1:
        return loc[0], scale[0], shape[0]
    return loc, scale, shape
