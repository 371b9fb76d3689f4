"""Backend flag for the batch kernels.

The kernels in :mod:`rankpipe._kernels` are whole-array numpy code with no
compiled twin, so ``NUMBA_ENABLED`` is always ``False``.  It stays so that
tools naming the backend keep working; ``RANKPIPE_NO_NUMBA`` no longer
changes anything.
"""

NUMBA_ENABLED = False
