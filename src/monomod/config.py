"""Workspace-level knobs.

The dimension cap bounds every matrix the exact kernels will touch; the
default Ext/Tor bound is what classify()/scenarios use when the caller does
not pass one.  The CLI may override both from a config file or flags.
"""

DEFAULT_BOUND = 6
DEFAULT_SEED = 0
DEFAULT_CAP = 512

_dimension_cap = DEFAULT_CAP


def dimension_cap():
    return _dimension_cap


def set_dimension_cap(n):
    global _dimension_cap
    if n < 1:
        raise ValueError("dimension cap must be >= 1")
    _dimension_cap = n
