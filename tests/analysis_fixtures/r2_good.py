"""R2 fixture (clean): a declared knob read inside a raw-reader module.

Linted as module ``repro.optics.fftlib`` (one of the modules the
registry allows to touch ``os.environ`` for governed variables).
"""

import os

__all__ = ["chunk"]


def chunk():
    return os.environ.get("REPRO_FFT_CHUNK", "16")
