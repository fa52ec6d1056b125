"""R2 fixture (violations): governed env vars read the wrong way.

Linted as library module ``repro.smo.env_fixture``: an *undeclared*
``BISMO_`` knob (the prefix stays governed with nothing declared) and a
declared knob read outside the raw-reader allow-list both flag.
"""

import os

__all__ = ["knobs"]


def knobs():
    secret = os.environ.get("BISMO_NOT_A_REAL_KNOB", "")
    chunk = os.getenv("REPRO_FFT_CHUNK", "16")
    return secret, chunk
