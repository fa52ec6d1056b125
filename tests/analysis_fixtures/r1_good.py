"""R1 fixture (clean): all transforms go through the FFT seam.

Linted as module ``repro.optics.sim_fixture``.
"""

from repro.optics.backend import HOST

__all__ = ["spectrum"]


def spectrum(field):
    return HOST.ifft2(HOST.fft2(field))
