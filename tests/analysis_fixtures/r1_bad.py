"""R1 fixture (violations): raw FFT imports outside the FFT seam.

Linted as module ``repro.optics.sim_fixture``; expects R1 findings for
the direct import, the from-import, and the attribute-chain call.
"""

import numpy as np
import numpy.fft
from scipy import fft as sfft

__all__ = ["spectrum"]


def spectrum(field):
    a = numpy.fft.fft2(field)
    b = np.fft.ifft2(a)
    return sfft.fft2(b)
