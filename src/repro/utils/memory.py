"""Sized refusal before allocations that cannot fit in memory.

Large preset-scale arrays (the ``(S, K, K)`` pupil crops, a
``(B, R, K, K)`` intensity basis) are checked against the memory the
kernel reports as available *before* they are allocated, so a
configuration that cannot run fails at once with both sizes in the
message instead of swapping or being killed mid-build.  The streamed
FFT passes never call this: there a ``MemoryError`` means "halve the
chunk and retry" (:func:`repro.optics.fftlib.run_with_chunk_fallback`).
"""

from __future__ import annotations

from typing import Optional

__all__ = ["available_bytes", "require_memory"]

_MEMINFO = "/proc/meminfo"


def available_bytes() -> Optional[int]:
    """``MemAvailable`` in bytes, or None where the kernel does not say."""
    try:
        with open(_MEMINFO, encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def _gib(nbytes: int) -> str:
    return f"{nbytes / 1024**3:.1f} GiB"


def require_memory(nbytes: int, what: str) -> None:
    """Raise ``MemoryError`` if ``nbytes`` exceeds the available memory.

    ``what`` names the allocation (shape and dtype) in the message.
    Nothing is checked where available memory is unknown.
    """
    avail = available_bytes()
    if avail is not None and nbytes > avail:
        raise MemoryError(
            f"{what} needs {_gib(nbytes)} ({nbytes} bytes) but only "
            f"{_gib(avail)} ({avail} bytes) is available"
        )
