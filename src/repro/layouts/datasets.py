"""Benchmark dataset registries mirroring Table 2 of the paper.

=========  ============ ==========  ======  =========  =======
Dataset    Avg area     Test num.   Layer   CD         Tile
=========  ============ ==========  ======  =========  =======
ICCAD13    202655 nm^2  10          Metal   32 nm      4 um^2
ICCAD-L    475571 nm^2  10          Metal   32 nm      4 um^2
ISPD19     698743 nm^2  100         M+Via   28 nm      4 um^2
=========  ============ ==========  ======  =========  =======

Clips are generated deterministically (see :mod:`repro.layouts.synth`);
``Clip`` bundles the target rectangles with the metadata the harness
needs (CD, tile size, name).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..geometry import GridSpec, Rect, rasterize
from .synth import ClipStyle, clip_area, generate_clip

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from ..optics.config import OpticalConfig

__all__ = [
    "Clip",
    "Dataset",
    "tile_stack",
    "iccad13",
    "iccad_l",
    "ispd19",
    "dataset_by_name",
    "dataset_from_glp_dir",
    "DATASET_NAMES",
]


@dataclass(frozen=True)
class Clip:
    """One benchmark tile: target pattern + metadata."""

    name: str
    rects: Tuple[Rect, ...]
    cd_nm: int
    tile_nm: int

    @property
    def area_nm2(self) -> int:
        return clip_area(self.rects)


@dataclass(frozen=True)
class Dataset:
    """A named collection of clips (one row of Table 2)."""

    name: str
    clips: Tuple[Clip, ...]
    style: ClipStyle

    def __len__(self) -> int:
        return len(self.clips)

    def __iter__(self):
        return iter(self.clips)

    def __getitem__(self, idx: int) -> Clip:
        return self.clips[idx]

    @property
    def average_area_nm2(self) -> float:
        return sum(c.area_nm2 for c in self.clips) / len(self.clips)

    def tile_stack(self, config: "OpticalConfig") -> np.ndarray:
        """Rasterize every clip into one ``(B, N, N)`` target batch."""
        return tile_stack(self.clips, config)


def tile_stack(clips: Sequence[Clip], config: "OpticalConfig") -> np.ndarray:
    """Rasterize ``clips`` into a ``(B, N, N)`` binary target stack.

    This is the batched-run companion of the harness' per-clip target
    rasterization: the result feeds directly into
    :class:`repro.smo.ProcessWindowSMOObjective` and the engines' multi-tile
    ``aerial`` path.  Every clip must match the optical tile size.
    """
    from ..optics.resist import binarize

    clips = list(clips)
    if not clips:
        raise ValueError("tile_stack needs at least one clip")
    grid = GridSpec(config.mask_size, config.pixel_nm)
    stack = np.empty((len(clips), config.mask_size, config.mask_size))
    for i, clip in enumerate(clips):
        if abs(clip.tile_nm - config.tile_nm) > 1e-9:
            raise ValueError(
                f"clip {clip.name!r} tile {clip.tile_nm} nm != optical tile "
                f"{config.tile_nm} nm"
            )
        stack[i] = binarize(rasterize(clip.rects, grid))
    return stack


_STYLES: Dict[str, ClipStyle] = {
    "ICCAD13": ClipStyle(
        name="ICCAD13",
        cd_nm=32,
        tile_nm=2000,
        target_area_nm2=202655,
    ),
    "ICCAD-L": ClipStyle(
        name="ICCAD-L",
        cd_nm=32,
        tile_nm=2000,
        target_area_nm2=475571,
        max_wire_len_nm=1400,
        wide_wire_prob=0.35,
    ),
    "ISPD19": ClipStyle(
        name="ISPD19",
        cd_nm=28,
        tile_nm=2000,
        target_area_nm2=698743,
        via_fraction=0.12,
        max_wire_len_nm=1400,
        wide_wire_prob=0.40,
    ),
}

DATASET_NAMES: Tuple[str, ...] = tuple(_STYLES)


def _build(style_name: str, num_clips: int, seed: int) -> Dataset:
    style = _STYLES[style_name]
    clips = []
    for i in range(num_clips):
        rects = generate_clip(style, seed=seed + i)
        clips.append(
            Clip(
                name=f"{style_name.lower()}_test{i + 1}",
                rects=tuple(rects),
                cd_nm=style.cd_nm,
                tile_nm=style.tile_nm,
            )
        )
    return Dataset(name=style_name, clips=tuple(clips), style=style)


@lru_cache(maxsize=None)
def iccad13(num_clips: int = 10, seed: int = 2013) -> Dataset:
    """ICCAD13-style Metal clips (CD 32 nm, ~202655 nm^2 average area)."""
    return _build("ICCAD13", num_clips, seed)


@lru_cache(maxsize=None)
def iccad_l(num_clips: int = 10, seed: int = 2020) -> Dataset:
    """ICCAD-L-style large Metal clips (~475571 nm^2 average area)."""
    return _build("ICCAD-L", num_clips, seed)


@lru_cache(maxsize=None)
def ispd19(num_clips: int = 100, seed: int = 2019) -> Dataset:
    """ISPD19-style Metal+Via clips (CD 28 nm, ~698743 nm^2 average)."""
    return _build("ISPD19", num_clips, seed)


def dataset_from_glp_dir(
    path, name: str, cd_nm: int, tile_nm: int = 2000
) -> Dataset:
    """Build a Dataset from a directory of ``.glp`` clip files.

    This is the drop-in path for the *real* contest benchmarks: place
    the ICCAD13 GLP clips in a directory and every harness entry point
    accepts the resulting dataset in place of the synthetic ones.
    Layers are merged (Metal+Via clips image all features together).
    """
    from pathlib import Path

    from .glp import read_glp

    directory = Path(path)
    files = sorted(directory.glob("*.glp"))
    if not files:
        raise FileNotFoundError(f"no .glp files in {directory}")
    clips = []
    for file in files:
        clip_name, layers = read_glp(file)
        rects = tuple(sorted(r for rs in layers.values() for r in rs))
        if not rects:
            raise ValueError(f"{file} contains no shapes")
        clips.append(
            Clip(name=clip_name, rects=rects, cd_nm=cd_nm, tile_nm=tile_nm)
        )
    style = ClipStyle(
        name=name, cd_nm=cd_nm, tile_nm=tile_nm, target_area_nm2=0
    )
    return Dataset(name=name, clips=tuple(clips), style=style)


def dataset_by_name(name: str, num_clips: int | None = None, seed: int | None = None) -> Dataset:
    """Look up a dataset factory by its Table 2 name."""
    factories: Dict[str, Callable[..., Dataset]] = {
        "ICCAD13": iccad13,
        "ICCAD-L": iccad_l,
        "ISPD19": ispd19,
    }
    key = name.upper().replace("_", "-")
    if key not in factories:
        raise KeyError(f"unknown dataset {name!r}; choose from {DATASET_NAMES}")
    kwargs = {}
    if num_clips is not None:
        kwargs["num_clips"] = num_clips
    if seed is not None:
        kwargs["seed"] = seed
    return factories[key](**kwargs)
