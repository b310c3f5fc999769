"""Small shared helpers: seeded RNG streams, CSV float formatting and
output-directory checks."""

import zlib
from pathlib import Path

import numpy as np

from .errors import ConfigurationError


def rng_for(seed: int, tag: str) -> np.random.Generator:
    """Independent, reproducible generator for one purpose within a run.

    Streams are keyed by (seed, tag) so toggling one code path never shifts
    the random numbers another path consumes.
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), zlib.crc32(tag.encode())]))


def fmt_float(x) -> str:
    """Shortest round-trip decimal form, locale independent."""
    return repr(float(x))


def output_dir(path) -> Path:
    """Path(path), after checking that a directory can be made there: the
    path and its nearest existing ancestor must not be files. Raises
    ConfigurationError naming the path otherwise."""
    path = Path(path)
    for p in (path, *path.parents):
        if p.exists():
            if not p.is_dir():
                raise ConfigurationError(f"output directory {path}: {p} is not a directory")
            break
    return path
