import os
import tracemalloc
from pathlib import Path

import pytest

from mobiuswalk import mertens, seqgen

# Shared corpus parameters for the acceptance runs.  The block-variable
# ensemble is seeded so the sequence length needed is fixed; the generated
# file is cached on disk because sieving 2e9 integers takes ~2 minutes.
MASTER_LENGTH = 1_200_000_000
ENSEMBLE_SEED = 2024
ENSEMBLE_POLICY = mertens.GapPolicy("random", 1000)
EXTREMES_START = 250_000_001
MUHAT_BATTERY_START = 10 ** 9
FAIR_SEED = 424242
BATTERY_SEED = 31337


def cache_dir() -> Path:
    root = os.environ.get("MOBIUSWALK_TEST_CACHE",
                          str(Path(__file__).resolve().parent.parent / ".cache"))
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


@pytest.fixture(scope="session")
def master_sequence():
    """The bit sequence for ordinals [1, MASTER_LENGTH], disk-cached."""
    path = cache_dir() / f"mu_seq_1_{MASTER_LENGTH}.msf"
    if not path.exists():
        tmp = path.with_suffix(".tmp")
        seqgen.generate_sequence_file(tmp, 1, MASTER_LENGTH)
        tmp.rename(path)
    return seqgen.read_sequence(path)


@pytest.fixture(scope="session")
def block_ensemble():
    ens = mertens.build_ensemble(10 ** 8, 2 * 10 ** 9, 10 ** 5, 10 ** 4,
                                 ENSEMBLE_POLICY, seed=ENSEMBLE_SEED)
    assert ens.end <= MASTER_LENGTH
    return ens


@pytest.fixture
def traced_peak():
    """peak(fn): the most bytes tracemalloc saw allocated at once while fn ran."""
    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
