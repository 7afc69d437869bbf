import os
import tracemalloc
from pathlib import Path

import numpy as np
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


def ones_match_mertens(seq: seqgen.BitSequence) -> bool:
    """Whether the ones over the ordinals [a, a + n) of seq number
    (n + M-hat(a + n - 1) - M-hat(a - 1)) / 2, with M-hat(0) = 0: two exact
    Mertens values, which come from sublinear counts, not from sieving the
    window that seq holds."""
    a, n = seq.start_ordinal, seq.length
    chunk = 1 << 24  # payload bytes counted at once
    ones = sum(int(np.bitwise_count(seq.bits[i:i + chunk]).sum(dtype=np.int64))
               for i in range(0, seq.bits.size, chunk))
    before = mertens.mertens_restricted(a - 1) if a > 1 else 0
    return 2 * ones == n + mertens.mertens_restricted(a + n - 1) - before


def _cached_corpus(path: Path):
    """The cached corpus, or None if it is missing, malformed or fails
    `ones_match_mertens`."""
    try:
        seq = seqgen.read_sequence(path)
    except (FileNotFoundError, seqgen.SequenceFormatError):
        return None
    if (seq.start_ordinal, seq.length) == (1, MASTER_LENGTH) and ones_match_mertens(seq):
        return seq
    return None


@pytest.fixture(scope="session")
def master_sequence():
    """The bit sequence for ordinals [1, MASTER_LENGTH], disk-cached and
    made again (about 25 s) if the cached file fails its check."""
    path = cache_dir() / f"mu_seq_1_{MASTER_LENGTH}.msf"
    seq = _cached_corpus(path)
    if seq is None:
        tmp = path.with_suffix(".tmp")
        seqgen.generate_sequence_file(tmp, 1, MASTER_LENGTH)
        tmp.rename(path)
        seq = seqgen.read_sequence(path)
        assert ones_match_mertens(seq), "the generated corpus fails its ones count"
    return seq


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
