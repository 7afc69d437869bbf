"""Workbench for the Mobius sequence restricted to square-free numbers."""

from .seqgen import (BitSequence, SequenceFormatError,
                     generate_sequence_file, mobius_range, nth_squarefree,
                     read_sequence, restricted_sequence, squarefree_count,
                     write_sequence)
from .statcore import (chi2_pvalue, chi2_test, erfc_pvalue, incomplete_gamma_q,
                       passes, proportion_check, proportion_interval,
                       pvalue_uniformity)

__all__ = [
    "BitSequence", "SequenceFormatError",
    "generate_sequence_file", "mobius_range", "nth_squarefree",
    "read_sequence", "restricted_sequence", "squarefree_count",
    "write_sequence",
    "chi2_pvalue", "chi2_test", "erfc_pvalue", "incomplete_gamma_q", "passes",
    "proportion_check", "proportion_interval", "pvalue_uniformity",
]

__version__ = "0.1.0"
