"""Workbench for the Mobius sequence restricted to square-free numbers."""

from .seqgen import (BitSequence, MobiusWindow, SequenceFormatError,
                     generate_sequence_file, mobius_range, nth_squarefree,
                     read_sequence, restricted_sequence, squarefree_count,
                     write_sequence)
from .statcore import (PValue, chi2_pvalue, chi2_test, erfc_pvalue,
                       incomplete_gamma_q, proportion_check,
                       proportion_interval, pvalue_uniformity)

__all__ = [
    "BitSequence", "MobiusWindow", "SequenceFormatError",
    "generate_sequence_file", "mobius_range", "nth_squarefree",
    "read_sequence", "restricted_sequence", "squarefree_count",
    "write_sequence",
    "PValue", "chi2_pvalue", "chi2_test", "erfc_pvalue", "incomplete_gamma_q",
    "proportion_check", "proportion_interval", "pvalue_uniformity",
]

__version__ = "0.1.0"
