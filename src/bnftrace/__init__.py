"""Semiclassical trace expansions from quantum Birkhoff normal form data,
their inverse recovery, and a classical normal-form engine for polynomial
symplectic maps."""

from .blocks import (COMPLEX_HYPERBOLIC, ELLIPTIC, REAL_HYPERBOLIC,
                     SpectrumBlocks)
from .classical import (TaylorMap, birkhoff_normal_form, classify_eigenvalues,
                        linear_normalize, normal_form_flow)
from .fields import FloatField, RationalField, field_from_name
from .oscillatory import (OrbitExpansion, TestJet, extract_jets,
                          forward_pairing, traces_from_pairings)
from .qbnf import (QuantumBNF, TraceData, make_trace_data, trace_layers,
                   trace_power, trace_powers)
from .recover import (recover_frequencies, recover_polynomial, recover_qbnf,
                      RecoveryReport)
from .series import MultiSeries, Orders, zseries

__all__ = [
    "COMPLEX_HYPERBOLIC", "ELLIPTIC", "REAL_HYPERBOLIC", "SpectrumBlocks",
    "TaylorMap", "birkhoff_normal_form", "classify_eigenvalues",
    "linear_normalize", "normal_form_flow",
    "FloatField", "RationalField", "field_from_name",
    "OrbitExpansion", "TestJet", "extract_jets", "forward_pairing",
    "traces_from_pairings",
    "QuantumBNF", "TraceData", "make_trace_data", "trace_layers",
    "trace_power", "trace_powers",
    "recover_frequencies",
    "recover_polynomial", "recover_qbnf", "RecoveryReport", "MultiSeries",
    "Orders", "zseries",
]

__version__ = "0.1.0"
