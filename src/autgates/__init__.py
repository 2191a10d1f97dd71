"""Logical Clifford gates of stabilizer codes from binary code automorphisms."""

from .binrep import RepKind, RowSource
from .circuits import CliffordCircuit, Gate, circuit_from_text, circuit_to_qasm
from .cliffordmap import (
    LogicalReport,
    corrected_circuit,
    correction_is_logical,
    pauli_correct_and_action,
    perm_to_circuit,
    verify_preserves_stabilizers,
)
from .codes import bivariate_bicycle, corpus_names, load
from .embedded import (
    EmbeddingSpec,
    all_pairs,
    discover_embedded_gates,
    embed,
    interpret,
    interpretation_sound,
    parse_pairs_file,
)
from .errors import (
    AutgatesError,
    DimensionError,
    EmbeddedInterpretationError,
    NonCommutingChecksError,
    NotRealizableError,
    NotSymplecticError,
    ParseError,
)
from .logsearch import (
    DiscoveryResult,
    LogicalActionGroup,
    SynthesisResult,
    discover_gates,
    parse_action_matrix,
    parse_target,
    synthesize,
)
from .pauli import PhasedPauli
from .stabilizer import (
    StabilizerCode,
    Tableau,
    parse_code_file,
    standard_form,
    tableau,
)

__version__ = "0.1.0"

__all__ = [
    "AutgatesError",
    "CliffordCircuit",
    "DimensionError",
    "DiscoveryResult",
    "EmbeddedInterpretationError",
    "EmbeddingSpec",
    "Gate",
    "LogicalActionGroup",
    "LogicalReport",
    "NonCommutingChecksError",
    "NotRealizableError",
    "NotSymplecticError",
    "ParseError",
    "PhasedPauli",
    "RepKind",
    "RowSource",
    "StabilizerCode",
    "SynthesisResult",
    "Tableau",
    "all_pairs",
    "bivariate_bicycle",
    "circuit_from_text",
    "circuit_to_qasm",
    "corpus_names",
    "corrected_circuit",
    "correction_is_logical",
    "discover_embedded_gates",
    "discover_gates",
    "embed",
    "interpret",
    "interpretation_sound",
    "load",
    "parse_action_matrix",
    "parse_code_file",
    "parse_pairs_file",
    "parse_target",
    "pauli_correct_and_action",
    "perm_to_circuit",
    "standard_form",
    "synthesize",
    "tableau",
    "verify_preserves_stabilizers",
]
