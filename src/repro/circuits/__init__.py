"""Quantum circuit intermediate representation and circuit library.

This package provides the from-scratch circuit substrate the study needs:

* :mod:`repro.circuits.gates` — the gate vocabulary (1q/2q/3q gates, basis
  gates of IBM superconducting devices, matrices for simulation).
* :mod:`repro.circuits.circuit` — :class:`QuantumCircuit`, the mutable list
  of instructions with the width/depth/CX metrics the paper analyses.
* :mod:`repro.circuits.library` — generators for the benchmark circuits the
  paper runs (QFT, GHZ, Bernstein-Vazirani, QAOA, VQE ansatz, random).
* :mod:`repro.circuits.qasm` — a minimal OpenQASM 2 exporter/importer.
"""

from repro.circuits.gates import (
    Gate,
    GateSpec,
    GATE_SPECS,
    IBM_BASIS_GATES,
    is_basis_gate,
    gate_matrix,
)
from repro.circuits.circuit import Instruction, QuantumCircuit
from repro.circuits.library import (
    qft_circuit,
    qft_echo_circuit,
    ghz_circuit,
    bernstein_vazirani_circuit,
    qaoa_maxcut_circuit,
    vqe_ansatz_circuit,
    random_circuit,
    bv_circuit,
    CIRCUIT_FAMILIES,
    build_circuit,
)
from repro.circuits.qasm import to_qasm, from_qasm

__all__ = [
    "Gate",
    "GateSpec",
    "GATE_SPECS",
    "IBM_BASIS_GATES",
    "is_basis_gate",
    "gate_matrix",
    "Instruction",
    "QuantumCircuit",
    "qft_circuit",
    "qft_echo_circuit",
    "ghz_circuit",
    "bernstein_vazirani_circuit",
    "bv_circuit",
    "qaoa_maxcut_circuit",
    "vqe_ansatz_circuit",
    "random_circuit",
    "CIRCUIT_FAMILIES",
    "build_circuit",
    "to_qasm",
    "from_qasm",
]
