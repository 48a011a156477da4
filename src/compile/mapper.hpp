/// \file mapper.hpp
/// \brief Qubit mapping: placing logical qubits on a device and routing
///        two-qubit gates with SWAP insertion (Sec. 2.2 of the paper).
#pragma once

#include "compile/architecture.hpp"
#include "compile/decompose.hpp"
#include "ir/circuit.hpp"

namespace veriqc::compile {

struct MapperOptions {
  enum class Placement {
    Trivial,        ///< logical i -> physical i
    GraphPlacement, ///< interaction-weighted BFS placement
  };
  Placement placement = Placement::GraphPlacement;
};

/// Map a circuit (single-qubit gates + CNOT only, identity permutations) to
/// the architecture. The result acts on all physical qubits of the device,
/// records the chosen placement in its initial layout, keeps inserted SWAPs
/// as explicit SWAP operations, and records where each logical qubit ends up
/// in its output permutation.
/// \throws CircuitError on unsupported gates or an undersized architecture.
[[nodiscard]] QuantumCircuit mapCircuit(const QuantumCircuit& circuit,
                                        const Architecture& architecture,
                                        const MapperOptions& options = {});

/// The full compilation flow of the case study: decompose to {1q, CX},
/// map to the device, and decompose the inserted SWAPs into CNOTs
/// (mirroring qiskit-terra's O1 output that QCEC's SWAP reconstruction
/// then undoes).
[[nodiscard]] QuantumCircuit
compileForArchitecture(const QuantumCircuit& circuit,
                       const Architecture& architecture,
                       const MapperOptions& options = {});

} // namespace veriqc::compile
