/// \file dd_simulator.hpp
/// \brief Decision-diagram based circuit simulation and unitary construction.
#pragma once

#include "dd/package.hpp"
#include "ir/circuit.hpp"

namespace veriqc::sim {

/// Build the DD of the full unitary realized by `circuit` on logical qubits
/// (initial layout, output permutation and global phase folded in) by
/// sequential left-multiplication of gate DDs. The result is referenced;
/// release it with `package.decRef` when done.
///
/// Both functions stop only through the package's own stop predicate
/// (PackageConfig::stop): a StopRequested thrown mid-way strands the
/// references taken so far, so the caller drops the package.
///
/// \pre package.numQubits() == circuit.numQubits()
[[nodiscard]] dd::mEdge buildUnitaryDD(dd::Package& package,
                                       const QuantumCircuit& circuit);

/// Simulate `circuit` (logical semantics) on the given initial state.
/// The result is referenced; the initial state's reference is left untouched.
[[nodiscard]] dd::vEdge simulate(dd::Package& package,
                                 const QuantumCircuit& circuit,
                                 dd::vEdge initialState);

} // namespace veriqc::sim
