#include "sim/dd_simulator.hpp"

#include <cmath>
#include <stdexcept>

namespace veriqc::sim {

dd::mEdge buildUnitaryDD(dd::Package& package, const QuantumCircuit& circuit) {
  if (package.numQubits() != circuit.numQubits()) {
    throw std::invalid_argument("buildUnitaryDD: qubit count mismatch");
  }
  const auto explicitCircuit = circuit.withExplicitPermutations();
  dd::mEdge e = package.makeIdent();
  package.incRef(e);
  for (const auto& op : explicitCircuit.ops()) {
    if (op.isNonUnitary()) {
      continue;
    }
    const auto gate = package.makeOperationDD(op);
    const auto next = package.multiply(gate, e);
    package.incRef(next);
    package.decRef(e);
    e = next;
    package.garbageCollect();
  }
  if (explicitCircuit.globalPhase() != 0.0) {
    const auto phased = dd::mEdge{
        e.n, e.w * std::exp(std::complex<double>{
                  0.0, explicitCircuit.globalPhase()})};
    package.incRef(phased);
    package.decRef(e);
    e = phased;
  }
  return e;
}

dd::vEdge simulate(dd::Package& package, const QuantumCircuit& circuit,
                   const dd::vEdge initialState) {
  if (package.numQubits() != circuit.numQubits()) {
    throw std::invalid_argument("simulate: qubit count mismatch");
  }
  const auto explicitCircuit = circuit.withExplicitPermutations();
  dd::vEdge state = initialState;
  package.incRef(state);
  for (const auto& op : explicitCircuit.ops()) {
    if (op.isNonUnitary()) {
      continue;
    }
    const auto gate = package.makeOperationDD(op);
    const auto next = package.multiply(gate, state);
    package.incRef(next);
    package.decRef(state);
    state = next;
    package.garbageCollect();
  }
  if (explicitCircuit.globalPhase() != 0.0) {
    const auto phased = dd::vEdge{
        state.n, state.w * std::exp(std::complex<double>{
                     0.0, explicitCircuit.globalPhase()})};
    package.incRef(phased);
    package.decRef(state);
    state = phased;
  }
  return state;
}

} // namespace veriqc::sim
