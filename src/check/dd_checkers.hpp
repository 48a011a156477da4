/// \file dd_checkers.hpp
/// \brief The decision-diagram based equivalence checkers (Sec. 4 of the
///        paper): reference construction, the alternating scheme and
///        random-stimuli simulation.
#pragma once

#include "check/result.hpp"
#include "ir/circuit.hpp"

#include <functional>

namespace veriqc::check {

/// Cooperative stop request; return true to abort. Every engine stops when
/// it trips or when its own `config.timeout` (measured from the engine's
/// start) passes, and reports Timeout past that deadline, Cancelled before
/// it. The DD engines hand both to their packages, which poll inside
/// multiply/add (PackageConfig::stop), so a stop lands mid-operation.
using StopToken = std::function<bool()>;

/// Brute-force baseline: build both dense 2^n x 2^n unitaries and compare
/// them entry-wise / via the Hilbert-Schmidt criterion. Only for small
/// circuits (n <= 12); used as a ground-truth oracle in tests and ablations.
/// The stop is polled once per unitary column.
/// \throws CircuitError when the aligned circuits exceed `maxQubits`.
[[nodiscard]] Result denseCheck(const QuantumCircuit& c1,
                                const QuantumCircuit& c2,
                                const Configuration& config = {},
                                std::size_t maxQubits = 12,
                                const StopToken& stop = {});

/// Reference method: build both system-matrix DDs completely and compare
/// them (canonicity makes this a pointer comparison). Exponential in the
/// worst case; mainly a baseline and test oracle.
[[nodiscard]] Result ddConstructionCheck(const QuantumCircuit& c1,
                                         const QuantumCircuit& c2,
                                         const Configuration& config = {},
                                         const StopToken& stop = {});

/// The alternating scheme: builds G' . G^dagger from the middle outwards so
/// the diagram stays close to the identity, absorbing SWAPs into permutation
/// trackers and equalizing against the circuits' output permutations at the
/// end (Sec. 4.1, Example 5).
[[nodiscard]] Result ddAlternatingCheck(const QuantumCircuit& c1,
                                        const QuantumCircuit& c2,
                                        const Configuration& config = {},
                                        const StopToken& stop = {});

/// Compilation-flow aware alternating check (Burgholzer, Raymond, Wille,
/// QCE 2020 — the "more sophisticated oracle" of Sec. 4.1): uses the
/// per-gate expansion record produced by compile::compileForArchitecture to
/// keep the two sides in exact lockstep — the i-th original gate is undone
/// right after the expansionCounts[i] compiled gates realizing it.
/// \pre neither circuit contains barriers/measurements, and
///      sum(expansionCounts) equals the compiled circuit's operation count.
[[nodiscard]] Result
ddCompilationFlowCheck(const QuantumCircuit& original,
                       const QuantumCircuit& compiled,
                       const std::vector<std::size_t>& expansionCounts,
                       const Configuration& config = {},
                       const StopToken& stop = {});

/// Random-stimuli simulation: runs both circuits on shared random input
/// states; any fidelity below 1 proves non-equivalence, agreement on all
/// runs yields ProbablyEquivalent (Burgholzer et al., ASP-DAC 2021).
[[nodiscard]] Result ddSimulationCheck(const QuantumCircuit& c1,
                                       const QuantumCircuit& c2,
                                       const Configuration& config = {},
                                       const StopToken& stop = {});

} // namespace veriqc::check
