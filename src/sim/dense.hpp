/// \file dense.hpp
/// \brief Exact dense statevector/unitary reference implementation.
///
/// This module is the semantic ground truth of the library: every other
/// representation (decision diagrams, ZX-diagrams) is validated against it in
/// the test suite. It is exponential in the number of qubits and intended for
/// small instances only.
#pragma once

#include "ir/circuit.hpp"
#include "ir/permutation.hpp"

#include <complex>
#include <cstddef>
#include <functional>
#include <vector>

namespace veriqc::sim {

using Amplitude = std::complex<double>;
using StateVector = std::vector<Amplitude>;

/// A dense square complex matrix (row-major).
class Matrix {
public:
  Matrix() = default;
  explicit Matrix(std::size_t dim) : dim_(dim), data_(dim * dim) {}

  static Matrix identity(std::size_t dim);

  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }

  [[nodiscard]] Amplitude& at(std::size_t row, std::size_t col) {
    return data_[row * dim_ + col];
  }
  [[nodiscard]] const Amplitude& at(std::size_t row, std::size_t col) const {
    return data_[row * dim_ + col];
  }

  [[nodiscard]] Matrix multiply(const Matrix& rhs) const;
  [[nodiscard]] Matrix adjoint() const;
  [[nodiscard]] Amplitude trace() const;
  /// tr(A^dagger B) as the O(dim^2) sum of conj(a_ij) b_ij.
  /// \pre other.dim() == dim()
  [[nodiscard]] Amplitude overlap(const Matrix& other) const;

  /// Frobenius distance ||A - B||.
  [[nodiscard]] double distance(const Matrix& other) const;

  /// True if A == e^{i theta} B for some theta (within tol), decided via the
  /// Hilbert-Schmidt criterion |tr(A^dagger B)| ~ dim.
  [[nodiscard]] bool equalsUpToGlobalPhase(const Matrix& other,
                                           double tol = 1e-9) const;

  /// True if A == B entry-wise within tol.
  [[nodiscard]] bool equals(const Matrix& other, double tol = 1e-9) const;

private:
  std::size_t dim_ = 0;
  std::vector<Amplitude> data_;
};

/// |0...0> on n qubits.
[[nodiscard]] StateVector zeroState(std::size_t nqubits);

/// Apply a single operation (in wire space) to a state vector, in place.
void applyOperation(const Operation& op, std::size_t nqubits,
                    StateVector& state);

/// Run the gate list of `circuit` on `state` (wire space; the circuit's
/// permutations are NOT applied). Includes the global phase.
void applyGates(const QuantumCircuit& circuit, StateVector& state);

/// Full circuit semantics on logical qubits:
/// applies R(initialLayout), the gates, then R(outputPermutation)^dagger.
void applyLogical(const QuantumCircuit& circuit, StateVector& state);

/// The permutation operator R(sigma): places logical qubit sigma(w) on wire w,
/// i.e. <x|R|z> = prod_w delta(x_w, z_sigma(w)).
[[nodiscard]] Matrix permutationMatrix(const Permutation& sigma);

/// The full 2^n x 2^n unitary realized by the circuit on logical qubits
/// (permutations and global phase included), built one basis column at a
/// time. `stop` is polled once per column.
/// \throws StopRequested when `stop` returns true.
[[nodiscard]] Matrix circuitUnitary(const QuantumCircuit& circuit,
                                    const std::function<bool()>& stop = {});

/// Inner product <a|b>.
[[nodiscard]] Amplitude innerProduct(const StateVector& a,
                                     const StateVector& b);

} // namespace veriqc::sim
