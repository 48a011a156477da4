#include "sim/dense.hpp"

#include "ir/gate_matrix.hpp"

#include <cmath>

namespace veriqc::sim {

Matrix Matrix::identity(const std::size_t dim) {
  Matrix m(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    m.at(i, i) = 1.0;
  }
  return m;
}

Matrix Matrix::multiply(const Matrix& rhs) const {
  Matrix result(dim_);
  for (std::size_t i = 0; i < dim_; ++i) {
    for (std::size_t k = 0; k < dim_; ++k) {
      const auto a = at(i, k);
      if (a == Amplitude{}) {
        continue;
      }
      for (std::size_t j = 0; j < dim_; ++j) {
        result.at(i, j) += a * rhs.at(k, j);
      }
    }
  }
  return result;
}

Matrix Matrix::adjoint() const {
  Matrix result(dim_);
  for (std::size_t i = 0; i < dim_; ++i) {
    for (std::size_t j = 0; j < dim_; ++j) {
      result.at(i, j) = std::conj(at(j, i));
    }
  }
  return result;
}

Amplitude Matrix::trace() const {
  Amplitude t{};
  for (std::size_t i = 0; i < dim_; ++i) {
    t += at(i, i);
  }
  return t;
}

Amplitude Matrix::overlap(const Matrix& other) const {
  Amplitude sum{};
  for (std::size_t i = 0; i < data_.size(); ++i) {
    sum += std::conj(data_[i]) * other.data_[i];
  }
  return sum;
}

double Matrix::distance(const Matrix& other) const {
  double sum = 0.0;
  for (std::size_t i = 0; i < dim_; ++i) {
    for (std::size_t j = 0; j < dim_; ++j) {
      sum += std::norm(at(i, j) - other.at(i, j));
    }
  }
  return std::sqrt(sum);
}

bool Matrix::equalsUpToGlobalPhase(const Matrix& other, const double tol) const {
  if (dim_ != other.dim_) {
    return false;
  }
  return std::abs(std::abs(overlap(other)) - static_cast<double>(dim_)) <
         tol * static_cast<double>(dim_);
}

bool Matrix::equals(const Matrix& other, const double tol) const {
  return dim_ == other.dim_ && distance(other) < tol;
}

StateVector zeroState(const std::size_t nqubits) {
  StateVector state(std::size_t{1} << nqubits);
  state[0] = 1.0;
  return state;
}

namespace {
bool controlsActive(const std::size_t index, const std::vector<Qubit>& ctrls) {
  for (const auto c : ctrls) {
    if (((index >> c) & 1U) == 0) {
      return false;
    }
  }
  return true;
}
} // namespace

void applyOperation(const Operation& op, const std::size_t nqubits,
                    StateVector& state) {
  if (op.isNonUnitary()) {
    return;
  }
  const std::size_t dim = std::size_t{1} << nqubits;
  if (op.type == OpType::SWAP) {
    const auto a = op.targets[0];
    const auto b = op.targets[1];
    for (std::size_t i = 0; i < dim; ++i) {
      const bool bitA = ((i >> a) & 1U) != 0;
      const bool bitB = ((i >> b) & 1U) != 0;
      if (!bitA && bitB && controlsActive(i, op.controls)) {
        const std::size_t j = (i | (std::size_t{1} << a)) &
                              ~(std::size_t{1} << b);
        std::swap(state[i], state[j]);
      }
    }
    return;
  }
  const auto m = gateMatrix(op.type, op.params);
  const auto t = op.targets[0];
  for (std::size_t i = 0; i < dim; ++i) {
    if (((i >> t) & 1U) != 0 || !controlsActive(i, op.controls)) {
      continue;
    }
    const std::size_t j = i | (std::size_t{1} << t);
    const auto v0 = state[i];
    const auto v1 = state[j];
    state[i] = m[0] * v0 + m[1] * v1;
    state[j] = m[2] * v0 + m[3] * v1;
  }
}

void applyGates(const QuantumCircuit& circuit, StateVector& state) {
  for (const auto& op : circuit.ops()) {
    applyOperation(op, circuit.numQubits(), state);
  }
  if (circuit.globalPhase() != 0.0) {
    const auto phase = std::exp(Amplitude{0.0, circuit.globalPhase()});
    for (auto& amp : state) {
      amp *= phase;
    }
  }
}

namespace {
/// y = R(sigma) x  with  y_w-bit = x_{sigma(w)}-bit.
StateVector applyPermutationOperator(const Permutation& sigma,
                                     const StateVector& x) {
  StateVector y(x.size());
  const auto n = sigma.size();
  for (std::size_t z = 0; z < x.size(); ++z) {
    std::size_t target = 0;
    for (std::size_t w = 0; w < n; ++w) {
      target |= ((z >> sigma[static_cast<Qubit>(w)]) & 1U) << w;
    }
    y[target] = x[z];
  }
  return y;
}
} // namespace

void applyLogical(const QuantumCircuit& circuit, StateVector& state) {
  state = applyPermutationOperator(circuit.initialLayout(), state);
  applyGates(circuit, state);
  // R(O)^dagger = R(O^{-1})
  state = applyPermutationOperator(circuit.outputPermutation().inverse(), state);
}

Matrix permutationMatrix(const Permutation& sigma) {
  const std::size_t dim = std::size_t{1} << sigma.size();
  Matrix m(dim);
  for (std::size_t z = 0; z < dim; ++z) {
    std::size_t x = 0;
    for (std::size_t w = 0; w < sigma.size(); ++w) {
      x |= ((z >> sigma[static_cast<Qubit>(w)]) & 1U) << w;
    }
    m.at(x, z) = 1.0;
  }
  return m;
}

Matrix circuitUnitary(const QuantumCircuit& circuit,
                      const std::function<bool()>& stop) {
  const std::size_t dim = std::size_t{1} << circuit.numQubits();
  Matrix result(dim);
  for (std::size_t col = 0; col < dim; ++col) {
    if (stop && stop()) {
      throw StopRequested();
    }
    StateVector basis(dim);
    basis[col] = 1.0;
    applyLogical(circuit, basis);
    for (std::size_t row = 0; row < dim; ++row) {
      result.at(row, col) = basis[row];
    }
  }
  return result;
}

Amplitude innerProduct(const StateVector& a, const StateVector& b) {
  Amplitude sum{};
  for (std::size_t i = 0; i < a.size(); ++i) {
    sum += std::conj(a[i]) * b[i];
  }
  return sum;
}

} // namespace veriqc::sim
