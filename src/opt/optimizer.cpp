#include "opt/optimizer.hpp"

#include "ir/gate_matrix.hpp"

#include <cmath>
#include <complex>
#include <optional>
#include <utility>
#include <vector>

namespace veriqc::opt {

namespace {

constexpr double kAngleTol = 1e-12;

bool isZeroAngle(const double theta) {
  return std::abs(std::remainder(theta, 4.0 * PI)) < kAngleTol;
}

/// Index of the next op after `i` acting on any qubit of ops[i], or npos.
/// Sets `blocked` if that op shares only part of the qubits or is a barrier.
/// Ops flagged in `removed` (when given) are skipped as if already erased.
std::size_t nextOnSameQubits(const std::vector<Operation>& ops,
                             const std::size_t i, bool& blocked,
                             const std::vector<bool>* removed = nullptr) {
  blocked = false;
  const auto qubits = ops[i].usedQubits();
  for (std::size_t j = i + 1; j < ops.size(); ++j) {
    if (removed != nullptr && (*removed)[j]) {
      continue;
    }
    const auto& candidate = ops[j];
    if (candidate.type == OpType::Barrier) {
      blocked = true;
      return j;
    }
    bool touches = false;
    for (const auto q : qubits) {
      if (candidate.actsOn(q)) {
        touches = true;
        break;
      }
    }
    if (!touches) {
      continue;
    }
    // Must act on exactly the same qubit set to be a cancellation partner.
    const auto otherQubits = candidate.usedQubits();
    if (otherQubits.size() != qubits.size()) {
      blocked = true;
      return j;
    }
    for (const auto q : otherQubits) {
      if (!ops[i].actsOn(q)) {
        blocked = true;
        return j;
      }
    }
    return j;
  }
  blocked = true;
  return ops.size();
}

void eraseTwo(std::vector<Operation>& ops, const std::size_t i,
              const std::size_t j) {
  ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(j));
  ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(i));
}

} // namespace

std::size_t removeIdentities(QuantumCircuit& circuit,
                             const bool dropBarriers) {
  auto& ops = circuit.ops();
  std::size_t removed = 0;
  for (std::size_t i = 0; i < ops.size();) {
    const auto& op = ops[i];
    const bool zeroRotation =
        (op.type == OpType::RX || op.type == OpType::RY ||
         op.type == OpType::RZ || op.type == OpType::P) &&
        isZeroAngle(op.params[0]);
    if (op.type == OpType::I || zeroRotation ||
        (dropBarriers && op.type == OpType::Barrier)) {
      ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(i));
      ++removed;
    } else {
      ++i;
    }
  }
  return removed;
}

std::size_t cancelInversePairs(QuantumCircuit& circuit) {
  auto& ops = circuit.ops();
  std::size_t removed = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].isNonUnitary()) {
        continue;
      }
      bool blocked = false;
      const auto j = nextOnSameQubits(ops, i, blocked);
      if (blocked || j >= ops.size()) {
        continue;
      }
      if (ops[j].isInverseOf(ops[i])) {
        eraseTwo(ops, i, j);
        removed += 2;
        changed = true;
        break;
      }
    }
  }
  return removed;
}

std::size_t mergeRotations(QuantumCircuit& circuit) {
  auto& ops = circuit.ops();
  std::size_t merged = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const auto& op = ops[i];
      if (op.type != OpType::RX && op.type != OpType::RY &&
          op.type != OpType::RZ && op.type != OpType::P) {
        continue;
      }
      bool blocked = false;
      const auto j = nextOnSameQubits(ops, i, blocked);
      if (blocked || j >= ops.size()) {
        continue;
      }
      const auto& other = ops[j];
      if (other.type != op.type || other.targets != op.targets) {
        continue;
      }
      auto c1 = op.controls;
      auto c2 = other.controls;
      std::sort(c1.begin(), c1.end());
      std::sort(c2.begin(), c2.end());
      if (c1 != c2) {
        continue;
      }
      const double total = op.params[0] + other.params[0];
      ops[i].params[0] = total;
      ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(j));
      ++merged;
      if (isZeroAngle(total)) {
        ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(i));
      }
      changed = true;
      break;
    }
  }
  return merged;
}

namespace {

/// ZYZ decomposition of a 2x2 unitary into u3(theta, phi, lambda) plus a
/// global phase gamma: m = e^{i gamma} u3(theta, phi, lambda).
struct ZYZ {
  double theta;
  double phi;
  double lambda;
  double gamma;
};

ZYZ zyzDecompose(const GateMatrix& m) {
  const double c = std::abs(m[0]);
  const double s = std::abs(m[2]);
  ZYZ result{};
  result.theta = 2.0 * std::atan2(s, c);
  if (c > 1e-12 && s > 1e-12) {
    result.gamma = std::arg(m[0]);
    result.phi = std::arg(m[2]) - result.gamma;
    result.lambda = std::arg(-m[1]) - result.gamma;
  } else if (c > 1e-12) {
    // Diagonal: theta ~ 0; split the relative phase evenly.
    result.gamma = std::arg(m[0]);
    result.phi = 0.0;
    result.lambda = std::arg(m[3]) - result.gamma;
  } else {
    // Anti-diagonal: theta ~ pi.
    result.gamma = 0.0;
    result.phi = std::arg(m[2]);
    result.lambda = std::arg(-m[1]);
  }
  return result;
}

GateMatrix multiply2x2(const GateMatrix& a, const GateMatrix& b) {
  return {a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
          a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3]};
}

bool isPlainSingleQubit(const Operation& op) {
  return !op.isNonUnitary() && op.controls.empty() &&
         isSingleTargetType(op.type);
}

} // namespace

std::size_t fuseSingleQubitGates(QuantumCircuit& circuit) {
  auto& ops = circuit.ops();
  std::size_t fused = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (!isPlainSingleQubit(ops[i])) {
      continue;
    }
    const Qubit q = ops[i].targets[0];
    // Collect the maximal run of plain 1q gates on q with nothing else in
    // between on q.
    std::vector<std::size_t> run{i};
    for (std::size_t j = i + 1; j < ops.size(); ++j) {
      if (!ops[j].actsOn(q)) {
        if (ops[j].type == OpType::Barrier) {
          break;
        }
        continue;
      }
      if (isPlainSingleQubit(ops[j])) {
        run.push_back(j);
      } else {
        break;
      }
    }
    if (run.size() < 2) {
      continue;
    }
    GateMatrix total = gateMatrix(OpType::I, {});
    for (const auto idx : run) {
      total = multiply2x2(gateMatrix(ops[idx].type, ops[idx].params), total);
    }
    const auto zyz = zyzDecompose(total);
    circuit.addGlobalPhase(zyz.gamma);
    ops[i] = Operation(OpType::U3, {}, {q},
                       {zyz.theta, zyz.phi, zyz.lambda});
    for (std::size_t k = run.size(); k-- > 1;) {
      ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(run[k]));
    }
    fused += run.size() - 1;
  }
  return fused;
}

std::size_t reconstructSwaps(QuantumCircuit& circuit) {
  auto& ops = circuit.ops();
  std::size_t reconstructed = 0;
  const auto isCx = [](const Operation& op) {
    return op.type == OpType::X && op.controls.size() == 1;
  };
  // One forward pass; the triple's tail is flagged, and the list compacted
  // once at the end. A rewrite at i cannot create a match before i (earlier
  // ops on {a, b} reach i first, and i becomes a SWAP, not a CX), so one
  // pass already reaches the fixpoint; a rescan from the front after each
  // rewrite would be quadratic in a routed circuit's SWAP count.
  std::vector<bool> removed(ops.size(), false);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (removed[i] || !isCx(ops[i])) {
      continue;
    }
    bool blocked1 = false;
    const auto j = nextOnSameQubits(ops, i, blocked1, &removed);
    if (blocked1 || j >= ops.size() || !isCx(ops[j])) {
      continue;
    }
    bool blocked2 = false;
    const auto k = nextOnSameQubits(ops, j, blocked2, &removed);
    if (blocked2 || k >= ops.size() || !isCx(ops[k])) {
      continue;
    }
    const Qubit a = ops[i].controls[0];
    const Qubit b = ops[i].targets[0];
    if (ops[j].controls[0] == b && ops[j].targets[0] == a &&
        ops[k].controls[0] == a && ops[k].targets[0] == b) {
      ops[i] = Operation(OpType::SWAP, {}, {a, b});
      removed[j] = true;
      removed[k] = true;
      ++reconstructed;
    }
  }
  if (reconstructed > 0) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (removed[i]) {
        continue;
      }
      if (kept != i) {
        ops[kept] = std::move(ops[i]);
      }
      ++kept;
    }
    ops.resize(kept);
  }
  return reconstructed;
}

QuantumCircuit optimize(const QuantumCircuit& circuit) {
  QuantumCircuit result = circuit;
  result.setName(circuit.name() + "_opt");
  while (true) {
    std::size_t changes = 0;
    changes += removeIdentities(result);
    changes += cancelInversePairs(result);
    changes += mergeRotations(result);
    changes += fuseSingleQubitGates(result);
    if (changes == 0) {
      break;
    }
  }
  return result;
}

} // namespace veriqc::opt
