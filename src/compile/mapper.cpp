#include "compile/mapper.hpp"

#include "compile/decompose.hpp"

#include <algorithm>
#include <deque>
#include <numeric>

namespace veriqc::compile {

namespace {

/// Interaction-weighted BFS placement: the busiest logical qubits go to the
/// best-connected region of the device.
std::vector<Qubit> placeLogicalQubits(const QuantumCircuit& circuit,
                                      const Architecture& arch,
                                      const MapperOptions& options) {
  const auto n = circuit.numQubits();
  std::vector<Qubit> log2phys(n);
  if (options.placement == MapperOptions::Placement::Trivial) {
    std::iota(log2phys.begin(), log2phys.end(), 0U);
    return log2phys;
  }
  // Logical interaction degree.
  std::vector<std::size_t> weight(n, 0);
  for (const auto& op : circuit.ops()) {
    if (op.isNonUnitary()) {
      continue;
    }
    const auto used = op.usedQubits();
    if (used.size() == 2) {
      ++weight[used[0]];
      ++weight[used[1]];
    }
  }
  std::vector<Qubit> logicalOrder(n);
  std::iota(logicalOrder.begin(), logicalOrder.end(), 0U);
  std::stable_sort(logicalOrder.begin(), logicalOrder.end(),
                   [&weight](const Qubit a, const Qubit b) {
                     return weight[a] > weight[b];
                   });
  // BFS over the device from its best-connected qubit.
  Qubit start = 0;
  std::size_t bestDegree = 0;
  for (Qubit q = 0; q < arch.numQubits(); ++q) {
    if (arch.neighbors(q).size() > bestDegree) {
      bestDegree = arch.neighbors(q).size();
      start = q;
    }
  }
  std::vector<Qubit> bfsOrder;
  std::vector<bool> seen(arch.numQubits(), false);
  std::deque<Qubit> queue{start};
  seen[start] = true;
  while (!queue.empty()) {
    const Qubit cur = queue.front();
    queue.pop_front();
    bfsOrder.push_back(cur);
    for (const Qubit next : arch.neighbors(cur)) {
      if (!seen[next]) {
        seen[next] = true;
        queue.push_back(next);
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    log2phys[logicalOrder[i]] = bfsOrder[i];
  }
  return log2phys;
}

} // namespace

QuantumCircuit mapCircuit(const QuantumCircuit& circuit,
                          const Architecture& arch,
                          const MapperOptions& options) {
  if (!circuit.initialLayout().isIdentity() ||
      !circuit.outputPermutation().isIdentity()) {
    throw CircuitError("mapCircuit: fold permutations before mapping");
  }
  const auto n = circuit.numQubits();
  const auto N = arch.numQubits();
  if (n > N) {
    throw CircuitError("mapCircuit: circuit does not fit the architecture");
  }
  if (!arch.isConnected()) {
    throw CircuitError("mapCircuit: architecture is not connected");
  }

  // log2phys over ALL N logical ids: ids n..N-1 are fresh idle qubits filling
  // the remaining physical slots.
  const auto placed = placeLogicalQubits(circuit, arch, options);
  std::vector<Qubit> log2phys(N);
  std::vector<Qubit> phys2log(N, N);
  for (Qubit l = 0; l < n; ++l) {
    log2phys[l] = placed[l];
    phys2log[placed[l]] = l;
  }
  Qubit nextIdle = static_cast<Qubit>(n);
  for (Qubit p = 0; p < N; ++p) {
    if (phys2log[p] == N) {
      phys2log[p] = nextIdle;
      log2phys[nextIdle] = p;
      ++nextIdle;
    }
  }

  QuantumCircuit result(N, circuit.name() + "_" + arch.name());
  result.setGlobalPhase(circuit.globalPhase());
  result.initialLayout() = Permutation{phys2log};

  const auto applySwap = [&](const Qubit pa, const Qubit pb) {
    result.swap(pa, pb);
    const Qubit la = phys2log[pa];
    const Qubit lb = phys2log[pb];
    std::swap(phys2log[pa], phys2log[pb]);
    std::swap(log2phys[la], log2phys[lb]);
  };

  for (const auto& op : circuit.ops()) {
    if (op.type == OpType::Barrier) {
      result.barrier();
      continue;
    }
    if (op.type == OpType::Measure) {
      continue; // terminal measurement is re-derived from the permutation
    }
    const auto used = op.usedQubits();
    if (used.size() == 1) {
      Operation mapped = op;
      for (auto& q : mapped.controls) {
        q = log2phys[q];
      }
      for (auto& q : mapped.targets) {
        q = log2phys[q];
      }
      result.append(std::move(mapped));
      continue;
    }
    if (used.size() != 2 || op.type != OpType::X || op.controls.size() != 1) {
      throw CircuitError("mapCircuit: expected {1q, CX} input, got " +
                         op.toString());
    }
    Qubit pc = log2phys[op.controls[0]];
    const Qubit pt = log2phys[op.targets[0]];
    if (!arch.adjacent(pc, pt)) {
      const auto path = arch.shortestPath(pc, pt);
      // Move the control along the path until adjacent to the target.
      for (std::size_t i = 0; i + 2 < path.size(); ++i) {
        applySwap(path[i], path[i + 1]);
      }
      pc = path[path.size() - 2];
    }
    result.cx(pc, pt);
  }
  result.outputPermutation() = Permutation{phys2log};
  return result;
}

QuantumCircuit compileForArchitecture(const QuantumCircuit& circuit,
                                      const Architecture& arch,
                                      const MapperOptions& options) {
  const auto decomposed = decomposeToCnot(circuit.withExplicitPermutations());
  const auto mapped = mapCircuit(decomposed, arch, options);
  auto compiled = decomposeToCnot(mapped);
  compiled.setName(circuit.name() + "_compiled");
  return compiled;
}

} // namespace veriqc::compile
