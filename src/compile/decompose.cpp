#include "compile/decompose.hpp"

#include <algorithm>
#include <set>

namespace veriqc::compile {

namespace {

class Decomposer {
public:
  Decomposer(const QuantumCircuit& input, const bool cnotOnly,
             const bool decomposeSwaps)
      : in_(input), out_(input.numQubits(), input.name()),
        cnotOnly_(cnotOnly), decomposeSwaps_(decomposeSwaps) {}

  QuantumCircuit run() {
    out_.initialLayout() = in_.initialLayout();
    out_.outputPermutation() = in_.outputPermutation();
    out_.setGlobalPhase(in_.globalPhase());
    for (const auto& op : in_.ops()) {
      handle(op);
    }
    return std::move(out_);
  }

private:
  // --- primitive emitters ---------------------------------------------------
  void emit(Operation op) { out_.append(std::move(op)); }
  void h(const Qubit q) { out_.h(q); }
  void x(const Qubit q) { out_.x(q); }
  void p(const Qubit q, const double theta) { out_.p(q, theta); }
  void cx(const Qubit c, const Qubit t) { out_.cx(c, t); }

  /// Controlled phase; native for the ZX target, a {p, cx} network for the
  /// CNOT target (the qelib1 cu1 decomposition).
  void cp(const Qubit c, const Qubit t, const double theta) {
    if (!cnotOnly_) {
      out_.cp(c, t, theta);
      return;
    }
    p(c, theta / 2.0);
    cx(c, t);
    p(t, -theta / 2.0);
    cx(c, t);
    p(t, theta / 2.0);
  }

  /// C-X^alpha = H_t . CP(alpha pi) . H_t (exact, X^alpha = H P(alpha pi) H).
  void cxPow(const Qubit c, const Qubit t, const double alpha) {
    h(t);
    cp(c, t, alpha * PI);
    h(t);
  }

  /// The standard 15-gate Toffoli network (qelib1 ccx), exact incl. phase.
  void toffoli(const Qubit a, const Qubit b, const Qubit c) {
    h(c);
    cx(b, c);
    out_.tdg(c);
    cx(a, c);
    out_.t(c);
    cx(b, c);
    out_.tdg(c);
    cx(a, c);
    out_.t(b);
    out_.t(c);
    h(c);
    cx(a, b);
    out_.t(a);
    out_.tdg(b);
    cx(a, b);
  }

  [[nodiscard]] std::vector<Qubit>
  freeWires(const std::vector<Qubit>& controls, const Qubit target) const {
    std::set<Qubit> used(controls.begin(), controls.end());
    used.insert(target);
    std::vector<Qubit> free;
    for (Qubit w = 0; w < out_.numQubits(); ++w) {
      if (!used.contains(w)) {
        free.push_back(w);
      }
    }
    return free;
  }

  /// Multi-controlled X. Uses the borrowed-qubit split whenever any wire is
  /// outside the gate's support; falls back to the square-root recursion for
  /// gates touching every wire.
  void mcx(const std::vector<Qubit>& controls, const Qubit t) {
    const auto k = controls.size();
    if (k == 0) {
      x(t);
      return;
    }
    if (k == 1) {
      cx(controls[0], t);
      return;
    }
    if (k == 2) {
      toffoli(controls[0], controls[1], t);
      return;
    }
    const auto borrows = freeWires(controls, t);
    if (!borrows.empty()) {
      // T2 T1 T2 T1 with T1 = C^{|C1|}X(C1 -> b), T2 = C^{|C2|+1}X(C2+b -> t)
      // computes t ^= AND(C1) & AND(C2) regardless of b's (dirty) state.
      const Qubit b = borrows.front();
      const std::size_t half = (k + 1) / 2;
      const std::vector<Qubit> c1(controls.begin(),
                                  controls.begin() +
                                      static_cast<std::ptrdiff_t>(half));
      std::vector<Qubit> c2(controls.begin() +
                                static_cast<std::ptrdiff_t>(half),
                            controls.end());
      c2.push_back(b);
      mcx(c2, t);
      mcx(c1, b);
      mcx(c2, t);
      mcx(c1, b);
      return;
    }
    // No free wire: one level of the square-root recursion frees one.
    const Qubit cn = controls.back();
    const std::vector<Qubit> rest(controls.begin(), controls.end() - 1);
    cxPow(cn, t, 0.5);
    mcx(rest, cn);
    cxPow(cn, t, -0.5);
    mcx(rest, cn);
    mcxPow(rest, t, 0.5);
  }

  /// Multi-controlled X^alpha via the square-root recursion (the inner MCXs
  /// always have a borrowable wire: the phase target itself is outside them).
  void mcxPow(const std::vector<Qubit>& controls, const Qubit t,
              const double alpha) {
    const auto k = controls.size();
    if (k == 0) {
      h(t);
      p(t, alpha * PI);
      h(t);
      return;
    }
    if (k == 1) {
      cxPow(controls[0], t, alpha);
      return;
    }
    const Qubit cn = controls.back();
    const std::vector<Qubit> rest(controls.begin(), controls.end() - 1);
    cxPow(cn, t, alpha / 2.0);
    mcx(rest, cn);
    cxPow(cn, t, -alpha / 2.0);
    mcx(rest, cn);
    mcxPow(rest, t, alpha / 2.0);
  }

  /// Multi-controlled phase gate (symmetric in all its qubits).
  void mcp(const std::vector<Qubit>& controls, const Qubit t,
           const double theta) {
    const auto k = controls.size();
    if (k == 0) {
      p(t, theta);
      return;
    }
    if (k == 1) {
      cp(controls[0], t, theta);
      return;
    }
    const Qubit cn = controls.back();
    const std::vector<Qubit> rest(controls.begin(), controls.end() - 1);
    cp(cn, t, theta / 2.0);
    mcx(rest, cn);
    cp(cn, t, -theta / 2.0);
    mcx(rest, cn);
    mcp(rest, t, theta / 2.0);
  }

  /// Multi-controlled RZ: MCP plus the phase correction on the controls.
  void mcrz(const std::vector<Qubit>& controls, const Qubit t,
            const double theta) {
    mcp(controls, t, theta);
    const Qubit last = controls.back();
    const std::vector<Qubit> rest(controls.begin(), controls.end() - 1);
    mcp(rest, last, -theta / 2.0);
  }

  void mcz(const std::vector<Qubit>& controls, const Qubit t) {
    h(t);
    mcx(controls, t);
    h(t);
  }

  /// qiskit-style controlled-U3 decomposition.
  void cu3(const Qubit c, const Qubit t, const double theta, const double phi,
           const double lambda) {
    p(c, (lambda + phi) / 2.0);
    p(t, (lambda - phi) / 2.0);
    cx(c, t);
    out_.u3(t, -theta / 2.0, 0.0, -(phi + lambda) / 2.0);
    cx(c, t);
    out_.u3(t, theta / 2.0, phi, 0.0);
  }

  // --- dispatch ----------------------------------------------------------------
  void handle(const Operation& op) {
    if (op.isNonUnitary()) {
      emit(op);
      return;
    }
    const auto nc = op.controls.size();
    if (op.type == OpType::SWAP) {
      handleSwap(op);
      return;
    }
    if (nc == 0) {
      emit(op);
      return;
    }
    if (nc == 1) {
      handleSinglyControlled(op);
      return;
    }
    handleMultiControlled(op);
  }

  void handleSwap(const Operation& op) {
    const Qubit a = op.targets[0];
    const Qubit b = op.targets[1];
    if (op.controls.empty()) {
      if (!decomposeSwaps_) {
        emit(op);
        return;
      }
      cx(a, b);
      cx(b, a);
      cx(a, b);
      return;
    }
    // Fredkin: cswap(C; a, b) = cx(b,a) . C+{a}-X(b) . cx(b,a)
    cx(b, a);
    auto controls = op.controls;
    controls.push_back(a);
    mcx(controls, b);
    cx(b, a);
  }

  void handleSinglyControlled(const Operation& op) {
    const Qubit c = op.controls[0];
    const Qubit t = op.targets[0];
    if (op.type == OpType::X) {
      cx(c, t);
      return;
    }
    if (!cnotOnly_) {
      // ZX-friendly: the converter handles these natively.
      switch (op.type) {
      case OpType::Y:
      case OpType::Z:
      case OpType::H:
      case OpType::P:
      case OpType::RZ:
      case OpType::RX:
      case OpType::RY:
      case OpType::S:
      case OpType::Sdg:
      case OpType::T:
      case OpType::Tdg:
        emit(op);
        return;
      case OpType::SX:
        cxPow(c, t, 0.5);
        return;
      case OpType::SXdg:
        cxPow(c, t, -0.5);
        return;
      case OpType::U2:
        cu3(c, t, PI_2, op.params[0], op.params[1]);
        return;
      case OpType::U3:
        cu3(c, t, op.params[0], op.params[1], op.params[2]);
        return;
      case OpType::I:
        return;
      default:
        break;
      }
      throw CircuitError("decompose: unsupported controlled op " +
                         op.toString());
    }
    switch (op.type) {
    case OpType::I:
      return;
    case OpType::Z:
      h(t);
      cx(c, t);
      h(t);
      return;
    case OpType::Y:
      out_.sdg(t);
      cx(c, t);
      out_.s(t);
      return;
    case OpType::H:
      // qelib1 ch.
      h(t);
      out_.sdg(t);
      cx(c, t);
      h(t);
      out_.t(t);
      cx(c, t);
      out_.t(t);
      h(t);
      out_.s(t);
      x(t);
      out_.s(c);
      return;
    case OpType::P:
      cp(c, t, op.params[0]);
      return;
    case OpType::S:
      cp(c, t, PI_2);
      return;
    case OpType::Sdg:
      cp(c, t, -PI_2);
      return;
    case OpType::T:
      cp(c, t, PI_4);
      return;
    case OpType::Tdg:
      cp(c, t, -PI_4);
      return;
    case OpType::RZ:
      out_.rz(t, op.params[0] / 2.0);
      cx(c, t);
      out_.rz(t, -op.params[0] / 2.0);
      cx(c, t);
      return;
    case OpType::RX:
      h(t);
      handleSinglyControlled(Operation(OpType::RZ, {c}, {t}, op.params));
      h(t);
      return;
    case OpType::RY:
      out_.sdg(t);
      handleSinglyControlled(Operation(OpType::RX, {c}, {t}, op.params));
      out_.s(t);
      return;
    case OpType::SX:
      cxPow(c, t, 0.5);
      return;
    case OpType::SXdg:
      cxPow(c, t, -0.5);
      return;
    case OpType::U2:
      cu3(c, t, PI_2, op.params[0], op.params[1]);
      return;
    case OpType::U3:
      cu3(c, t, op.params[0], op.params[1], op.params[2]);
      return;
    default:
      throw CircuitError("decompose: unsupported controlled op " +
                         op.toString());
    }
  }

  void handleMultiControlled(const Operation& op) {
    const auto& controls = op.controls;
    const Qubit t = op.targets[0];
    switch (op.type) {
    case OpType::I:
      return;
    case OpType::X:
      mcx(controls, t);
      return;
    case OpType::Y:
      out_.sdg(t);
      mcx(controls, t);
      out_.s(t);
      return;
    case OpType::Z:
      mcz(controls, t);
      return;
    case OpType::H:
      // H = RY(pi/4) Z RY(-pi/4)
      out_.ry(t, -PI_4);
      mcz(controls, t);
      out_.ry(t, PI_4);
      return;
    case OpType::P:
      mcp(controls, t, op.params[0]);
      return;
    case OpType::S:
      mcp(controls, t, PI_2);
      return;
    case OpType::Sdg:
      mcp(controls, t, -PI_2);
      return;
    case OpType::T:
      mcp(controls, t, PI_4);
      return;
    case OpType::Tdg:
      mcp(controls, t, -PI_4);
      return;
    case OpType::RZ:
      mcrz(controls, t, op.params[0]);
      return;
    case OpType::RX:
      h(t);
      mcrz(controls, t, op.params[0]);
      h(t);
      return;
    case OpType::RY:
      out_.sdg(t);
      h(t);
      mcrz(controls, t, op.params[0]);
      h(t);
      out_.s(t);
      return;
    case OpType::SX:
      mcxPow(controls, t, 0.5);
      return;
    case OpType::SXdg:
      mcxPow(controls, t, -0.5);
      return;
    case OpType::U2:
      handleMultiControlled(
          Operation(OpType::U3, controls, {t}, {PI_2, op.params[0],
                                                op.params[1]}));
      return;
    case OpType::U3: {
      // u3 = e^{i(phi+lambda)/2} rz(phi) ry(theta) rz(lambda); the global
      // phase becomes a controlled phase on the controls.
      const double theta = op.params[0];
      const double phi = op.params[1];
      const double lambda = op.params[2];
      mcrz(controls, t, lambda);
      out_.sdg(t);
      h(t);
      mcrz(controls, t, theta);
      h(t);
      out_.s(t);
      mcrz(controls, t, phi);
      const Qubit last = controls.back();
      const std::vector<Qubit> rest(controls.begin(), controls.end() - 1);
      mcp(rest, last, (phi + lambda) / 2.0);
      return;
    }
    default:
      throw CircuitError("decompose: unsupported multi-controlled op " +
                         op.toString());
    }
  }

  const QuantumCircuit& in_;
  QuantumCircuit out_;
  bool cnotOnly_;
  bool decomposeSwaps_;
};

} // namespace

QuantumCircuit decomposeToCnot(const QuantumCircuit& circuit,
                               const bool decomposeSwaps) {
  return Decomposer(circuit, /*cnotOnly=*/true, decomposeSwaps).run();
}

QuantumCircuit decomposeForZX(const QuantumCircuit& circuit) {
  return Decomposer(circuit, /*cnotOnly=*/false, /*decomposeSwaps=*/false)
      .run();
}

} // namespace veriqc::compile
