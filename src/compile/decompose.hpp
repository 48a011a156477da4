/// \file decompose.hpp
/// \brief Gate-set decomposition: multi-controlled gates into elementary ones.
///
/// Two target gate sets are provided, mirroring the paper's setup:
///  * `decomposeToCnot`: arbitrary single-qubit gates + CNOT (the IBM-style
///    basis the circuits are compiled to before mapping);
///  * `decomposeForZX`: at most one control per gate, restricted to the types
///    the ZX converter understands (the "pyzx does not support
///    multi-controlled Toffolis" constraint from Sec. 6.1).
///
/// Multi-controlled X/Z/phase gates use the polynomial-cost constructions of
/// Barenco et al. (Phys. Rev. A 52, 1995): the borrowed-qubit split (Lemma
/// 7.5-style) whenever a free wire exists, and the square-root-of-X recursion
/// (Lemma 7.9-style) for gates touching every wire. All produced phases are
/// multiples of pi/2^k, so decomposed circuits stay exactly representable.
#pragma once

#include "ir/circuit.hpp"

namespace veriqc::compile {

/// Decompose to {any 1-qubit gate, CX}. Bare SWAPs become 3 CNOTs when
/// `decomposeSwaps` (the mapper re-inserts SWAPs itself and wants them kept).
[[nodiscard]] QuantumCircuit decomposeToCnot(const QuantumCircuit& circuit,
                                             bool decomposeSwaps = true);

/// Decompose just enough for the ZX converter: gates keep at most one
/// control; bare SWAPs survive (they are wire crossings in a ZX-diagram).
[[nodiscard]] QuantumCircuit decomposeForZX(const QuantumCircuit& circuit);

} // namespace veriqc::compile
