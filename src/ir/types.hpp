/// \file types.hpp
/// \brief Fundamental types shared across the veriqc library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <numbers>
#include <stdexcept>
#include <string>

namespace veriqc {

/// Index of a qubit (a circuit wire). Wires are numbered 0..n-1 where wire 0
/// is the least-significant bit of basis-state indices |x_{n-1} ... x_0>.
using Qubit = std::uint32_t;

/// Number of π in common angles.
inline constexpr double PI = std::numbers::pi_v<double>;
inline constexpr double PI_2 = PI / 2.0;
inline constexpr double PI_4 = PI / 4.0;

/// Root of the library's error taxonomy. Catching this (instead of
/// std::exception) distinguishes errors veriqc raised deliberately — bad
/// input, exhausted budgets — from toolchain/runtime failures. Concrete
/// kinds: CircuitError (malformed input), qasm::ParseError (malformed
/// source text, with position), ResourceLimitError (a configured budget
/// was exceeded; retry with a larger one) and StopRequested (a stop
/// predicate asked a computation to give up).
class VeriqcError : public std::runtime_error {
public:
  explicit VeriqcError(const std::string& msg) : std::runtime_error(msg) {}
};

/// Error raised for malformed circuits, operations or permutations.
class CircuitError : public VeriqcError {
public:
  explicit CircuitError(const std::string& msg) : VeriqcError(msg) {}
};

/// Error raised when a configured resource budget (DD nodes, ZX vertices,
/// resident memory) is exceeded. Engines treat this as a cooperative abort:
/// the verdict becomes ResourceExhausted rather than the process dying, and
/// the caller may retry with a larger budget.
class ResourceLimitError : public VeriqcError {
public:
  ResourceLimitError(const std::string& resource, const std::size_t limit,
                     const std::size_t observed)
      : VeriqcError("resource limit exceeded: " + resource + " (limit " +
                    std::to_string(limit) + ", observed " +
                    std::to_string(observed) + ")"),
        resource_(resource), limit_(limit), observed_(observed) {}

  [[nodiscard]] const std::string& resource() const noexcept {
    return resource_;
  }
  [[nodiscard]] std::size_t limit() const noexcept { return limit_; }
  [[nodiscard]] std::size_t observed() const noexcept { return observed_; }

private:
  std::string resource_;
  std::size_t limit_;
  std::size_t observed_;
};

/// Thrown when a stop predicate returns true (deadline passed, or a sibling
/// engine settled the question). Deliberately not a ResourceLimitError: a
/// stop is no budget failure and not worth a retry; engines attribute it
/// themselves (Timeout or Cancelled).
class StopRequested : public VeriqcError {
public:
  StopRequested() : VeriqcError("stop requested") {}
};

} // namespace veriqc
