/// \file trace.hpp
/// \brief In-memory span recorder of the traced run.
///
/// A span has a name, start, end (seconds on perfbench::now()), a parent
/// span and the id of the cell or job it belongs to; probes (public calls
/// re-timed outside the measured check) are flagged. Spans stay in memory
/// until write() at exit. A disabled tracer records nothing.
#pragma once

#include "support/mutex.hpp"

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Open a span starting now; returns its id (0 when disabled, and 0 is
  /// also "no parent").
  std::size_t open(const std::string& trace, const std::string& name,
                   std::size_t parent, bool probe = false);
  /// End an open span now.
  void close(std::size_t id);
  /// Record a finished span with explicit times; returns its id.
  std::size_t record(const std::string& trace, const std::string& name,
                     std::size_t parent, double start, double end,
                     bool probe = false);

  /// Write {"spans": [...]} to `path`.
  void write(const std::string& path) const;

private:
  struct Span {
    std::string trace;
    std::string name;
    std::size_t parent = 0;
    double start = 0.0;
    double end = 0.0;
    bool probe = false;
  };

  bool enabled_;
  mutable veriqc::support::Mutex mutex_;
  std::vector<Span> spans_ VERIQC_GUARDED_BY(mutex_); ///< id = index + 1
};

} // namespace perfbench
