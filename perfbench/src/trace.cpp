#include "trace.hpp"

#include "bench.hpp"

#include <fstream>
#include <stdexcept>

namespace perfbench {

std::size_t Tracer::open(const std::string& trace, const std::string& name,
                         const std::size_t parent, const bool probe) {
  const double start = now();
  return record(trace, name, parent, start, start, probe);
}

void Tracer::close(const std::size_t id) {
  if (id == 0) {
    return;
  }
  const double end = now();
  const veriqc::support::LockGuard lock(mutex_);
  spans_.at(id - 1).end = end;
}

std::size_t Tracer::record(const std::string& trace, const std::string& name,
                           const std::size_t parent, const double start,
                           const double end, const bool probe) {
  if (!enabled_) {
    return 0;
  }
  const veriqc::support::LockGuard lock(mutex_);
  spans_.push_back({trace, name, parent, start, end, probe});
  return spans_.size();
}

void Tracer::write(const std::string& path) const {
  if (!enabled_ || path.empty()) {
    return;
  }
  auto spans = veriqc::obs::Json::array();
  {
    const veriqc::support::LockGuard lock(mutex_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& span = spans_[i];
      auto j = veriqc::obs::Json::object();
      j["id"] = i + 1;
      j["parent"] = span.parent;
      j["trace"] = span.trace;
      j["name"] = span.name;
      j["start"] = span.start;
      j["end"] = span.end;
      j["probe"] = span.probe;
      spans.push_back(std::move(j));
    }
  }
  auto doc = veriqc::obs::Json::object();
  doc["spans"] = std::move(spans);
  std::ofstream out(path);
  out << doc.dump() << '\n';
  if (!out) {
    throw std::runtime_error("cannot write trace file " + path);
  }
}

} // namespace perfbench
