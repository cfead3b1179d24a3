//===- perfbench/src/Trace.h - In-memory span recorder ----------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around calls into each layer's public
/// entry points: name, layer, tag (kernel slug or pass name), start, end,
/// parent span and request id. Spans stay in memory and are written at
/// exit as Chrome trace-event JSON (opens in Perfetto or chrome://tracing)
/// plus a per-layer self-time table.
///
/// Disabled, a Span costs one branch. The recorder takes a lock per span,
/// so any thread may record, but parent links only follow spans opened on
/// the same thread.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
public:
  struct Record {
    std::string Layer; ///< src/ module, e.g. "backend" or "quill".
    std::string Name;  ///< Entry point, e.g. "Runtime::run".
    std::string Tag;   ///< Kernel slug, pass name, or empty.
    int64_t StartNs = 0;
    int64_t EndNs = 0;
    int Parent = -1;
    uint64_t Request = 0;
    uint32_t Thread = 0;
  };

  static Tracer &instance();

  bool enabled() const { return Enabled; }
  void setEnabled(bool On) { Enabled = On; }

  /// Opens a span; returns its id, or -1 when disabled.
  int begin(const char *Layer, const std::string &Name, const std::string &Tag,
            uint64_t Request);
  void end(int Id);
  /// Records an already-measured interval (e.g. a server-side phase read
  /// off a response) as a root span.
  void add(const char *Layer, const std::string &Name, const std::string &Tag,
           int64_t StartNs, int64_t EndNs, uint64_t Request);

  /// Durations in milliseconds of every span with \p Name (and \p Tag,
  /// unless empty), in recording order.
  std::vector<double> durationsMs(const std::string &Name,
                                  const std::string &Tag = "") const;
  /// The same for every tag of \p Name at once.
  std::map<std::string, std::vector<double>>
  durationsByTag(const std::string &Name) const;

  /// Writes the Chrome trace-event JSON; false on I/O failure.
  bool writeChromeJson(const std::string &Path) const;
  /// Self time per layer: span duration minus the time its children cover.
  std::string selfTimeTable() const;

  static int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

private:
  bool Enabled = false;
  mutable std::mutex M;
  std::vector<Record> Records;
};

/// RAII span on the calling thread.
class Span {
public:
  Span(const char *Layer, const std::string &Name, const std::string &Tag = "",
       uint64_t Request = 0)
      : Id(Tracer::instance().enabled()
               ? Tracer::instance().begin(Layer, Name, Tag, Request)
               : -1) {}
  ~Span() {
    if (Id >= 0)
      Tracer::instance().end(Id);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  int Id;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
