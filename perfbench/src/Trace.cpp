//===- perfbench/src/Trace.cpp - In-memory span recorder ------------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <thread>

using namespace perfbench;

namespace {
thread_local std::vector<int> OpenSpans;

uint32_t threadNumber() {
  return static_cast<uint32_t>(
      std::hash<std::thread::id>()(std::this_thread::get_id()) % 100000);
}
} // namespace

Tracer &Tracer::instance() {
  static Tracer T;
  return T;
}

int Tracer::begin(const char *Layer, const std::string &Name,
                  const std::string &Tag, uint64_t Request) {
  Record R;
  R.Layer = Layer;
  R.Name = Name;
  R.Tag = Tag;
  R.Parent = OpenSpans.empty() ? -1 : OpenSpans.back();
  R.Request = Request;
  R.Thread = threadNumber();
  int Id;
  {
    std::lock_guard<std::mutex> L(M);
    Id = static_cast<int>(Records.size());
    Records.push_back(std::move(R));
  }
  OpenSpans.push_back(Id);
  // Read the clock last so bookkeeping stays outside the span.
  int64_t Now = nowNs();
  std::lock_guard<std::mutex> L(M);
  Records[static_cast<size_t>(Id)].StartNs = Now;
  return Id;
}

void Tracer::end(int Id) {
  int64_t Now = nowNs();
  if (!OpenSpans.empty() && OpenSpans.back() == Id)
    OpenSpans.pop_back();
  std::lock_guard<std::mutex> L(M);
  Records[static_cast<size_t>(Id)].EndNs = Now;
}

void Tracer::add(const char *Layer, const std::string &Name,
                 const std::string &Tag, int64_t StartNs, int64_t EndNs,
                 uint64_t Request) {
  if (!Enabled)
    return;
  Record R;
  R.Layer = Layer;
  R.Name = Name;
  R.Tag = Tag;
  R.StartNs = StartNs;
  R.EndNs = EndNs;
  R.Request = Request;
  R.Thread = threadNumber();
  std::lock_guard<std::mutex> L(M);
  Records.push_back(std::move(R));
}

std::vector<double> Tracer::durationsMs(const std::string &Name,
                                        const std::string &Tag) const {
  std::vector<double> Out;
  std::lock_guard<std::mutex> L(M);
  for (const Record &R : Records)
    if (R.Name == Name && (Tag.empty() || R.Tag == Tag))
      Out.push_back(static_cast<double>(R.EndNs - R.StartNs) / 1e6);
  return Out;
}

std::map<std::string, std::vector<double>>
Tracer::durationsByTag(const std::string &Name) const {
  std::map<std::string, std::vector<double>> Out;
  std::lock_guard<std::mutex> L(M);
  for (const Record &R : Records)
    if (R.Name == Name)
      Out[R.Tag].push_back(static_cast<double>(R.EndNs - R.StartNs) / 1e6);
  return Out;
}

bool Tracer::writeChromeJson(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> L(M);
  int64_t Origin = Records.empty() ? 0 : Records.front().StartNs;
  for (const Record &R : Records)
    Origin = std::min(Origin, R.StartNs);
  std::fprintf(F, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t I = 0; I < Records.size(); ++I) {
    const Record &R = Records[I];
    std::fprintf(F,
                 "{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"ts\": %.3f, "
                 "\"dur\": %.3f, \"pid\": 1, \"tid\": %u, \"args\": "
                 "{\"tag\": %s, \"id\": %zu, \"parent\": %d, \"request\": "
                 "%llu}}%s\n",
                 porcupine::json::quote(R.Name).c_str(),
                 porcupine::json::quote(R.Layer).c_str(),
                 static_cast<double>(R.StartNs - Origin) / 1e3,
                 static_cast<double>(R.EndNs - R.StartNs) / 1e3, R.Thread,
                 porcupine::json::quote(R.Tag).c_str(), I, R.Parent,
                 static_cast<unsigned long long>(R.Request),
                 I + 1 < Records.size() ? "," : "");
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}

std::string Tracer::selfTimeTable() const {
  std::lock_guard<std::mutex> L(M);
  std::vector<int64_t> ChildNs(Records.size(), 0);
  for (const Record &R : Records)
    if (R.Parent >= 0)
      ChildNs[static_cast<size_t>(R.Parent)] += R.EndNs - R.StartNs;
  struct Row {
    double SelfMs = 0, TotalMs = 0;
    size_t Count = 0;
  };
  std::map<std::string, Row> ByLayer, ByEntry;
  for (size_t I = 0; I < Records.size(); ++I) {
    const Record &R = Records[I];
    double Total = static_cast<double>(R.EndNs - R.StartNs) / 1e6;
    double Self = Total - static_cast<double>(ChildNs[I]) / 1e6;
    for (Row *X : {&ByLayer[R.Layer], &ByEntry[R.Layer + "  " + R.Name]}) {
      X->SelfMs += Self;
      X->TotalMs += Total;
      ++X->Count;
    }
  }
  std::string Out;
  char Buf[256];
  auto Emit = [&](const char *Title, const std::map<std::string, Row> &Rows) {
    std::snprintf(Buf, sizeof(Buf), "%-44s %12s %12s %8s\n", Title,
                  "self_ms", "total_ms", "spans");
    Out += Buf;
    std::vector<std::pair<std::string, Row>> Sorted(Rows.begin(), Rows.end());
    std::sort(Sorted.begin(), Sorted.end(), [](const auto &A, const auto &B) {
      return A.second.SelfMs > B.second.SelfMs;
    });
    for (const auto &KV : Sorted) {
      std::snprintf(Buf, sizeof(Buf), "%-44s %12.2f %12.2f %8zu\n",
                    KV.first.c_str(), KV.second.SelfMs, KV.second.TotalMs,
                    KV.second.Count);
      Out += Buf;
    }
  };
  Emit("layer", ByLayer);
  Out += "\n";
  Emit("layer  entry point", ByEntry);
  return Out;
}
