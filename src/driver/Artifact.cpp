//===- driver/Artifact.cpp - Persistent kernel artifacts ------------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/Artifact.h"

#include "driver/Engine.h"
#include "support/Json.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace porcupine;
using namespace porcupine::driver;

namespace {

constexpr const char *ArtifactFormatName = "porcupine-kernel-artifact";

std::string num(double V, const char *Fmt = "%.6f") {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), Fmt, V);
  return Buf;
}

/// A nonnegative integer field, re-parsed from the number's source text so
/// the full uint64 range round-trips exactly (asNumber() goes through
/// double and degrades beyond 2^53 — execution seeds live up there).
bool readUint(const json::Value &Obj, const char *Key, uint64_t &Out) {
  const json::Value *V = Obj.find(Key);
  if (!V || !V->isNumber())
    return false;
  const std::string &Text = V->numberText();
  if (Text.empty() ||
      Text.find_first_not_of("0123456789") != std::string::npos)
    return false; // Negative, fractional, or exponent form.
  errno = 0;
  char *End = nullptr;
  unsigned long long U = std::strtoull(Text.c_str(), &End, 10);
  if (errno == ERANGE || End != Text.c_str() + Text.size())
    return false;
  Out = U;
  return true;
}

/// The latency table's fields under their artifact keys (the names
/// CompileOptions::canonicalKey() uses, without the "latency." prefix).
struct LatencyField {
  const char *Key;
  double quill::LatencyTable::*Member;
};
constexpr LatencyField LatencyFields[] = {
    {"add_ct_ct", &quill::LatencyTable::AddCtCt},
    {"add_ct_pt", &quill::LatencyTable::AddCtPt},
    {"mul_ct_ct", &quill::LatencyTable::MulCtCt},
    {"mul_ct_pt", &quill::LatencyTable::MulCtPt},
    {"relin_ct", &quill::LatencyTable::RelinCt},
    {"rot_ct", &quill::LatencyTable::RotCt},
    {"sub_ct_ct", &quill::LatencyTable::SubCtCt},
    {"sub_ct_pt", &quill::LatencyTable::SubCtPt},
};

} // namespace

std::string driver::renderArtifact(const CompileResult &R,
                                   const CompileOptions &Opts) {
  std::string J = "{\n";
  J += "  \"format\": " + json::quote(ArtifactFormatName) + ",\n";
  J += "  \"version\": " + std::to_string(ArtifactVersion) + ",\n";
  J += "  \"kernel\": " + json::quote(R.KernelName) + ",\n";
  J += "  \"fingerprint\": " +
       json::quote(compileFingerprint(R.KernelName, Opts)) + ",\n";
  J += "  \"options_key\": " + json::quote(Opts.canonicalKey()) + ",\n";
  J += "  \"plain_modulus\": " + std::to_string(Opts.Synthesis.PlainModulus) +
       ",\n";
  J += "  \"execution_seed\": " + std::to_string(Opts.ExecutionSeed) + ",\n";
  J += "  \"from_synthesis\": " +
       std::string(R.FromSynthesis ? "true" : "false") + ",\n";
  J += "  \"program\": " + json::quote(quill::printProgram(R.Program)) + ",\n";
  J += "  \"params\": {\"poly_degree\": " + std::to_string(R.Params.PolyDegree) +
       ", \"coeff_modulus_bits\": " +
       std::to_string(R.Params.coeffModulusBits()) +
       ", \"mult_depth\": " + std::to_string(R.MultDepth) + "},\n";
  J += "  \"latency\": {";
  const char *Sep = "";
  for (const LatencyField &F : LatencyFields) {
    J += std::string(Sep) + "\"" + F.Key +
         "\": " + num(Opts.Synthesis.Latency.*F.Member, "%.17g");
    Sep = ", ";
  }
  J += "},\n";
  J += "  \"latency_us\": " + num(R.LatencyEstimateUs) + ",\n";
  J += "  \"cost\": " + num(R.Cost) + ",\n";
  J += "  \"seal_code\": " + json::quote(R.SealCode) + ",\n";
  J += "  \"notes\": [";
  for (size_t I = 0; I < R.Notes.size(); ++I) {
    if (I)
      J += ", ";
    J += json::quote(R.Notes[I].toString());
  }
  J += "]\n}\n";
  return J;
}

Status driver::saveArtifact(const CompileResult &R, const CompileOptions &Opts,
                            const std::string &Path) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out)
    return Status::error("artifact", "cannot open '" + Path + "' for writing");
  Out << renderArtifact(R, Opts);
  Out.flush();
  if (!Out)
    return Status::error("artifact", "write to '" + Path + "' failed");
  return Status::success();
}

Status driver::saveArtifact(const CompiledKernel &K, const std::string &Path) {
  return saveArtifact(K.result(), K.options(), Path);
}

Expected<ArtifactData> driver::parseArtifact(const std::string &JsonText) {
  json::Value Doc;
  std::string JsonError;
  if (!json::parse(JsonText, Doc, JsonError))
    return Status::error("artifact", "malformed artifact: " + JsonError);
  if (!Doc.isObject())
    return Status::error("artifact", "artifact must be a JSON object");

  const json::Value *Format = Doc.find("format");
  if (!Format || !Format->isString() ||
      Format->asString() != ArtifactFormatName)
    return Status::error("artifact",
                         "not a Porcupine kernel artifact (missing format "
                         "marker '" +
                             std::string(ArtifactFormatName) + "')");
  uint64_t Version = 0;
  if (!readUint(Doc, "version", Version))
    return Status::error("artifact", "artifact has no version");
  if (Version < 1 || Version > static_cast<uint64_t>(ArtifactVersion))
    return Status::error("artifact",
                         "unsupported artifact version " +
                             std::to_string(Version) + " (this build reads "
                             "versions 1.." +
                             std::to_string(ArtifactVersion) + ")");

  ArtifactData A;
  A.Version = static_cast<int>(Version);

  const json::Value *Kernel = Doc.find("kernel");
  if (!Kernel || !Kernel->isString() || Kernel->asString().empty())
    return Status::error("artifact", "artifact has no kernel name");
  A.Kernel = Kernel->asString();

  const json::Value *Prog = Doc.find("program");
  if (!Prog || !Prog->isString())
    return Status::error("artifact", "artifact has no program text");
  std::string ParseError;
  if (!quill::parseProgram(Prog->asString(), A.Program, ParseError))
    return Status::error("artifact",
                         "embedded program is invalid: " + ParseError);

  if (const json::Value *V = Doc.find("fingerprint"))
    if (V->isString())
      A.Fingerprint = V->asString();
  if (const json::Value *V = Doc.find("options_key"))
    if (V->isString())
      A.OptionsKey = V->asString();
  if (!readUint(Doc, "plain_modulus", A.PlainModulus) || A.PlainModulus < 2)
    return Status::error("artifact", "artifact has no valid plain_modulus");
  if (Doc.find("execution_seed") &&
      !readUint(Doc, "execution_seed", A.ExecutionSeed))
    return Status::error("artifact", "invalid execution_seed");
  if (const json::Value *V = Doc.find("from_synthesis"))
    A.FromSynthesis = V->asBool();

  // Artifacts written before the table was recorded price with the
  // defaults.
  if (const json::Value *Table = Doc.find("latency")) {
    if (!Table->isObject())
      return Status::error("artifact", "latency must be an object");
    for (const LatencyField &F : LatencyFields)
      if (const json::Value *V = Table->find(F.Key)) {
        if (!V->isNumber() || !(V->asNumber() >= 0.0))
          return Status::error("artifact", std::string("invalid latency ") +
                                               F.Key);
        A.Latency.*F.Member = V->asNumber();
      }
  }
  if (const json::Value *V = Doc.find("seal_code"))
    if (V->isString())
      A.SealCode = V->asString();
  if (const json::Value *V = Doc.find("notes"))
    if (V->isArray())
      for (const json::Value &Note : V->elements())
        if (Note.isString())
          A.Notes.push_back(Note.asString());
  return A;
}

Expected<ArtifactData> driver::loadArtifactFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return Status::error("artifact", "cannot open '" + Path + "'");
  std::stringstream Buf;
  Buf << In.rdbuf();
  if (In.bad())
    return Status::error("artifact", "read of '" + Path + "' failed");
  auto A = parseArtifact(Buf.str());
  if (!A) {
    Status S = Status::error("artifact", "while loading '" + Path + "'");
    S.merge(A.status());
    return S;
  }
  return A;
}
