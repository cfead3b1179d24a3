//===- support/Json.h - Minimal JSON reading and escaping -------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON implementation in the tree. Everything that emits JSON
/// (driver::toJson, kernel artifacts, porcc bench, porcc opt --json)
/// must escape strings through json::escape so quotes, backslashes, and
/// control characters in kernel names, diagnostics, or generated code can
/// never corrupt a record; everything that reads JSON (artifact loading)
/// parses through json::parse into a small immutable Value tree.
///
/// The dialect is plain RFC-8259 JSON. The parser is strict about structure
/// (no trailing commas, no comments, one top-level value) but tolerant of
/// whitespace, and it never throws: malformed input returns false with a
/// position-tagged error message.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_SUPPORT_JSON_H
#define PORCUPINE_SUPPORT_JSON_H

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace porcupine {
namespace json {

/// Escapes \p S for inclusion inside a JSON string literal: quote,
/// backslash, \n, \t, \r get two-character escapes; remaining control
/// characters become \u00xx. Everything else (including UTF-8 bytes)
/// passes through unchanged.
std::string escape(const std::string &S);

/// escape() wrapped in double quotes — a complete JSON string literal.
std::string quote(const std::string &S);

/// An immutable parsed JSON value. Object member order is preserved.
class Value {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Value() = default; ///< Null.

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  /// Value accessors return \p Default when the kind does not match, so
  /// callers can probe optional fields without branching on kind() first.
  bool asBool(bool Default = false) const {
    return isBool() ? Flag : Default;
  }
  double asNumber(double Default = 0.0) const {
    return isNumber() ? Num : Default;
  }
  /// "" unless String.
  const std::string &asString() const;
  /// The number's source text (e.g. "18446744073709551615"), preserved so
  /// integer consumers can re-parse exactly — asNumber() goes through
  /// double and loses precision beyond 2^53. "" unless Number.
  const std::string &numberText() const;

  /// Array elements ([] unless Array).
  const std::vector<Value> &elements() const { return Elems; }
  /// Object members in source order ([] unless Object).
  const std::vector<std::pair<std::string, Value>> &members() const {
    return Members;
  }
  /// First object member named \p Key, or nullptr (also for non-objects).
  const Value *find(const std::string &Key) const;

private:
  friend class Parser;

  Kind K = Kind::Null;
  bool Flag = false;
  double Num = 0.0;
  std::string Str; ///< String content, or a number's source text.
  std::vector<Value> Elems;
  std::vector<std::pair<std::string, Value>> Members;
};

/// Parses \p Text as one JSON document into \p Out. On failure returns
/// false and sets \p Error to a byte-offset-tagged message; \p Out is left
/// null. Never throws.
bool parse(const std::string &Text, Value &Out, std::string &Error);

} // namespace json
} // namespace porcupine

#endif // PORCUPINE_SUPPORT_JSON_H
