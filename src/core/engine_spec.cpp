#include "core/engine_spec.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace bdsm {

namespace {

bool IsNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' ||
         c == '-';
}

bool IsValueChar(char c) {
  return IsNameChar(c) || c == '.' || c == '+';
}

std::string Lower(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    out.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

[[noreturn]] void Fail(const std::string& text, size_t pos,
                       const std::string& why) {
  throw EngineSpecError("bad engine spec \"" + text + "\" at position " +
                        std::to_string(pos) + ": " + why);
}

/// Recursive-descent parser over the lower-cased spec text.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  EngineSpec ParseTop() {
    SkipWs();
    EngineSpec spec = ParseSpec();
    SkipWs();
    if (pos_ != text_.size()) {
      Fail(text_, pos_,
           "trailing garbage \"" + text_.substr(pos_) + "\" after spec");
    }
    return spec;
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  std::string Token(bool (*accept)(char), const char* what) {
    size_t start = pos_;
    while (pos_ < text_.size() && accept(text_[pos_])) ++pos_;
    if (pos_ == start) {
      Fail(text_, pos_,
           std::string("expected ") + what +
               (pos_ < text_.size()
                    ? " before '" + std::string(1, text_[pos_]) + "'"
                    : " before end of spec"));
    }
    return text_.substr(start, pos_ - start);
  }

  EngineSpec ParseSpec() {
    EngineSpec spec;
    spec.name = Token(IsNameChar, "an engine name");
    SkipWs();
    if (Peek() == '(') ParseArgList(&spec);
    return spec;
  }

  /// `'(' arg (',' arg)* ')'` — the opening paren is at pos_.
  void ParseArgList(EngineSpec* spec) {
    ++pos_;  // '('
    SkipWs();
    if (Peek() == ')') {
      Fail(text_, pos_, "empty argument list (drop the parentheses)");
    }
    for (;;) {
      ParseArg(spec);
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        SkipWs();
        continue;
      }
      if (Peek() == ')') {
        ++pos_;
        return;
      }
      Fail(text_, pos_, "expected ',' or ')' in argument list");
    }
  }

  /// One argument: a nested spec, or `key=value`.  Both start with a
  /// name token, so parse it first and disambiguate on the next char.
  void ParseArg(EngineSpec* spec) {
    std::string head = Token(IsNameChar, "an argument");
    SkipWs();
    if (Peek() == '=') {
      ++pos_;
      SkipWs();
      std::string value = Token(IsValueChar, "an option value");
      spec->options.emplace_back(std::move(head), std::move(value));
      return;
    }
    EngineSpec child;
    child.name = std::move(head);
    if (Peek() == '(') ParseArgList(&child);
    spec->children.push_back(std::move(child));
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

EngineSpec EngineSpec::Parse(const std::string& text) {
  return Parser(Lower(text)).ParseTop();
}

std::string EngineSpec::ToString() const {
  std::string out = name;
  if (children.empty() && options.empty()) return out;
  out += "(";
  bool first = true;
  for (const EngineSpec& child : children) {
    if (!first) out += ", ";
    out += child.ToString();
    first = false;
  }
  for (const auto& [key, value] : options) {
    if (!first) out += ", ";
    out += key + "=" + value;
    first = false;
  }
  out += ")";
  return out;
}

const std::string* EngineSpec::FindOption(const std::string& key) const {
  const std::string* found = nullptr;
  for (const auto& [k, v] : options) {
    if (k == key) found = &v;
  }
  return found;
}

bool ParseSizeValue(const std::string& text, size_t* out) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  *out = static_cast<size_t>(v);
  return true;
}

bool ParseDoubleValue(const std::string& text, double* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(text.c_str(), &end);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  *out = v;
  return true;
}

bool ParseBoolValue(const std::string& text, bool* out) {
  if (text == "true" || text == "on" || text == "yes" || text == "1") {
    *out = true;
    return true;
  }
  if (text == "false" || text == "off" || text == "no" || text == "0") {
    *out = false;
    return true;
  }
  return false;
}

}  // namespace bdsm
