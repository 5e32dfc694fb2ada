#include "common/string_util.h"

#include <cctype>
#include <cstdio>

namespace lusail {

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string EscapeLiteral(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

size_t EscapedLiteralSize(std::string_view s) {
  size_t size = s.size();
  for (char c : s) {
    size += c == '\\' || c == '"' || c == '\n' || c == '\r' || c == '\t';
  }
  return size;
}

std::string UnescapeLiteral(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out += s[i];
      continue;
    }
    ++i;
    switch (s[i]) {
      case '\\':
        out += '\\';
        break;
      case '"':
        out += '"';
        break;
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      case 't':
        out += '\t';
        break;
      default:
        out += '\\';
        out += s[i];
    }
  }
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool LooksLikeAskQuery(const std::string& text) {
  size_t i = 0;
  while (i < text.size()) {
    // Skip whitespace and '#' comments.
    if (std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
      continue;
    }
    if (text[i] == '#') {
      while (i < text.size() && text[i] != '\n') ++i;
      continue;
    }
    // Read the next keyword.
    size_t start = i;
    while (i < text.size() &&
           std::isalpha(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (i == start) return false;  // Starts with '{', '<', digits, ...
    std::string word = text.substr(start, i - start);
    if (EqualsIgnoreCase(word, "ASK")) return true;
    if (EqualsIgnoreCase(word, "PREFIX") || EqualsIgnoreCase(word, "BASE")) {
      // Skip the declaration through its closing '>' of the IRI.
      while (i < text.size() && text[i] != '>') ++i;
      if (i < text.size()) ++i;
      continue;
    }
    return false;  // SELECT, CONSTRUCT, ...
  }
  return false;
}

std::string HumanBytes(double bytes) {
  static const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  int unit = 0;
  while (bytes >= 1024.0 && unit < 4) {
    bytes /= 1024.0;
    ++unit;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f %s", bytes, kUnits[unit]);
  return buf;
}

}  // namespace lusail
