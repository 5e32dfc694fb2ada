#ifndef LUSAIL_COMMON_STRING_UTIL_H_
#define LUSAIL_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace lusail {

/// Returns true if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Returns true if `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Strips leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// Escapes a string for embedding inside an N-Triples / SPARQL literal
/// (backslash, quote, newline, carriage return, tab).
std::string EscapeLiteral(std::string_view s);

/// EscapeLiteral(s).size(), without building the string.
size_t EscapedLiteralSize(std::string_view s);

/// Reverses EscapeLiteral. Unknown escapes are passed through verbatim.
std::string UnescapeLiteral(std::string_view s);

/// Case-insensitive ASCII equality, used for SPARQL keywords.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// True when `text` is an ASK query, tolerating leading whitespace,
/// comments, and PREFIX/BASE declarations (matching is case-insensitive,
/// like SPARQL keywords). Lives here — not in the federation layer —
/// because both the federator's request accounting and the server-side
/// ASK-verdict cache need it.
bool LooksLikeAskQuery(const std::string& text);

/// Formats a byte count as a human-readable string, e.g. "3.2 MiB".
std::string HumanBytes(double bytes);

}  // namespace lusail

#endif  // LUSAIL_COMMON_STRING_UTIL_H_
