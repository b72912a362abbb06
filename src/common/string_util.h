#pragma once

/// @file
/// String helpers shared by the schema parser, IR parser and formatters.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mystique {

/// Splits on a single-character delimiter; empty tokens are preserved.
std::vector<std::string> split(std::string_view text, char delim);

/// Splits on @p delim but only at nesting depth 0 with respect to
/// (), [] and <> — used to split schema argument lists where defaults may
/// themselves contain commas, e.g. "int[2] stride=[1, 1]".
std::vector<std::string> split_top_level(std::string_view text, char delim);

/// Removes leading/trailing ASCII whitespace.
std::string_view trim(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);

/// A complete base-10 unsigned 64-bit number — no sign, whitespace, trailing
/// characters or overflow — else nullopt.
std::optional<uint64_t> parse_u64(std::string_view text);

/// Joins tokens with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// printf-style formatting into a std::string.
std::string strprintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Fixed-width (16-digit, zero-padded) lowercase hex of a 64-bit value —
/// the fingerprint spelling used in plan-store file names.
std::string hex64(uint64_t value);

/// Formats microseconds as a human-readable "12.34 ms" style string.
std::string format_us(double microseconds);

} // namespace mystique
