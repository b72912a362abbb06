#include "common/string_util.h"

#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace mystique {

std::vector<std::string>
split(std::string_view text, char delim)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= text.size(); ++i) {
        if (i == text.size() || text[i] == delim) {
            out.emplace_back(text.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

std::vector<std::string>
split_top_level(std::string_view text, char delim)
{
    std::vector<std::string> out;
    int depth = 0;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= text.size(); ++i) {
        if (i == text.size()) {
            out.emplace_back(text.substr(start, i - start));
            break;
        }
        char c = text[i];
        if (c == '(' || c == '[' || c == '<') {
            ++depth;
        } else if (c == ')' || c == ']' || c == '>') {
            --depth;
        } else if (c == delim && depth == 0) {
            out.emplace_back(text.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

std::string_view
trim(std::string_view text)
{
    std::size_t b = 0;
    std::size_t e = text.size();
    while (b < e && (text[b] == ' ' || text[b] == '\t' || text[b] == '\n' || text[b] == '\r'))
        ++b;
    while (e > b &&
           (text[e - 1] == ' ' || text[e - 1] == '\t' || text[e - 1] == '\n' ||
            text[e - 1] == '\r'))
        --e;
    return text.substr(b, e - b);
}

bool
starts_with(std::string_view text, std::string_view prefix)
{
    return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool
ends_with(std::string_view text, std::string_view suffix)
{
    return text.size() >= suffix.size() && text.substr(text.size() - suffix.size()) == suffix;
}

std::optional<uint64_t>
parse_u64(std::string_view text)
{
    uint64_t v = 0;
    const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec != std::errc() || ptr != text.data() + text.size())
        return std::nullopt;
    return v;
}

std::string
join(const std::vector<std::string>& parts, std::string_view sep)
{
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i > 0)
            out += sep;
        out += parts[i];
    }
    return out;
}

std::string
strprintf(const char* fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::string out;
    if (needed > 0) {
        out.resize(static_cast<std::size_t>(needed));
        std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
    }
    va_end(args_copy);
    return out;
}

std::string
format_us(double microseconds)
{
    if (microseconds >= 1e6)
        return strprintf("%.2f s", microseconds / 1e6);
    if (microseconds >= 1e3)
        return strprintf("%.2f ms", microseconds / 1e3);
    return strprintf("%.2f us", microseconds);
}

std::string
hex64(uint64_t value)
{
    return strprintf("%016llx", static_cast<unsigned long long>(value));
}

} // namespace mystique
