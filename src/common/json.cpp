#include "common/json.h"

#include "common/fs_util.h"
#include "common/hash.h"
#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

namespace mystique {

bool
Json::as_bool() const
{
    if (const bool* b = std::get_if<bool>(&value_))
        return *b;
    MYST_THROW(ParseError, "json: expected bool");
}

int64_t
Json::as_int() const
{
    if (const int64_t* i = std::get_if<int64_t>(&value_))
        return *i;
    // [-2^63, 2^63) is exactly the range a double converts to int64 in;
    // outside it the conversion is undefined behaviour.
    if (const double* d = std::get_if<double>(&value_);
        d != nullptr && *d == std::floor(*d) && *d >= -0x1p63 && *d < 0x1p63)
        return static_cast<int64_t>(*d);
    MYST_THROW(ParseError, "json: expected integer");
}

int
Json::as_int32() const
{
    const int64_t v = as_int();
    if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max())
        MYST_THROW(ParseError, "json: integer " << v << " does not fit in an int");
    return static_cast<int>(v);
}

double
Json::as_double() const
{
    if (const int64_t* i = std::get_if<int64_t>(&value_))
        return static_cast<double>(*i);
    if (const double* d = std::get_if<double>(&value_))
        return *d;
    MYST_THROW(ParseError, "json: expected number");
}

uint64_t
Json::as_u64() const
{
    const std::optional<uint64_t> v = parse_u64(as_string());
    if (!v.has_value())
        MYST_THROW(ParseError, "json: expected a decimal uint64, got '" << as_string() << "'");
    return *v;
}

const std::string&
Json::as_string() const
{
    if (const std::string* str = std::get_if<std::string>(&value_))
        return *str;
    MYST_THROW(ParseError, "json: expected string");
}

const Json::Array&
Json::as_array() const
{
    if (const Array* arr = std::get_if<Array>(&value_))
        return *arr;
    MYST_THROW(ParseError, "json: expected array");
}

Json::Array&
Json::as_array()
{
    if (Array* arr = std::get_if<Array>(&value_))
        return *arr;
    MYST_THROW(ParseError, "json: expected array");
}

const Json::Object&
Json::as_object() const
{
    if (const Object* obj = std::get_if<Object>(&value_))
        return *obj;
    MYST_THROW(ParseError, "json: expected object");
}

Json::Object&
Json::as_object()
{
    if (Object* obj = std::get_if<Object>(&value_))
        return *obj;
    MYST_THROW(ParseError, "json: expected object");
}

void
Json::push_back(Json v)
{
    as_array().push_back(std::move(v));
}

const Json*
Json::find(std::string_view key) const
{
    const Object* obj = std::get_if<Object>(&value_);
    if (obj == nullptr)
        return nullptr;
    for (const auto& [k, v] : *obj) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

const Json&
Json::at(std::string_view key) const
{
    const Json* v = find(key);
    if (v == nullptr)
        MYST_THROW(ParseError, "json: missing key '" << key << "'");
    return *v;
}

void
Json::set(std::string_view key, Json v)
{
    auto& members = as_object();
    for (auto& [k, existing] : members) {
        if (k == key) {
            existing = std::move(v);
            return;
        }
    }
    members.emplace_back(std::string(key), std::move(v));
}

namespace {

void
escape_string(const std::string& s, std::string& out)
{
    out += '"';
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
}

void
format_double(double d, std::string& out)
{
    if (std::isnan(d) || std::isinf(d)) {
        // JSON has no NaN/Inf; emit null, as browsers' chrome://tracing does.
        out += "null";
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    // Trim to shortest round-trip-safe form: try progressively fewer digits.
    for (int prec = 1; prec < 17; ++prec) {
        char shorter[32];
        std::snprintf(shorter, sizeof(shorter), "%.*g", prec, d);
        double back = 0.0;
        std::sscanf(shorter, "%lf", &back);
        if (back == d) {
            out += shorter;
            return;
        }
    }
    out += buf;
}

} // namespace

void
Json::dump_to(std::string& out, int indent, int depth) const
{
    const bool pretty = indent >= 0;
    auto newline = [&](int d) {
        if (pretty) {
            out += '\n';
            out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(d), ' ');
        }
    };
    switch (type()) {
      case Type::kNull:
        out += "null";
        break;
      case Type::kBool:
        out += std::get<bool>(value_) ? "true" : "false";
        break;
      case Type::kInt:
        out += std::to_string(std::get<int64_t>(value_));
        break;
      case Type::kDouble:
        format_double(std::get<double>(value_), out);
        break;
      case Type::kString:
        escape_string(std::get<std::string>(value_), out);
        break;
      case Type::kArray: {
        const Array& arr = std::get<Array>(value_);
        out += '[';
        for (std::size_t i = 0; i < arr.size(); ++i) {
            if (i > 0)
                out += pretty ? "," : ",";
            newline(depth + 1);
            arr[i].dump_to(out, indent, depth + 1);
        }
        if (!arr.empty())
            newline(depth);
        out += ']';
        break;
      }
      case Type::kObject: {
        const Object& obj = std::get<Object>(value_);
        out += '{';
        for (std::size_t i = 0; i < obj.size(); ++i) {
            if (i > 0)
                out += ",";
            newline(depth + 1);
            escape_string(obj[i].first, out);
            out += pretty ? ": " : ":";
            obj[i].second.dump_to(out, indent, depth + 1);
        }
        if (!obj.empty())
            newline(depth);
        out += '}';
        break;
      }
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dump_to(out, indent, 0);
    return out;
}

std::string
Json::dump_sealed(int indent) const
{
    if (as_object().empty())
        MYST_THROW(MystiqueError, "json: cannot seal an empty object");
    // Reopen the object: drop its '}' and, indented, the line break before
    // it; then close it with the text of {"seal": ...} after that '{'.
    std::string out = dump(indent);
    out.resize(out.size() - (indent >= 0 ? 2 : 1));
    const Json seal(Object{{"seal", from_u64(hash_bytes(out))}});
    return std::move(out) + ',' + seal.dump(indent).substr(1);
}

namespace {

/// Recursive-descent JSON parser over a string_view.
class Parser {
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    Json parse_document()
    {
        skip_ws();
        Json v = parse_value();
        skip_ws();
        if (pos_ != text_.size())
            fail("trailing characters after document");
        return v;
    }

  private:
    [[noreturn]] void fail(const std::string& msg) const
    {
        // Compute 1-based line/column for the error position.
        std::size_t line = 1, col = 1;
        for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        MYST_THROW(ParseError, "json at " << line << ":" << col << ": " << msg);
    }

    void skip_ws()
    {
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
                ++pos_;
            else
                break;
        }
    }

    char peek() const
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    char next()
    {
        char c = peek();
        ++pos_;
        return c;
    }

    void expect(char c)
    {
        if (next() != c)
            fail(std::string("expected '") + c + "'");
    }

    bool consume_literal(std::string_view lit)
    {
        if (text_.substr(pos_, lit.size()) == lit) {
            pos_ += lit.size();
            return true;
        }
        return false;
    }

    Json parse_value()
    {
        switch (peek()) {
          case '{': return parse_object();
          case '[': return parse_array();
          case '"': return Json(parse_string());
          case 't':
            if (consume_literal("true"))
                return Json(true);
            fail("invalid literal");
          case 'f':
            if (consume_literal("false"))
                return Json(false);
            fail("invalid literal");
          case 'n':
            if (consume_literal("null"))
                return Json();
            fail("invalid literal");
          default: return parse_number();
        }
    }

    /// Containers recurse through parse_value(); a hostile or corrupt
    /// document ("[[[[…", a mangled store entry) must exhaust this budget
    /// and throw ParseError — which the persistence layers quarantine —
    /// instead of overflowing the C++ stack and killing the process.  Real
    /// traces and plans nest a handful of levels; 256 is two orders of
    /// margin.
    static constexpr int kMaxDepth = 256;

    struct DepthScope {
        explicit DepthScope(Parser& p) : parser(p)
        {
            if (++parser.depth_ > kMaxDepth)
                parser.fail("nesting depth exceeds " + std::to_string(kMaxDepth));
        }
        ~DepthScope() { --parser.depth_; }
        Parser& parser;
    };

    // Members collect in a local container (one move into the Json at the
    // end) — going through Json::as_object()/as_array() per element costs a
    // type check and an extra indirection on the hottest parser loop.

    Json parse_object()
    {
        const DepthScope depth(*this);
        expect('{');
        Json::Object members;
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return Json(std::move(members));
        }
        members.reserve(6); // typical trace/plan object width; skips 3 regrowths
        while (true) {
            skip_ws();
            std::string key = parse_string();
            skip_ws();
            expect(':');
            skip_ws();
            members.emplace_back(std::move(key), parse_value());
            skip_ws();
            char c = next();
            if (c == '}')
                return Json(std::move(members));
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
    }

    Json parse_array()
    {
        const DepthScope depth(*this);
        expect('[');
        Json::Array elements;
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return Json(std::move(elements));
        }
        while (true) {
            skip_ws();
            elements.push_back(parse_value());
            skip_ws();
            char c = next();
            if (c == ']')
                return Json(std::move(elements));
            if (c != ',')
                fail("expected ',' or ']' in array");
        }
    }

    std::string parse_string()
    {
        if (peek() != '"')
            fail("expected string");
        ++pos_;
        std::string out;
        // Bulk path: most strings contain no escapes, so scan to the next
        // quote/backslash and append the whole span at once instead of
        // byte-at-a-time — string-heavy documents (traces, plans with IR
        // text) parse several times faster this way.
        while (true) {
            const std::size_t span_start = pos_;
            while (pos_ < text_.size()) {
                const char s = text_[pos_];
                if (s == '"' || s == '\\')
                    break;
                ++pos_;
            }
            if (pos_ > span_start)
                out.append(text_.data() + span_start, pos_ - span_start);
            char c = next();
            if (c == '"')
                return out;
            if (c == '\\') {
                char esc = next();
                switch (esc) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'u': {
                    unsigned code = parse_hex4();
                    // Surrogate pairs → single code point.
                    if (code >= 0xD800 && code <= 0xDBFF) {
                        if (next() != '\\' || next() != 'u')
                            fail("expected low surrogate");
                        unsigned lo = parse_hex4();
                        if (lo < 0xDC00 || lo > 0xDFFF)
                            fail("invalid low surrogate");
                        code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                    }
                    append_utf8(code, out);
                    break;
                  }
                  default: fail("invalid escape");
                }
            }
            // No third case: the bulk scan above stops only at '"' or '\\',
            // and next() fails at end of input.
        }
    }

    unsigned parse_hex4()
    {
        unsigned v = 0;
        for (int i = 0; i < 4; ++i) {
            char c = next();
            v <<= 4;
            if (c >= '0' && c <= '9')
                v += static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                v += static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                v += static_cast<unsigned>(c - 'A' + 10);
            else
                fail("invalid \\u escape");
        }
        return v;
    }

    static void append_utf8(unsigned code, std::string& out)
    {
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else if (code < 0x10000) {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (code >> 18));
            out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        }
    }

    Json parse_number()
    {
        std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
                text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        std::string_view tok = text_.substr(start, pos_ - start);
        if (tok.empty() || tok == "-")
            fail("invalid number");
        const bool integral =
            tok.find('.') == std::string_view::npos &&
            tok.find('e') == std::string_view::npos && tok.find('E') == std::string_view::npos;
        if (integral) {
            int64_t iv = 0;
            auto [ptr, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), iv);
            if (ec == std::errc() && ptr == tok.data() + tok.size())
                return Json(iv);
            // fall through to double for out-of-range integers
        }
        double dv = 0.0;
        auto [ptr, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), dv);
        if (ec != std::errc() || ptr != tok.data() + tok.size())
            fail("invalid number");
        return Json(dv);
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0; ///< current container nesting; capped at kMaxDepth
};

} // namespace

Json
Json::parse(std::string_view text)
{
    return Parser(text).parse_document();
}

Json
Json::parse_sealed(std::string_view text)
{
    Json doc = parse(text);
    if (!doc.is_object())
        MYST_THROW(ParseError, "sealed json: not an object");
    Object& members = doc.as_object();
    if (!doc.contains("seal"))
        MYST_THROW(ParseError, "sealed json: missing seal");
    if (members.back().first != "seal")
        MYST_THROW(ParseError, "sealed json: the seal is not the last member");
    const uint64_t seal = members.back().second.as_u64();
    // No byte after the comma that introduces the seal can be a comma: the
    // member's key decodes to "seal" and its value to decimal digits.
    const std::size_t comma = text.rfind(',');
    if (comma == std::string_view::npos || hash_bytes(text.substr(0, comma)) != seal)
        MYST_THROW(ParseError, "sealed json: content does not match its seal");
    members.pop_back();
    return doc;
}

Json
Json::parse_file(const std::string& path)
{
    return parse(read_file(path));
}

void
Json::dump_file(const std::string& path, int indent) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        MYST_THROW(MystiqueError, "cannot write file '" + path + "'");
    out << dump(indent);
    if (!out)
        MYST_THROW(MystiqueError, "error writing file '" + path + "'");
}

bool
Json::operator==(const Json& other) const
{
    if (type() != other.type()) {
        // int/double comparisons compare numerically
        if (is_number() && other.is_number())
            return as_double() == other.as_double();
        return false;
    }
    // Same alternative: variant's == compares the held values.
    return value_ == other.value_;
}

} // namespace mystique
