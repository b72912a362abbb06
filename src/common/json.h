#pragma once

/// @file
/// Self-contained JSON value type with parser and serializer.
///
/// Execution traces, profiler traces and replay plans are all JSON on disk
/// (matching the PyTorch ET / chrome-trace formats the paper relies on), and
/// the library is dependency-free, so we carry our own implementation.
///
/// Design notes:
///  - Integers and doubles are stored distinctly so 64-bit IDs round-trip
///    exactly (ET node and tensor IDs are integers).
///  - Object member order is preserved (insertion order), which keeps
///    serialized traces diffable.

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/error.h"

namespace mystique {

/// A JSON document node: null, bool, integer, double, string, array or object.
class Json {
  public:
    /// Discriminator for the stored value.
    enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

    using Array = std::vector<Json>;
    /// Insertion-ordered key/value list.
    using Object = std::vector<std::pair<std::string, Json>>;

    /// Constructs null.
    Json() = default;
    Json(std::nullptr_t) : Json() {}
    Json(bool b) : value_(std::in_place_type<bool>, b) {}
    Json(int v) : value_(std::in_place_type<int64_t>, v) {}
    Json(int64_t v) : value_(std::in_place_type<int64_t>, v) {}
    Json(uint64_t v) : value_(std::in_place_type<int64_t>, static_cast<int64_t>(v)) {}
    Json(double v) : value_(std::in_place_type<double>, v) {}
    Json(const char* s) : value_(std::in_place_type<std::string>, s) {}
    Json(std::string s) : value_(std::in_place_type<std::string>, std::move(s)) {}
    Json(Array a) : value_(std::in_place_type<Array>, std::move(a)) {}
    Json(Object o) : value_(std::in_place_type<Object>, std::move(o)) {}

    /// Creates an empty array.
    static Json array() { return Json(Array{}); }
    /// Creates an empty object.
    static Json object() { return Json(Object{}); }

    Type type() const { return static_cast<Type>(value_.index()); }
    bool is_null() const { return type() == Type::kNull; }
    bool is_bool() const { return type() == Type::kBool; }
    bool is_int() const { return type() == Type::kInt; }
    bool is_double() const { return type() == Type::kDouble; }
    /// True for either numeric representation.
    bool is_number() const { return is_int() || is_double(); }
    bool is_string() const { return type() == Type::kString; }
    bool is_array() const { return type() == Type::kArray; }
    bool is_object() const { return type() == Type::kObject; }

    /// Typed accessors; throw ParseError when the type does not match.
    bool as_bool() const;
    /// An integer, or a double with an integral value inside int64's range.
    int64_t as_int() const;
    /// as_int() narrowed to int; throws ParseError outside int's range.
    int as_int32() const;
    /// Numeric value as double (accepts int or double).
    double as_double() const;
    const std::string& as_string() const;
    const Array& as_array() const;
    Array& as_array();
    const Object& as_object() const;
    Object& as_object();

    /// Appends to an array (value must be an array).
    void push_back(Json v);

    /// Object member lookup; returns nullptr when absent or not an object.
    const Json* find(std::string_view key) const;
    /// Object member access; throws ParseError when the key is absent.
    /// Readers take what their writer always emits with at(key).as_*() and
    /// use find() only for members the writer may omit, so a missing or
    /// mistyped member is a ParseError, never a default.
    const Json& at(std::string_view key) const;
    /// Inserts or overwrites an object member (value must be an object).
    void set(std::string_view key, Json v);
    /// True when this is an object containing @p key.
    bool contains(std::string_view key) const { return find(key) != nullptr; }

    /// The one encoding of a 64-bit hash, fingerprint or bit pattern: a
    /// decimal string.  Json integers are signed, so a value with the high
    /// bit set would come back sign-mangled as a number.
    static Json from_u64(uint64_t v) { return Json(std::to_string(v)); }
    /// Reads a from_u64() value; throws ParseError unless this is a string
    /// of decimal digits that fits in 64 bits.
    uint64_t as_u64() const;

    /// Serializes; indent < 0 emits compact one-line JSON.
    std::string dump(int indent = -1) const;

    /// Serializes this non-empty object with one more member, "seal", last:
    /// from_u64 of hash_bytes (common/hash.h) over every byte before the
    /// comma that introduces it.  The output is what dump(indent) gives for
    /// the object with that member appended.
    std::string dump_sealed(int indent = -1) const;

    /// Parses a complete JSON document; throws ParseError with position info.
    static Json parse(std::string_view text);

    /// Parses a dump_sealed() document, checks its seal and returns the
    /// object without it.  Throws ParseError when the text does not parse,
    /// is not an object, does not end in a decimal "seal" member, or its
    /// bytes before that member do not hash to it.
    static Json parse_sealed(std::string_view text);

    /// Reads and parses a file; throws ParseError when unreadable/invalid.
    static Json parse_file(const std::string& path);

    /// Serializes to a file; throws MystiqueError when the file cannot be written.
    void dump_file(const std::string& path, int indent = -1) const;

    bool operator==(const Json& other) const;
    bool operator!=(const Json& other) const { return !(*this == other); }

  private:
    void dump_to(std::string& out, int indent, int depth) const;

    /// One alternative per Type, in Type's order.  Holding only the live
    /// alternative keeps a node small: parsing moves, allocates and frees
    /// less per value.
    std::variant<std::monostate, bool, int64_t, double, std::string, Array, Object> value_;
};

} // namespace mystique
