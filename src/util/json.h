// Minimal JSON document builder + writer for machine-readable tool
// output (`seamap_cli ... --json`). Deliberately write-only: the
// project never parses JSON, so there is no parser to keep honest.
//
// Output is deterministic byte-for-byte: objects preserve insertion
// order, doubles are rendered with std::to_chars shortest round-trip
// formatting, and integers stay integers (no 1e+06 for counters). That
// determinism is what lets `optimize --json` be golden-tested and
// compared bit-identically across thread counts.
//
// The `to_json` overloads for the result types (DsePoint, DseResult,
// DesignMetrics) live with the public API in api/json.h — they need the
// core types, which sit above this utility layer.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace seamap {

/// One JSON value: null, bool, integer, double, string, array or
/// (insertion-ordered) object.
class JsonValue {
public:
    using Array = std::vector<JsonValue>;
    using Member = std::pair<std::string, JsonValue>;
    using Object = std::vector<Member>;

    JsonValue() : value_(nullptr) {}
    JsonValue(std::nullptr_t) : value_(nullptr) {}
    JsonValue(bool value) : value_(value) {}
    JsonValue(int value) : value_(static_cast<std::int64_t>(value)) {}
    JsonValue(std::int64_t value) : value_(value) {}
    JsonValue(std::uint64_t value) : value_(value) {}
    JsonValue(double value) : value_(value) {}
    JsonValue(const char* value) : value_(std::string(value)) {}
    JsonValue(std::string_view value) : value_(std::string(value)) {}
    JsonValue(std::string value) : value_(std::move(value)) {}

    static JsonValue object() { return JsonValue(Object{}); }
    static JsonValue array() { return JsonValue(Array{}); }

    /// Object member access: returns the member named `key`, inserting a
    /// null member at the end if absent. Throws std::logic_error when
    /// called on a non-object.
    JsonValue& operator[](std::string_view key);

    /// Array append. Throws std::logic_error when called on a non-array.
    void push_back(JsonValue element);

    std::size_t size() const;

    /// Render. `indent` < 0 gives the compact single-line form;
    /// `indent` >= 0 pretty-prints with that many spaces per level.
    std::string dump(int indent = -1) const;

private:
    explicit JsonValue(Array value) : value_(std::move(value)) {}
    explicit JsonValue(Object value) : value_(std::move(value)) {}

    void write(std::string& out, int indent, int depth) const;

    std::variant<std::nullptr_t, bool, std::int64_t, std::uint64_t, double, std::string,
                 Array, Object>
        value_;
};

/// JSON string escaping (quotes, backslash, control characters); the
/// result excludes the surrounding quotes.
std::string json_escape(std::string_view text);

/// Shortest round-trip rendering of a double ("0.075", "1e+300", "42").
/// Non-finite values render as "null" — JSON has no inf/nan.
std::string json_number(double value);

} // namespace seamap
