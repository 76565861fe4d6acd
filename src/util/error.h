// Structured error model for every failure the library reports across
// a process boundary: each seamap::Error carries a machine-readable
// category (stable code string), a human message and an optional
// context (file path, line number, ...). The CLI maps categories to
// stable exit codes and `{"error": ...}` JSON objects; a future
// seamapd maps them to wire-level error responses. Ingestion and I/O
// paths (taskgraph/serialization, util/checkpoint) throw these instead
// of ad-hoc std::runtime_error/invalid_argument strings.
//
// Error derives from std::runtime_error, so existing catch-all
// handlers keep working; what() renders "message (context)".
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace seamap {

/// Stable failure categories. Extend at the end; the code strings are
/// a wire contract (CLI JSON, future seamapd responses) and must never
/// change meaning.
enum class ErrorCategory {
    usage,               ///< malformed invocation (bad flag, missing argument)
    invalid_argument,    ///< semantically invalid value or configuration
    parse,               ///< malformed input document (task graphs, ...)
    io,                  ///< file system failure (open, read, write, rename)
    checkpoint_corrupt,  ///< checkpoint failed its checksum/structure checks
    checkpoint_mismatch, ///< checkpoint belongs to a different problem/version
    canceled,            ///< operation stopped by cancellation
    internal,            ///< invariant violation; a bug, not a user error
};

/// The stable machine-readable code for a category ("parse_error",
/// "checkpoint_corrupt", ...).
std::string_view error_code(ErrorCategory category);

/// One structured failure.
class Error : public std::runtime_error {
public:
    Error(ErrorCategory category, std::string message);
    /// `context` names what the error is about (a path, "line 12", ...).
    Error(ErrorCategory category, std::string message, std::string context);

    ErrorCategory category() const { return category_; }
    std::string_view code() const { return error_code(category()); }
    /// The message without the context suffix what() appends.
    const std::string& message() const { return message_; }
    /// Optional context; empty when none was given.
    const std::string& context() const { return context_; }

private:
    ErrorCategory category_;
    std::string message_;
    std::string context_;
};

} // namespace seamap
