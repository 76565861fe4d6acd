// A checkpoint journal of raw string records, for tests that read a
// journal's records or forge one through the real writer.
#pragma once

#include "util/checkpoint.h"

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace seamap {

class Journal final : public Checkpointer {
public:
    Journal(std::string path, std::string kind, std::uint64_t state_hash)
        : Checkpointer(std::move(path), std::move(kind), state_hash) {}

    std::optional<std::vector<std::string>> load() { return load_records(); }

    void append(std::string record) {
        std::lock_guard lock(mutex_);
        append_locked(std::move(record));
    }
};

} // namespace seamap
