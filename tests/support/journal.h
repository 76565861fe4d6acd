// A checkpoint journal of raw string records, for tests that read a
// journal's records or forge one through the real writer, and the
// removal of a test's journal.
#pragma once

#include "util/checkpoint.h"

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

namespace seamap {

class Journal final : public Checkpointer {
public:
    using Checkpointer::Checkpointer;

    std::optional<std::vector<std::string>> load() { return load_records(); }
};

/// Remove the journal at `path`; a missing file is not an error.
inline void remove_checkpoint(const std::string& path) { std::remove(path.c_str()); }

} // namespace seamap
