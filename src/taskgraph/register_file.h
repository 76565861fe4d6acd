// Register resources of an application. The paper's reliability model
// (eqs. 4 and 8) is driven by which *register sets* tasks touch and how
// those sets overlap: registers shared by tasks co-located on one core
// are counted once, while splitting sharers across cores duplicates the
// shared state on every core that needs it.
//
// A RegisterFile names every architectural register bank the
// application uses and records its width in bits; tasks refer to
// registers by RegisterId. RegisterSet is a dynamic bitset over those
// ids with the weighted-size query (total bits) that eq. (8) needs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace seamap {

using RegisterId = std::uint32_t;

/// One named register bank with a width in bits.
struct RegisterInfo {
    std::string name;
    std::uint64_t bits = 0;
};

/// The application's register inventory. Append-only; ids are dense
/// [0, size()).
class RegisterFile {
public:
    /// Add a register bank; returns its id. Width must be positive.
    RegisterId add_register(std::string name, std::uint64_t bits);

    std::size_t size() const { return registers_.size(); }
    bool empty() const { return registers_.empty(); }
    std::uint64_t bits(RegisterId id) const;
    const std::string& name(RegisterId id) const;
    const RegisterInfo& info(RegisterId id) const;
    /// Sum of all register widths.
    std::uint64_t total_bits() const { return total_bits_; }

private:
    std::vector<RegisterInfo> registers_;
    std::uint64_t total_bits_ = 0;
};

/// Dynamic bitset over RegisterId with set algebra and weighted size.
/// Sized to a fixed universe (the register file) at construction so
/// that union/intersection are branch-free block loops.
class RegisterSet {
public:
    RegisterSet() = default;
    /// Empty set over a universe of `universe_size` registers.
    explicit RegisterSet(std::size_t universe_size);

    void set(RegisterId id);
    void reset(RegisterId id);
    void clear();

    /// Number of registers in the set.
    std::size_t count() const;
    bool empty() const;

    RegisterSet& operator|=(const RegisterSet& other);
    RegisterSet& operator&=(const RegisterSet& other);
    friend RegisterSet operator|(RegisterSet a, const RegisterSet& b) { return a |= b; }
    friend RegisterSet operator&(RegisterSet a, const RegisterSet& b) { return a &= b; }
    bool operator==(const RegisterSet& other) const = default;

    /// Total width in bits of the registers in this set (the |...| of
    /// eq. 8); weights come from the register file.
    std::uint64_t bits_in(const RegisterFile& file) const;

    /// Raw backing words, LSB-first: register `id` is bit `id % 64` of
    /// word `id / 64`. For flat word-array consumers (the SoA union
    /// scratch in core/eval_context.h); word_count() may be smaller
    /// than (universe_size + 63) / 64 for default-constructed sets.
    const std::uint64_t* words() const { return blocks_.data(); }
    std::size_t word_count() const { return blocks_.size(); }

    /// Enumerate members in ascending id order.
    template <typename Fn>
    void for_each(Fn&& fn) const {
        for (std::size_t b = 0; b < blocks_.size(); ++b) {
            std::uint64_t word = blocks_[b];
            while (word != 0) {
                const unsigned bit = static_cast<unsigned>(__builtin_ctzll(word));
                fn(static_cast<RegisterId>(b * 64 + bit));
                word &= word - 1;
            }
        }
    }

private:
    void check_id(RegisterId id) const;

    std::size_t universe_size_ = 0;
    std::vector<std::uint64_t> blocks_;
};

} // namespace seamap
