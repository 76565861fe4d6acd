#include "taskgraph/register_file.h"

#include <bit>
#include <stdexcept>

namespace seamap {

RegisterId RegisterFile::add_register(std::string name, std::uint64_t bits) {
    if (bits == 0) throw std::invalid_argument("RegisterFile: register '" + name + "' must have positive width");
    registers_.push_back(RegisterInfo{std::move(name), bits});
    total_bits_ += bits;
    return static_cast<RegisterId>(registers_.size() - 1);
}

std::uint64_t RegisterFile::bits(RegisterId id) const { return info(id).bits; }

const std::string& RegisterFile::name(RegisterId id) const { return info(id).name; }

const RegisterInfo& RegisterFile::info(RegisterId id) const {
    if (id >= registers_.size()) throw std::out_of_range("RegisterFile: bad register id");
    return registers_[id];
}

RegisterSet::RegisterSet(std::size_t universe_size)
    : universe_size_(universe_size), blocks_((universe_size + 63) / 64, 0) {}

void RegisterSet::check_id(RegisterId id) const {
    if (id >= universe_size_) throw std::out_of_range("RegisterSet: register id outside universe");
}

void RegisterSet::set(RegisterId id) {
    check_id(id);
    blocks_[id / 64] |= (1ULL << (id % 64));
}

void RegisterSet::reset(RegisterId id) {
    check_id(id);
    blocks_[id / 64] &= ~(1ULL << (id % 64));
}

void RegisterSet::clear() {
    for (auto& block : blocks_) block = 0;
}

std::size_t RegisterSet::count() const {
    std::size_t total = 0;
    for (auto block : blocks_) total += static_cast<std::size_t>(std::popcount(block));
    return total;
}

bool RegisterSet::empty() const {
    for (auto block : blocks_)
        if (block != 0) return false;
    return true;
}

RegisterSet& RegisterSet::operator|=(const RegisterSet& other) {
    if (universe_size_ != other.universe_size_)
        throw std::invalid_argument("RegisterSet: universe size mismatch in |=");
    for (std::size_t i = 0; i < blocks_.size(); ++i) blocks_[i] |= other.blocks_[i];
    return *this;
}

RegisterSet& RegisterSet::operator&=(const RegisterSet& other) {
    if (universe_size_ != other.universe_size_)
        throw std::invalid_argument("RegisterSet: universe size mismatch in &=");
    for (std::size_t i = 0; i < blocks_.size(); ++i) blocks_[i] &= other.blocks_[i];
    return *this;
}

std::uint64_t RegisterSet::bits_in(const RegisterFile& file) const {
    if (file.size() != universe_size_)
        throw std::invalid_argument("RegisterSet: register file does not match universe");
    std::uint64_t total = 0;
    for_each([&](RegisterId id) { total += file.bits(id); });
    return total;
}

} // namespace seamap
