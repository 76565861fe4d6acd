#include "util/rng.h"

#include "util/float_compare.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace seamap {

std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

Rng::Rng(std::uint64_t seed) : seed_(seed), engine_(splitmix64(seed)) {}

std::uint64_t Rng::next_u64() { return engine_(); }

double Rng::uniform() {
    // 53 random mantissa bits -> uniform in [0, 1).
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
    if (lo > hi) throw std::invalid_argument("Rng::uniform: lo > hi");
    return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
    if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
    std::uniform_int_distribution<std::int64_t> dist(lo, hi);
    return dist(engine_);
}

double Rng::exponential(double mean) {
    if (mean <= 0.0) throw std::invalid_argument("Rng::exponential: mean must be > 0");
    std::exponential_distribution<double> dist(1.0 / mean);
    return dist(engine_);
}

std::uint64_t Rng::poisson(double mean) {
    if (mean < 0.0 || !std::isfinite(mean))
        throw std::invalid_argument("Rng::poisson: mean must be finite and >= 0");
    if (exactly_zero(mean)) return 0;
    // std::poisson_distribution<long long> is exact for any practical
    // mean, but becomes slow and numerically delicate at extreme means;
    // there a normal approximation is indistinguishable.
    constexpr double normal_cutover = static_cast<double>(1LL << 31);
    if (mean < normal_cutover) {
        std::poisson_distribution<long long> dist(mean);
        const long long draw = dist(engine_);
        return static_cast<std::uint64_t>(draw < 0 ? 0 : draw);
    }
    return poisson_from_normal(mean, normal());
}

std::uint64_t poisson_from_normal(double mean, double standard_normal) {
    const double draw = mean + std::sqrt(mean) * standard_normal;
    if (draw <= 0.0) return 0;
    return static_cast<std::uint64_t>(std::llround(draw));
}

double Rng::normal() {
    std::normal_distribution<double> dist(0.0, 1.0);
    return dist(engine_);
}

Rng Rng::fork_at(std::uint64_t child_id) const {
    // Pure function of (seed_, child_id): splitmix64 over the seed,
    // xored with the Weyl-stepped mixed child id. The parent engine is
    // untouched, so fork_at(k) is the same stream no matter how many
    // draws or forks came before — the order-invariance the sharded
    // campaign merge discipline relies on. The extra Weyl constant
    // keeps fork_at(0) distinct from the parent's own stream.
    return Rng(splitmix64(seed_) ^ splitmix64(child_id * 0xd1342543de82ef95ULL + 1));
}

} // namespace seamap
