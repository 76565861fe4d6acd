// Deterministic random number generation for all stochastic components
// (simulated annealing, TGFF graph synthesis, SEU fault injection).
//
// Every consumer takes an explicit 64-bit seed so experiment tables are
// reproducible bit-for-bit. `Rng::fork_at` derives statistically
// independent child streams (e.g. one per fault-injection trial)
// without the children sharing state with the parent and without
// depending on the parent's draw position. The engine twists each
// state word only when it is next read, so a short-lived stream (a
// campaign trial reads ~122 of 312 words) pays only for its draws,
// and `fork_block` seeds several children side by side, so their
// seeding chains overlap instead of queueing behind one multiply each.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace seamap {

/// Seeded pseudo-random source with std::mt19937_64's output sequence
/// (seeded with splitmix64(seed)) and the distribution helpers this
/// project needs.
class Rng {
public:
    /// Seeds are mixed through splitmix64 so that small consecutive
    /// seeds (0, 1, 2, ...) still produce decorrelated streams.
    explicit Rng(std::uint64_t seed);

    /// Next raw 64-bit draw.
    std::uint64_t next_u64();

    /// Uniform double in [0, 1).
    double uniform();

    /// Uniform double in [lo, hi). Requires lo <= hi.
    double uniform(double lo, double hi);

    /// Uniform integer in the closed interval [lo, hi]. Requires lo <= hi.
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

    /// Exponentially distributed draw with the given mean (> 0).
    double exponential(double mean);

    /// Poisson draw with the given mean: PoissonSampler(mean) drawn once.
    std::uint64_t poisson(double mean);

    /// Standard normal draw.
    double normal();

    /// Order-invariant fork: the child stream is a pure function of
    /// (seed(), child_id) — splitmix64 over seed ⊕ mixed child id — so
    /// it does not depend on the parent's draw position or on how many
    /// forks happened before, and the call is `const`. Children with
    /// different ids (or from parents with different seeds) are
    /// statistically independent. This is the fork the sharded
    /// fault-injection campaign uses: any shard schedule reproduces
    /// bit-identical per-trial streams.
    Rng fork_at(std::uint64_t child_id) const;

    /// out[j] becomes exactly fork_at(first_child + j), child ids
    /// wrapping mod 2^64, with the children's seeding run interleaved.
    /// out must not hold this Rng.
    void fork_block(std::uint64_t first_child, std::span<Rng> out) const;

    /// The (pre-mix) seed this stream was created with.
    std::uint64_t seed() const { return seed_; }

private:
    // std::mt19937_64's seeding of every out[j] from out[j].seed_, up to
    // four chains per loop; Rng(seed), fork_at and fork_block all use it.
    static void seed_engines(std::span<Rng> out);

    std::uint64_t seed_;
    // std::mt19937_64's state; next_u64 twists word next_ as it reads it.
    std::array<std::uint64_t, 312> mt_;
    std::size_t next_ = 0;
};

/// Poisson draws at one mean, its constants computed once. Below 2^31 a
/// draw is the one a fresh std::poisson_distribution<long long> takes
/// under libstdc++ 12, draw for draw, but thread-safe (lgamma_r, not
/// lgamma and its global signgam); from 2^31 it is poisson_from_normal
/// over a normal draw, exact within the distribution's sampling error.
class PoissonSampler {
public:
    /// Requires a finite mean >= 0; throws std::invalid_argument.
    explicit PoissonSampler(double mean);

    /// One draw. No state carries over from one draw to the next.
    std::uint64_t operator()(Rng& rng) const;

    /// Tabulates lgamma(k + 1) for the k = x + m that the Devroye-path
    /// samplers (12 <= mean < 2^31) most often test, x in
    /// [max(-m, -h), min(d, h)] with h = min(ceil(3 sqrt(m)) + 2, 4096),
    /// and points each at its slice. The windows are merged into one
    /// table, k ascending, each entry lgamma_r at the argument a draw
    /// would pass it, so every draw is unchanged. A window that would
    /// take the table past 2^20 entries stays untabled. The samplers
    /// read the returned storage: keep it alive, in place and unchanged
    /// while they draw.
    [[nodiscard]] static std::vector<double> share_log_factorials(
        std::span<PoissonSampler> samplers);

private:
    // lgamma(x + m + 1) for Devroye's whole-number x: the shared table
    // inside [table_lo_, table_hi_], lgamma_r outside it.
    double log_factorial(double x) const;

    double mean_;
    // libstdc++'s param_type constants: lm_thr_ is exp(-mean) below 12;
    // from 12 to 2^31 it is log(mean), and Devroye's method uses them all.
    double lm_thr_ = 0.0, m_ = 0.0, lfm_ = 0.0, sm_ = 0.0, d_ = 0.0;
    double scx_ = 0.0, one_cx_ = 0.0, c2b_ = 0.0, cb_ = 0.0;
    // The tabled x window (empty until share_log_factorials) and the
    // entry for x = table_lo_.
    double table_lo_ = 1.0, table_hi_ = 0.0;
    const double* log_factorials_ = nullptr;
};

/// splitmix64 mixing function; used for seed derivation and exposed for
/// tests and for hashing small tuples into seeds.
std::uint64_t splitmix64(std::uint64_t x);

/// The rounded-normal mapping Rng::poisson uses above its 2^31
/// cutover: mean + sqrt(mean) * z, clamped at zero and rounded to the
/// nearest integer. Pure function, exposed so the clamp and rounding
/// behaviour are unit-testable without steering the engine onto a
/// 6-sigma draw.
std::uint64_t poisson_from_normal(double mean, double standard_normal);

} // namespace seamap
