#include "util/rng.h"

#include "util/float_compare.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>
#include <utility>

namespace seamap {

namespace {

// Rng as the uniform random bit generator the std distributions take.
struct Urbg {
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type operator()() { return rng.next_u64(); }
    Rng& rng;
};

// libstdc++'s generate_canonical<double, 53> over a 64-bit engine: one
// draw divided by 2^64, kept below 1.
double canonical(Rng& rng) {
    const double u = static_cast<double>(rng.next_u64()) / 0x1.0p64;
    return u >= 1.0 ? std::nextafter(1.0, 0.0) : u;
}

// lgamma without lgamma's write to the process-global signgam, which
// is a data race whenever campaign shards draw on several threads.
double log_gamma(double x) {
    int sign = 0;
    return ::lgamma_r(x, &sign);
}

// std::normal_distribution<double>'s Marsaglia polar draw, which keeps
// the pair's second value for the next call.
struct PolarNormal {
    bool saved_available = false;
    double saved = 0.0;

    double operator()(Rng& rng) {
        if (saved_available) {
            saved_available = false;
            return saved;
        }
        double x = 0.0;
        double y = 0.0;
        double r2 = 0.0;
        do {
            x = 2.0 * canonical(rng) - 1.0;
            y = 2.0 * canonical(rng) - 1.0;
            r2 = x * x + y * y;
        } while (r2 > 1.0 || exactly_zero(r2));
        const double mult = std::sqrt(-2 * std::log(r2) / r2);
        saved = x * mult;
        saved_available = true;
        return y * mult;
    }
};

constexpr double k_normal_cutover = static_cast<double>(1LL << 31);

// fork_at's child seed, a pure function of (parent seed, child_id):
// splitmix64 over the seed, xored with the Weyl-stepped mixed child id.
// The parent engine is untouched, so fork_at(k) is the same stream no
// matter how many draws or forks came before — the order-invariance
// the sharded campaign merge discipline relies on. The extra Weyl
// constant keeps fork_at(0) distinct from the parent's own stream.
std::uint64_t child_seed(std::uint64_t parent_seed, std::uint64_t child_id) {
    return splitmix64(parent_seed) ^ splitmix64(child_id * 0xd1342543de82ef95ULL + 1);
}

} // namespace

std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

Rng::Rng(std::uint64_t seed) : seed_(seed) { seed_engines({this, 1}); }

void Rng::seed_engines(std::span<Rng> out) {
    // std::mt19937_64's seeding: word 0 is splitmix64(seed), word i is
    // f * (w ^ (w >> 62)) + i over word i-1. One chain is a serial
    // multiply per word; four independent ones overlap their latencies
    // (more lanes were no faster).
    auto seed = [&]<std::size_t lanes>(std::span<Rng, lanes> group) {
        std::array<std::uint64_t, lanes> w{};
        for (std::size_t j = 0; j < lanes; ++j) {
            w[j] = splitmix64(group[j].seed_);
            group[j].next_ = 0;
        }
        for (std::size_t i = 0; i < std::tuple_size_v<decltype(mt_)>; ++i) {
            for (std::size_t j = 0; j < lanes; ++j) {
                group[j].mt_[i] = w[j];
                w[j] = 6364136223846793005ULL * (w[j] ^ (w[j] >> 62)) + i + 1;
            }
        }
    };
    for (std::size_t first = 0; first < out.size(); first += 4) {
        const std::span<Rng> rest = out.subspan(first);
        switch (rest.size()) {
        case 1: seed(rest.first<1>()); break;
        case 2: seed(rest.first<2>()); break;
        case 3: seed(rest.first<3>()); break;
        default: seed(rest.first<4>());
        }
    }
}

std::uint64_t Rng::next_u64() {
    // std::mt19937_64 twists all n words in order once they are used up;
    // word k's new value reads old words k+1 and k+m for k < n-m and
    // rewritten ones otherwise (k+1 wraps to 0, k+m to k+m-n). Rewriting
    // word k just before it is read sees exactly those values.
    constexpr std::size_t n = 312;
    constexpr std::size_t m = 156;
    constexpr std::uint64_t upper = ~std::uint64_t{0} << 31;
    const std::size_t k = next_;
    next_ = k + 1 < n ? k + 1 : 0;
    const std::uint64_t y = (mt_[k] & upper) | (mt_[next_] & ~upper);
    // Branch-free: y's low bit is a coin flip a branch would mispredict.
    std::uint64_t z = mt_[k < n - m ? k + m : k - (n - m)] ^ (y >> 1) ^
                      ((0 - (y & 1)) & 0xb5026f5aa96619e9ULL);
    mt_[k] = z;
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
}

double Rng::uniform() {
    // 53 random mantissa bits -> uniform in [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
    if (lo > hi) throw std::invalid_argument("Rng::uniform: lo > hi");
    return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
    if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
    Urbg urbg{*this};
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(urbg);
}

double Rng::exponential(double mean) {
    if (mean <= 0.0) throw std::invalid_argument("Rng::exponential: mean must be > 0");
    Urbg urbg{*this};
    return std::exponential_distribution<double>(1.0 / mean)(urbg);
}

std::uint64_t Rng::poisson(double mean) { return PoissonSampler(mean)(*this); }

// libstdc++ 12's std::poisson_distribution<long long> (bits/random.tcc),
// with the same floating-point operations in the same order, the same
// engine draws and log_gamma for lgamma; the constructor is param_type's
// _M_initialize. Below mean 12 a draw multiplies uniforms; from 12 it is
// Devroye's rejection method (Non-Uniform Random Variate Generation,
// 1986, X.3.3-3.4 with the errata). From 2^31, where that method is slow
// and delicate, a normal approximation is indistinguishable.
PoissonSampler::PoissonSampler(double mean) : mean_(mean) {
    if (mean < 0.0 || !std::isfinite(mean))
        throw std::invalid_argument("PoissonSampler: mean must be finite and >= 0");
    if (mean < 12 || mean >= k_normal_cutover) {
        lm_thr_ = std::exp(-mean);
        return;
    }
    m_ = std::floor(mean);
    lm_thr_ = std::log(mean);
    lfm_ = log_gamma(m_ + 1);
    sm_ = std::sqrt(m_);
    const auto pi_4 = static_cast<double>(0.7853981633974483096156608458198757L);
    const double dx = std::sqrt(2 * m_ * std::log(32 * m_ / pi_4));
    d_ = std::round(std::max<double>(6.0, std::min(m_, dx)));
    const double cx = 2 * m_ + d_;
    scx_ = std::sqrt(cx / 2);
    one_cx_ = 1 / cx;
    c2b_ = std::sqrt(pi_4 * cx) * std::exp(one_cx_);
    cb_ = 2 * cx * std::exp(-d_ * one_cx_ * (1 + d_ / 2)) / d_;
}

std::uint64_t PoissonSampler::operator()(Rng& rng) const {
    if (exactly_zero(mean_)) return 0;
    if (mean_ < 12) {
        long long x = 0;
        double prod = 1.0;
        do {
            prod *= canonical(rng);
            x += 1;
        } while (prod > lm_thr_);
        return static_cast<std::uint64_t>(x - 1);
    }
    if (mean_ >= k_normal_cutover) return poisson_from_normal(mean_, rng.normal());
    const double naf = (1 - std::numeric_limits<double>::epsilon()) / 2;
    const double thr = static_cast<double>(std::numeric_limits<long long>::max()) + naf;
    const auto spi_2 = static_cast<double>(1.2533141373155002512078826424055226L); // √(π/2)
    const double c1 = sm_ * spi_2;
    const double c2 = c2b_ + c1;
    const double c3 = c2 + 1;
    const double c4 = c3 + 1;
    const auto r178 = static_cast<double>(0.0128205128205128205128205128205128L); // 1/78
    const auto e178 = static_cast<double>(1.0129030479320018583185514777512983L); // e^(1/78)
    const double c5 = c4 + e178;
    const double c = cb_ + c5;
    const double two_cx = 2 * (2 * m_ + d_);

    PolarNormal normal; // a fresh distribution's: nothing saved from earlier draws
    double x = 0.0;
    bool reject = true;
    do {
        const double u = c * canonical(rng);
        const double e = -std::log(1.0 - canonical(rng));
        double w = 0.0;
        if (u <= c1) {
            const double n = normal(rng);
            const double y = -std::abs(n) * sm_ - 1;
            x = std::floor(y);
            w = -n * n / 2;
            if (x < -m_) continue;
        } else if (u <= c2) {
            const double n = normal(rng);
            const double y = 1 + std::abs(n) * scx_;
            x = std::ceil(y);
            w = y * (2 - y) * one_cx_;
            if (x > d_) continue;
        } else if (u <= c3) {
            x = -1;
        } else if (u <= c4) {
            x = 0;
        } else if (u <= c5) {
            x = 1;
            w = r178;
        } else {
            const double v = -std::log(1.0 - canonical(rng));
            const double y = d_ + v * two_cx / d_;
            x = std::ceil(y);
            w = -d_ * one_cx_ * (1 + y / 2);
        }
        reject = w - e - x * lm_thr_ > lfm_ - log_factorial(x);
        reject |= x + m_ >= thr;
    } while (reject);
    return static_cast<std::uint64_t>(static_cast<long long>(x + m_ + naf));
}

double PoissonSampler::log_factorial(double x) const {
    if (table_lo_ <= x && x <= table_hi_)
        return log_factorials_[static_cast<std::size_t>(x - table_lo_)];
    return log_gamma(x + m_ + 1);
}

std::vector<double> PoissonSampler::share_log_factorials(std::span<PoissonSampler> samplers) {
    // Most of a draw's x fall within 3 standard deviations (sqrt(m)) of
    // 0; the cap bounds a sampler's slice at 8193 entries, and the table
    // stops at 2^20 entries (8 MiB): later windows stay untabled.
    constexpr double max_half_width = 4096;
    constexpr std::size_t max_entries = std::size_t{1} << 20;
    struct Window {
        std::int64_t lo, hi; // k = x + m, inclusive
        PoissonSampler* sampler;
    };
    std::vector<Window> windows;
    for (PoissonSampler& s : samplers) {
        if (s.mean_ < 12 || s.mean_ >= k_normal_cutover) continue;
        const double h = std::min(std::ceil(3 * s.sm_) + 2, max_half_width);
        windows.push_back({static_cast<std::int64_t>(s.m_ + std::max(-s.m_, -h)),
                           static_cast<std::int64_t>(s.m_ + std::min(s.d_, h)), &s});
    }
    std::sort(windows.begin(), windows.end(),
              [](const Window& a, const Window& b) { return a.lo < b.lo; });
    // One run of consecutive k per group of overlapping windows; a
    // window's slice starts at its k's offset in its run.
    std::vector<double> table;
    std::vector<std::pair<PoissonSampler*, std::size_t>> slices;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = -1;
    std::size_t run_start = 0;
    for (const Window& window : windows) {
        const bool new_run = table.empty() || window.lo > run_hi + 1;
        const std::int64_t first_new = new_run ? window.lo : run_hi + 1;
        if (table.size() + static_cast<std::size_t>(std::max<std::int64_t>(
                               0, window.hi - first_new + 1)) > max_entries)
            continue;
        if (new_run) {
            run_lo = window.lo;
            run_start = table.size();
        }
        for (std::int64_t k = first_new; k <= window.hi; ++k)
            table.push_back(log_gamma(static_cast<double>(k) + 1));
        run_hi = std::max(run_hi, window.hi);
        PoissonSampler& s = *window.sampler;
        s.table_lo_ = static_cast<double>(window.lo) - s.m_;
        s.table_hi_ = static_cast<double>(window.hi) - s.m_;
        slices.emplace_back(&s, run_start + static_cast<std::size_t>(window.lo - run_lo));
    }
    for (const auto& [sampler, offset] : slices) sampler->log_factorials_ = table.data() + offset;
    return table;
}

std::uint64_t poisson_from_normal(double mean, double standard_normal) {
    const double draw = mean + std::sqrt(mean) * standard_normal;
    if (draw <= 0.0) return 0;
    return static_cast<std::uint64_t>(std::llround(draw));
}

double Rng::normal() {
    Urbg urbg{*this};
    return std::normal_distribution<double>(0.0, 1.0)(urbg);
}

Rng Rng::fork_at(std::uint64_t child_id) const { return Rng(child_seed(seed_, child_id)); }

void Rng::fork_block(std::uint64_t first_child, std::span<Rng> out) const {
    for (std::size_t j = 0; j < out.size(); ++j) out[j].seed_ = child_seed(seed_, first_child + j);
    seed_engines(out);
}

} // namespace seamap
