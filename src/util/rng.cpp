#include "util/rng.h"

#include "util/float_compare.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace seamap {

namespace {

// libstdc++'s generate_canonical<double, 53> over std::mt19937_64: one
// 64-bit draw divided by 2^64, kept below 1.
double canonical(std::mt19937_64& engine) {
    const double u = static_cast<double>(engine()) / 0x1.0p64;
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

    double operator()(std::mt19937_64& engine) {
        if (saved_available) {
            saved_available = false;
            return saved;
        }
        double x = 0.0;
        double y = 0.0;
        double r2 = 0.0;
        do {
            x = 2.0 * canonical(engine) - 1.0;
            y = 2.0 * canonical(engine) - 1.0;
            r2 = x * x + y * y;
        } while (r2 > 1.0 || exactly_zero(r2));
        const double mult = std::sqrt(-2 * std::log(r2) / r2);
        saved = x * mult;
        saved_available = true;
        return y * mult;
    }
};

// One draw of a fresh std::poisson_distribution<long long>(mean) as
// libstdc++ 12 takes it (bits/random.tcc): the same floating-point
// operations in the same order and the same engine draws, with
// log_gamma for lgamma. Below mean 12 it multiplies uniforms until the
// product falls to exp(-mean); from 12 on it is Devroye's rejection
// method (Non-Uniform Random Variate Generation, 1986, X.3.3-3.4 with
// the errata), whose constants are those of param_type's
// _M_initialize. The long double literals are libstdc++'s, rounded to
// double as there.
long long poisson_draw(std::mt19937_64& engine, double mean) {
    if (mean < 12) {
        const double threshold = std::exp(-mean);
        long long x = 0;
        double prod = 1.0;
        do {
            prod *= canonical(engine);
            x += 1;
        } while (prod > threshold);
        return x - 1;
    }
    const double m = std::floor(mean);
    const double lm_thr = std::log(mean);
    const double lfm = log_gamma(m + 1);
    const double sm = std::sqrt(m);
    const auto pi_4 = static_cast<double>(0.7853981633974483096156608458198757L);
    const double dx = std::sqrt(2 * m * std::log(32 * m / pi_4));
    const double d = std::round(std::max<double>(6.0, std::min(m, dx)));
    const double cx = 2 * m + d;
    const double scx = std::sqrt(cx / 2);
    const double one_cx = 1 / cx;
    const double c2b = std::sqrt(pi_4 * cx) * std::exp(one_cx);
    const double cb = 2 * cx * std::exp(-d * one_cx * (1 + d / 2)) / d;

    const double naf = (1 - std::numeric_limits<double>::epsilon()) / 2;
    const double thr = static_cast<double>(std::numeric_limits<long long>::max()) + naf;
    // sqrt(pi / 2)
    const auto spi_2 = static_cast<double>(1.2533141373155002512078826424055226L);
    const double c1 = sm * spi_2;
    const double c2 = c2b + c1;
    const double c3 = c2 + 1;
    const double c4 = c3 + 1;
    const auto r178 = static_cast<double>(0.0128205128205128205128205128205128L); // 1/78
    const auto e178 = static_cast<double>(1.0129030479320018583185514777512983L); // e^(1/78)
    const double c5 = c4 + e178;
    const double c = cb + c5;
    const double two_cx = 2 * (2 * m + d);

    PolarNormal normal;
    double x = 0.0;
    bool reject = true;
    do {
        const double u = c * canonical(engine);
        const double e = -std::log(1.0 - canonical(engine));
        double w = 0.0;
        if (u <= c1) {
            const double n = normal(engine);
            const double y = -std::abs(n) * sm - 1;
            x = std::floor(y);
            w = -n * n / 2;
            if (x < -m) continue;
        } else if (u <= c2) {
            const double n = normal(engine);
            const double y = 1 + std::abs(n) * scx;
            x = std::ceil(y);
            w = y * (2 - y) * one_cx;
            if (x > d) continue;
        } else if (u <= c3) {
            x = -1;
        } else if (u <= c4) {
            x = 0;
        } else if (u <= c5) {
            x = 1;
            w = r178;
        } else {
            const double v = -std::log(1.0 - canonical(engine));
            const double y = d + v * two_cx / d;
            x = std::ceil(y);
            w = -d * one_cx * (1 + y / 2);
        }
        reject = w - e - x * lm_thr > lfm - log_gamma(x + m + 1);
        reject |= x + m >= thr;
    } while (reject);
    return static_cast<long long>(x + m + naf);
}

} // namespace

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
    // The libstdc++ draw (poisson_draw) is exact for any practical
    // mean, but becomes slow and numerically delicate at extreme means;
    // there a normal approximation is indistinguishable.
    constexpr double normal_cutover = static_cast<double>(1LL << 31);
    if (mean < normal_cutover) {
        const long long draw = poisson_draw(engine_, mean);
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
