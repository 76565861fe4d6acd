#include "reliability/ser_model.h"

#include <cmath>
#include <stdexcept>

namespace seamap {

SerModel::SerModel(SerParams params) : params_(params) {
    // The checks reject NaN and inf too: either makes every rate
    // non-finite.
    if (!std::isfinite(params_.ser_ref_per_bit_cycle) || params_.ser_ref_per_bit_cycle < 0.0)
        throw std::invalid_argument("SerModel: reference SER must be finite and >= 0");
    if (!(std::isfinite(params_.ref_vdd) && std::isfinite(params_.ref_f_mhz) &&
          params_.ref_vdd > 0.0 && params_.ref_f_mhz > 0.0))
        throw std::invalid_argument("SerModel: reference point must be finite and positive");
    if (!std::isfinite(params_.voltage_exponent_k) || params_.voltage_exponent_k < 0.0)
        throw std::invalid_argument("SerModel: voltage exponent must be finite and >= 0");
}

double SerModel::ser_per_bit_second(double vdd) const {
    if (!(vdd > 0.0)) throw std::invalid_argument("SerModel: vdd must be > 0");
    const double ref_rate_per_second = params_.ser_ref_per_bit_cycle * params_.ref_f_mhz * 1e6;
    return ref_rate_per_second * std::exp(params_.voltage_exponent_k * (params_.ref_vdd - vdd));
}

} // namespace seamap
