#pragma once

namespace fx {

int helper();

inline int user() { return helper(); }

} // namespace fx
