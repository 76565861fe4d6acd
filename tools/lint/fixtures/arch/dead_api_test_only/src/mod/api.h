#pragma once

namespace fx {

/// Only tests/ call this: the rule fires.
int only_tested();

/// Called from api.cpp, so it stays.
int doubled(int x);

} // namespace fx
