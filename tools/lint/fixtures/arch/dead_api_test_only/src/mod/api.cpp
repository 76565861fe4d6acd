#include "mod/api.h"

namespace fx {

int only_tested() { return doubled(1); }

int doubled(int x) { return x * 2; }

} // namespace fx
