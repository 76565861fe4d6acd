#include "mod/api.h"

namespace fx {

int helper() { return 1; }

} // namespace fx

int main() { return fx::user(); }
