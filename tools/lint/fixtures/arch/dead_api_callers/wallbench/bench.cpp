#include "mod/meter.h"

int main() { return fx::Meter::from_wallbench(0); }
