#include "mod/meter.h"

int main() { return fx::Meter(2).oracle() == 2 ? 0 : 1; }
