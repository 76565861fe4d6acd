#include "mod/api.h"

int main() { return fx::only_tested() == 2 ? 0 : 1; }
