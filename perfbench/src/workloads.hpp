#pragma once

#include "common.hpp"

namespace perfbench {

struct options;

void run_mix(const options &o, report &r);
void run_sssp(const options &o, report &r);
void run_des(const options &o, report &r);

} // namespace perfbench
