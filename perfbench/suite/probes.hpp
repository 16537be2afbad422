// Per-layer metrics of the traced pass: counters read off the traced
// repetition's runs plus outside-in microloads ("probes") on single
// layers. Every probe takes its shapes, fan-in, N, byte count and loss
// settings from the workload it serves. A layer a workload does not load
// reports 0.
#pragma once

#include <vector>

#include "bench.hpp"

namespace pb {

std::vector<RunOutcome> ps_bsp_layers(const Ctx& ctx, const RepResult& rep,
                                      LayerValues& out);
std::vector<RunOutcome> ring_layers(const Ctx& ctx, const RepResult& rep,
                                    LayerValues& out);
std::vector<RunOutcome> functional_layers(const Ctx& ctx,
                                          const RepResult& rep,
                                          LayerValues& out);
std::vector<RunOutcome> campaign_layers(const Ctx& ctx, const RepResult& rep,
                                        LayerValues& out);

}  // namespace pb
