// The problem-input part of the snapshot content hashes
// (core/dse_checkpoint.h dse_state_hash, sim/campaign_checkpoint.h
// campaign_state_hash): one definition of how the task graph, the
// platform and the SER model feed a HashStream, so the two snapshot
// kinds cannot drift apart on what "the same problem" means.
#pragma once

#include "arch/mpsoc.h"
#include "reliability/ser_model.h"
#include "taskgraph/task_graph.h"
#include "util/checkpoint.h"

namespace seamap {

/// Mix the application (name, batching, register inventory, tasks,
/// edges) and the architecture (cores, operating points, power
/// parameters) into `h`.
void mix_graph_and_architecture(HashStream& h, const TaskGraph& graph,
                                const MpsocArchitecture& arch);

/// Mix the SER model parameters into `h`.
void mix_ser_model(HashStream& h, const SerModel& ser);

} // namespace seamap
