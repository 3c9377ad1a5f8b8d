#include "core/query_workspace.h"

#include "core/engine_core.h"

namespace cod {

QueryWorkspace::QueryWorkspace(const EngineCore& core, uint64_t seed)
    : core_(&core),
      evaluator_(core.model(), core.options().theta, core.node_keys()),
      rng_(seed) {}

void QueryWorkspace::Rebind(const EngineCore& core) {
  core_ = &core;
  evaluator_.Rebind(core.model(), core.options().theta, core.node_keys());
}

}  // namespace cod
