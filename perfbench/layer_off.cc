// Plain build of the layer counters: nothing is wrapped or counted.
#include "layer.h"

namespace perfbench {

bool Traced() { return false; }
void ResetLayers() {}
const LayerStats& Layers() {
  static const LayerStats kNone;
  return kNone;
}
uint64_t HeapAllocs() { return 0; }

}  // namespace perfbench
