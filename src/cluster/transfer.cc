#include "cluster/transfer.h"

#include "util/strings.h"
#include "util/units.h"

namespace arraydb::cluster {

int64_t MovePlan::TotalBytes() const {
  int64_t total = 0;
  for (const auto& m : moves_) total += m.bytes;
  return total;
}

bool MovePlan::OnlyToNodesAtOrAbove(NodeId first_new_node) const {
  for (const auto& m : moves_) {
    if (m.to < first_new_node) return false;
  }
  return true;
}

std::string MovePlan::Summary() const {
  return util::StrFormat("%lld chunks, %s moved",
                         static_cast<long long>(num_chunks()),
                         util::HumanBytes(static_cast<double>(TotalBytes())).c_str());
}

}  // namespace arraydb::cluster
