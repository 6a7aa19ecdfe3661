#include "array/cell_span.h"

#include <algorithm>

#include "util/logging.h"

namespace arraydb::array {

CellSpanView::CellSpanView(const Array& array)
    : chunks_(&array.SortedChunks()) {
  offsets_.reserve(chunks_->size() + 1);
  offsets_.push_back(0);
  for (const Chunk* chunk : *chunks_) {
    num_cells_ += static_cast<int64_t>(chunk->num_cells());
    offsets_.push_back(num_cells_);
  }
}

CellSpanView::Location CellSpanView::Locate(int64_t global_index) const {
  ARRAYDB_CHECK_GE(global_index, 0);
  ARRAYDB_CHECK_LT(global_index, num_cells_);
  const auto it =
      std::upper_bound(offsets_.begin(), offsets_.end(), global_index);
  const size_t chunk_idx = static_cast<size_t>(it - offsets_.begin()) - 1;
  return Location{(*chunks_)[chunk_idx],
                  static_cast<size_t>(global_index - offsets_[chunk_idx])};
}

std::vector<double> CellSpanView::GatherAttr(size_t attr) const {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(num_cells_));
  for (const Chunk* chunk : *chunks_) {
    const auto& column = chunk->attr_column(attr);
    out.insert(out.end(), column.begin(), column.end());
  }
  return out;
}

}  // namespace arraydb::array
