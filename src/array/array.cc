#include "array/array.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace arraydb::array {

namespace {

bool ChunkLess(const Chunk* a, const Chunk* b) {
  return CoordinatesLess(a->coords(), b->coords());
}

}  // namespace

Array::Array(ArraySchema schema) : schema_(std::move(schema)) {
  ARRAYDB_CHECK(schema_.Validate().ok());
}

Array::Array(const Array& other)
    : schema_(other.schema_),
      chunks_(other.chunks_),
      total_cells_(other.total_cells_),
      total_bytes_(other.total_bytes_) {
  // The source's directory already holds the order; re-point each entry at
  // this copy's node for the same coordinates.
  sorted_.reserve(other.sorted_.size());
  for (const Chunk* chunk : other.sorted_) {
    sorted_.push_back(&chunks_.find(chunk->coords())->second);
  }
}

Array& Array::operator=(const Array& other) {
  if (this != &other) *this = Array(other);
  return *this;
}

void Array::AddToDirectory(const Chunk* chunk) {
  if (sorted_.empty() || ChunkLess(sorted_.back(), chunk)) {
    sorted_.push_back(chunk);
    return;
  }
  sorted_.insert(
      std::upper_bound(sorted_.begin(), sorted_.end(), chunk, ChunkLess),
      chunk);
}

util::Status Array::InsertCell(const Coordinates& pos,
                               std::vector<double> values) {
  if (pos.size() != static_cast<size_t>(schema_.num_dims())) {
    return util::InvalidArgument("cell rank does not match schema");
  }
  if (values.size() != static_cast<size_t>(schema_.num_attrs())) {
    return util::InvalidArgument("cell attribute count does not match schema");
  }
  for (int d = 0; d < schema_.num_dims(); ++d) {
    const auto& dim = schema_.dims()[d];
    if (pos[d] < dim.lo || (!dim.unbounded && pos[d] > dim.hi)) {
      return util::OutOfRange("cell outside declared dimension range");
    }
    if (!dim.ChunkIndexFits(pos[d])) {
      return util::OutOfRange("chunk index of cell overflows int64");
    }
  }
  const Coordinates cc = schema_.ChunkOf(pos);
  const auto [it, inserted] = chunks_.try_emplace(cc, cc);
  if (inserted) AddToDirectory(&it->second);
  it->second.AppendCell(pos, values, schema_.BytesPerCell());
  total_cells_ += 1;
  total_bytes_ += schema_.BytesPerCell();
  return util::Status::Ok();
}

util::Status Array::AddSyntheticChunk(const ChunkInfo& info) {
  if (!schema_.ChunkInBounds(info.coords)) {
    return util::OutOfRange("chunk outside declared grid: " +
                            CoordinatesToString(info.coords));
  }
  const auto [it, inserted] = chunks_.try_emplace(info.coords, info.coords);
  if (!inserted) {
    return util::AlreadyExists("chunk exists (no-overwrite storage): " +
                               CoordinatesToString(info.coords));
  }
  it->second.SetSyntheticSize(info.cell_count, info.bytes);
  AddToDirectory(&it->second);
  total_cells_ += info.cell_count;
  total_bytes_ += info.bytes;
  return util::Status::Ok();
}

const Chunk* Array::FindChunk(const Coordinates& chunk_coords) const {
  const auto it = chunks_.find(chunk_coords);
  return it == chunks_.end() ? nullptr : &it->second;
}

std::vector<ChunkInfo> Array::ChunkInfos() const {
  std::vector<ChunkInfo> out;
  out.reserve(sorted_.size());
  for (const Chunk* chunk : sorted_) out.push_back(chunk->info());
  return out;
}

std::vector<Cell> Array::AllCells() const {
  std::vector<Cell> out;
  out.reserve(static_cast<size_t>(total_cells_));
  for (const Chunk* chunk : sorted_) {
    for (size_t i = 0; i < chunk->num_cells(); ++i) {
      out.push_back(chunk->MaterializeCell(i));
    }
  }
  return out;
}

}  // namespace arraydb::array
