#include "db/table_store.h"

#include <algorithm>
#include <utility>

namespace sjoin {
namespace {

Status TableNotFound(const std::string& name) {
  return Status::NotFound("table '" + name + "' not stored");
}

}  // namespace

TableStore::Stored* TableStore::Find(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(map_mu_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

bool TableStore::Has(const std::string& name) const {
  return Find(name) != nullptr;
}

size_t TableStore::size() const {
  std::shared_lock<std::shared_mutex> lock(map_mu_);
  return tables_.size();
}

Status TableStore::Store(EncryptedTable table) {
  auto stored = std::make_unique<Stored>();
  auto ids = std::make_shared<std::vector<StableRowId>>(table.rows.size());
  for (size_t p = 0; p < ids->size(); ++p) {
    (*ids)[p] = static_cast<StableRowId>(p);
    stored->id_to_pos[(*ids)[p]] = p;
  }
  stored->next_row_id = static_cast<StableRowId>(table.rows.size());
  stored->sj_dim = table.rows.empty() ? 0 : table.rows[0].sj.c.size();
  std::string name = table.name;
  stored->snap.table =
      std::make_shared<const EncryptedTable>(std::move(table));
  stored->snap.row_ids = std::move(ids);
  stored->snap.generation = 1;

  std::unique_lock<std::shared_mutex> lock(map_mu_);
  if (tables_.count(name)) {
    return Status::AlreadyExists("table '" + name + "' already stored");
  }
  tables_.emplace(std::move(name), std::move(stored));
  return Status::OK();
}

Result<TableStore::Snapshot> TableStore::Get(const std::string& name) const {
  Stored* stored = Find(name);
  if (stored == nullptr) return TableNotFound(name);
  std::lock_guard<std::mutex> lock(stored->snap_mu);
  return stored->snap;
}

Result<TableStore::Applied> TableStore::Apply(const TableMutation& mutation) {
  Stored* found = Find(mutation.table);
  if (found == nullptr) return TableNotFound(mutation.table);
  Stored& stored = *found;
  // One writer per table at a time; the published snapshot stays readable
  // (Get only needs snap_mu, taken below for the final swap alone).
  std::lock_guard<std::mutex> writer_lock(stored.writer_mu);

  if (mutation.base_generation != 0 &&
      mutation.base_generation != stored.snap.generation) {
    return Status::FailedPrecondition(
        "mutation of table '" + mutation.table + "' based on generation " +
        std::to_string(mutation.base_generation) + " but the table is at " +
        std::to_string(stored.snap.generation));
  }
  if (mutation.deletes.empty() && mutation.inserts.empty()) {
    return Status::InvalidArgument("empty mutation batch for table '" +
                                   mutation.table + "'");
  }

  // Validate the whole batch before changing anything. Reading snap under
  // writer_mu alone is safe: only writers (serialized here) modify it.
  const EncryptedTable& cur = *stored.snap.table;
  std::vector<size_t> deleted_positions;
  deleted_positions.reserve(mutation.deletes.size());
  for (StableRowId id : mutation.deletes) {
    auto pos = stored.id_to_pos.find(id);
    if (pos == stored.id_to_pos.end()) {
      return Status::NotFound("table '" + mutation.table + "' has no row " +
                              std::to_string(id) +
                              " (already deleted, or never assigned)");
    }
    deleted_positions.push_back(pos->second);
  }
  std::sort(deleted_positions.begin(), deleted_positions.end());
  if (std::adjacent_find(deleted_positions.begin(), deleted_positions.end()) !=
      deleted_positions.end()) {
    return Status::InvalidArgument("duplicate delete id in mutation of '" +
                                   mutation.table + "'");
  }
  // Inserted rows must have the SJ dimension of this table's rows -- the
  // client's keys fix it, so a mismatch means a foreign or corrupt row.
  // The dimension persists in Stored::sj_dim from the first rows ever
  // seen: deleting every row does NOT reopen the table to rows of a
  // different shape (a query over such a row would only fail deep inside
  // SJ.Dec). A table stored empty adopts the first insert batch's
  // (consistent) dimension.
  size_t dim = stored.sj_dim != 0          ? stored.sj_dim
               : !mutation.inserts.empty() ? mutation.inserts[0].sj.c.size()
                                           : 0;
  if (dim == 0 && !mutation.inserts.empty()) {
    // No real row has an empty SJ vector (Dimension() >= 3); accepting
    // one would also leave an empty-upload table dimension-unlocked.
    return Status::InvalidArgument("insert into '" + mutation.table +
                                   "' has zero-dimension SJ rows");
  }
  for (const EncryptedRow& row : mutation.inserts) {
    if (row.sj.c.size() != dim) {
      return Status::InvalidArgument(
          "insert into '" + mutation.table + "' has SJ dimension " +
          std::to_string(row.sj.c.size()) + ", table uses " +
          std::to_string(dim));
    }
  }

  // Build the next generation: stable-order compaction, then appends.
  // Sources are the immutable published snapshot, so this O(rows) copy
  // runs without snap_mu -- concurrent Gets are never blocked behind it.
  auto next_table = std::make_shared<EncryptedTable>();
  next_table->name = cur.name;
  next_table->schema = cur.schema;
  next_table->join_column = cur.join_column;
  next_table->attr_columns = cur.attr_columns;
  auto next_ids = std::make_shared<std::vector<StableRowId>>();
  const std::vector<StableRowId>& cur_ids = *stored.snap.row_ids;
  size_t final_rows = cur.rows.size() - deleted_positions.size() +
                      mutation.inserts.size();
  next_table->rows.reserve(final_rows);
  next_ids->reserve(final_rows);
  ForEachSurvivingPosition(cur.rows.size(), deleted_positions, [&](size_t p) {
    next_table->rows.push_back(cur.rows[p]);
    next_ids->push_back(cur_ids[p]);
  });

  Applied out;
  out.removed_ids = mutation.deletes;
  for (const EncryptedRow& row : mutation.inserts) {
    next_table->rows.push_back(row);
    next_ids->push_back(stored.next_row_id);
    out.result.inserted_ids.push_back(stored.next_row_id);
    ++stored.next_row_id;
  }

  if (stored.sj_dim == 0) stored.sj_dim = dim;  // empty upload: adopt now
  stored.id_to_pos.clear();
  for (size_t p = 0; p < next_ids->size(); ++p) {
    stored.id_to_pos[(*next_ids)[p]] = p;
  }

  {
    // Publish: the only write readers can observe, a pointer swap.
    std::lock_guard<std::mutex> snap_lock(stored.snap_mu);
    stored.snap.table = std::move(next_table);
    stored.snap.row_ids = std::move(next_ids);
    ++stored.snap.generation;
  }

  out.result.generation = stored.snap.generation;
  out.snapshot = stored.snap;
  return out;
}

}  // namespace sjoin
