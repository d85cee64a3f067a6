#ifndef STEDB_DB_DATABASE_H_
#define STEDB_DB_DATABASE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/db/schema.h"
#include "src/db/value.h"

namespace stedb::db {

/// Global identifier of a fact within a Database. Ids are never reused, so
/// they remain valid handles across deletions (dead ids simply stop being
/// live). This is what makes "delete then re-insert the same facts" in the
/// dynamic experiment easy to express.
using FactId = int32_t;
inline constexpr FactId kNoFact = -1;

/// A fact R(a1, ..., ak): a relation id plus one value per attribute.
struct Fact {
  RelationId rel = -1;
  ValueTuple values;
};

/// An in-memory relational database instance over a fixed Schema.
///
/// Maintains, incrementally under insertion and deletion:
///  * per-relation live fact lists (with O(1) removal),
///  * a key index per relation (key tuple -> fact),
///  * foreign-key adjacency in both directions:
///      forward:  referencing fact -> the unique referenced fact per FK,
///      backward: referenced fact  -> all referencing facts per FK.
///
/// The FK adjacency is exactly the structure both embedding algorithms walk
/// over, so keeping it materialized makes walk steps O(1).
///
/// All constraints of the paper's Section II are enforced on insert:
/// key attributes non-null, key uniqueness, and for every FK whose image has
/// no nulls, existence of the referenced fact (null images are exempt).
class Database {
 public:
  explicit Database(std::shared_ptr<const Schema> schema);

  Database(const Database&) = default;
  Database& operator=(const Database&) = default;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  const Schema& schema() const { return *schema_; }
  const std::shared_ptr<const Schema>& schema_ptr() const { return schema_; }

  // ---- Mutation ---------------------------------------------------------

  /// Validates and inserts a fact; returns its FactId.
  Result<FactId> Insert(Fact fact);

  /// Convenience: insert into relation `rel_name` with positional values.
  Result<FactId> Insert(const std::string& rel_name, ValueTuple values);

  /// Inserts a batch of facts whose FK dependencies may point at each other
  /// in any order: rows whose referenced facts are not yet present are
  /// retried until a fixpoint. Returns the new ids parallel to `facts`.
  /// On any non-dependency error, or an unresolvable (dangling/cyclic)
  /// remainder, nothing is inserted and the error is returned.
  Result<std::vector<FactId>> InsertBatch(std::vector<Fact> facts);

  /// Deletes a fact that no live fact references. Deleting a referenced
  /// fact is a FailedPrecondition: ordered/cascading deletion lives in
  /// cascade.h.
  Status Delete(FactId id);

  // ---- Lookup -----------------------------------------------------------

  bool IsLive(FactId id) const {
    return id >= 0 && static_cast<size_t>(id) < facts_.size() && alive_[id];
  }
  /// Total number of live facts.
  size_t NumFacts() const { return live_count_; }
  /// Live facts in one relation.
  size_t NumFacts(RelationId rel) const { return rel_facts_[rel].size(); }
  /// Number of fact ids ever allocated (live + dead).
  size_t NumAllocatedIds() const { return facts_.size(); }

  const Fact& fact(FactId id) const { return facts_[id]; }
  /// The value of attribute `attr` of fact `id`.
  const Value& value(FactId id, AttrId attr) const {
    return facts_[id].values[attr];
  }
  /// f[B1..Bl] as a tuple.
  ValueTuple Project(FactId id, const std::vector<AttrId>& attrs) const;

  /// Live facts of a relation, in insertion order modulo swap-removals.
  const std::vector<FactId>& FactsOf(RelationId rel) const {
    return rel_facts_[rel];
  }

  /// Finds the fact of `rel` with the given key tuple, or kNoFact.
  FactId FindByKey(RelationId rel, const ValueTuple& key) const;

  // ---- FK adjacency (walk steps) ----------------------------------------

  /// The unique fact referenced by `id` via `fk`, or kNoFact when the FK
  /// image contains a null or `id` is deleted. `id` must belong to
  /// fk.from_rel.
  FactId Referenced(FactId id, FkId fk) const;

  /// All live facts referencing `id` via `fk`; empty when `id` is
  /// deleted. `id` must belong to fk.to_rel.
  const std::vector<FactId>& Referencing(FactId id, FkId fk) const;

  /// Count of inbound references to `id` across all FKs.
  size_t InboundCount(FactId id) const;

  // ---- Introspection ----------------------------------------------------

  /// Distinct non-null values of (rel, attr) over live facts.
  std::vector<Value> ActiveDomain(RelationId rel, AttrId attr) const;

  /// Re-checks every constraint from scratch; used by tests and after bulk
  /// loads. OK when the instance satisfies the schema.
  Status ValidateAll() const;

  /// One line per relation: name + live tuple count.
  std::string StatsString() const;

 private:
  Status ValidateFact(const Fact& fact) const;
  /// Position of `fk` within OutgoingFks(rel); cached per schema.
  int OutFkPos(RelationId rel, FkId fk) const;
  int InFkPos(RelationId rel, FkId fk) const;

  std::shared_ptr<const Schema> schema_;
  std::vector<Fact> facts_;
  std::vector<char> alive_;
  size_t live_count_ = 0;

  /// Live fact ids per relation with positions for O(1) swap-removal.
  std::vector<std::vector<FactId>> rel_facts_;
  std::vector<int32_t> pos_in_rel_;

  /// Key tuple -> fact, one map per relation.
  std::vector<std::unordered_map<ValueTuple, FactId, ValueTupleHash>>
      key_index_;

  /// Cached schema FK lists per relation.
  std::vector<std::vector<FkId>> out_fks_;
  std::vector<std::vector<FkId>> in_fks_;

  /// fwd_refs_[f][j] = fact referenced via out_fks_[rel(f)][j] (or kNoFact).
  std::vector<std::vector<FactId>> fwd_refs_;
  /// inbound_refs_[f][j] = facts referencing f via in_fks_[rel(f)][j].
  std::vector<std::vector<std::vector<FactId>>> inbound_refs_;

  static const std::vector<FactId> kEmptyFactList;
};

}  // namespace stedb::db

#endif  // STEDB_DB_DATABASE_H_
