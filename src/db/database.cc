#include "src/db/database.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

namespace stedb::db {

const std::vector<FactId> Database::kEmptyFactList;

Database::Database(std::shared_ptr<const Schema> schema)
    : schema_(std::move(schema)) {
  const size_t nrel = schema_->num_relations();
  rel_facts_.resize(nrel);
  key_index_.resize(nrel);
  out_fks_.resize(nrel);
  in_fks_.resize(nrel);
  for (size_t r = 0; r < nrel; ++r) {
    out_fks_[r] = schema_->OutgoingFks(static_cast<RelationId>(r));
    in_fks_[r] = schema_->IncomingFks(static_cast<RelationId>(r));
  }
}

ValueTuple Database::Project(FactId id,
                             const std::vector<AttrId>& attrs) const {
  ValueTuple out;
  out.reserve(attrs.size());
  for (AttrId a : attrs) out.push_back(facts_[id].values[a]);
  return out;
}

Status Database::ValidateFact(const Fact& fact) const {
  if (fact.rel < 0 ||
      static_cast<size_t>(fact.rel) >= schema_->num_relations()) {
    return Status::OutOfRange("relation id out of range");
  }
  const RelationSchema& rel = schema_->relation(fact.rel);
  if (fact.values.size() != rel.arity()) {
    return Status::InvalidArgument(
        "arity mismatch for " + rel.name + ": got " +
        std::to_string(fact.values.size()) + ", want " +
        std::to_string(rel.arity()));
  }
  for (size_t i = 0; i < fact.values.size(); ++i) {
    if (!fact.values[i].MatchesType(rel.attrs[i].type)) {
      return Status::InvalidArgument("type mismatch on " + rel.name + "." +
                                     rel.attrs[i].name);
    }
  }
  for (AttrId k : rel.key) {
    if (fact.values[k].is_null()) {
      return Status::ConstraintViolation("null key attribute " + rel.name +
                                         "." + rel.attrs[k].name);
    }
  }
  return Status::OK();
}

Result<FactId> Database::Insert(Fact fact) {
  STEDB_RETURN_IF_ERROR(ValidateFact(fact));
  const RelationSchema& rel = schema_->relation(fact.rel);

  ValueTuple key;
  key.reserve(rel.key.size());
  for (AttrId k : rel.key) key.push_back(fact.values[k]);
  auto& kindex = key_index_[fact.rel];
  if (kindex.count(key) > 0) {
    return Status::ConstraintViolation("duplicate key " + ToString(key) +
                                       " in relation " + rel.name);
  }

  // Resolve every outgoing FK before mutating anything, so a constraint
  // failure leaves the database untouched.
  const std::vector<FkId>& outs = out_fks_[fact.rel];
  std::vector<FactId> fwd(outs.size(), kNoFact);
  for (size_t j = 0; j < outs.size(); ++j) {
    const ForeignKey& fk = schema_->fk(outs[j]);
    ValueTuple image;
    image.reserve(fk.from_attrs.size());
    for (AttrId a : fk.from_attrs) image.push_back(fact.values[a]);
    if (HasNull(image)) continue;  // FK ignored on null image (paper §II).
    FactId target = FindByKey(fk.to_rel, image);
    if (target == kNoFact) {
      return Status::ConstraintViolation(
          "dangling FK " + rel.name + " -> " +
          schema_->relation(fk.to_rel).name + " on " + ToString(image));
    }
    fwd[j] = target;
  }

  const FactId id = static_cast<FactId>(facts_.size());
  facts_.push_back(std::move(fact));
  alive_.push_back(1);
  ++live_count_;
  pos_in_rel_.push_back(static_cast<int32_t>(rel_facts_[facts_[id].rel].size()));
  rel_facts_[facts_[id].rel].push_back(id);
  kindex.emplace(std::move(key), id);

  fwd_refs_.push_back(std::move(fwd));
  inbound_refs_.emplace_back(in_fks_[facts_[id].rel].size());

  // Register this fact in the inbound lists of everything it references.
  const std::vector<FkId>& outs2 = out_fks_[facts_[id].rel];
  for (size_t j = 0; j < outs2.size(); ++j) {
    FactId target = fwd_refs_[id][j];
    if (target == kNoFact) continue;
    int pos = InFkPos(facts_[target].rel, outs2[j]);
    inbound_refs_[target][pos].push_back(id);
  }
  return id;
}

Result<FactId> Database::Insert(const std::string& rel_name,
                                ValueTuple values) {
  RelationId rel = schema_->RelationIndex(rel_name);
  if (rel < 0) return Status::NotFound("relation '" + rel_name + "'");
  Fact f;
  f.rel = rel;
  f.values = std::move(values);
  return Insert(std::move(f));
}

Result<std::vector<FactId>> Database::InsertBatch(std::vector<Fact> facts) {
  // Work on a copy so a failed batch leaves this database untouched.
  Database scratch = *this;
  std::vector<FactId> ids(facts.size(), kNoFact);
  std::vector<size_t> pending(facts.size());
  for (size_t i = 0; i < pending.size(); ++i) pending[i] = i;

  while (!pending.empty()) {
    std::vector<size_t> retry;
    size_t inserted = 0;
    for (size_t i : pending) {
      auto r = scratch.Insert(facts[i]);
      if (r.ok()) {
        ids[i] = r.value();
        ++inserted;
      } else if (r.status().code() == StatusCode::kConstraintViolation &&
                 r.status().message().rfind("dangling", 0) == 0) {
        retry.push_back(i);
      } else {
        return r.status();
      }
    }
    if (inserted == 0) {
      return Status::ConstraintViolation(
          "batch has unresolvable foreign-key dependencies");
    }
    pending = std::move(retry);
  }
  *this = std::move(scratch);
  return ids;
}

Status Database::Delete(FactId id) {
  if (!IsLive(id)) return Status::NotFound("fact id not live");
  if (InboundCount(id) > 0) {
    return Status::FailedPrecondition(
        "fact is still referenced; delete referencing facts first (or use "
        "CascadeDelete)");
  }
  const Fact& fact = facts_[id];

  // Unregister from inbound lists of referenced facts.
  const std::vector<FkId>& outs = out_fks_[fact.rel];
  for (size_t j = 0; j < outs.size(); ++j) {
    FactId target = fwd_refs_[id][j];
    if (target == kNoFact) continue;
    int pos = InFkPos(facts_[target].rel, outs[j]);
    std::vector<FactId>& lst = inbound_refs_[target][pos];
    auto it = std::find(lst.begin(), lst.end(), id);
    if (it != lst.end()) {
      *it = lst.back();
      lst.pop_back();
    }
  }

  // Key index.
  const RelationSchema& rel = schema_->relation(fact.rel);
  ValueTuple key;
  for (AttrId k : rel.key) key.push_back(fact.values[k]);
  key_index_[fact.rel].erase(key);

  // Relation list swap-removal.
  std::vector<FactId>& lst = rel_facts_[fact.rel];
  int32_t pos = pos_in_rel_[id];
  FactId moved = lst.back();
  lst[pos] = moved;
  pos_in_rel_[moved] = pos;
  lst.pop_back();

  alive_[id] = 0;
  --live_count_;
  fwd_refs_[id].clear();
  inbound_refs_[id].clear();
  return Status::OK();
}

FactId Database::FindByKey(RelationId rel, const ValueTuple& key) const {
  const auto& index = key_index_[rel];
  auto it = index.find(key);
  return it == index.end() ? kNoFact : it->second;
}

FactId Database::Referenced(FactId id, FkId fk) const {
  // Delete cleared a dead fact's reference lists.
  if (!IsLive(id)) return kNoFact;
  int pos = OutFkPos(facts_[id].rel, fk);
  if (pos < 0) return kNoFact;
  return fwd_refs_[id][pos];
}

const std::vector<FactId>& Database::Referencing(FactId id, FkId fk) const {
  if (!IsLive(id)) return kEmptyFactList;
  int pos = InFkPos(facts_[id].rel, fk);
  if (pos < 0) return kEmptyFactList;
  return inbound_refs_[id][pos];
}

size_t Database::InboundCount(FactId id) const {
  size_t total = 0;
  for (const std::vector<FactId>& lst : inbound_refs_[id]) {
    total += lst.size();
  }
  return total;
}

int Database::OutFkPos(RelationId rel, FkId fk) const {
  const std::vector<FkId>& outs = out_fks_[rel];
  for (size_t j = 0; j < outs.size(); ++j) {
    if (outs[j] == fk) return static_cast<int>(j);
  }
  return -1;
}

int Database::InFkPos(RelationId rel, FkId fk) const {
  const std::vector<FkId>& ins = in_fks_[rel];
  for (size_t j = 0; j < ins.size(); ++j) {
    if (ins[j] == fk) return static_cast<int>(j);
  }
  return -1;
}

std::vector<Value> Database::ActiveDomain(RelationId rel, AttrId attr) const {
  std::unordered_set<Value, ValueHash> seen;
  std::vector<Value> out;
  for (FactId id : rel_facts_[rel]) {
    const Value& v = facts_[id].values[attr];
    if (v.is_null()) continue;
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

Status Database::ValidateAll() const {
  for (size_t r = 0; r < schema_->num_relations(); ++r) {
    std::unordered_set<ValueTuple, ValueTupleHash> keys;
    for (FactId id : rel_facts_[r]) {
      STEDB_RETURN_IF_ERROR(ValidateFact(facts_[id]));
      ValueTuple key = Project(id, schema_->relation(r).key);
      if (!keys.insert(key).second) {
        return Status::ConstraintViolation("duplicate key in " +
                                           schema_->relation(r).name);
      }
    }
  }
  for (size_t f = 0; f < schema_->num_foreign_keys(); ++f) {
    const ForeignKey& fk = schema_->fk(static_cast<FkId>(f));
    for (FactId id : rel_facts_[fk.from_rel]) {
      ValueTuple image = Project(id, fk.from_attrs);
      if (HasNull(image)) continue;
      if (FindByKey(fk.to_rel, image) == kNoFact) {
        return Status::ConstraintViolation(
            "dangling FK from " + schema_->relation(fk.from_rel).name);
      }
    }
  }
  return Status::OK();
}

std::string Database::StatsString() const {
  std::ostringstream os;
  for (size_t r = 0; r < schema_->num_relations(); ++r) {
    os << schema_->relation(r).name << ": " << rel_facts_[r].size()
       << " tuples\n";
  }
  os << "total: " << live_count_ << " tuples\n";
  return os.str();
}

}  // namespace stedb::db
