#include "er/database.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <new>

#include "common/strings.h"
#include "er/commit_coordinator.h"
#include "obs/metrics.h"

namespace mdm::er {

using rel::Value;
using rel::ValueType;

namespace {

/// Secondary attribute index activity, process-wide.
struct IndexCounters {
  obs::Counter* lookups;
  obs::Counter* inserts;
  obs::Counter* erases;
  obs::Counter* rebuilds;
  static const IndexCounters& Get() {
    static IndexCounters c = {
        obs::Registry::Global()->GetCounter(
            "mdm_index_lookups_total",
            "Secondary-index probes answered from a B+tree"),
        obs::Registry::Global()->GetCounter(
            "mdm_index_inserts_total",
            "Secondary-index entries added (mutations and backfills)"),
        obs::Registry::Global()->GetCounter(
            "mdm_index_erases_total",
            "Secondary-index entries removed (updates and deletes)"),
        obs::Registry::Global()->GetCounter(
            "mdm_index_rebuilds_total",
            "Secondary-index full backfills (define, restore, replay)")};
    return c;
  }
};

/// Metrics for the copy-on-write snapshot machinery (docs/WRITEPATH.md).
struct SnapCounters {
  obs::Counter* publishes;
  obs::Counter* reads;
  obs::Counter* pin_fallbacks;
  obs::Counter* index_fallbacks;
  static const SnapCounters& Get() {
    static SnapCounters c = {
        obs::Registry::Global()->GetCounter(
            "mdm_er_snapshot_publishes_total",
            "Copy-on-write table snapshots published"),
        obs::Registry::Global()->GetCounter(
            "mdm_er_snapshot_reads_total",
            "Read scopes served from a pinned snapshot (no db latch)"),
        obs::Registry::Global()->GetCounter(
            "mdm_er_snapshot_pin_fallbacks_total",
            "Snapshot pins refused (unpublished mutations, no disciplined "
            "writer); reader fell back to the shared latch"),
        obs::Registry::Global()->GetCounter(
            "mdm_index_snapshot_fallbacks_total",
            "Snapshot index probes degraded to a type scan by an "
            "erase-epoch mismatch")};
    return c;
  }
};

/// The snapshot a SnapshotReadScope pinned for this thread (see
/// Database::ReadTables). Raw pointers: the scope object owns the
/// keep-alive shared_ptr.
struct TlsPinned {
  const Database* db = nullptr;
  const Tables* tables = nullptr;
};
thread_local TlsPinned g_pinned;

// ---------------------------------------------------------------------
// Secondary-index key encoding.
//
// The B+tree maps int64 keys to entity ids. The encoding must satisfy:
// values equal under Value::Compare encode to the same key (or the
// probe misses rows); unequal values MAY collide (strings and rationals
// are hashed) because the planner keeps the equality conjunct in the
// filter list, so every candidate is re-checked. Value::Compare treats
// int and float as one numeric domain, so integral floats canonicalize
// to their int64 value (Float(2.0) and Int(2) must share a key); -0.0
// folds into that path via the integral check. Nulls are never indexed.
// ---------------------------------------------------------------------

uint64_t Fnv1a64(const void* data, size_t n, uint64_t h = 0xCBF29CE484222325ull) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

int64_t AttrKeyFor(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return 0;  // callers never index or probe nulls
    case ValueType::kBool:
      return v.AsBool() ? 1 : 0;
    case ValueType::kInt:
      return v.AsInt();
    case ValueType::kRef:
      return static_cast<int64_t>(v.AsRef());
    case ValueType::kFloat: {
      double d = v.AsFloat();
      // Integral floats share the int encoding (numeric cross-compare).
      if (d >= -9223372036854775808.0 && d < 9223372036854775808.0 &&
          d == static_cast<double>(static_cast<int64_t>(d)))
        return static_cast<int64_t>(d);
      int64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      return bits;
    }
    case ValueType::kString: {
      const std::string& s = v.AsString();
      return static_cast<int64_t>(Fnv1a64(s.data(), s.size()));
    }
    case ValueType::kRational: {
      // Rationals are kept normalized (gcd = 1, den > 0), so hashing
      // (num, den) is exact for equality.
      const Rational r = v.AsRational();
      int64_t pair[2] = {r.num(), r.den()};
      return static_cast<int64_t>(Fnv1a64(pair, sizeof(pair)));
    }
  }
  return 0;
}

}  // namespace

// ---------------------------------------------------------------------
// Snapshot read scopes.
// ---------------------------------------------------------------------

SnapshotReadScope::SnapshotReadScope(const Database* db,
                                     std::shared_ptr<const Tables> tables)
    : tables_(std::move(tables)),
      prev_db_(g_pinned.db),
      prev_tables_(g_pinned.tables) {
  if (tables_ != nullptr) {
    SnapCounters::Get().reads->Inc();
    g_pinned.db = db;
    g_pinned.tables = tables_.get();
  }
}

SnapshotReadScope::~SnapshotReadScope() {
  g_pinned.db = prev_db_;
  g_pinned.tables = prev_tables_;
}

const Tables& Database::ReadTables() const {
  if (g_pinned.db == this) return *g_pinned.tables;
  return live_;
}

std::shared_ptr<const Tables> Database::TryPinSnapshot() const {
  // Unpublished mutations with no disciplined writer mid-flight mean a
  // caller mutated through the direct API without guards; serving the
  // stale snapshot would hide those writes from its own thread.
  if (ops_applied_.load(std::memory_order_acquire) !=
          published_ops_.load(std::memory_order_acquire) &&
      !writer_active_.load(std::memory_order_acquire)) {
    SnapCounters::Get().pin_fallbacks->Inc();
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(snap_mu_);
  return published_;
}

void Database::PublishSnapshot() {
  if (published_ != nullptr &&
      ops_applied_.load(std::memory_order_relaxed) ==
          published_ops_.load(std::memory_order_relaxed))
    return;  // nothing changed since the last publish
  RefreshIndexEpochs();
  auto snap = std::make_shared<const Tables>(live_);
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    published_ = std::move(snap);
  }
  ++publish_gen_;
  snapshot_epoch_.fetch_add(1, std::memory_order_relaxed);
  published_ops_.store(ops_applied_.load(std::memory_order_relaxed),
                       std::memory_order_release);
  SnapCounters::Get().publishes->Inc();
}

Database::Database() { PublishSnapshot(); }

// ---------------------------------------------------------------------
// Moves.
//
// Hand-written because the latch, the snap mutex and the atomic flags
// are not movable. Moving is NOT latch-protected: callers (mdmsh \load,
// persist's Restore) quiesce all sessions first. The destination gets
// fresh synchronization state and a copy of the flags; the source is
// left empty and reusable.
// Snapshots pinned from the source before the move stay readable (the
// pin owns the Tables), but resolve against the source object only.
// ---------------------------------------------------------------------

Database::Database(Database&& other) noexcept { *this = std::move(other); }

Database& Database::operator=(Database&& other) noexcept {
  if (this == &other) return *this;
  live_ = std::move(other.live_);
  published_ = std::move(other.published_);
  publish_gen_ = other.publish_gen_;
  snapshot_epoch_.store(other.snapshot_epoch_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  ops_applied_.store(other.ops_applied_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  published_ops_.store(other.published_ops_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  writer_active_.store(false, std::memory_order_relaxed);
  attr_index_enabled_.store(
      other.attr_index_enabled_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  bulk_index_load_.store(
      other.bulk_index_load_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  attr_erase_dirty_ = other.attr_erase_dirty_;
  wal_ = other.wal_;
  coordinator_ = other.coordinator_;
  open_txn_ = other.open_txn_;
  group_flight_ = std::move(other.group_flight_);
  group_active_ = other.group_active_;
  replaying_ = other.replaying_;

  other.live_ = Tables();
  other.published_.reset();
  other.publish_gen_ = 1;
  other.snapshot_epoch_.store(0, std::memory_order_relaxed);
  other.ops_applied_.store(0, std::memory_order_relaxed);
  other.published_ops_.store(0, std::memory_order_relaxed);
  other.writer_active_.store(false, std::memory_order_relaxed);
  other.bulk_index_load_.store(false, std::memory_order_relaxed);
  other.attr_erase_dirty_ = false;
  other.wal_ = nullptr;
  other.coordinator_ = nullptr;
  other.open_txn_ = 0;
  other.group_active_ = false;
  other.replaying_ = false;
  other.PublishSnapshot();  // leave the source reusable, like fresh-built
  return *this;
}

// ---------------------------------------------------------------------
// Lookup and copy-on-write helpers.
//
// Rule of thumb for this file: PMap-typed fields of live_ may be
// mutated directly (persistent maps never touch shared nodes — a
// published snapshot keeps its own root), while every shared_ptr-held
// struct (schema, by_type, rels_by_name, indexes, OrdStates, records,
// Sibs) goes through its Mutable* helper, which clones unless the
// object is already private to the current publish generation.
// ---------------------------------------------------------------------

RecordRef RecordRef::Make(EntityId id, uint32_t type_index, uint64_t gen,
                          uint32_t n) {
  void* mem = ::operator new(sizeof(EntityRecord) + n * sizeof(Value));
  auto* rec = new (mem) EntityRecord(id, type_index, gen, n);
  std::uninitialized_default_construct_n(rec->Values(), n);
  return RecordRef(rec);
}

RecordRef RecordRef::Clone(const EntityRecord& rec, uint64_t gen) {
  void* mem = ::operator new(sizeof(EntityRecord) + rec.size_ * sizeof(Value));
  auto* copy = new (mem) EntityRecord(rec.id, rec.type_index, gen, rec.size_);
  std::uninitialized_copy_n(rec.Values(), rec.size_, copy->Values());
  return RecordRef(copy);
}

void RecordRef::Release(EntityRecord* p) noexcept {
  // A count of 1 is ours alone: no other holder can raise it.
  if (p == nullptr ||
      (p->refs_.load(std::memory_order_acquire) != 1 &&
       p->refs_.fetch_sub(1, std::memory_order_acq_rel) != 1))
    return;
  std::destroy_n(p->Values(), p->size_);
  p->~EntityRecord();
  ::operator delete(p);
}

const EntityRecord* Database::FindEntity(EntityId id) const {
  const RecordRef* p = ReadTables().entities.Find(id);
  return p == nullptr ? nullptr : p->get();
}

void Database::FindEntities(const EntityId* ids, size_t n,
                            const EntityRecord** out) const {
  // One pass: each lookup issues its record's prefetch before the next
  // lookup starts, so the batch's misses overlap. A record's attributes
  // are inline, so its first two cache lines cover the header and the
  // first attributes of every type (a NOTE's seven end at byte 144).
  const auto& entities = ReadTables().entities;
  for (size_t i = 0; i < n; ++i) {
    const RecordRef* p = entities.Find(ids[i]);
    out[i] = p == nullptr ? nullptr : p->get();
    if (out[i] != nullptr) {
      __builtin_prefetch(out[i]);
      __builtin_prefetch(reinterpret_cast<const char*>(out[i]) + 64);
    }
  }
}

EntityRecord* Database::MutableEntity(EntityId id) {
  const RecordRef* p = live_.entities.Find(id);
  if (p == nullptr) return nullptr;
  if ((*p)->gen == publish_gen_) return p->get();
  RecordRef fresh = RecordRef::Clone(**p, publish_gen_);
  EntityRecord* raw = fresh.get();
  live_.entities.Insert(id, std::move(fresh));
  return raw;
}

RelationshipInstance* Database::MutableRel(RelInstanceId id) {
  const std::shared_ptr<RelationshipInstance>* p = live_.rels.Find(id);
  if (p == nullptr) return nullptr;
  if ((*p)->gen == publish_gen_) return p->get();
  auto fresh = std::make_shared<RelationshipInstance>(**p);
  fresh->gen = publish_gen_;
  RelationshipInstance* raw = fresh.get();
  live_.rels.Insert(id, std::move(fresh));
  return raw;
}

namespace {

uint64_t NextCatalogVersion() {
  static std::atomic<uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

uint64_t Database::catalog_version() const {
  return ReadTables().catalog_version;
}

ErSchema* Database::MutableSchema() {
  live_.catalog_version = NextCatalogVersion();
  if (live_.schema->gen != publish_gen_) {
    auto fresh = std::make_shared<SchemaState>(*live_.schema);
    fresh->gen = publish_gen_;
    live_.schema = std::move(fresh);
  }
  return &live_.schema->schema;
}

TypeMap* Database::MutableByType() {
  if (live_.by_type->gen != publish_gen_) {
    auto fresh = std::make_shared<TypeMap>(*live_.by_type);
    fresh->gen = publish_gen_;
    live_.by_type = std::move(fresh);
  }
  return live_.by_type.get();
}

RelNameMap* Database::MutableRelsByName() {
  if (live_.rels_by_name->gen != publish_gen_) {
    auto fresh = std::make_shared<RelNameMap>(*live_.rels_by_name);
    fresh->gen = publish_gen_;
    live_.rels_by_name = std::move(fresh);
  }
  return live_.rels_by_name.get();
}

IndexMap* Database::MutableIndexes() {
  if (live_.indexes->gen != publish_gen_) {
    auto fresh = std::make_shared<IndexMap>(*live_.indexes);
    fresh->gen = publish_gen_;
    live_.indexes = std::move(fresh);
  }
  return live_.indexes.get();
}

OrdState* Database::MutableOrd(size_t index) {
  std::shared_ptr<OrdState>& slot = live_.orderings[index];
  if (slot->gen != publish_gen_) {
    auto fresh = std::make_shared<OrdState>(*slot);
    fresh->gen = publish_gen_;
    slot = std::move(fresh);
  }
  return slot.get();
}

Sibs* Database::MutableSibs(OrdState* ord, EntityId parent) {
  const std::shared_ptr<Sibs>* cur = ord->children.Find(parent);
  std::shared_ptr<Sibs> fresh;
  if (cur == nullptr) {
    fresh = std::make_shared<Sibs>();
  } else if ((*cur)->gen == publish_gen_) {
    return cur->get();
  } else {
    fresh = std::make_shared<Sibs>(**cur);
  }
  fresh->gen = publish_gen_;
  Sibs* raw = fresh.get();
  ord->children.Insert(parent, std::move(fresh));
  return raw;
}

const ErSchema& Database::schema() const {
  return ReadTables().schema->schema;
}

uint64_t Database::TotalEntities() const {
  return ReadTables().entities.size();
}

const OrderingDef& Database::ordering_def(OrderingHandle h) const {
  return ReadTables().schema->schema.orderings()[h.index()];
}

Result<const OrderingDef*> Database::ResolveOrdering(
    const std::string& name) const {
  const OrderingDef* def = ReadTables().schema->schema.FindOrdering(name);
  if (def == nullptr) return NotFound("no ordering named " + name);
  return def;
}

Result<OrderingHandle> Database::ResolveOrderingHandle(
    std::string_view name) const {
  auto idx = ReadTables().schema->schema.FindOrderingIndex(std::string(name));
  if (!idx.has_value())
    return NotFound("no ordering named " + std::string(name));
  return OrderingHandle::FromIndex(*idx);
}

// ---------------------------------------------------------------------
// Journaling and commit plumbing.
// ---------------------------------------------------------------------

Status Database::LogOp(Op op, const std::vector<uint8_t>& payload) {
  // Counted even when no journal is attached (or during replay): this
  // is the staleness fence TryPinSnapshot compares against.
  ops_applied_.fetch_add(1, std::memory_order_release);
  if (wal_ == nullptr || replaying_) return Status::OK();
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(op));
  w.PutBytes(payload.data(), payload.size());
  std::string bytes(reinterpret_cast<const char*>(w.data().data()),
                    w.size());
  if (open_txn_ != 0) return wal_->LogOp(open_txn_, std::move(bytes));
  if (group_active_) {
    // Statement group: open the group's transaction lazily on the first
    // journaled op; EndStatementGroup commits it.
    if (coordinator_ != nullptr) group_flight_ = coordinator_->Open();
    MDM_ASSIGN_OR_RETURN(open_txn_, wal_->Begin());
    return wal_->LogOp(open_txn_, std::move(bytes));
  }
  // Auto-commit: each op is its own transaction. With a coordinator the
  // fsync is group-amortized (we block here, latch held — correct but
  // unbatched for single-threaded direct-API use; the executor's
  // statement groups are the fast path).
  CommitCoordinator::Txn flight;
  if (coordinator_ != nullptr) flight = coordinator_->Open();
  MDM_ASSIGN_OR_RETURN(uint64_t txn, wal_->Begin());
  MDM_RETURN_IF_ERROR(wal_->LogOp(txn, std::move(bytes)));
  if (coordinator_ != nullptr) {
    MDM_ASSIGN_OR_RETURN(uint64_t lsn, wal_->CommitNoSync(txn));
    flight.Committed(lsn);
    return coordinator_->WaitDurable(lsn);
  }
  return wal_->Commit(txn);
}

Status Database::BeginTxn() {
  if (wal_ == nullptr) return FailedPrecondition("no journal attached");
  if (open_txn_ != 0) return FailedPrecondition("transaction already open");
  MDM_ASSIGN_OR_RETURN(open_txn_, wal_->Begin());
  return Status::OK();
}

Status Database::CommitTxn() {
  if (open_txn_ == 0) return FailedPrecondition("no open transaction");
  uint64_t txn = open_txn_;
  open_txn_ = 0;
  return wal_->Commit(txn);
}

void Database::BeginStatementGroup() {
  // Direct-API mutations made before the group (no guard, so never
  // published) must be published before the writer is marked active:
  // from then on TryPinSnapshot serves the published snapshot, which
  // would otherwise hide them from readers mid-group.
  PublishSnapshot();
  writer_active_.store(true, std::memory_order_release);
  group_active_ = true;
}

Result<uint64_t> Database::EndStatementGroup() {
  group_active_ = false;
  uint64_t lsn = 0;
  Status commit = Status::OK();
  if (open_txn_ != 0) {
    uint64_t txn = open_txn_;
    open_txn_ = 0;
    if (coordinator_ != nullptr && wal_ != nullptr) {
      Result<uint64_t> r = wal_->CommitNoSync(txn);
      if (r.ok()) {
        lsn = *r;
        group_flight_.Committed(lsn);
      } else {
        commit = r.status();
      }
    } else if (wal_ != nullptr) {
      commit = wal_->Commit(txn);
    }
  }
  group_flight_ = {};  // a failed or absent commit leaves nothing in flight
  // Visibility before durability (async-commit style): the new state is
  // published now; the caller acks only after WaitDurable returns.
  PublishSnapshot();
  writer_active_.store(false, std::memory_order_release);
  if (!commit.ok()) return commit;
  return lsn;
}

Status Database::WaitDurable(uint64_t lsn) {
  if (lsn == 0 || coordinator_ == nullptr) return Status::OK();
  return coordinator_->WaitDurable(lsn);
}

// ---------------------------------------------------------------------
// Schema definition.
// ---------------------------------------------------------------------

Status Database::DefineEntityType(EntityTypeDef def) {
  ByteWriter payload;
  EncodeEntityTypeDef(def, &payload);
  MDM_RETURN_IF_ERROR(MutableSchema()->AddEntityType(std::move(def)));
  return LogOp(Op::kDefineEntity, payload.data());
}

Status Database::DefineRelationship(RelationshipDef def) {
  ByteWriter payload;
  EncodeRelationshipDef(def, &payload);
  MDM_RETURN_IF_ERROR(MutableSchema()->AddRelationship(std::move(def)));
  return LogOp(Op::kDefineRelationship, payload.data());
}

Result<std::string> Database::DefineOrdering(OrderingDef def) {
  ErSchema* schema = MutableSchema();
  MDM_RETURN_IF_ERROR(schema->AddOrdering(def));
  // AddOrdering may have generated a name; fetch the stored def.
  const OrderingDef& stored = schema->orderings().back();
  while (live_.orderings.size() < schema->orderings().size()) {
    auto slot = std::make_shared<OrdState>();
    slot->gen = publish_gen_;
    live_.orderings.push_back(std::move(slot));
  }
  ByteWriter payload;
  EncodeOrderingDef(stored, &payload);
  MDM_RETURN_IF_ERROR(LogOp(Op::kDefineOrdering, payload.data()));
  return stored.name;
}

// ---------------------------------------------------------------------
// Entities.
// ---------------------------------------------------------------------

Result<EntityId> Database::CreateEntity(const std::string& type) {
  const ErSchema& schema = live_.schema->schema;
  const EntityTypeDef* def = schema.FindEntityType(type);
  if (def == nullptr) return NotFound("no entity type named " + type);
  uint32_t type_index = 0;
  for (size_t i = 0; i < schema.entity_types().size(); ++i)
    if (&schema.entity_types()[i] == def)
      type_index = static_cast<uint32_t>(i);

  EntityId id = live_.next_entity_id++;
  live_.entities.Insert(
      id, RecordRef::Make(id, type_index, publish_gen_,
                          static_cast<uint32_t>(def->attributes.size())));
  MutableByType()->sets[AsciiUpper(def->name)].Insert(id, 0);

  ByteWriter payload;
  payload.PutString(def->name);
  payload.PutU64(id);
  MDM_RETURN_IF_ERROR(LogOp(Op::kCreateEntity, payload.data()));
  return id;
}

Status Database::DeleteEntity(EntityId id) {
  const RecordRef* found = live_.entities.Find(id);
  if (found == nullptr)
    return NotFound(StrFormat("no entity #%llu", (unsigned long long)id));
  // Keep the record alive across the container surgery below.
  RecordRef rec = *found;
  const ErSchema& schema = live_.schema->schema;
  const std::string type_name = schema.entity_types()[rec->type_index].name;

  // Detach from every ordering: as a child (remove from its siblings) and
  // as a parent (children become roots of that ordering).
  for (size_t i = 0; i < live_.orderings.size(); ++i) {
    const OrdState& cur = *live_.orderings[i];
    const EntityId* pp = cur.parent_of.Find(id);
    const bool as_parent = cur.children.Contains(id);
    if (pp == nullptr && !as_parent) continue;
    EntityId parent = pp == nullptr ? kInvalidEntityId : *pp;
    OrdState* ord = MutableOrd(i);
    if (pp != nullptr) {
      Sibs* sibs = MutableSibs(ord, parent);
      sibs->ids.erase(std::remove(sibs->ids.begin(), sibs->ids.end(), id),
                      sibs->ids.end());
      ord->parent_of.Erase(id);
    }
    if (as_parent) {
      std::vector<EntityId> kids = (*ord->children.Find(id))->ids;
      for (EntityId child : kids) ord->parent_of.Erase(child);
      ord->children.Erase(id);
    }
  }

  // Delete relationship instances that reference the entity.
  std::vector<RelInstanceId> doomed;
  live_.rels.ForEach(
      [&](RelInstanceId rid, const std::shared_ptr<RelationshipInstance>& ri) {
        for (EntityId ref : ri->role_refs)
          if (ref == id) {
            doomed.push_back(rid);
            break;
          }
        return true;
      });
  for (RelInstanceId rid : doomed) {
    const RelationshipInstance& ri = **live_.rels.Find(rid);
    const std::string rel_name =
        AsciiUpper(schema.relationships()[ri.rel_index].name);
    MutableRelsByName()->sets[rel_name].Erase(rid);
    live_.rels.Erase(rid);
  }

  AttrIndexOnDelete(*rec);

  MutableByType()->sets[AsciiUpper(type_name)].Erase(id);
  live_.entities.Erase(id);

  ByteWriter payload;
  payload.PutU64(id);
  return LogOp(Op::kDeleteEntity, payload.data());
}

bool Database::Exists(EntityId id) const { return FindEntity(id) != nullptr; }

Result<std::string> Database::TypeOf(EntityId id) const {
  const Tables& t = ReadTables();
  const RecordRef* rec = t.entities.Find(id);
  if (rec == nullptr)
    return NotFound(StrFormat("no entity #%llu", (unsigned long long)id));
  return t.schema->schema.entity_types()[(*rec)->type_index].name;
}

Status Database::SetAttribute(EntityId id, const std::string& attr,
                              Value value) {
  const EntityRecord* rec = FindEntity(id);
  if (rec == nullptr)
    return NotFound(StrFormat("no entity #%llu", (unsigned long long)id));
  const ErSchema& schema = live_.schema->schema;
  const EntityTypeDef& def = schema.entity_types()[rec->type_index];
  auto idx = def.AttributeIndex(attr);
  if (!idx.has_value())
    return NotFound(StrFormat("entity type %s has no attribute %s",
                              def.name.c_str(), attr.c_str()));
  const AttributeDef& adef = def.attributes[*idx];
  if (!value.is_null()) {
    ValueType got = value.type();
    if (got != adef.type &&
        !(adef.type == ValueType::kFloat && got == ValueType::kInt))
      return TypeError(StrFormat("attribute %s.%s expects %s, got %s",
                                 def.name.c_str(), adef.name.c_str(),
                                 rel::ValueTypeName(adef.type),
                                 rel::ValueTypeName(got)));
    if (adef.type == ValueType::kRef) {
      const EntityRecord* target = FindEntity(value.AsRef());
      if (target == nullptr)
        return NotFound(StrFormat("ref attribute %s targets missing entity "
                                  "#%llu",
                                  adef.name.c_str(),
                                  (unsigned long long)value.AsRef()));
      const std::string& target_type =
          schema.entity_types()[target->type_index].name;
      if (!adef.ref_target.empty() &&
          !EqualsIgnoreCase(target_type, adef.ref_target))
        return TypeError(StrFormat("attribute %s expects a %s, got a %s",
                                   adef.name.c_str(), adef.ref_target.c_str(),
                                   target_type.c_str()));
    }
  }
  ByteWriter payload;
  payload.PutU64(id);
  payload.PutString(adef.name);
  value.Encode(&payload);
  EntityRecord* mut = MutableEntity(id);
  Value& slot = mut->attrs()[*idx];
  AttrIndexOnSet(*mut, static_cast<uint32_t>(*idx), slot, value);
  slot = std::move(value);
  return LogOp(Op::kSetAttribute, payload.data());
}

Result<Value> Database::GetAttribute(EntityId id,
                                     const std::string& attr) const {
  const Tables& t = ReadTables();
  const RecordRef* recp = t.entities.Find(id);
  if (recp == nullptr)
    return NotFound(StrFormat("no entity #%llu", (unsigned long long)id));
  const EntityRecord& rec = **recp;
  const EntityTypeDef& def = t.schema->schema.entity_types()[rec.type_index];
  auto idx = def.AttributeIndex(attr);
  if (!idx.has_value())
    return NotFound(StrFormat("entity type %s has no attribute %s",
                              def.name.c_str(), attr.c_str()));
  return rec.attrs()[*idx];
}

Status Database::ForEachEntity(const std::string& type,
                               const std::function<bool(EntityId)>& fn) const {
  const Tables& t = ReadTables();
  if (t.schema->schema.FindEntityType(type) == nullptr)
    return NotFound("no entity type named " + type);
  auto it = t.by_type->sets.find(AsciiUpper(type));
  if (it == t.by_type->sets.end()) return Status::OK();
  it->second.ForEach([&](EntityId id, uint8_t) { return fn(id); });
  return Status::OK();
}

Result<uint64_t> Database::CountEntities(const std::string& type) const {
  const Tables& t = ReadTables();
  if (t.schema->schema.FindEntityType(type) == nullptr)
    return NotFound("no entity type named " + type);
  auto it = t.by_type->sets.find(AsciiUpper(type));
  return it == t.by_type->sets.end()
             ? 0
             : static_cast<uint64_t>(it->second.size());
}

// ---------------------------------------------------------------------
// Relationships.
// ---------------------------------------------------------------------

Result<RelInstanceId> Database::Connect(
    const std::string& rel,
    const std::vector<std::pair<std::string, EntityId>>& bindings) {
  const ErSchema& schema = live_.schema->schema;
  const RelationshipDef* def = schema.FindRelationship(rel);
  if (def == nullptr) return NotFound("no relationship named " + rel);
  uint32_t rel_index = 0;
  for (size_t i = 0; i < schema.relationships().size(); ++i)
    if (&schema.relationships()[i] == def)
      rel_index = static_cast<uint32_t>(i);

  std::vector<EntityId> refs(def->roles.size(), kInvalidEntityId);
  for (const auto& [role, id] : bindings) {
    auto ridx = def->RoleIndex(role);
    if (!ridx.has_value())
      return NotFound(StrFormat("relationship %s has no role %s",
                                def->name.c_str(), role.c_str()));
    const EntityRecord* target = FindEntity(id);
    if (target == nullptr)
      return NotFound(StrFormat("role %s targets missing entity #%llu",
                                role.c_str(), (unsigned long long)id));
    const std::string& target_type =
        schema.entity_types()[target->type_index].name;
    if (!EqualsIgnoreCase(target_type, def->roles[*ridx].entity_type))
      return TypeError(StrFormat("role %s expects a %s, got a %s",
                                 role.c_str(),
                                 def->roles[*ridx].entity_type.c_str(),
                                 target_type.c_str()));
    refs[*ridx] = id;
  }
  for (size_t i = 0; i < refs.size(); ++i)
    if (refs[i] == kInvalidEntityId)
      return InvalidArgument(StrFormat("role %s of %s is unbound",
                                       def->roles[i].name.c_str(),
                                       def->name.c_str()));

  RelInstanceId id = live_.next_rel_id++;
  auto inst = std::make_shared<RelationshipInstance>();
  inst->id = id;
  inst->rel_index = rel_index;
  inst->role_refs = refs;
  inst->attrs.assign(def->attributes.size(), Value::Null());
  inst->gen = publish_gen_;
  live_.rels.Insert(id, std::move(inst));
  MutableRelsByName()->sets[AsciiUpper(def->name)].Insert(id, 0);

  ByteWriter payload;
  payload.PutString(def->name);
  payload.PutU64(id);
  payload.PutVarint(refs.size());
  for (EntityId ref : refs) payload.PutU64(ref);
  MDM_RETURN_IF_ERROR(LogOp(Op::kConnect, payload.data()));
  return id;
}

Status Database::Disconnect(RelInstanceId id) {
  const std::shared_ptr<RelationshipInstance>* found = live_.rels.Find(id);
  if (found == nullptr)
    return NotFound(StrFormat("no relationship instance #%llu",
                              (unsigned long long)id));
  const std::string rel_name = AsciiUpper(
      live_.schema->schema.relationships()[(*found)->rel_index].name);
  MutableRelsByName()->sets[rel_name].Erase(id);
  live_.rels.Erase(id);
  ByteWriter payload;
  payload.PutU64(id);
  return LogOp(Op::kDisconnect, payload.data());
}

Status Database::SetRelationshipAttribute(RelInstanceId id,
                                          const std::string& attr,
                                          Value value) {
  const std::shared_ptr<RelationshipInstance>* found = live_.rels.Find(id);
  if (found == nullptr)
    return NotFound(StrFormat("no relationship instance #%llu",
                              (unsigned long long)id));
  const RelationshipDef& def =
      live_.schema->schema.relationships()[(*found)->rel_index];
  auto idx = def.AttributeIndex(attr);
  if (!idx.has_value())
    return NotFound(StrFormat("relationship %s has no attribute %s",
                              def.name.c_str(), attr.c_str()));
  const AttributeDef& adef = def.attributes[*idx];
  if (!value.is_null() && value.type() != adef.type &&
      !(adef.type == ValueType::kFloat && value.type() == ValueType::kInt))
    return TypeError(StrFormat("attribute %s.%s expects %s",
                               def.name.c_str(), adef.name.c_str(),
                               rel::ValueTypeName(adef.type)));
  ByteWriter payload;
  payload.PutU64(id);
  payload.PutString(adef.name);
  value.Encode(&payload);
  MutableRel(id)->attrs[*idx] = std::move(value);
  return LogOp(Op::kSetRelAttribute, payload.data());
}

Status Database::ForEachRelationship(
    const std::string& rel,
    const std::function<bool(const RelationshipInstance&)>& fn) const {
  const Tables& t = ReadTables();
  if (t.schema->schema.FindRelationship(rel) == nullptr)
    return NotFound("no relationship named " + rel);
  auto it = t.rels_by_name->sets.find(AsciiUpper(rel));
  if (it == t.rels_by_name->sets.end()) return Status::OK();
  it->second.ForEach([&](RelInstanceId id, uint8_t) {
    const std::shared_ptr<RelationshipInstance>* ri = t.rels.Find(id);
    return ri == nullptr ? true : fn(**ri);
  });
  return Status::OK();
}

Result<uint64_t> Database::CountRelationships(const std::string& rel) const {
  const Tables& t = ReadTables();
  if (t.schema->schema.FindRelationship(rel) == nullptr)
    return NotFound("no relationship named " + rel);
  auto it = t.rels_by_name->sets.find(AsciiUpper(rel));
  return it == t.rels_by_name->sets.end()
             ? 0
             : static_cast<uint64_t>(it->second.size());
}

// ---------------------------------------------------------------------
// Hierarchical ordering.
// ---------------------------------------------------------------------

bool Database::IsAncestor(const OrdState& ord, EntityId needle,
                          EntityId start) const {
  EntityId cur = start;
  while (cur != kInvalidEntityId) {
    if (cur == needle) return true;
    const EntityId* parent = ord.parent_of.Find(cur);
    if (parent == nullptr) return false;
    cur = *parent;
  }
  return false;
}

Status Database::CheckOrderedPairExists(EntityId a, EntityId b) const {
  if (FindEntity(a) == nullptr)
    return NotFound(StrFormat("no entity #%llu", (unsigned long long)a));
  if (FindEntity(b) == nullptr)
    return NotFound(StrFormat("no entity #%llu", (unsigned long long)b));
  return Status::OK();
}

// ---------------------------------------------------------------------
// Mutations.
// ---------------------------------------------------------------------

Status Database::DoInsertChildAt(OrderingHandle h, EntityId parent,
                                 EntityId child, size_t pos) {
  const ErSchema& schema = live_.schema->schema;
  const OrderingDef& def = schema.orderings()[h.index()];
  const EntityRecord* parent_rec = FindEntity(parent);
  if (parent_rec == nullptr)
    return NotFound(StrFormat("no parent entity #%llu",
                              (unsigned long long)parent));
  const EntityRecord* child_rec = FindEntity(child);
  if (child_rec == nullptr)
    return NotFound(StrFormat("no child entity #%llu",
                              (unsigned long long)child));
  const std::string& parent_type =
      schema.entity_types()[parent_rec->type_index].name;
  const std::string& child_type =
      schema.entity_types()[child_rec->type_index].name;
  if (!EqualsIgnoreCase(parent_type, def.parent_type))
    return TypeError(StrFormat("ordering %s expects parent of type %s, "
                               "got %s",
                               def.name.c_str(), def.parent_type.c_str(),
                               parent_type.c_str()));
  if (!def.HasChildType(child_type))
    return TypeError(StrFormat("ordering %s does not admit children of "
                               "type %s",
                               def.name.c_str(), child_type.c_str()));

  const OrdState& cur = *live_.orderings[h.index()];
  if (cur.parent_of.Contains(child))
    return ConstraintViolation(StrFormat(
        "entity #%llu already has a parent in ordering %s",
        (unsigned long long)child, def.name.c_str()));
  // §5.5: P-edge cycles are disallowed — an instance may not be "part of"
  // itself. Only recursive orderings can form them.
  if (child == parent || (def.IsRecursive() && IsAncestor(cur, child, parent)))
    return ConstraintViolation(StrFormat(
        "inserting #%llu under #%llu would create a P-edge cycle in %s",
        (unsigned long long)child, (unsigned long long)parent,
        def.name.c_str()));

  OrdState* ord = MutableOrd(h.index());
  Sibs* sibs = MutableSibs(ord, parent);
  if (pos > sibs->ids.size())
    return OutOfRange(StrFormat("position %zu beyond %zu siblings", pos,
                                sibs->ids.size()));
  sibs->ids.insert(sibs->ids.begin() + pos, child);
  ord->parent_of.Insert(child, parent);

  ByteWriter payload;
  payload.PutString(def.name);
  payload.PutU64(parent);
  payload.PutU64(child);
  payload.PutVarint(pos);
  return LogOp(Op::kInsertChildAt, payload.data());
}

Status Database::AppendChild(OrderingHandle h, EntityId parent,
                             EntityId child) {
  const std::shared_ptr<Sibs>* sibs =
      live_.orderings[h.index()]->children.Find(parent);
  size_t pos = sibs == nullptr ? 0 : (*sibs)->ids.size();
  return DoInsertChildAt(h, parent, child, pos);
}

Status Database::AppendChild(const std::string& ordering, EntityId parent,
                             EntityId child) {
  MDM_ASSIGN_OR_RETURN(OrderingHandle h, ResolveOrderingHandle(ordering));
  return AppendChild(h, parent, child);
}

Status Database::InsertChildAt(OrderingHandle h, EntityId parent,
                               EntityId child, size_t pos) {
  return DoInsertChildAt(h, parent, child, pos);
}

Status Database::InsertChildAt(const std::string& ordering, EntityId parent,
                               EntityId child, size_t pos) {
  MDM_ASSIGN_OR_RETURN(OrderingHandle h, ResolveOrderingHandle(ordering));
  return DoInsertChildAt(h, parent, child, pos);
}

Status Database::DoRemoveChild(OrderingHandle h, EntityId child) {
  const OrderingDef& def = live_.schema->schema.orderings()[h.index()];
  const OrdState& cur = *live_.orderings[h.index()];
  const EntityId* pp = cur.parent_of.Find(child);
  if (pp == nullptr)
    return NotFound(StrFormat("entity #%llu has no parent in ordering %s",
                              (unsigned long long)child, def.name.c_str()));
  EntityId parent = *pp;
  OrdState* ord = MutableOrd(h.index());
  Sibs* sibs = MutableSibs(ord, parent);
  sibs->ids.erase(std::remove(sibs->ids.begin(), sibs->ids.end(), child),
                  sibs->ids.end());
  ord->parent_of.Erase(child);
  ByteWriter payload;
  payload.PutString(def.name);
  payload.PutU64(child);
  return LogOp(Op::kRemoveChild, payload.data());
}

Status Database::RemoveChild(OrderingHandle h, EntityId child) {
  return DoRemoveChild(h, child);
}

Status Database::RemoveChild(const std::string& ordering, EntityId child) {
  MDM_ASSIGN_OR_RETURN(OrderingHandle h, ResolveOrderingHandle(ordering));
  return DoRemoveChild(h, child);
}

// ---------------------------------------------------------------------
// Traversal.
// ---------------------------------------------------------------------

Result<std::vector<EntityId>> Database::Children(OrderingHandle h,
                                                 EntityId parent) const {
  const OrdState& ord = *ReadTables().orderings[h.index()];
  const std::shared_ptr<Sibs>* sibs = ord.children.Find(parent);
  if (sibs == nullptr) return std::vector<EntityId>{};
  return (*sibs)->ids;
}

Result<std::vector<EntityId>> Database::Children(const std::string& ordering,
                                                 EntityId parent) const {
  MDM_ASSIGN_OR_RETURN(OrderingHandle h, ResolveOrderingHandle(ordering));
  return Children(h, parent);
}

Result<uint64_t> Database::ChildCount(OrderingHandle h,
                                      EntityId parent) const {
  const OrdState& ord = *ReadTables().orderings[h.index()];
  const std::shared_ptr<Sibs>* sibs = ord.children.Find(parent);
  return sibs == nullptr ? 0 : static_cast<uint64_t>((*sibs)->ids.size());
}

Result<uint64_t> Database::ChildCount(const std::string& ordering,
                                      EntityId parent) const {
  MDM_ASSIGN_OR_RETURN(OrderingHandle h, ResolveOrderingHandle(ordering));
  return ChildCount(h, parent);
}

Result<EntityId> Database::ParentOf(OrderingHandle h, EntityId child) const {
  const OrdState& ord = *ReadTables().orderings[h.index()];
  const EntityId* parent = ord.parent_of.Find(child);
  return parent == nullptr ? kInvalidEntityId : *parent;
}

Result<EntityId> Database::ParentOf(const std::string& ordering,
                                    EntityId child) const {
  MDM_ASSIGN_OR_RETURN(OrderingHandle h, ResolveOrderingHandle(ordering));
  return ParentOf(h, child);
}

Result<size_t> Database::PositionOf(OrderingHandle h, EntityId child) const {
  const OrdState& ord = *ReadTables().orderings[h.index()];
  const EntityId* parent = ord.parent_of.Find(child);
  if (parent != nullptr) {
    const std::vector<EntityId>& sibs = (*ord.children.Find(*parent))->ids;
    auto it = std::find(sibs.begin(), sibs.end(), child);
    if (it != sibs.end()) return static_cast<size_t>(it - sibs.begin());
  }
  return NotFound(StrFormat("entity #%llu is not ordered in %s",
                            (unsigned long long)child,
                            ordering_def(h).name.c_str()));
}

Result<size_t> Database::PositionOf(const std::string& ordering,
                                    EntityId child) const {
  MDM_ASSIGN_OR_RETURN(OrderingHandle h, ResolveOrderingHandle(ordering));
  return PositionOf(h, child);
}

Result<EntityId> Database::NthChild(OrderingHandle h, EntityId parent,
                                    size_t n) const {
  const OrdState& ord = *ReadTables().orderings[h.index()];
  const std::shared_ptr<Sibs>* sibs = ord.children.Find(parent);
  size_t count = sibs == nullptr ? 0 : (*sibs)->ids.size();
  if (n >= count)
    return OutOfRange(StrFormat("parent has %zu children, wanted index %zu",
                                count, n));
  return (*sibs)->ids[n];
}

Result<EntityId> Database::NthChild(const std::string& ordering,
                                    EntityId parent, size_t n) const {
  MDM_ASSIGN_OR_RETURN(OrderingHandle h, ResolveOrderingHandle(ordering));
  return NthChild(h, parent, n);
}

// ---------------------------------------------------------------------
// §5.6 ordering predicates (see the tri-state contract in database.h).
// ---------------------------------------------------------------------

Result<bool> Database::Before(OrderingHandle h, EntityId a, EntityId b) const {
  MDM_RETURN_IF_ERROR(CheckOrderedPairExists(a, b));
  const OrdState& ord = *ReadTables().orderings[h.index()];
  const EntityId* pa = ord.parent_of.Find(a);
  const EntityId* pb = ord.parent_of.Find(b);
  // §5.6: entities with different parents are not comparable -> false.
  if (pa == nullptr || pb == nullptr || *pa != *pb) return false;
  // Whichever of the two comes first in the shared sibling list decides
  // (checking b first makes Before(a, a) false).
  for (EntityId id : (*ord.children.Find(*pa))->ids) {
    if (id == b) return false;
    if (id == a) return true;
  }
  return false;
}

Result<bool> Database::Before(const std::string& ordering, EntityId a,
                              EntityId b) const {
  MDM_ASSIGN_OR_RETURN(OrderingHandle h, ResolveOrderingHandle(ordering));
  return Before(h, a, b);
}

Result<bool> Database::After(OrderingHandle h, EntityId a, EntityId b) const {
  return Before(h, b, a);
}

Result<bool> Database::After(const std::string& ordering, EntityId a,
                             EntityId b) const {
  MDM_ASSIGN_OR_RETURN(OrderingHandle h, ResolveOrderingHandle(ordering));
  return Before(h, b, a);
}

Result<bool> Database::Under(OrderingHandle h, EntityId child,
                             EntityId parent) const {
  MDM_RETURN_IF_ERROR(CheckOrderedPairExists(child, parent));
  const OrdState& ord = *ReadTables().orderings[h.index()];
  if (child == parent) return false;
  // Multi-level containment: walk P-edges upward from the direct parent.
  const EntityId* direct = ord.parent_of.Find(child);
  return direct != nullptr && IsAncestor(ord, parent, *direct);
}

Result<bool> Database::Under(const std::string& ordering, EntityId child,
                             EntityId parent) const {
  MDM_ASSIGN_OR_RETURN(OrderingHandle h, ResolveOrderingHandle(ordering));
  return Under(h, child, parent);
}

Status Database::ForEachInOrderingSlice(
    OrderingHandle h, OrderingSlice slice, EntityId anchor,
    uint32_t type_index, const std::function<bool(EntityId)>& fn) const {
  const Tables& t = ReadTables();
  if (!t.entities.Contains(anchor))
    return NotFound(StrFormat("no entity #%llu", (unsigned long long)anchor));
  const ErSchema& schema = t.schema->schema;
  const OrderingDef& def = schema.orderings()[h.index()];
  const OrdState& ord = *t.orderings[h.index()];
  // Only an inhomogeneous ordering can hold entities of other types.
  const bool filter =
      def.child_types.size() != 1 ||
      !EqualsIgnoreCase(def.child_types[0],
                        schema.entity_types()[type_index].name);
  auto visit = [&](EntityId id) {
    if (filter && (*t.entities.Find(id))->type_index != type_index)
      return true;
    return fn(id);
  };

  if (slice != OrderingSlice::kDescendants) {
    const EntityId* parent = ord.parent_of.Find(anchor);
    if (parent == nullptr) return Status::OK();
    const std::vector<EntityId>& sibs = (*ord.children.Find(*parent))->ids;
    const size_t pos =
        std::find(sibs.begin(), sibs.end(), anchor) - sibs.begin();
    const size_t begin = slice == OrderingSlice::kBefore ? 0 : pos + 1;
    const size_t end = slice == OrderingSlice::kBefore ? pos : sibs.size();
    for (size_t i = begin; i < end; ++i)
      if (!visit(sibs[i])) break;
    return Status::OK();
  }

  // Iterative preorder walk over S-edges. Only a recursive ordering can
  // nest, so a flat one never looks up a child's children.
  const bool nested = def.IsRecursive();
  std::vector<std::pair<const std::vector<EntityId>*, size_t>> stack;
  auto push_children = [&](EntityId node) {
    const std::shared_ptr<Sibs>* kids = ord.children.Find(node);
    if (kids != nullptr) stack.emplace_back(&(*kids)->ids, 0);
  };
  push_children(anchor);
  while (!stack.empty()) {
    auto& [kids, next] = stack.back();
    if (next == kids->size()) {
      stack.pop_back();
      continue;
    }
    const EntityId id = (*kids)[next++];
    if (!visit(id)) break;
    if (nested) push_children(id);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// Secondary attribute indexes (§5.2 as physical design).
// ---------------------------------------------------------------------

Status Database::DefineIndex(AttrIndexDef def) {
  if (def.name.empty()) return InvalidArgument("index name required");
  const ErSchema& schema = live_.schema->schema;
  const EntityTypeDef* tdef = schema.FindEntityType(def.entity_type);
  if (tdef == nullptr)
    return NotFound("no entity type named " + def.entity_type);
  auto slot = tdef->AttributeIndex(def.attr);
  if (!slot.has_value())
    return NotFound(StrFormat("entity type %s has no attribute %s",
                              tdef->name.c_str(), def.attr.c_str()));
  const std::string key = AsciiUpper(def.name);
  if (live_.indexes->slots.count(key) != 0)
    return AlreadyExists("an index named " + def.name + " already exists");

  auto ix = std::make_shared<AttrIndex>();
  // Store the schema's canonical spellings so explain output and the
  // meta-schema catalog match the DDL regardless of query-side casing.
  ix->def.name = std::move(def.name);
  ix->def.entity_type = tdef->name;
  ix->def.attr = tdef->attributes[*slot].name;
  for (size_t i = 0; i < schema.entity_types().size(); ++i)
    if (&schema.entity_types()[i] == tdef)
      ix->type_index = static_cast<uint32_t>(i);
  ix->attr_slot = static_cast<uint32_t>(*slot);

  // Backfill from existing entities (nulls are never indexed). The tree
  // is not yet visible to any reader, so no probe lock is needed.
  IndexCounters::Get().rebuilds->Inc();
  auto by = live_.by_type->sets.find(AsciiUpper(tdef->name));
  if (by != live_.by_type->sets.end()) {
    by->second.ForEach([&](EntityId id, uint8_t) {
      const Value& v = (*live_.entities.Find(id))->attrs()[ix->attr_slot];
      if (!v.is_null()) {
        ix->tree.Insert(AttrKeyFor(v), id);
        IndexCounters::Get().inserts->Inc();
      }
      return true;
    });
  }

  ByteWriter payload;
  payload.PutString(ix->def.name);
  payload.PutString(ix->def.entity_type);
  payload.PutString(ix->def.attr);
  MutableIndexes()->slots[key] = IndexSlot{std::move(ix), 0};
  live_.catalog_version = NextCatalogVersion();
  return LogOp(Op::kDefineIndex, payload.data());
}

Status Database::DestroyIndex(const std::string& name) {
  const std::string key = AsciiUpper(name);
  if (live_.indexes->slots.count(key) == 0)
    return NotFound("no index named " + name);
  // Pinned snapshots co-own the AttrIndex and keep probing it.
  MutableIndexes()->slots.erase(key);
  live_.catalog_version = NextCatalogVersion();
  ByteWriter payload;
  payload.PutString(name);
  return LogOp(Op::kDestroyIndex, payload.data());
}

std::vector<AttrIndexDef> Database::AttrIndexDefs() const {
  std::vector<AttrIndexDef> out;
  for (const auto& [key, slot] : ReadTables().indexes->slots)
    out.push_back(slot.index->def);
  return out;
}

const AttrIndex* Database::FindAttrIndex(std::string_view entity_type,
                                         std::string_view attr) const {
  if (!attr_index_enabled()) return nullptr;
  if (bulk_index_load_.load(std::memory_order_relaxed)) return nullptr;
  for (const auto& [key, slot] : ReadTables().indexes->slots) {
    if (EqualsIgnoreCase(slot.index->def.entity_type, entity_type) &&
        EqualsIgnoreCase(slot.index->def.attr, attr))
      return slot.index.get();
  }
  return nullptr;
}

const AttrIndex* Database::FindAttrIndexByName(std::string_view name) const {
  const IndexMap& im = *ReadTables().indexes;
  auto it = im.slots.find(AsciiUpper(std::string(name)));
  return it == im.slots.end() ? nullptr : it->second.index.get();
}

std::vector<EntityId> Database::IndexLookup(const AttrIndex& index,
                                            const Value& key) const {
  std::vector<EntityId> out;
  if (key.is_null()) return out;  // see header: callers scan for nulls
  IndexCounters::Get().lookups->Inc();
  const Tables& t = ReadTables();
  if (&t == &live_) {
    // Live read: the caller holds the db latch (shared or exclusive),
    // which already excludes tree maintenance (exclusive latch).
    return index.tree.Find(AttrKeyFor(key));
  }
  // Snapshot probe. The tree is shared mutable state, so synchronize
  // with writer maintenance on probe_mu and fence on the erase epoch
  // captured when this snapshot was published: an erase since then may
  // have removed a row this snapshot still contains.
  const IndexSlot* slot = nullptr;
  auto it = t.indexes->slots.find(AsciiUpper(index.def.name));
  if (it != t.indexes->slots.end() && it->second.index.get() == &index)
    slot = &it->second;
  {
    std::shared_lock<std::shared_mutex> probe(index.probe_mu);
    if (slot != nullptr &&
        index.erase_epoch.load(std::memory_order_acquire) ==
            slot->erase_epoch) {
      for (EntityId id : index.tree.Find(AttrKeyFor(key))) {
        // Rows inserted after the snapshot are filtered here (and by the
        // retained equality conjunct for value changes).
        if (t.entities.Contains(id)) out.push_back(id);
      }
      return out;
    }
  }
  // Degraded: scan-shaped candidate list — every id of the indexed type
  // in this snapshot. Correct superset; the conjunct re-check filters.
  SnapCounters::Get().index_fallbacks->Inc();
  const std::string type_name =
      AsciiUpper(t.schema->schema.entity_types()[index.type_index].name);
  auto bt = t.by_type->sets.find(type_name);
  if (bt != t.by_type->sets.end()) {
    bt->second.ForEach([&](EntityId id, uint8_t) {
      out.push_back(id);
      return true;
    });
  }
  return out;
}

void Database::AttrIndexOnSet(const EntityRecord& rec, uint32_t attr_slot,
                              const Value& old_value, const Value& new_value) {
  if (bulk_index_load_.load(std::memory_order_relaxed)) return;
  const IndexMap& im = *live_.indexes;
  if (im.slots.empty()) return;
  for (const auto& [key, slot] : im.slots) {
    AttrIndex& ix = *slot.index;
    if (ix.type_index != rec.type_index || ix.attr_slot != attr_slot)
      continue;
    std::unique_lock<std::shared_mutex> probe(ix.probe_mu);
    if (!old_value.is_null() &&
        ix.tree.Erase(AttrKeyFor(old_value), rec.id)) {
      ix.erase_epoch.fetch_add(1, std::memory_order_release);
      attr_erase_dirty_ = true;
      IndexCounters::Get().erases->Inc();
    }
    if (!new_value.is_null()) {
      ix.tree.Insert(AttrKeyFor(new_value), rec.id);
      IndexCounters::Get().inserts->Inc();
    }
  }
}

void Database::AttrIndexOnDelete(const EntityRecord& rec) {
  if (bulk_index_load_.load(std::memory_order_relaxed)) return;
  const IndexMap& im = *live_.indexes;
  if (im.slots.empty()) return;
  for (const auto& [key, slot] : im.slots) {
    AttrIndex& ix = *slot.index;
    if (ix.type_index != rec.type_index) continue;
    const Value& v = rec.attrs()[ix.attr_slot];
    if (v.is_null()) continue;
    std::unique_lock<std::shared_mutex> probe(ix.probe_mu);
    if (ix.tree.Erase(AttrKeyFor(v), rec.id)) {
      ix.erase_epoch.fetch_add(1, std::memory_order_release);
      attr_erase_dirty_ = true;
      IndexCounters::Get().erases->Inc();
    }
  }
}

void Database::RefreshIndexEpochs() {
  if (!attr_erase_dirty_) return;
  attr_erase_dirty_ = false;
  IndexMap* im = MutableIndexes();
  for (auto& [key, slot] : im->slots)
    slot.erase_epoch = slot.index->erase_epoch.load(std::memory_order_acquire);
}

void Database::BeginBulkIndexLoad() {
  bulk_index_load_.store(true, std::memory_order_relaxed);
}

Result<uint64_t> Database::EndBulkIndexLoad() {
  if (!bulk_index_load_.load(std::memory_order_relaxed))
    return FailedPrecondition("no bulk index load active");
  bulk_index_load_.store(false, std::memory_order_relaxed);
  uint64_t rebuilt = 0;
  const ErSchema& schema = live_.schema->schema;
  for (const auto& [key, slot] : live_.indexes->slots) {
    AttrIndex& ix = *slot.index;
    std::unique_lock<std::shared_mutex> probe(ix.probe_mu);
    ix.tree = storage::BTree();
    IndexCounters::Get().rebuilds->Inc();
    const std::string type_name =
        AsciiUpper(schema.entity_types()[ix.type_index].name);
    auto by = live_.by_type->sets.find(type_name);
    if (by != live_.by_type->sets.end()) {
      by->second.ForEach([&](EntityId id, uint8_t) {
        const Value& v = (*live_.entities.Find(id))->attrs()[ix.attr_slot];
        if (!v.is_null()) {
          ix.tree.Insert(AttrKeyFor(v), id);
          IndexCounters::Get().inserts->Inc();
        }
        return true;
      });
    }
    // The tree changed wholesale: fence any snapshot published earlier.
    ix.erase_epoch.fetch_add(1, std::memory_order_release);
    attr_erase_dirty_ = true;
    ++rebuilt;
  }
  return rebuilt;
}

// ---------------------------------------------------------------------
// Graphs and diagnostics.
// ---------------------------------------------------------------------

Result<std::string> Database::InstanceGraphDot(
    const std::string& ordering, EntityId root,
    const std::string& label_attr) const {
  MDM_ASSIGN_OR_RETURN(OrderingHandle h, ResolveOrderingHandle(ordering));
  const Tables& t = ReadTables();
  std::string dot =
      "digraph instance_graph {\n  rankdir=TB;\n  node [shape=circle];\n";
  auto label_of = [&](EntityId id) -> std::string {
    const RecordRef* recp = t.entities.Find(id);
    if (recp == nullptr) return StrFormat("#%llu", (unsigned long long)id);
    const EntityRecord& rec = **recp;
    const EntityTypeDef& tdef =
        t.schema->schema.entity_types()[rec.type_index];
    if (!label_attr.empty()) {
      auto idx = tdef.AttributeIndex(label_attr);
      if (idx.has_value() && !rec.attrs()[*idx].is_null()) {
        const Value& v = rec.attrs()[*idx];
        return v.type() == ValueType::kString ? v.AsString() : v.ToString();
      }
    }
    return StrFormat("%s#%llu", tdef.name.c_str(), (unsigned long long)id);
  };
  // BFS over the ordering's P-edges from the root.
  std::vector<EntityId> queue{root};
  dot += StrFormat("  n%llu [label=\"%s\"];\n", (unsigned long long)root,
                   label_of(root).c_str());
  const OrdState& ord = *t.orderings[h.index()];
  for (size_t qi = 0; qi < queue.size(); ++qi) {
    EntityId parent = queue[qi];
    const std::shared_ptr<Sibs>* sibs = ord.children.Find(parent);
    if (sibs == nullptr) continue;
    const std::vector<EntityId>& kids = (*sibs)->ids;
    for (size_t i = 0; i < kids.size(); ++i) {
      dot += StrFormat("  n%llu [label=\"%s\"];\n",
                       (unsigned long long)kids[i], label_of(kids[i]).c_str());
      // P-edge, child -> parent (as drawn in fig 6).
      dot += StrFormat("  n%llu -> n%llu [style=dashed, label=\"P\"];\n",
                       (unsigned long long)kids[i],
                       (unsigned long long)parent);
      // S-edge to the next sibling.
      if (i + 1 < kids.size())
        dot += StrFormat("  n%llu -> n%llu [label=\"S\"];\n",
                         (unsigned long long)kids[i],
                         (unsigned long long)kids[i + 1]);
      queue.push_back(kids[i]);
    }
  }
  dot += "}\n";
  return dot;
}

uint64_t Database::CountDanglingRefs() const {
  const Tables& t = ReadTables();
  uint64_t dangling = 0;
  t.entities.ForEach(
      [&](EntityId, const RecordRef& rec) {
        for (const Value& v : rec->attrs())
          if (v.type() == ValueType::kRef && t.entities.Find(v.AsRef()) == nullptr)
            ++dangling;
        return true;
      });
  t.rels.ForEach(
      [&](RelInstanceId, const std::shared_ptr<RelationshipInstance>& ri) {
        for (EntityId ref : ri->role_refs)
          if (t.entities.Find(ref) == nullptr) ++dangling;
        return true;
      });
  return dangling;
}

// ---------------------------------------------------------------------
// Snapshot / restore.
//
// The byte format is unchanged from the pre-COW layout: entities and
// relationship instances in id order (PMap in-order walk ≡ the old
// std::map iteration), orderings by schema position with per-parent
// keyed child lists (iteration order within an ordering is not part of
// the format), index definitions last.
// ---------------------------------------------------------------------

void Database::Snapshot(ByteWriter* w) const {
  const Tables& t = ReadTables();
  w->PutU32(0x4D444D53);  // "MDMS"
  t.schema->schema.Encode(w);
  w->PutU64(t.next_entity_id);
  w->PutU64(t.next_rel_id);
  w->PutVarint(t.entities.size());
  t.entities.ForEach(
      [&](EntityId id, const RecordRef& rec) {
        w->PutU64(id);
        w->PutU32(rec->type_index);
        w->PutVarint(rec->attrs().size());
        for (const Value& v : rec->attrs()) v.Encode(w);
        return true;
      });
  w->PutVarint(t.rels.size());
  t.rels.ForEach(
      [&](RelInstanceId id, const std::shared_ptr<RelationshipInstance>& ri) {
        w->PutU64(id);
        w->PutU32(ri->rel_index);
        w->PutVarint(ri->role_refs.size());
        for (EntityId ref : ri->role_refs) w->PutU64(ref);
        w->PutVarint(ri->attrs.size());
        for (const Value& v : ri->attrs) v.Encode(w);
        return true;
      });
  w->PutVarint(t.orderings.size());
  for (size_t i = 0; i < t.orderings.size(); ++i) {
    const OrdState& ord = *t.orderings[i];
    w->PutString(AsciiUpper(t.schema->schema.orderings()[i].name));
    w->PutVarint(ord.children.size());
    ord.children.ForEach(
        [&](EntityId parent, const std::shared_ptr<Sibs>& sibs) {
          w->PutU64(parent);
          w->PutVarint(sibs->ids.size());
          for (EntityId kid : sibs->ids) w->PutU64(kid);
          return true;
        });
  }
  // Secondary attribute indexes: definitions only. The tree contents
  // are derivable from the entity data above, so Restore rebuilds them
  // (and counts the rebuilds) instead of deserializing b-tree pages.
  w->PutVarint(t.indexes->slots.size());
  for (const auto& [key, slot] : t.indexes->slots) {
    w->PutString(slot.index->def.name);
    w->PutString(slot.index->def.entity_type);
    w->PutString(slot.index->def.attr);
  }
}

Status Database::Restore(ByteReader* r, Database* out) {
  *out = Database();
  uint32_t magic;
  MDM_RETURN_IF_ERROR(r->GetU32(&magic));
  if (magic != 0x4D444D53) return Corruption("bad snapshot magic");
  {
    ErSchema decoded;
    MDM_RETURN_IF_ERROR(ErSchema::Decode(r, &decoded));
    *out->MutableSchema() = std::move(decoded);
  }
  const ErSchema& schema = out->live_.schema->schema;
  MDM_RETURN_IF_ERROR(r->GetU64(&out->live_.next_entity_id));
  MDM_RETURN_IF_ERROR(r->GetU64(&out->live_.next_rel_id));
  TypeMap* by_type = out->MutableByType();
  uint64_t n_entities;
  MDM_RETURN_IF_ERROR(r->GetVarint(&n_entities));
  for (uint64_t i = 0; i < n_entities; ++i) {
    EntityId id = kInvalidEntityId;
    uint32_t type_index = 0;
    MDM_RETURN_IF_ERROR(r->GetU64(&id));
    MDM_RETURN_IF_ERROR(r->GetU32(&type_index));
    if (type_index >= schema.entity_types().size())
      return Corruption("snapshot entity with bad type index");
    uint64_t n_attrs;
    MDM_RETURN_IF_ERROR(r->GetVarint(&n_attrs));
    // Readers index a record by its type's attribute slots.
    if (n_attrs != schema.entity_types()[type_index].attributes.size())
      return Corruption("snapshot entity attribute count does not match "
                        "its type");
    RecordRef rec = RecordRef::Make(id, type_index, out->publish_gen_,
                                    static_cast<uint32_t>(n_attrs));
    for (Value& v : rec->attrs()) MDM_RETURN_IF_ERROR(Value::Decode(r, &v));
    const std::string& type_name = schema.entity_types()[type_index].name;
    by_type->sets[AsciiUpper(type_name)].Insert(id, 0);
    out->live_.entities.Insert(id, std::move(rec));
  }
  RelNameMap* rels_by_name = out->MutableRelsByName();
  uint64_t n_rels;
  MDM_RETURN_IF_ERROR(r->GetVarint(&n_rels));
  for (uint64_t i = 0; i < n_rels; ++i) {
    auto ri = std::make_shared<RelationshipInstance>();
    ri->gen = out->publish_gen_;
    MDM_RETURN_IF_ERROR(r->GetU64(&ri->id));
    MDM_RETURN_IF_ERROR(r->GetU32(&ri->rel_index));
    if (ri->rel_index >= schema.relationships().size())
      return Corruption("snapshot relationship with bad index");
    uint64_t n_refs;
    MDM_RETURN_IF_ERROR(r->GetVarint(&n_refs));
    for (uint64_t j = 0; j < n_refs; ++j) {
      EntityId ref;
      MDM_RETURN_IF_ERROR(r->GetU64(&ref));
      ri->role_refs.push_back(ref);
    }
    uint64_t n_attrs;
    MDM_RETURN_IF_ERROR(r->GetVarint(&n_attrs));
    for (uint64_t j = 0; j < n_attrs; ++j) {
      Value v;
      MDM_RETURN_IF_ERROR(Value::Decode(r, &v));
      ri->attrs.push_back(std::move(v));
    }
    const std::string& rel_name =
        schema.relationships()[ri->rel_index].name;
    rels_by_name->sets[AsciiUpper(rel_name)].Insert(ri->id, 0);
    RelInstanceId id = ri->id;
    out->live_.rels.Insert(id, std::move(ri));
  }
  uint64_t n_orderings;
  MDM_RETURN_IF_ERROR(r->GetVarint(&n_orderings));
  while (out->live_.orderings.size() < schema.orderings().size()) {
    auto slot = std::make_shared<OrdState>();
    slot->gen = out->publish_gen_;
    out->live_.orderings.push_back(std::move(slot));
  }
  for (uint64_t i = 0; i < n_orderings; ++i) {
    std::string name;
    MDM_RETURN_IF_ERROR(r->GetString(&name));
    auto idx = schema.FindOrderingIndex(name);
    if (!idx.has_value())
      return Corruption("snapshot ordering instances for unknown ordering " +
                        name);
    OrdState* ord = out->live_.orderings[*idx].get();
    uint64_t n_parents;
    MDM_RETURN_IF_ERROR(r->GetVarint(&n_parents));
    for (uint64_t j = 0; j < n_parents; ++j) {
      EntityId parent;
      MDM_RETURN_IF_ERROR(r->GetU64(&parent));
      uint64_t n_kids;
      MDM_RETURN_IF_ERROR(r->GetVarint(&n_kids));
      auto sibs = std::make_shared<Sibs>();
      sibs->gen = out->publish_gen_;
      for (uint64_t k = 0; k < n_kids; ++k) {
        EntityId kid;
        MDM_RETURN_IF_ERROR(r->GetU64(&kid));
        sibs->ids.push_back(kid);
        ord->parent_of.Insert(kid, parent);
      }
      ord->children.Insert(parent, std::move(sibs));
    }
  }
  // Index-definition section (absent in pre-index snapshots: treat EOF
  // as zero indexes). DefineIndex re-backfills each tree from the
  // freshly restored entities; no journal is attached yet, so nothing
  // is re-logged.
  if (!r->AtEnd()) {
    uint64_t n_indexes;
    MDM_RETURN_IF_ERROR(r->GetVarint(&n_indexes));
    for (uint64_t i = 0; i < n_indexes; ++i) {
      AttrIndexDef def;
      MDM_RETURN_IF_ERROR(r->GetString(&def.name));
      MDM_RETURN_IF_ERROR(r->GetString(&def.entity_type));
      MDM_RETURN_IF_ERROR(r->GetString(&def.attr));
      MDM_RETURN_IF_ERROR(out->DefineIndex(std::move(def)));
    }
  }
  // The direct container fills above bypass LogOp, so force the ops
  // fence forward before publishing (readers must see the restored
  // state, not the empty ctor snapshot).
  out->ops_applied_.fetch_add(1, std::memory_order_release);
  out->PublishSnapshot();
  return Status::OK();
}

// ---------------------------------------------------------------------
// Journal replay.
// ---------------------------------------------------------------------

Status Database::ApplyOp(const storage::WalRecord& rec) {
  ByteReader r(reinterpret_cast<const uint8_t*>(rec.payload.data()),
               rec.payload.size());
  uint8_t opcode;
  MDM_RETURN_IF_ERROR(r.GetU8(&opcode));
  switch (static_cast<Op>(opcode)) {
    case Op::kDefineEntity: {
      EntityTypeDef def;
      MDM_RETURN_IF_ERROR(DecodeEntityTypeDef(&r, &def));
      return DefineEntityType(std::move(def));
    }
    case Op::kDefineRelationship: {
      RelationshipDef def;
      MDM_RETURN_IF_ERROR(DecodeRelationshipDef(&r, &def));
      return DefineRelationship(std::move(def));
    }
    case Op::kDefineOrdering: {
      OrderingDef def;
      MDM_RETURN_IF_ERROR(DecodeOrderingDef(&r, &def));
      return DefineOrdering(std::move(def)).ok()
                 ? Status::OK()
                 : Internal("ordering replay failed");
    }
    case Op::kCreateEntity: {
      std::string type;
      uint64_t id;
      MDM_RETURN_IF_ERROR(r.GetString(&type));
      MDM_RETURN_IF_ERROR(r.GetU64(&id));
      // Replay must reproduce the original id.
      live_.next_entity_id = id;
      MDM_ASSIGN_OR_RETURN(EntityId got, CreateEntity(type));
      if (got != id) return Corruption("journal replay id drift");
      return Status::OK();
    }
    case Op::kDeleteEntity: {
      uint64_t id;
      MDM_RETURN_IF_ERROR(r.GetU64(&id));
      return DeleteEntity(id);
    }
    case Op::kSetAttribute: {
      uint64_t id;
      std::string attr;
      Value v;
      MDM_RETURN_IF_ERROR(r.GetU64(&id));
      MDM_RETURN_IF_ERROR(r.GetString(&attr));
      MDM_RETURN_IF_ERROR(Value::Decode(&r, &v));
      return SetAttribute(id, attr, std::move(v));
    }
    case Op::kConnect: {
      std::string rel;
      uint64_t id, n;
      MDM_RETURN_IF_ERROR(r.GetString(&rel));
      MDM_RETURN_IF_ERROR(r.GetU64(&id));
      MDM_RETURN_IF_ERROR(r.GetVarint(&n));
      const RelationshipDef* def = live_.schema->schema.FindRelationship(rel);
      if (def == nullptr || def->roles.size() != n)
        return Corruption("journal connect against unknown relationship");
      std::vector<std::pair<std::string, EntityId>> bindings;
      for (uint64_t i = 0; i < n; ++i) {
        uint64_t ref;
        MDM_RETURN_IF_ERROR(r.GetU64(&ref));
        bindings.emplace_back(def->roles[i].name, ref);
      }
      live_.next_rel_id = id;
      MDM_ASSIGN_OR_RETURN(RelInstanceId got, Connect(rel, bindings));
      if (got != id) return Corruption("journal replay rel-id drift");
      return Status::OK();
    }
    case Op::kDisconnect: {
      uint64_t id;
      MDM_RETURN_IF_ERROR(r.GetU64(&id));
      return Disconnect(id);
    }
    case Op::kInsertChildAt: {
      std::string ordering;
      uint64_t parent, child, pos;
      MDM_RETURN_IF_ERROR(r.GetString(&ordering));
      MDM_RETURN_IF_ERROR(r.GetU64(&parent));
      MDM_RETURN_IF_ERROR(r.GetU64(&child));
      MDM_RETURN_IF_ERROR(r.GetVarint(&pos));
      return InsertChildAt(ordering, parent, child, pos);
    }
    case Op::kRemoveChild: {
      std::string ordering;
      uint64_t child;
      MDM_RETURN_IF_ERROR(r.GetString(&ordering));
      MDM_RETURN_IF_ERROR(r.GetU64(&child));
      return RemoveChild(ordering, child);
    }
    case Op::kSetRelAttribute: {
      uint64_t id;
      std::string attr;
      Value v;
      MDM_RETURN_IF_ERROR(r.GetU64(&id));
      MDM_RETURN_IF_ERROR(r.GetString(&attr));
      MDM_RETURN_IF_ERROR(Value::Decode(&r, &v));
      return SetRelationshipAttribute(id, attr, std::move(v));
    }
    case Op::kDefineIndex: {
      AttrIndexDef def;
      MDM_RETURN_IF_ERROR(r.GetString(&def.name));
      MDM_RETURN_IF_ERROR(r.GetString(&def.entity_type));
      MDM_RETURN_IF_ERROR(r.GetString(&def.attr));
      return DefineIndex(std::move(def));
    }
    case Op::kDestroyIndex: {
      std::string name;
      MDM_RETURN_IF_ERROR(r.GetString(&name));
      return DestroyIndex(name);
    }
  }
  return Corruption(StrFormat("unknown journal opcode %u", opcode));
}

Status Database::ReplayJournal(const std::vector<uint8_t>& log) {
  replaying_ = true;
  Result<uint64_t> n =
      storage::WalRecover(log, [this](const storage::WalRecord& rec) {
        return ApplyOp(rec);
      });
  replaying_ = false;
  PublishSnapshot();
  if (!n.ok()) return n.status();
  return Status::OK();
}

}  // namespace mdm::er
