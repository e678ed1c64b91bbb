#ifndef MDM_ER_DATABASE_H_
#define MDM_ER_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "er/commit_coordinator.h"
#include "er/pmap.h"
#include "er/schema.h"
#include "rel/value.h"
#include "storage/btree.h"
#include "storage/wal.h"

namespace mdm::er {

/// Identifier of a relationship instance.
using RelInstanceId = uint64_t;

/// One stored entity instance: its type and one value per declared
/// attribute (null until set), in ONE allocation — a 32-byte header
/// followed by the attribute values inline, so reading an attribute of
/// a record found in the entity map is one more load, not two. Records
/// are intrusively refcounted and held through RecordRef: the entity
/// map's leaf slots hold the 8-byte pointer itself.
///
/// `gen` is the copy-on-write stamp: a record whose gen equals the
/// database's current publish generation was created (or already
/// cloned) since the last snapshot publish and may be mutated in place;
/// anything older is shared with published snapshots and must be
/// cloned first (see Database::MutableEntity).
class EntityRecord {
 public:
  EntityRecord(const EntityRecord&) = delete;
  EntityRecord& operator=(const EntityRecord&) = delete;

  EntityId id = kInvalidEntityId;
  uint32_t type_index = 0;  // into ErSchema::entity_types()
  uint64_t gen = 0;

  /// Attribute j is attribute j of the type's definition.
  std::span<rel::Value> attrs() { return {Values(), size_}; }
  std::span<const rel::Value> attrs() const { return {Values(), size_}; }

 private:
  friend class RecordRef;
  EntityRecord(EntityId i, uint32_t t, uint64_t g, uint32_t n)
      : id(i), type_index(t), gen(g), size_(n) {}
  rel::Value* Values() const {
    return std::launder(reinterpret_cast<rel::Value*>(
        const_cast<EntityRecord*>(this) + 1));
  }

  std::atomic<uint32_t> refs_{1};
  uint32_t size_;  // attribute count
};

/// The owning handle of an EntityRecord: copying it shares the record
/// (one atomic increment); the last handle frees it.
class RecordRef {
 public:
  RecordRef() = default;
  /// A fresh record of `n` null attributes.
  static RecordRef Make(EntityId id, uint32_t type_index, uint64_t gen,
                        uint32_t n);
  /// A copy of `rec` (attribute values shared) stamped `gen`.
  static RecordRef Clone(const EntityRecord& rec, uint64_t gen);

  RecordRef(const RecordRef& o) noexcept : p_(o.p_) {
    if (p_ != nullptr) p_->refs_.fetch_add(1, std::memory_order_relaxed);
  }
  RecordRef(RecordRef&& o) noexcept : p_(std::exchange(o.p_, nullptr)) {}
  RecordRef& operator=(RecordRef o) noexcept {
    std::swap(p_, o.p_);
    return *this;
  }
  ~RecordRef() { Release(p_); }

  EntityRecord* get() const { return p_; }
  EntityRecord* operator->() const { return p_; }
  EntityRecord& operator*() const { return *p_; }

 private:
  explicit RecordRef(EntityRecord* p) : p_(p) {}
  static void Release(EntityRecord* p) noexcept;

  EntityRecord* p_ = nullptr;
};

static_assert(sizeof(EntityRecord) == 32 &&
                  sizeof(EntityRecord) % alignof(rel::Value) == 0,
              "attribute values follow the header, aligned");
static_assert(sizeof(RecordRef) == 8, "a map slot holds the bare pointer");

/// One stored relationship instance ("m to n"): an entity per role plus
/// relationship attributes. Copy-on-write via `gen`, like EntityRecord.
struct RelationshipInstance {
  RelInstanceId id = 0;
  uint32_t rel_index = 0;  // into ErSchema::relationships()
  std::vector<EntityId> role_refs;
  std::vector<rel::Value> attrs;
  uint64_t gen = 0;
};

/// The part of one ordering an access path enumerates, relative to an
/// anchor entity (Database::ForEachInOrderingSlice).
enum class OrderingSlice : uint8_t {
  kDescendants,  // the anchor's subtree: every x with `x under anchor`
  kBefore,       // earlier siblings: every x with `x before anchor`
  kAfter,        // later siblings: every x with `x after anchor`
};

/// Definition of one secondary attribute index (§5.2's "orderings as
/// physical optimization" generalized to attributes — the thematic
/// index made physical): a B+tree over one attribute of one entity
/// type. Index names are unique case-insensitively; the catalog is
/// mirrored into the meta-schema as INDEX_DEF entities (Fig 9).
struct AttrIndexDef {
  std::string name;
  std::string entity_type;
  std::string attr;
};

/// One live secondary index: its definition, the resolved schema slots
/// and the backing B+tree. Heap-allocated and shared between the live
/// tables and published snapshots, so a pinned snapshot keeps probing
/// a dropped index safely.
///
/// The tree itself is mutated in place by writers (under the exclusive
/// db latch). Snapshot readers probe it without the db latch, so probe
/// and maintenance synchronize on `probe_mu`. `erase_epoch` counts
/// entry removals (updates, deletes, bulk rebuilds): a snapshot whose
/// publish-time epoch no longer matches falls back to a scan-shaped
/// candidate list, because the tree may now be missing rows that exist
/// in that snapshot. Inserts need no epoch — extra candidates are
/// filtered by the retained equality conjunct and the snapshot
/// existence check.
struct AttrIndex {
  AttrIndexDef def;
  uint32_t type_index = 0;  // into ErSchema::entity_types()
  uint32_t attr_slot = 0;   // into that type's attributes
  storage::BTree tree;
  mutable std::shared_mutex probe_mu;
  std::atomic<uint64_t> erase_epoch{0};
};

// ---------------------------------------------------------------------
// The snapshot substrate (docs/WRITEPATH.md).
//
// All reader-visible state hangs off `Tables`, a value of a few root
// pointers into persistent (structurally shared) containers. Publishing
// a snapshot is one Tables copy; mutators copy-on-write the paths they
// touch, stamped with the publish generation so repeated mutation
// between publishes stays in-place. Readers pin the published Tables
// (a shared_ptr copy under a short mutex) and then read entirely
// lock-free; versions retire automatically when the last pin drains.
// ---------------------------------------------------------------------

/// The ordered children of one parent in one ordering. Copy-on-write
/// via `gen`, exactly like EntityRecord.
struct Sibs {
  uint64_t gen = 0;
  std::vector<EntityId> ids;
};

/// One ordering's instance edges — everything the §5.6 predicates
/// read: a position is the child's offset in its parent's Sibs, and
/// multi-level `under` walks parent_of upward.
struct OrdState {
  uint64_t gen = 0;
  // parent -> ordered children (the S-edge sequence).
  PMap<EntityId, std::shared_ptr<Sibs>> children;
  // child -> parent (the P-edge).
  PMap<EntityId, EntityId> parent_of;
};

/// Entity ids are assigned monotonically, so key order doubles as
/// creation order for these sets.
using IdSet = PMap<EntityId, uint8_t>;
using RelIdSet = PMap<RelInstanceId, uint8_t>;

/// Entity-type name (upper) -> ids of that type. The outer map is tiny
/// (one entry per schema type), so it copy-on-writes wholesale per
/// publish window; the inner IdSets share structure.
struct TypeMap {
  uint64_t gen = 0;
  std::map<std::string, IdSet> sets;
};

struct RelNameMap {
  uint64_t gen = 0;
  std::map<std::string, RelIdSet> sets;
};

/// One catalog slot per secondary index. `erase_epoch` is the index's
/// AttrIndex::erase_epoch captured at publish time — the staleness
/// fence for snapshot probes (see AttrIndex).
struct IndexSlot {
  std::shared_ptr<AttrIndex> index;
  uint64_t erase_epoch = 0;
};

/// Index name (upper) -> slot; copy-on-write wholesale (index DDL and
/// erase-epoch refreshes are rare).
struct IndexMap {
  uint64_t gen = 0;
  std::map<std::string, IndexSlot> slots;
};

/// Schema, copy-on-write wholesale per publish window (DDL is rare).
struct SchemaState {
  uint64_t gen = 0;
  ErSchema schema;
};

/// Everything a read statement can observe, as one copyable bundle of
/// root pointers. The live database mutates its own Tables (under the
/// exclusive latch, via copy-on-write); PublishSnapshot copies it into
/// an immutable shared_ptr that readers pin. Do not mutate through a
/// Tables you did not build.
struct Tables {
  std::shared_ptr<SchemaState> schema = std::make_shared<SchemaState>();
  PMap<EntityId, RecordRef> entities;
  std::shared_ptr<TypeMap> by_type = std::make_shared<TypeMap>();
  PMap<RelInstanceId, std::shared_ptr<RelationshipInstance>> rels;
  std::shared_ptr<RelNameMap> rels_by_name = std::make_shared<RelNameMap>();
  // One slot per schema ordering, indexed by OrderingHandle::index().
  std::vector<std::shared_ptr<OrdState>> orderings;
  std::shared_ptr<IndexMap> indexes = std::make_shared<IndexMap>();
  EntityId next_entity_id = 1;
  RelInstanceId next_rel_id = 1;
  // Database::catalog_version().
  uint64_t catalog_version = 0;
};

/// The music data manager's entity-relationship database with
/// hierarchical ordering (the paper's §5 extension).
///
/// Instance-level invariants enforced here (§5.5):
///  * a child occupies at most one position under one parent per
///    ordering (there is only one "second object under voice V");
///  * P-edges of one ordering never form a cycle (nothing is "part of"
///    itself) — checked on insert for recursive orderings;
///  * S-cycles cannot be constructed (sibling order is positional).
///
/// Durability: attach a WAL writer with AttachJournal and every mutation
/// is redo-logged; Snapshot/Restore write and read full images. Recover
/// with ReplayJournal over a log produced since the snapshot. Attach a
/// CommitCoordinator (er/commit_coordinator.h) and commits become group
/// commits: the fsync is amortized over every thread committing in the
/// same window (docs/WRITEPATH.md).
///
/// Thread safety — one write bracket, one read path:
///
/// Methods do not lock internally (they call each other and replay the
/// journal through the same code paths; self-locking would deadlock).
/// Every concurrent mutator brackets its calls with an er::WriteTxn
/// (below): the exclusive latch plus one statement group, published
/// before the latch drops. Every concurrent reader pins the last
/// published snapshot (PinSnapshot + SnapshotReadScope) and reads it
/// with NO db latch: it never blocks and never observes a half-applied
/// statement. A mutation made outside any statement group is its own
/// group, for commit and for visibility alike: it publishes as soon as
/// it is applied, so a single-threaded caller of the direct API reads
/// its own writes through a pin too.
///
/// Moving a Database (move construction/assignment) is NOT
/// latch-protected — quiesce all sessions first. See
/// docs/CONCURRENCY.md for the lock hierarchy and docs/WRITEPATH.md for
/// the publish protocol.
class Database {
 public:
  Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  Database(Database&& other) noexcept;
  Database& operator=(Database&& other) noexcept;

  /// The database-wide writer latch (see class comment); WriteTxn
  /// holds it exclusively. Mutable so it can be taken on a const
  /// Database&.
  std::shared_mutex& latch() const { return mu_; }

  // ------------------------------------------------------------------
  // Schema definition (the DDL front end calls these).
  // ------------------------------------------------------------------
  Status DefineEntityType(EntityTypeDef def);
  Status DefineRelationship(RelationshipDef def);
  /// Returns the (possibly generated) ordering name.
  Result<std::string> DefineOrdering(OrderingDef def);

  const ErSchema& schema() const;

  // ------------------------------------------------------------------
  // Entities.
  // ------------------------------------------------------------------
  Result<EntityId> CreateEntity(const std::string& type);
  /// Removes the entity, detaching it from every ordering (its own
  /// children become ordering roots) and deleting relationship instances
  /// that reference it. Ref-attributes of other entities that pointed at
  /// it become dangling; see CheckReferentialIntegrity.
  Status DeleteEntity(EntityId id);
  bool Exists(EntityId id) const;
  Result<std::string> TypeOf(EntityId id) const;
  /// The stored records of `n` entities in the tables this thread
  /// reads (the pinned snapshot under a SnapshotReadScope): out[i] is
  /// the record of ids[i], or nullptr. Attribute j of a record is
  /// attribute j of its type's definition. Each record (attributes
  /// included: they are inline) is prefetched as soon as its lookup
  /// returns, so the misses of one call overlap. Records
  /// stay valid while those tables are unchanged: one read statement,
  /// or the enumeration of a mutating one (the QUEL executor fetches
  /// each bound row's record once and reads its attributes by slot).
  void FindEntities(const EntityId* ids, size_t n,
                    const EntityRecord** out) const;

  Status SetAttribute(EntityId id, const std::string& attr, rel::Value value);
  Result<rel::Value> GetAttribute(EntityId id, const std::string& attr) const;

  /// Visits every instance of `type` in creation order; stop early by
  /// returning false.
  Status ForEachEntity(const std::string& type,
                       const std::function<bool(EntityId)>& fn) const;
  Result<uint64_t> CountEntities(const std::string& type) const;
  uint64_t TotalEntities() const;

  // ------------------------------------------------------------------
  // Relationships.
  // ------------------------------------------------------------------
  /// Creates an instance of `rel` binding every role:
  ///   Connect("COMPOSER", {{"composer", bach}, {"composition", fugue}}).
  Result<RelInstanceId> Connect(
      const std::string& rel,
      const std::vector<std::pair<std::string, EntityId>>& bindings);
  Status Disconnect(RelInstanceId id);
  Status SetRelationshipAttribute(RelInstanceId id, const std::string& attr,
                                  rel::Value value);
  Status ForEachRelationship(
      const std::string& rel,
      const std::function<bool(const RelationshipInstance&)>& fn) const;
  Result<uint64_t> CountRelationships(const std::string& rel) const;

  // ------------------------------------------------------------------
  // Hierarchical ordering (instance level).
  //
  // Every operation exists in two forms: a string-named convenience
  // overload (resolves the ordering by name on every call) and an
  // OrderingHandle overload. Resolve the handle once per statement or
  // session and use it in hot paths — the handle form also skips the
  // per-call name normalization.
  // ------------------------------------------------------------------

  /// Resolves an ordering name to a handle valid for this database's
  /// lifetime (orderings are append-only).
  Result<OrderingHandle> ResolveOrderingHandle(std::string_view name) const;
  /// The definition behind a handle obtained from this database.
  const OrderingDef& ordering_def(OrderingHandle h) const;

  Status AppendChild(const std::string& ordering, EntityId parent,
                     EntityId child);
  Status AppendChild(OrderingHandle h, EntityId parent, EntityId child);
  /// Inserts at 0-based position `pos` (<= current child count).
  Status InsertChildAt(const std::string& ordering, EntityId parent,
                       EntityId child, size_t pos);
  Status InsertChildAt(OrderingHandle h, EntityId parent, EntityId child,
                       size_t pos);
  Status RemoveChild(const std::string& ordering, EntityId child);
  Status RemoveChild(OrderingHandle h, EntityId child);

  /// The ordered children of `parent` (empty if none).
  Result<std::vector<EntityId>> Children(const std::string& ordering,
                                         EntityId parent) const;
  Result<std::vector<EntityId>> Children(OrderingHandle h,
                                         EntityId parent) const;
  Result<uint64_t> ChildCount(const std::string& ordering,
                              EntityId parent) const;
  Result<uint64_t> ChildCount(OrderingHandle h, EntityId parent) const;
  /// Parent of `child` in the ordering, or kInvalidEntityId when the
  /// child is a root of this ordering.
  Result<EntityId> ParentOf(const std::string& ordering,
                            EntityId child) const;
  Result<EntityId> ParentOf(OrderingHandle h, EntityId child) const;
  /// 0-based ordinal of `child` under its parent.
  Result<size_t> PositionOf(const std::string& ordering,
                            EntityId child) const;
  Result<size_t> PositionOf(OrderingHandle h, EntityId child) const;
  /// 0-based n-th child of `parent` ("the third note in chord x" is
  /// NthChild(..., 2)).
  Result<EntityId> NthChild(const std::string& ordering, EntityId parent,
                            size_t n) const;
  Result<EntityId> NthChild(OrderingHandle h, EntityId parent,
                            size_t n) const;

  /// The paper's ordering predicates (§5.6). Each is a tri-state:
  ///
  ///   * error status — the ordering name does not resolve, or either
  ///     operand entity does not exist. Misspelled orderings and stale
  ///     ids are reported, never silently treated as "no".
  ///   * ok(false)    — both operands exist but are *not comparable* in
  ///     this ordering: different parents, not ordered at all, or (for
  ///     Under) no ancestor path. Per §5.6 this is a legitimate "no".
  ///   * ok(true)     — the predicate holds.
  ///
  /// Before/After: `a` and `b` share a parent and a precedes/follows b
  /// (one pass over that parent's sibling list). Under: `child` lies
  /// below `parent` at *any* depth along P-edges of this ordering — the
  /// paper's multi-level reading, so in a recursive ordering a chord is
  /// `under` every enclosing beam group, not just its direct parent
  /// (a walk up the P-edges, as deep as the hierarchy). All three read
  /// the edges of the tables this thread reads, so under a
  /// SnapshotReadScope they answer from the pinned snapshot.
  Result<bool> Before(const std::string& ordering, EntityId a,
                      EntityId b) const;
  Result<bool> Before(OrderingHandle h, EntityId a, EntityId b) const;
  Result<bool> After(const std::string& ordering, EntityId a,
                     EntityId b) const;
  Result<bool> After(OrderingHandle h, EntityId a, EntityId b) const;
  Result<bool> Under(const std::string& ordering, EntityId child,
                     EntityId parent) const;
  Result<bool> Under(OrderingHandle h, EntityId child, EntityId parent) const;

  /// Ordering access path (§5.2: the ordering as a physical access
  /// method). Visits, in ordering order, every entity of entity type
  /// `type_index` (into ErSchema::entity_types()) for which the slice's
  /// predicate holds against `anchor`: Under(h, x, anchor) for
  /// kDescendants (a preorder walk of anchor's subtree, any depth),
  /// Before(h, x, anchor) / After(h, x, anchor) for kBefore / kAfter
  /// (the prefix / suffix of anchor's sibling list). Reads the S- and
  /// P-edges of the tables this thread reads, so under a
  /// SnapshotReadScope the slice is exactly the pinned snapshot.
  /// NotFound if `anchor` does not exist. Stop early by returning false.
  Status ForEachInOrderingSlice(OrderingHandle h, OrderingSlice slice,
                                EntityId anchor, uint32_t type_index,
                                const std::function<bool(EntityId)>& fn) const;

  // ------------------------------------------------------------------
  // Secondary attribute indexes (§5.2 as physical design).
  //
  // `define index <name> on <entity>(<attr>)` in the DDL lands here.
  // Indexes are maintained inline by SetAttribute/DeleteEntity, are
  // journaled (and so replayed/crash-recovered like any mutation), and
  // are rebuilt from entity data on Restore — the snapshot stores only
  // the definitions.
  // ------------------------------------------------------------------

  /// Creates a B+tree index over one attribute and backfills it from
  /// existing entities. Mutator (exclusive latch); journaled.
  Status DefineIndex(AttrIndexDef def);
  /// Drops the named index. Mutator (exclusive latch); journaled.
  /// Pinned snapshots keep probing their copy of the dropped index.
  Status DestroyIndex(const std::string& name);
  /// All index definitions, in case-normalized name order.
  std::vector<AttrIndexDef> AttrIndexDefs() const;
  /// The live index on (entity type, attribute), or nullptr when none
  /// exists, the ablation switch is off, or a bulk index load is in
  /// progress (the trees are stale then). The planner calls this at
  /// plan time; the pointer stays valid for the whole statement (index
  /// DDL needs the exclusive latch, and pinned snapshots co-own the
  /// index).
  const AttrIndex* FindAttrIndex(std::string_view entity_type,
                                 std::string_view attr) const;
  const AttrIndex* FindAttrIndexByName(std::string_view name) const;
  /// Candidate entities whose `attr` may equal `key`, in id order.
  /// String/rational keys are hash-encoded, so collisions are possible:
  /// callers must re-check the predicate per candidate (the planner
  /// keeps the conjunct in the filter list). `key` must not be null —
  /// nulls are never indexed; probe a null key by falling back to a
  /// full scan (null == null is true under Value::Compare). Under a
  /// SnapshotReadScope the candidates are filtered to entities that
  /// exist in the snapshot, and a tree that has erased entries since
  /// the snapshot was published degrades to a scan-shaped candidate
  /// list (every id of the type) — correct either way, the conjunct
  /// re-check does the rest.
  std::vector<EntityId> IndexLookup(const AttrIndex& index,
                                    const rel::Value& key) const;

  /// Ablation switch: when off, FindAttrIndex returns nullptr so every
  /// plan falls back to full scans. Maintenance continues either way
  /// (the trees stay consistent for re-enabling). Exposed for
  /// bench_s52_attr_index; toggling counts as a mutation.
  void EnableAttrIndex(bool on) {
    attr_index_enabled_.store(on, std::memory_order_relaxed);
  }
  bool attr_index_enabled() const {
    return attr_index_enabled_.load(std::memory_order_relaxed);
  }

  /// Bulk index load (the corpus-loader fast path): between Begin and
  /// End, per-mutation index maintenance is suspended and FindAttrIndex
  /// reports no indexes (stale trees must not serve probes); End
  /// rebuilds every tree from the entity data in one backfill pass per
  /// index and returns how many trees were rebuilt. Both are mutators
  /// (exclusive latch); outside a statement group, End publishes like
  /// any other mutation, so snapshot probes see the rebuilt trees.
  /// Durability is unaffected: the journal logs the data ops, and
  /// recovery re-backfills indexes anyway.
  void BeginBulkIndexLoad();
  Result<uint64_t> EndBulkIndexLoad();
  bool bulk_index_load_active() const {
    return bulk_index_load_.load(std::memory_order_relaxed);
  }

  // ------------------------------------------------------------------
  // Snapshot reads (docs/WRITEPATH.md).
  // ------------------------------------------------------------------

  /// Pins the last published snapshot: a short snap-mutex critical
  /// section, never the db latch. Never null: the constructor
  /// publishes, and so does every mutation outside a statement group.
  std::shared_ptr<const Tables> PinSnapshot() const;

  /// Changes whenever the schema or the set of secondary indexes does,
  /// and only then (an index's erase-epoch refresh leaves it alone).
  /// Read from the tables this thread reads: the pinned snapshot under
  /// a SnapshotReadScope. Values come from one process-wide sequence,
  /// so no two catalogs share one. The QUEL plan cache re-plans a
  /// statement when it moves, so a cached AttrIndex* never outlives the
  /// index set it was found in.
  uint64_t catalog_version() const;

  // ------------------------------------------------------------------
  // Durability.
  // ------------------------------------------------------------------
  /// Attach a journal; subsequent mutations are redo-logged. Pass
  /// nullptr to detach.
  void AttachJournal(storage::WalWriter* wal) { wal_ = wal; }
  /// Attach a group-commit coordinator (owned by DurableDatabase).
  /// With one attached, auto-committed mutations and statement groups
  /// commit through CommitNoSync and block in the coordinator until a
  /// leader's single fsync covers them. Pass nullptr to detach.
  void AttachCommitCoordinator(CommitCoordinator* c) {
    group_flight_ = {};
    coordinator_ = c;
  }
  CommitCoordinator* commit_coordinator() const { return coordinator_; }

  /// Statement groups — the commit bracket WriteTxn is built on; use
  /// WriteTxn rather than calling these directly. Between Begin and
  /// End, journaled ops accumulate in ONE WAL transaction (opened
  /// lazily on the first op), so a statement — or a whole batch — is
  /// crash-atomic: recovery applies all of it or none of it, and
  /// readers see none of it until End publishes. EndStatementGroup
  /// writes the commit record (unsynced when a coordinator is
  /// attached), publishes the snapshot, and returns the commit LSN to
  /// pass to WaitDurable AFTER releasing the latch (0 when there is
  /// nothing to sync). Both require the exclusive latch.
  void BeginStatementGroup();
  Result<uint64_t> EndStatementGroup();
  /// Blocks until the group commit covering `lsn` has fsynced (no-op
  /// for lsn 0 or without a coordinator). Call WITHOUT the latch.
  Status WaitDurable(uint64_t lsn);

  // ------------------------------------------------------------------
  // Diagnostics.
  // ------------------------------------------------------------------
  /// Graphviz DOT rendering of one ordering's instance graph below
  /// `root` (fig 6 style: dashed P-edges child->parent, S-edges between
  /// adjacent siblings). `label_attr` names an attribute to label nodes
  /// with (empty: type#id).
  Result<std::string> InstanceGraphDot(const std::string& ordering,
                                       EntityId root,
                                       const std::string& label_attr) const;
  /// Ref-attributes and role refs pointing at deleted entities.
  uint64_t CountDanglingRefs() const;
  /// Graphviz DOT rendering of the schema's HO-graph (fig 7).
  std::string HoGraphDot() const { return schema().ToHoGraphDot(); }

  /// Full-image snapshot of schema + data.
  void Snapshot(ByteWriter* w) const;
  static Status Restore(ByteReader* r, Database* out);

  /// Replays a journal (produced by a Database with an attached WAL)
  /// into this database: committed ops are re-executed.
  Status ReplayJournal(const std::vector<uint8_t>& log);

 private:
  friend class SnapshotReadScope;

  /// Copies the live tables into the published snapshot slot and opens
  /// a fresh copy-on-write generation; a no-op when nothing changed
  /// since the last publish. Runs where a group ends: EndStatementGroup,
  /// LogOp outside a group, EndBulkIndexLoad, ReplayJournal, Restore.
  void PublishSnapshot();

  // Journal opcodes.
  enum class Op : uint8_t {
    kDefineEntity = 1,
    kDefineRelationship = 2,
    kDefineOrdering = 3,
    kCreateEntity = 4,
    kDeleteEntity = 5,
    kSetAttribute = 6,
    kConnect = 7,
    kDisconnect = 8,
    kInsertChildAt = 9,
    kRemoveChild = 10,
    kSetRelAttribute = 11,
    kDefineIndex = 12,
    kDestroyIndex = 13,
  };

  /// The tables this thread should read: the snapshot pinned by an
  /// enclosing SnapshotReadScope on THIS database, else the live
  /// tables. Mutators always see live_ (mutating statements never run
  /// under a scope).
  const Tables& ReadTables() const;

  const EntityRecord* FindEntity(EntityId id) const;
  /// Copy-on-write lookup for mutation: clones the record (stamping the
  /// current publish generation) unless it is already private to this
  /// generation. nullptr if missing.
  EntityRecord* MutableEntity(EntityId id);
  RelationshipInstance* MutableRel(RelInstanceId id);
  // Every caller changes the schema, so this also moves the catalog
  // version.
  ErSchema* MutableSchema();
  TypeMap* MutableByType();
  RelNameMap* MutableRelsByName();
  IndexMap* MutableIndexes();
  OrdState* MutableOrd(size_t index);
  /// The mutable sibling vector of `parent` in `ord` (created empty if
  /// absent), cloned first if shared with a snapshot.
  Sibs* MutableSibs(OrdState* ord, EntityId parent);

  Result<const OrderingDef*> ResolveOrdering(const std::string& name) const;
  // Core mutators shared by the public API and journal replay.
  Status DoInsertChildAt(OrderingHandle h, EntityId parent, EntityId child,
                         size_t pos);
  Status DoRemoveChild(OrderingHandle h, EntityId child);
  // Walks P-edges upward from `start`; true if `needle` is an ancestor.
  bool IsAncestor(const OrdState& ord, EntityId needle, EntityId start) const;
  Status CheckOrderedPairExists(EntityId a, EntityId b) const;
  Status LogOp(Op op, const std::vector<uint8_t>& payload);
  Status ApplyOp(const storage::WalRecord& rec);
  // Maintenance hooks for the secondary attribute indexes: called by
  // SetAttribute (old value out, new value in) and DeleteEntity.
  void AttrIndexOnSet(const EntityRecord& rec, uint32_t attr_slot,
                      const rel::Value& old_value,
                      const rel::Value& new_value);
  void AttrIndexOnDelete(const EntityRecord& rec);
  // Re-captures AttrIndex::erase_epoch into the IndexSlots before a
  // publish, when any erase happened since the last one.
  void RefreshIndexEpochs();
  // The journal transaction of one op outside a statement group;
  // returns the commit LSN to wait on (0 when already synced).
  Result<uint64_t> CommitAlone(Op op, const std::vector<uint8_t>& payload);

  mutable std::shared_mutex mu_;  // see latch()

  // The live tables (mutated copy-on-write under the exclusive latch)
  // and the published snapshot readers pin. snap_mu_ guards only the
  // published_ pointer swap/copy — it is the last mutex in the lock
  // hierarchy and is never held across any other acquisition.
  Tables live_;
  mutable std::mutex snap_mu_;
  std::shared_ptr<const Tables> published_;
  // Copy-on-write window stamp: structures with gen == publish_gen_ are
  // private to the window since the last publish and mutate in place.
  uint64_t publish_gen_ = 1;
  // The live tables differ from the published ones: an op was applied
  // or an index epoch moved since the last publish. Writer-only (the
  // exclusive latch, or the only thread touching the database); starts
  // true so the constructor publishes the empty tables.
  bool dirty_ = true;

  std::atomic<bool> attr_index_enabled_{true};
  std::atomic<bool> bulk_index_load_{false};
  bool attr_erase_dirty_ = false;

  storage::WalWriter* wal_ = nullptr;
  CommitCoordinator* coordinator_ = nullptr;
  uint64_t open_txn_ = 0;
  // The open statement group's transaction, in flight for the
  // coordinator's window rule (empty without a coordinator).
  CommitCoordinator::Txn group_flight_;
  bool group_active_ = false;
  bool replaying_ = false;
};

/// RAII pin of a published snapshot for the current thread: while in
/// scope, every const read API call on `db` from this thread resolves
/// against the pinned Tables instead of the live ones — no db latch,
/// no blocking, planner/executor code unchanged. Scopes nest (the
/// innermost wins) and are per-thread; do not run mutators on the same
/// database inside a scope.
class SnapshotReadScope {
 public:
  SnapshotReadScope(const Database* db, std::shared_ptr<const Tables> tables);
  ~SnapshotReadScope();
  SnapshotReadScope(const SnapshotReadScope&) = delete;
  SnapshotReadScope& operator=(const SnapshotReadScope&) = delete;

 private:
  std::shared_ptr<const Tables> tables_;  // keeps the snapshot alive
  const Database* prev_db_;
  const Tables* prev_tables_;
};

/// The one write bracket: holds the exclusive db latch and one open
/// statement group for its lifetime, so everything done through it
/// commits as one WAL transaction and becomes visible to readers at
/// once. Commit() ends the group (commit record, then publish),
/// releases the latch, and only then waits for group-commit
/// durability, so concurrent committers share one fsync. Dropped
/// without Commit(), it still ends the group (the applied prefix
/// commits and publishes: the redo-only WAL cannot undo it) and
/// unlocks without waiting.
///
///   er::WriteTxn txn(&db);
///   txn->AppendChild(h, chord, note);
///   MDM_RETURN_IF_ERROR(txn.Commit());
///
/// WriteTxns do not nest, and a thread holding one must not call a
/// QuelSession's Execute on the same database: the latch is not
/// recursive.
class WriteTxn {
 public:
  explicit WriteTxn(Database* db);
  ~WriteTxn();
  WriteTxn(const WriteTxn&) = delete;
  WriteTxn& operator=(const WriteTxn&) = delete;

  /// Ends the group, releases the latch, then waits until the commit is
  /// durable. Call at most once.
  Status Commit();

  Database* operator->() const { return db_; }

 private:
  Database* db_;
  std::unique_lock<std::shared_mutex> latch_;
  bool ended_ = false;
};

}  // namespace mdm::er

#endif  // MDM_ER_DATABASE_H_
