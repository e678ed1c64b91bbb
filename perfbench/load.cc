// The bench-owned load: workload table, corpus generation and import,
// oracle model read-back, index DDL, checkpoint or server start, and the
// untimed warm-up. Each layer's share of set-up is timed separately.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <limits>
#include <mutex>
#include <shared_mutex>

#include "bench.h"
#include "biblio/thematic_index.h"
#include "cmn/schema.h"
#include "common/strings.h"
#include "corpus/generator.h"
#include "darms/darms.h"

namespace perfbench {

namespace biblio = mdm::biblio;
namespace cmn = mdm::cmn;
namespace darms = mdm::darms;
using mdm::Result;
using mdm::Status;
using Clock = std::chrono::steady_clock;

void HashBytes(uint64_t* h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= 1099511628211ull;
  }
}
void HashStr(uint64_t* h, const std::string& s) {
  HashBytes(h, s.data(), s.size());
  HashBytes(h, "|", 1);
}
void HashInt(uint64_t* h, int64_t v) { HashBytes(h, &v, sizeof(v)); }

namespace {

// Each workload puts most of its time on one layer (perfbench/NOTES.md):
//  fig1-mix       the QUEL executor's `under` scans of the NOTE and
//                 MEASURE extents (one local client, no net; its editors
//                 also commit through the journal);
//  catalog-remote wire + server dispatch + parse/plan + index probe
//                 (librarians only, read-only, two remote clients);
//  edit-journaled WAL append, group commit, snapshot publish and index
//                 upkeep beside T2 readers (three local clients). Its p99
//                 spread is too wide for BENCHMARK.json; run it by hand.
const Workload kWorkloads[] = {
    {"fig1-mix", 100, 40'000, 1, false, true, {2, 3, 3, 2}, false, false},
    {"catalog-remote", 300, 12'000, 2, true, false, {0, 0, 0, 1}, true,
     false},
    {"edit-journaled", 20, 20'000, 3, false, true, {4, 0, 1, 4}, false,
     true},
};

constexpr int kIncipitKeys = 8;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

mdm::corpus::CorpusSpec SpecFor(const Workload& w, uint64_t seed) {
  mdm::corpus::CorpusSpec spec;
  spec.seed = seed;
  spec.scores = w.scores;
  spec.target_total_notes = w.notes;
  return spec;
}

/// One score's import is one statement group (one WAL transaction and
/// one group-committed fsync when journaled), as a copyist's "save".
class ScoreGroup {
 public:
  explicit ScoreGroup(er::Database* db) : db_(db), latch_(db->latch()) {
    db_->BeginStatementGroup();
  }
  ~ScoreGroup() {
    if (!ended_) (void)db_->EndStatementGroup();
  }
  ScoreGroup(const ScoreGroup&) = delete;
  ScoreGroup& operator=(const ScoreGroup&) = delete;

  Status Commit() {
    ended_ = true;
    Result<uint64_t> lsn = db_->EndStatementGroup();
    latch_.unlock();
    MDM_RETURN_IF_ERROR(lsn.status());
    return db_->WaitDurable(*lsn);
  }

 private:
  er::Database* db_;
  std::unique_lock<std::shared_mutex> latch_;
  bool ended_ = false;
};

/// Imports one generated score and reads its notes back into the model
/// through the database, so the oracle checks what was stored.
Status ImportScore(er::Database* db, er::EntityId catalog,
                   const std::string& darms_text, Tenant* t) {
  ScoreGroup group(db);
  MDM_ASSIGN_OR_RETURN(darms::DarmsImport import,
                       darms::ImportDarms(db, darms_text, t->title));
  MDM_RETURN_IF_ERROR(
      db->SetAttribute(import.staff, "number", rel::Value::Int(t->id)));
  MDM_RETURN_IF_ERROR(
      db->SetAttribute(import.voice, "number", rel::Value::Int(t->id)));
  MDM_ASSIGN_OR_RETURN(std::vector<er::EntityId> notes,
                       db->Children(cmn::kNoteOnStaff, import.staff));
  for (er::EntityId note : notes) {
    MDM_ASSIGN_OR_RETURN(rel::Value key, db->GetAttribute(note, "midi_key"));
    MDM_ASSIGN_OR_RETURN(rel::Value deg, db->GetAttribute(note, "degree"));
    if (key.is_null() || deg.is_null())
      return mdm::Internal("imported note lacks midi_key or degree");
    int k = static_cast<int>(key.AsInt());
    t->keys.push_back(k);
    ++t->key_count[k];
    ++t->degree_hist[static_cast<int>(deg.AsInt())];
  }
  if (t->keys.empty()) return mdm::Internal("imported score has no notes");
  t->measures = import.measures;
  auto [lo, hi] = std::minmax_element(t->keys.begin(), t->keys.end());
  t->min_key = *lo;
  t->max_key = *hi;
  // A1's rare pitches: keys occurring at most twice, or the least
  // frequent keys when every key repeats more often.
  int fewest = std::numeric_limits<int>::max();
  for (const auto& [key, n] : t->key_count) fewest = std::min(fewest, n);
  for (const auto& [key, n] : t->key_count)
    if (n <= std::max(fewest, 2)) t->rare_keys.push_back(key);

  biblio::CatalogEntry entry;
  entry.number = t->number;
  entry.title = t->title;
  entry.setting = "solo";
  entry.measure_count = t->measures;
  entry.incipit.assign(
      t->keys.begin(),
      t->keys.begin() + std::min<size_t>(t->keys.size(), kIncipitKeys));
  std::vector<std::string> parts;
  for (int k : entry.incipit) parts.push_back(std::to_string(k));
  t->incipit = mdm::StrJoin(parts, " ");
  MDM_RETURN_IF_ERROR(biblio::AddEntry(db, catalog, entry).status());
  return group.Commit();
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

const std::vector<std::string>& IndexDdl() {
  static const std::vector<std::string> kDdl = {
      "define index pb_score_title on SCORE(title)",
      "define index pb_staff_number on STAFF(number)",
      "define index pb_note_midi_key on NOTE(midi_key)",
      "define index pb_entry_number on CATALOG_ENTRY(number)",
      "define index pb_entry_incipit on CATALOG_ENTRY(incipit)",
      "define index pb_annotation_xpos on ANNOTATION(xpos)",
  };
  return kDdl;
}

uint64_t CorpusDigest(const Workload& w, uint64_t seed) {
  uint64_t h = kFnvOffset;
  mdm::corpus::CorpusSpec spec = SpecFor(w, seed);
  for (int i = 0; i < w.scores; ++i)
    HashStr(&h, mdm::corpus::GenerateScore(mdm::corpus::DeriveScoreSpec(spec, i))
                    .user_darms);
  return h;
}

System::~System() {
  if (server_) server_->Stop();
  server_.reset();
  durable_db_.reset();
  memory_db_.reset();
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
}

Result<mdm::Connection> System::Connect() const {
  if (server_) return mdm::Connection::Remote("127.0.0.1", server_->port());
  return mdm::Connection::Local(db_);
}

Result<std::unique_ptr<System>> SetUp(const Workload& w, uint64_t seed,
                                      const std::string& dir) {
  auto sys = std::make_unique<System>();
  sys->workload_ = &w;
  SetupTimes& times = sys->times_;
  const Clock::time_point start = Clock::now();

  if (w.journaled) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) return mdm::IoError("cannot create " + dir + ": " + ec.message());
    sys->dir_ = dir;
    MDM_ASSIGN_OR_RETURN(sys->durable_db_,
                         er::DurableDatabase::Open(dir + "/library.mdm"));
    sys->db_ = sys->durable_db_->db();
  } else {
    sys->memory_db_ = std::make_unique<er::Database>();
    sys->db_ = sys->memory_db_.get();
  }
  er::Database* db = sys->db_;
  MDM_RETURN_IF_ERROR(cmn::InstallCmnSchema(db));
  MDM_RETURN_IF_ERROR(biblio::InstallBiblioSchema(db));
  MDM_ASSIGN_OR_RETURN(er::EntityId catalog,
                       biblio::CreateCatalog(db, "perfbench", "PB"));

  Library& lib = sys->library_;
  const mdm::corpus::CorpusSpec spec = SpecFor(w, seed);
  for (int i = 0; i < w.scores; ++i) {
    Clock::time_point t0 = Clock::now();
    mdm::corpus::GeneratedScore gen =
        mdm::corpus::GenerateScore(mdm::corpus::DeriveScoreSpec(spec, i));
    times.generate_s += Since(t0);
    HashStr(&sys->corpus_digest_, gen.user_darms);

    t0 = Clock::now();
    Tenant t;
    t.id = i;
    t.title = mdm::StrFormat("score-%d", i);
    t.number = std::to_string(i);
    MDM_RETURN_IF_ERROR(ImportScore(db, catalog, gen.user_darms, &t));
    times.import_s += Since(t0);
    lib.notes += static_cast<int64_t>(t.keys.size());
    ++lib.incipit_count[t.incipit];
    lib.tenants.push_back(std::move(t));
  }

  {
    Clock::time_point t0 = Clock::now();
    mdm::Connection conn = mdm::Connection::Local(db);
    for (const std::string& ddl : IndexDdl())
      MDM_RETURN_IF_ERROR(conn.Execute(ddl).status());
    times.index_s = Since(t0);
  }
  if (w.journaled) {
    Clock::time_point t0 = Clock::now();
    MDM_RETURN_IF_ERROR(sys->durable_db_->Checkpoint());
    sys->durable_db_->EnableGroupCommit(er::CommitCoordinator::Options{});
    times.checkpoint_s = Since(t0);
  }
  if (w.remote) {
    sys->server_ = std::make_unique<net::Server>(db);
    MDM_RETURN_IF_ERROR(sys->server_->Start());
  }

  // Warm-up: every read-only script once over the workload's own
  // transport, so lazy index builds happen before the timed phase.
  {
    MDM_ASSIGN_OR_RETURN(mdm::Connection conn, sys->Connect());
    for (int kind : {kA1, kA2, kA3, kA4, kT1, kT2, kL1, kL2Number,
                     kL2Title}) {
      Op op{kind, 0, 0};
      Outcome out = Execute(&conn, Render(op, lib.tenants[0]));
      std::string bad = Check(op, &lib.tenants[0], lib, out);
      if (!bad.empty()) return mdm::Internal("warm-up diverged: " + bad);
    }
  }
  times.total_s = Since(start);
  return sys;
}

}  // namespace perfbench
