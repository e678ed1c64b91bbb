// Shared declarations of the perfbench runner: the workload table, the
// bench-owned corpus load with its oracle model, the seeded op streams
// and the per-op oracle. Everything the benchmark sends to the program
// is decided here, in the benchmark's own files; the program sees only
// generated DARMS text and `mdm::Connection` calls.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "er/database.h"
#include "er/persist.h"
#include "net/connection.h"
#include "net/server.h"

namespace perfbench {

namespace er = mdm::er;
namespace net = mdm::net;
namespace obs = mdm::obs;
namespace quel = mdm::quel;
namespace rel = mdm::rel;

// ---------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------

constexpr uint64_t kFnvOffset = 1469598103934665603ull;

void HashBytes(uint64_t* h, const void* data, size_t n);
void HashStr(uint64_t* h, const std::string& s);
void HashInt(uint64_t* h, int64_t v);

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/// The paper's fig-1 client classes.
enum Class { kEditor = 0, kAnalyzer, kTypesetter, kLibrarian, kClasses };

/// One workload: corpus size, deployment and client mix. Every field
/// is fixed here; the seed only picks the inputs.
struct Workload {
  const char* name;
  int scores;
  int64_t notes;
  int clients;
  bool remote;     // Connection::Remote to an in-process net::Server
  bool journaled;  // DurableDatabase with group commit, else in-memory
  int weights[kClasses];  // editor : analyzer : typesetter : librarian
  bool zipf_targets;      // librarian targets Zipf-skewed over entries
  bool t2_only;           // typesetters send only T2 measure listings
};

/// The workload named `name`, or nullptr.
const Workload* FindWorkload(const std::string& name);

// ---------------------------------------------------------------------
// Corpus load and oracle model
// ---------------------------------------------------------------------

/// The oracle's model of one score, read back from the database at load
/// time and advanced by the benchmark as its own editors mutate it.
/// Each tenant is written by exactly one client thread.
struct Tenant {
  int id = 0;
  std::string title;    // SCORE.title and CATALOG_ENTRY.title
  std::string number;   // CATALOG_ENTRY.number
  std::string incipit;  // CATALOG_ENTRY.incipit: first 8 keys, joined
  std::vector<int> keys;  // every note's midi_key, staff order
  std::map<int, int> key_count;
  std::map<int, int> degree_hist;
  std::vector<int> rare_keys;  // A1 targets: keys seen <= 2 times, else the rarest
  int measures = 0;
  int min_key = 0;
  int max_key = 0;
  int appended_measures = 0;  // by this run's E1 ops
  int annotations = 0;        // by this run's E2 ops
};

struct Library {
  std::vector<Tenant> tenants;
  std::map<std::string, int> incipit_count;
  int64_t notes = 0;
};

/// Wall seconds of each setup layer, summed over its calls.
struct SetupTimes {
  double generate_s = 0;    // corpus::GenerateScore
  double import_s = 0;      // darms::ImportDarms + model read-back
  double index_s = 0;       // `define index` DDL through a Connection
  double checkpoint_s = 0;  // DurableDatabase::Checkpoint
  double total_s = 0;       // also server start and the untimed warm-up
};

/// One loaded system: the database (in memory or journaled under
/// `dir`), the server in front of it when the workload is remote, and
/// the oracle model. Destruction stops the server, closes the journal
/// and removes `dir`.
class System {
 public:
  ~System();
  System() = default;
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  er::Database* db() const { return db_; }
  const Workload& workload() const { return *workload_; }
  Library& library() { return library_; }
  const SetupTimes& times() const { return times_; }
  uint64_t corpus_digest() const { return corpus_digest_; }

  /// A new client connection of the workload's transport.
  mdm::Result<mdm::Connection> Connect() const;

  friend mdm::Result<std::unique_ptr<System>> SetUp(const Workload& w,
                                                    uint64_t seed,
                                                    const std::string& dir);

 private:
  const Workload* workload_ = nullptr;
  std::string dir_;
  std::unique_ptr<er::Database> memory_db_;
  std::unique_ptr<er::DurableDatabase> durable_db_;
  er::Database* db_ = nullptr;
  std::unique_ptr<net::Server> server_;
  Library library_;
  SetupTimes times_;
  uint64_t corpus_digest_ = kFnvOffset;
};

/// Generates the seeded corpus, imports it through the DARMS importer,
/// builds the oracle model, defines the indexes, checkpoints or starts
/// the server, and runs the warm-up. `dir` holds the journal of a
/// journaled workload and is removed with the System.
mdm::Result<std::unique_ptr<System>> SetUp(const Workload& w, uint64_t seed,
                                           const std::string& dir);

/// Digest of the DARMS text the workload's corpus generator yields for
/// `seed`, without importing it (the pinned-input check).
uint64_t CorpusDigest(const Workload& w, uint64_t seed);

/// The index DDL every workload loads after import.
const std::vector<std::string>& IndexDdl();

// ---------------------------------------------------------------------
// Op streams and the oracle
// ---------------------------------------------------------------------

/// Sub-operations of docs/WORKLOADS.md. L2 is two ops: the lookup by
/// number (index probe) and by title (scan), each checked on its own.
enum OpKind {
  kE1, kE2, kE3, kA1, kA2, kA3, kA4, kT1, kT2, kL1, kL2Number, kL2Title,
  kOpKinds
};
const char* OpName(int kind);
Class ClassOf(int kind);

/// One planned op: what to run, on which tenant, with which random
/// parameter (reduced modulo the tenant's list sizes when rendered).
struct Op {
  int kind = kA2;
  int tenant = 0;
  uint64_t param = 0;
};

/// The endless, seeded op stream of one client. A pure function of
/// (workload, seed, client, tenant count): independent of timing,
/// thread count and what the database returns.
class OpStream {
 public:
  OpStream(const Workload& w, uint64_t seed, int client, int tenants);
  Op Next();

 private:
  int NextKind(int cls);

  mdm::Rng rng_;
  std::vector<int> tenants_;  // this client's tenants (it alone edits them)
  std::vector<int> class_deck_;
  size_t class_pos_ = 0;
  std::vector<int> kind_deck_[kClasses];
  size_t kind_pos_[kClasses] = {};
  std::vector<double> zipf_cdf_;
  std::vector<int> zipf_tenant_;  // rank -> tenant
};

/// Digest of the workload's parameters, every script template, the
/// index DDL and the first `ops` ops of every client's stream (the
/// pinned-input check).
uint64_t StreamDigest(const Workload& w, uint64_t seed, int tenants,
                      int ops);

/// A rendered op: the scripts it sends and whether they go as one
/// ExecuteBatch.
struct Call {
  std::vector<std::string> scripts;
  bool batch = false;
};
Call Render(const Op& op, const Tenant& t);

/// What came back from the Connection.
struct Outcome {
  mdm::Status status;
  std::vector<uint64_t> affected;  // one per statement run
  bool all_ok = false;
  quel::ResultSet last;  // the (last) statement's result
};

/// Runs `call` on `conn`.
Outcome Execute(mdm::Connection* conn, const Call& call);

/// Checks `out` against the model and advances the model for
/// mutations. Returns an empty string when the op agrees with the
/// oracle, else a description of the divergence.
std::string Check(const Op& op, Tenant* t, const Library& lib,
                  const Outcome& out);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
