// The fig-1 op streams (docs/WORKLOADS.md E1-E3, A1-A4, T1-T2, L1-L2)
// as QUEL scripts owned by the benchmark, and the oracle that checks
// every reply against the tenant model.
#include <algorithm>
#include <cmath>
#include <iterator>

#include "bench.h"
#include "common/strings.h"

namespace perfbench {

namespace {

const char* const kOpNames[kOpKinds] = {
    "E1-append-measure", "E2-annotate",  "E3-dynamics",
    "A1-before-count",   "A2-note-count", "A3-degree-hist",
    "A4-range",          "T1-page-notes", "T2-measures",
    "L1-incipit",        "L2-by-number",  "L2-by-title"};

// Script templates, one per op (E2 sends two statements as one batch).
// They are part of the pinned stream digest.
const char kTplE1[] =
    "range of v is MOVEMENT range of s is SCORE "
    "append to MEASURE (number = %d, meter_num = 4, meter_den = 4) "
    "under v in measure_in_movement "
    "where v under s in movement_in_score and s.title = \"%s\"";
const char kTplE2Append[] =
    "append to ANNOTATION (text = \"mark-%d-%d\", xpos = %d)";
const char kTplE2Count[] =
    "range of a is ANNOTATION retrieve (c = count(a)) where a.xpos = %d";
const char kTplE3[] =
    "range of n is NOTE range of s is STAFF "
    "replace n (dynamic = \"%s\") where n under s in note_on_staff "
    "and s.number = %d and n.midi_key = %d";
const char kTplA1[] =
    "range of n1, n2 is NOTE range of s is STAFF "
    "retrieve (c = count(n1)) where n1 before n2 in note_on_staff "
    "and n2 under s in note_on_staff and s.number = %d "
    "and n2.midi_key = %d";
const char kTplA2[] =
    "range of n is NOTE range of s is STAFF "
    "retrieve (c = count(n)) where n under s in note_on_staff "
    "and s.number = %d";
const char kTplA3[] =
    "range of n is NOTE range of s is STAFF "
    "retrieve (c = count(n by n.degree)) where n under s in note_on_staff "
    "and s.number = %d";
const char kTplA4[] =
    "range of n is NOTE range of s is STAFF "
    "retrieve (lo = min(n.midi_key), hi = max(n.midi_key)) "
    "where n under s in note_on_staff and s.number = %d";
const char kTplT1[] =
    "range of n is NOTE range of s is STAFF "
    "retrieve (n.midi_key, n.degree) where n under s in note_on_staff "
    "and s.number = %d";
const char kTplT2[] =
    "range of m is MEASURE range of v is MOVEMENT range of s is SCORE "
    "retrieve (m.number) where m under v in measure_in_movement "
    "and v under s in movement_in_score and s.title = \"%s\"";
const char kTplL1[] =
    "range of e is CATALOG_ENTRY retrieve (e.number) "
    "where e.incipit = \"%s\"";
const char kTplL2Num[] =
    "range of e is CATALOG_ENTRY retrieve (e.title) where e.number = \"%s\"";
const char kTplL2Tit[] =
    "range of e is CATALOG_ENTRY retrieve (e.title) where e.title = \"%s\"";
const char* const kTemplates[] = {
    kTplE1, kTplE2Append, kTplE2Count, kTplE3, kTplA1, kTplA2,   kTplA3,
    kTplA4, kTplT1,       kTplT2,      kTplL1, kTplL2Num, kTplL2Tit};

const char* const kDynamicMarks[] = {"pp", "p", "mp", "mf", "f", "ff"};

// Sub-op decks per class. Each client deals every deck in a freshly
// shuffled order, so a run's class and sub-op shares stay within one
// deck of the weights whatever the seed.
const std::vector<int> kKindDecks[kClasses] = {
    {kE1, kE2, kE3},
    {kA1, kA2, kA3, kA4},
    {kT1, kT2},
    {kL1, kL2Number, kL2Title},
};

// Zipf exponent of librarian targets on catalog-remote: skewed enough
// that the hot scripts fit the server's per-session parse cache.
constexpr double kZipfExponent = 1.0;

void Shuffle(std::vector<int>* deck, mdm::Rng* rng) {
  for (size_t i = deck->size(); i > 1; --i)
    std::swap((*deck)[i - 1], (*deck)[rng->Uniform(i)]);
}

int64_t Int(const quel::ResultSet& rs, size_t row, size_t col) {
  const rel::Value& v = rs.At(row, col);
  return v.type() == rel::ValueType::kInt ? v.AsInt() : -1;
}

std::string Text(const quel::ResultSet& rs) {
  if (rs.rows.size() != 1) return std::string();
  const rel::Value& v = rs.At(0, 0);
  return v.type() == rel::ValueType::kString ? v.AsString() : std::string();
}

}  // namespace

const char* OpName(int kind) {
  return kind >= 0 && kind < kOpKinds ? kOpNames[kind] : "unknown";
}

Class ClassOf(int kind) {
  if (kind <= kE3) return kEditor;
  if (kind <= kA4) return kAnalyzer;
  if (kind <= kT2) return kTypesetter;
  return kLibrarian;
}

OpStream::OpStream(const Workload& w, uint64_t seed, int client, int tenants)
    : rng_(seed * 0x9E3779B97F4A7C15ull +
           static_cast<uint64_t>(client + 1) * 0x94D049BB133111EBull) {
  for (int t = client; t < tenants; t += w.clients) tenants_.push_back(t);
  for (int c = 0; c < kClasses; ++c) {
    class_deck_.insert(class_deck_.end(), static_cast<size_t>(w.weights[c]),
                       c);
    kind_deck_[c] = kKindDecks[c];
  }
  if (w.t2_only) kind_deck_[kTypesetter] = {kT2};
  class_pos_ = class_deck_.size();
  for (int c = 0; c < kClasses; ++c) kind_pos_[c] = kind_deck_[c].size();
  if (w.zipf_targets) {
    // Same rank -> tenant map for every client: the hot entries are
    // shared, as a library's popular works are.
    mdm::Rng perm_rng(seed ^ 0x5A17F00Dull);
    zipf_tenant_.resize(static_cast<size_t>(tenants));
    for (int t = 0; t < tenants; ++t) zipf_tenant_[static_cast<size_t>(t)] = t;
    Shuffle(&zipf_tenant_, &perm_rng);
    double sum = 0;
    for (int r = 1; r <= tenants; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r), kZipfExponent);
      zipf_cdf_.push_back(sum);
    }
    for (double& c : zipf_cdf_) c /= sum;
  }
}

int OpStream::NextKind(int cls) {
  std::vector<int>& deck = kind_deck_[cls];
  if (kind_pos_[cls] == deck.size()) {
    Shuffle(&deck, &rng_);
    kind_pos_[cls] = 0;
  }
  return deck[kind_pos_[cls]++];
}

Op OpStream::Next() {
  if (class_pos_ == class_deck_.size()) {
    Shuffle(&class_deck_, &rng_);
    class_pos_ = 0;
  }
  const int cls = class_deck_[class_pos_++];
  Op op;
  op.kind = NextKind(cls);
  if (cls == kLibrarian && !zipf_cdf_.empty()) {
    const double u = rng_.NextDouble();
    const size_t rank = static_cast<size_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
        zipf_cdf_.begin());
    op.tenant = zipf_tenant_[std::min(rank, zipf_tenant_.size() - 1)];
  } else {
    op.tenant = tenants_[rng_.Uniform(tenants_.size())];
  }
  op.param = rng_.Next();
  return op;
}

uint64_t StreamDigest(const Workload& w, uint64_t seed, int tenants,
                      int ops) {
  uint64_t h = kFnvOffset;
  HashStr(&h, w.name);
  for (int64_t v : {int64_t{w.scores}, w.notes, int64_t{w.clients},
                    int64_t{w.remote}, int64_t{w.journaled},
                    int64_t{w.zipf_targets}, int64_t{w.t2_only}})
    HashInt(&h, v);
  for (int weight : w.weights) HashInt(&h, weight);
  for (const char* t : kTemplates) HashStr(&h, t);
  for (const std::string& ddl : IndexDdl()) HashStr(&h, ddl);
  for (int client = 0; client < w.clients; ++client) {
    OpStream stream(w, seed, client, tenants);
    for (int i = 0; i < ops; ++i) {
      Op op = stream.Next();
      HashInt(&h, op.kind);
      HashInt(&h, op.tenant);
      HashInt(&h, static_cast<int64_t>(op.param));
    }
  }
  return h;
}

Call Render(const Op& op, const Tenant& t) {
  using mdm::StrFormat;
  const int id = t.id;
  switch (op.kind) {
    case kE1:
      return {{StrFormat(kTplE1, t.measures + t.appended_measures + 1,
                         t.title.c_str())},
              true};
    case kE2:
      return {{StrFormat(kTplE2Append, id, t.annotations, id),
               StrFormat(kTplE2Count, id)},
              true};
    case kE3: {
      const int key = t.keys[op.param % t.keys.size()];
      const char* mark =
          kDynamicMarks[(op.param >> 32) % std::size(kDynamicMarks)];
      return {{StrFormat(kTplE3, mark, id, key)}, true};
    }
    case kA1:
      return {{StrFormat(kTplA1, id, t.rare_keys[op.param % t.rare_keys.size()])},
              false};
    case kA2: return {{StrFormat(kTplA2, id)}, false};
    case kA3: return {{StrFormat(kTplA3, id)}, false};
    case kA4: return {{StrFormat(kTplA4, id)}, false};
    case kT1: return {{StrFormat(kTplT1, id)}, false};
    case kT2: return {{StrFormat(kTplT2, t.title.c_str())}, false};
    case kL1: return {{StrFormat(kTplL1, t.incipit.c_str())}, false};
    case kL2Number: return {{StrFormat(kTplL2Num, t.number.c_str())}, false};
    default: return {{StrFormat(kTplL2Tit, t.title.c_str())}, false};
  }
}

Outcome Execute(mdm::Connection* conn, const Call& call) {
  Outcome out;
  if (call.batch) {
    mdm::Result<mdm::BatchResult> br = conn->ExecuteBatch(call.scripts);
    if (!br.ok()) {
      out.status = br.status();
      return out;
    }
    for (const mdm::BatchStatementOutcome& s : br->statements)
      out.affected.push_back(s.affected);
    out.all_ok = br->all_ok();
    out.status = br->first_error();
    out.last = std::move(br->last);
    return out;
  }
  mdm::Result<quel::ResultSet> rs = conn->Execute(call.scripts[0]);
  if (!rs.ok()) {
    out.status = rs.status();
    return out;
  }
  out.affected.push_back(rs->affected);
  out.all_ok = true;
  out.last = *std::move(rs);
  return out;
}

std::string Check(const Op& op, Tenant* t, const Library& lib,
                  const Outcome& out) {
  using mdm::StrFormat;
  const char* name = OpName(op.kind);
  if (!out.all_ok)
    return StrFormat("t%d %s failed: %s", t->id, name,
                     out.status.message().c_str());
  const quel::ResultSet& rs = out.last;
  const uint64_t affected = out.affected.empty() ? 0 : out.affected[0];
  switch (op.kind) {
    case kE1:
      if (affected != 1) return StrFormat("t%d E1 affected %llu", t->id,
                                          (unsigned long long)affected);
      ++t->appended_measures;
      return "";
    case kE2: {
      if (affected != 1) return StrFormat("t%d E2 affected %llu", t->id,
                                          (unsigned long long)affected);
      ++t->annotations;
      if (Int(rs, 0, 0) != t->annotations)
        return StrFormat("t%d E2 count %lld != %d", t->id,
                         (long long)Int(rs, 0, 0), t->annotations);
      return "";
    }
    case kE3: {
      const int key = t->keys[op.param % t->keys.size()];
      const uint64_t expect = static_cast<uint64_t>(t->key_count.at(key));
      if (affected != expect)
        return StrFormat("t%d E3 key %d affected %llu != %llu", t->id, key,
                         (unsigned long long)affected,
                         (unsigned long long)expect);
      return "";
    }
    case kA1: {
      // Each occurrence of the key at staff position i has i notes
      // before it.
      const int key = t->rare_keys[op.param % t->rare_keys.size()];
      int64_t expect = 0;
      for (size_t i = 0; i < t->keys.size(); ++i)
        if (t->keys[i] == key) expect += static_cast<int64_t>(i);
      if (Int(rs, 0, 0) != expect)
        return StrFormat("t%d A1 key %d count %lld != %lld", t->id, key,
                         (long long)Int(rs, 0, 0), (long long)expect);
      return "";
    }
    case kA2:
      if (Int(rs, 0, 0) != static_cast<int64_t>(t->keys.size()))
        return StrFormat("t%d A2 count %lld != %zu", t->id,
                         (long long)Int(rs, 0, 0), t->keys.size());
      return "";
    case kA3: {
      std::map<int, int> got;
      for (size_t r = 0; r < rs.rows.size(); ++r)
        got[static_cast<int>(Int(rs, r, 0))] = static_cast<int>(Int(rs, r, 1));
      if (got != t->degree_hist)
        return StrFormat("t%d A3 histogram mismatch", t->id);
      return "";
    }
    case kA4:
      if (Int(rs, 0, 0) != t->min_key || Int(rs, 0, 1) != t->max_key)
        return StrFormat("t%d A4 range mismatch", t->id);
      return "";
    case kT1: {
      bool same = rs.rows.size() == t->keys.size();
      for (size_t r = 0; same && r < rs.rows.size(); ++r)
        same = Int(rs, r, 0) == t->keys[r];
      if (!same) return StrFormat("t%d T1 note sequence mismatch", t->id);
      return "";
    }
    case kT2: {
      // The measure numbers are exactly 1..N after this run's appends.
      std::vector<int64_t> numbers;
      for (size_t r = 0; r < rs.rows.size(); ++r)
        numbers.push_back(Int(rs, r, 0));
      std::sort(numbers.begin(), numbers.end());
      bool ok = numbers.size() == static_cast<size_t>(t->measures +
                                                      t->appended_measures);
      for (size_t i = 0; ok && i < numbers.size(); ++i)
        ok = numbers[i] == static_cast<int64_t>(i) + 1;
      if (!ok)
        return StrFormat("t%d T2 measures are not 1..%d (%zu rows)", t->id,
                         t->measures + t->appended_measures,
                         numbers.size());
      return "";
    }
    case kL1: {
      auto it = lib.incipit_count.find(t->incipit);
      const size_t expect =
          it == lib.incipit_count.end() ? 0 : static_cast<size_t>(it->second);
      if (rs.rows.size() != expect)
        return StrFormat("t%d L1 incipit matches %zu != %zu", t->id,
                         rs.rows.size(), expect);
      return "";
    }
    default:
      if (Text(rs) != t->title)
        return StrFormat("t%d %s returned \"%s\"", t->id, name,
                         Text(rs).c_str());
      return "";
  }
}

}  // namespace perfbench
