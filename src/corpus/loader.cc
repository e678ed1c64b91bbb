#include "corpus/loader.h"

#include <algorithm>
#include <optional>

#include "biblio/thematic_index.h"
#include "cmn/schema.h"
#include "common/strings.h"
#include "darms/darms.h"
#include "obs/metrics.h"

namespace mdm::corpus {

using er::EntityId;
using rel::Value;

namespace {

constexpr int kIncipitKeys = 8;

std::string JoinKeys(const std::vector<int>& keys) {
  std::vector<std::string> parts;
  parts.reserve(keys.size());
  for (int k : keys) parts.push_back(std::to_string(k));
  return StrJoin(parts, " ");
}

Status DefineWorkloadIndexes(er::Database* db) {
  const er::AttrIndexDef defs[] = {
      {"idx_score_title", "SCORE", "title"},
      {"idx_staff_number", "STAFF", "number"},
      {"idx_note_midi_key", "NOTE", "midi_key"},
      {"idx_entry_number", "CATALOG_ENTRY", "number"},
      {"idx_entry_incipit", "CATALOG_ENTRY", "incipit"},
      {"idx_annotation_xpos", "ANNOTATION", "xpos"},
  };
  for (const er::AttrIndexDef& def : defs) {
    if (db->FindAttrIndexByName(def.name) != nullptr) continue;
    MDM_RETURN_IF_ERROR(db->DefineIndex(def));
  }
  return Status::OK();
}

/// Restores normal index maintenance even when the load errors out
/// mid-way — a database left in bulk mode would silently stop
/// maintaining its indexes.
class BulkIndexScope {
 public:
  explicit BulkIndexScope(er::Database* db) : db_(db) {
    db_->BeginBulkIndexLoad();
  }
  ~BulkIndexScope() {
    if (db_ != nullptr) (void)db_->EndBulkIndexLoad();
  }
  /// Ends the scope explicitly so the success path can surface a
  /// rebuild failure instead of swallowing it in the destructor.
  Result<uint64_t> End() {
    er::Database* db = db_;
    db_ = nullptr;
    return db->EndBulkIndexLoad();
  }

 private:
  er::Database* db_;
};

}  // namespace

Result<Corpus> LoadCorpus(er::Database* db, const LoadOptions& options) {
  obs::Registry* reg = obs::Registry::Global();
  obs::Counter* scores_c = reg->GetCounter(
      "mdm_corpus_scores_total", "scores loaded by the corpus loader");
  obs::Counter* notes_c = reg->GetCounter(
      "mdm_corpus_notes_total", "notes loaded by the corpus loader");
  obs::Counter* measures_c = reg->GetCounter(
      "mdm_corpus_measures_total", "measures loaded by the corpus loader");
  obs::Gauge* progress_g = reg->GetGauge(
      "mdm_corpus_load_progress", "scores loaded in the current corpus load");

  MDM_RETURN_IF_ERROR(cmn::InstallCmnSchema(db));
  MDM_RETURN_IF_ERROR(biblio::InstallBiblioSchema(db));
  MDM_ASSIGN_OR_RETURN(EntityId catalog,
                       biblio::CreateCatalog(db, "MDM corpus", "MDM"));
  // Indexes are defined BEFORE the load; in bulk mode their per-insert
  // maintenance is suppressed and each tree is rebuilt once at the end,
  // so the default cost matches the old define-after-load shape while
  // also covering databases that already carry indexes.
  if (options.define_indexes) MDM_RETURN_IF_ERROR(DefineWorkloadIndexes(db));
  std::optional<BulkIndexScope> bulk;
  if (options.bulk_index_build) bulk.emplace(db);

  Corpus corpus;
  corpus.tenants.reserve(static_cast<size_t>(std::max(1, options.spec.scores)));
  progress_g->Set(0);

  for (int i = 0; i < std::max(1, options.spec.scores); ++i) {
    ScoreSpec spec = DeriveScoreSpec(options.spec, i);
    GeneratedScore gen = GenerateScore(spec);
    // One score's import = ONE WriteTxn = one WAL transaction with a
    // single (group-committable) fsync. Without it, every
    // CreateEntity/SetAttribute inside the DARMS importer commits and
    // publishes on its own, and a journaled 10^6-note load pays
    // millions of syncs.
    er::WriteTxn txn(db);

    TenantModel model;
    model.tenant = i;
    model.title = StrFormat("score-%d", i);
    model.catalog_number = std::to_string(i);

    MDM_ASSIGN_OR_RETURN(darms::DarmsImport import,
                         darms::ImportDarms(db, gen.user_darms, model.title));
    // Make the tenant addressable from QUEL without entity ids: the
    // staff (and voice) carry the tenant number.
    MDM_RETURN_IF_ERROR(
        db->SetAttribute(import.staff, "number", Value::Int(i)));
    MDM_RETURN_IF_ERROR(
        db->SetAttribute(import.voice, "number", Value::Int(i)));

    // Read the notes back *through the database* (not from the items):
    // the model must agree with what the importer actually stored.
    MDM_ASSIGN_OR_RETURN(std::vector<EntityId> notes,
                         db->Children(cmn::kNoteOnStaff, import.staff));
    model.keys.reserve(notes.size());
    for (EntityId note : notes) {
      MDM_ASSIGN_OR_RETURN(Value key, db->GetAttribute(note, "midi_key"));
      MDM_ASSIGN_OR_RETURN(Value degree, db->GetAttribute(note, "degree"));
      if (key.is_null() || degree.is_null())
        return Internal(StrFormat("imported note %llu lacks midi_key/degree",
                                  static_cast<unsigned long long>(note)));
      int k = static_cast<int>(key.AsInt());
      model.keys.push_back(k);
      ++model.key_count[k];
      ++model.degree_hist[static_cast<int>(degree.AsInt())];
    }
    model.notes = static_cast<int>(model.keys.size());
    model.measures = import.measures;
    if (!model.keys.empty()) {
      auto [lo, hi] = std::minmax_element(model.keys.begin(), model.keys.end());
      model.min_key = *lo;
      model.max_key = *hi;
    }
    model.incipit.assign(
        model.keys.begin(),
        model.keys.begin() + std::min<size_t>(model.keys.size(), kIncipitKeys));
    model.incipit_text = JoinKeys(model.incipit);

    biblio::CatalogEntry entry;
    entry.number = model.catalog_number;
    entry.title = model.title;
    entry.setting = "solo";
    entry.measure_count = model.measures;
    entry.incipit = model.incipit;
    MDM_RETURN_IF_ERROR(biblio::AddEntry(db, catalog, entry).status());
    MDM_RETURN_IF_ERROR(txn.Commit());

    corpus.total_notes += model.notes;
    corpus.total_rests += import.rests;
    corpus.total_measures += model.measures;
    ++corpus.incipit_count[model.incipit_text];
    corpus.tenants.push_back(std::move(model));

    scores_c->Inc();
    notes_c->Inc(static_cast<uint64_t>(corpus.tenants.back().notes));
    measures_c->Inc(static_cast<uint64_t>(import.measures));
    progress_g->Set(i + 1);
    if (options.progress) options.progress(i + 1, corpus.total_notes);
  }

  // One rebuild per index, at full scale, instead of per-insert upkeep.
  if (bulk.has_value()) MDM_RETURN_IF_ERROR(bulk->End().status());
  return corpus;
}

}  // namespace mdm::corpus
