#ifndef MDM_BENCH_BENCH_UTIL_H_
#define MDM_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "cmn/schema.h"
#include "cmn/score_builder.h"
#include "common/random.h"
#include "ddl/parser.h"
#include "er/database.h"
#include "obs/metrics.h"

namespace mdm::bench {

/// Installs the paper's NOTE/CHORD schema and populates `n_chords`
/// chords with `notes_per_chord` notes each, in one er::WriteTxn. Note
/// names are sequential; chord names are 1-based.
inline er::Database MakeChordDb(int n_chords, int notes_per_chord) {
  er::Database db;
  auto ddl = ddl::ExecuteDdl(R"(
    define entity CHORD (name = integer)
    define entity NOTE (name = integer)
    define ordering note_in_chord (NOTE) under CHORD
  )",
                             &db);
  if (!ddl.ok()) std::abort();
  int note_name = 0;
  er::WriteTxn txn(&db);
  for (int c = 1; c <= n_chords; ++c) {
    auto chord = db.CreateEntity("CHORD");
    (void)db.SetAttribute(*chord, "name", rel::Value::Int(c));
    for (int n = 0; n < notes_per_chord; ++n) {
      auto note = db.CreateEntity("NOTE");
      (void)db.SetAttribute(*note, "name", rel::Value::Int(note_name++));
      (void)db.AppendChild("note_in_chord", *chord, *note);
    }
  }
  if (!txn.Commit().ok()) std::abort();
  return db;
}

/// Builds a random single-voice score of `n_measures` measures in 4/4,
/// four quarter-note single-note chords per measure, in one
/// er::WriteTxn.
inline er::EntityId MakeRandomScore(er::Database* db, int n_measures,
                                    uint64_t seed = 7) {
  if (!cmn::InstallCmnSchema(db).ok()) std::abort();
  cmn::ScoreBuilder builder(db);
  Rng rng(seed);
  er::WriteTxn txn(db);
  auto score = builder.CreateScore("bench score");
  auto movement = builder.AddMovement(*score, "I");
  auto voice = builder.AddVoice(1);
  for (int m = 1; m <= n_measures; ++m) {
    auto measure = builder.AddMeasure(*movement, m, {4, 4});
    for (int b = 0; b < 4; ++b) {
      auto sync = builder.GetOrAddSync(*measure, Rational(b));
      auto chord = builder.AddChord(*sync, *voice, Rational(1));
      (void)builder.AddNoteMidi(*chord,
                                55 + static_cast<int>(rng.Uniform(24)));
    }
  }
  if (!txn.Commit().ok()) std::abort();
  return *score;
}

/// Snapshots the obs registry's monotonic series around a timed bench
/// section, so the BENCH_JSON line can attribute registry activity
/// (index probes, rows scanned, fsync counts, ...) to that section.
///
///   MetricsSection metrics;
///   ... timed work ...
///   std::printf("BENCH_JSON {... %s}\n", metrics.DeltaJson().c_str());
class MetricsSection {
 public:
  MetricsSection() : before_(obs::Registry::Global()->CounterValues()) {}

  /// Counters that changed since construction, as `"name": delta` JSON
  /// members (no surrounding braces, ready for embedding). Series named
  /// with labels keep them. Empty string when nothing changed.
  std::string DeltaJson() const {
    std::map<std::string, uint64_t> after =
        obs::Registry::Global()->CounterValues();
    std::string out;
    for (const auto& [name, value] : after) {
      auto it = before_.find(name);
      uint64_t delta = value - (it == before_.end() ? 0 : it->second);
      if (delta == 0) continue;
      if (!out.empty()) out += ", ";
      // Series names may embed label quotes; escape them for JSON.
      out += '"';
      for (char ch : name) {
        if (ch == '"' || ch == '\\') out += '\\';
        out += ch;
      }
      out += "\": " + std::to_string(delta);
    }
    return out;
  }

  /// The change in one series since construction (0 if absent).
  uint64_t Delta(const std::string& name) const {
    std::map<std::string, uint64_t> after =
        obs::Registry::Global()->CounterValues();
    auto a = after.find(name);
    auto b = before_.find(name);
    return (a == after.end() ? 0 : a->second) -
           (b == before_.end() ? 0 : b->second);
  }

  /// `delta_json` plus a leading comma when non-empty, so callers can
  /// splice it after existing BENCH_JSON members unconditionally.
  std::string DeltaJsonSuffix() const {
    std::string d = DeltaJson();
    return d.empty() ? d : ", " + d;
  }

 private:
  std::map<std::string, uint64_t> before_;
};

/// Client-side latency percentiles for bench worker loops: a lock-free
/// obs::Histogram of nanosecond observations shared by the threads,
/// with quantiles estimated by the same obs::HistogramPercentile() the
/// /statusz admin endpoint serves — a bench's p99 and the server's
/// dashboard p99 come from one estimator (log2 buckets, linear
/// interpolation, so ~2×-accurate; see obs/metrics.h).
class LatencyRecorder {
 public:
  void ObserveNs(uint64_t ns) { h_.Observe(ns); }
  uint64_t count() const { return h_.count(); }
  double PercentileUs(double q) const {
    return obs::HistogramPercentile(h_, q) / 1e3;
  }

 private:
  obs::Histogram h_;
};

/// Strips `--smoke` from argv (so benchmark::Initialize never sees an
/// unknown flag) and reports whether it was present. Smoke mode is the
/// CI contract for every bench binary: shrink the workload to seconds,
/// skip the Google-benchmark timing loop, but still print the BENCH_JSON
/// summary line(s) — bench/smoke_runner.cc validates them per binary.
inline bool ConsumeSmokeFlag(int* argc, char** argv) {
  bool smoke = false;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  argv[out] = nullptr;
  return smoke;
}

/// The minimal BENCH_JSON line for benches whose measurements live in
/// Google-benchmark loops (skipped under --smoke): names the binary and
/// records the mode, so the smoke runner can validate the contract.
inline void PrintSmokeJson(const char* bench, bool smoke) {
  std::printf("BENCH_JSON {\"bench\": \"%s\", \"smoke\": %s}\n", bench,
              smoke ? "true" : "false");
}

inline void PrintHeader(const char* experiment, const char* paper_artifact) {
  std::printf("==========================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper artifact: %s\n", paper_artifact);
  std::printf("==========================================================\n");
}

}  // namespace mdm::bench

#endif  // MDM_BENCH_BENCH_UTIL_H_
