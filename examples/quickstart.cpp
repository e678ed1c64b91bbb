// Quickstart: define a schema in the paper's DDL, build hierarchically
// ordered data, and query it with the extended QUEL operators
// (before / after / under / is) from §5.6.
//
// Statements are issued through mdm::Connection — the one client API
// that works identically against an in-process database and a remote
// mdmd server (swap Local for Remote("host:port") and nothing else
// changes).
#include <cstdio>

#include "er/database.h"
#include "net/connection.h"
#include "quel/quel.h"

int main() {
  mdm::er::Database db;
  mdm::Connection conn = mdm::Connection::Local(&db);

  // 1. The paper's running schema (§5.4). The Connection routes
  // `define` scripts to the DDL layer and reports what was defined.
  auto ddl = conn.Execute(R"(
    define entity CHORD (name = integer)
    define entity NOTE (name = integer, pitch = string)
    define ordering note_in_chord (NOTE) under CHORD
  )");
  if (!ddl.ok()) {
    std::printf("DDL failed: %s\n", ddl.status().ToString().c_str());
    return 1;
  }
  std::printf("defined: %s entity types, %s ordering(s)\n\n",
              ddl->At(0, 0).ToString().c_str(),
              ddl->At(0, 2).ToString().c_str());

  // 2. A four-note chord, exactly the instance graph of fig 6.
  auto chord = db.CreateEntity("CHORD");
  (void)db.SetAttribute(*chord, "name", mdm::rel::Value::Int(1));
  const char* names[] = {"u", "v", "w", "x"};
  const char* pitches[] = {"G3", "B3", "D4", "G4"};
  for (int i = 0; i < 4; ++i) {
    auto note = db.CreateEntity("NOTE");
    (void)db.SetAttribute(*note, "name", mdm::rel::Value::Int(i + 1));
    (void)db.SetAttribute(*note, "pitch",
                          mdm::rel::Value::String(pitches[i]));
    (void)db.AppendChild("note_in_chord", *chord, *note);
    std::printf("inserted note %s (%s) as child %d of the chord\n",
                names[i], pitches[i], i + 1);
  }

  // "We may speak of the node w as the third child of the parent y."
  auto third = db.NthChild("note_in_chord", *chord, 2);
  auto pitch = db.GetAttribute(*third, "pitch");
  std::printf("\nthe third child of the chord is %s\n\n",
              pitch->AsString().c_str());

  // 3. The paper's §5.6 queries, verbatim apart from '.' attribute
  // syntax, all through the same Connection.
  struct NamedQuery {
    const char* label;
    const char* text;
  } queries[] = {
      {"notes prior to note 3 in its chord",
       "range of n1, n2 is NOTE\n"
       "retrieve (n1.name, n1.pitch)\n"
       "  where n1 before n2 in note_in_chord and n2.name = 3"},
      {"notes that follow note 2",
       "range of n1, n2 is NOTE\n"
       "retrieve (n1.name, n1.pitch)\n"
       "  where n1 after n2 in note_in_chord and n2.name = 2"},
      {"notes under chord 1",
       "range of n1 is NOTE\nrange of c1 is CHORD\n"
       "retrieve (n1.name, n1.pitch)\n"
       "  where n1 under c1 in note_in_chord and c1.name = 1"},
      {"the parent chord of note 4",
       "range of n1 is NOTE\nrange of c1 is CHORD\n"
       "retrieve (c1.name)\n"
       "  where n1 under c1 in note_in_chord and n1.name = 4"},
  };
  for (const NamedQuery& q : queries) {
    auto rs = conn.Execute(q.text);
    if (!rs.ok()) {
      std::printf("query failed: %s\n", rs.status().ToString().c_str());
      return 1;
    }
    // Consume the result through the ResultSet API: range-for over rows,
    // cells by column index or label.
    std::printf("-- %s\n", q.label);
    for (mdm::quel::ResultSet::RowRef row : *rs) {
      for (size_t c = 0; c < rs->columns.size(); ++c)
        std::printf("%s%s = %s", c == 0 ? "   " : ", ",
                    rs->columns[c].c_str(), row[c].ToString().c_str());
      std::printf("\n");
    }
  }

  // 4. `explain` renders the chosen plan — loop order, each loop's
  // access path (here n1 walks n2's siblings) and pushed-down filters.
  auto plan = conn.Execute(
      "range of n1, n2 is NOTE\n"
      "explain retrieve (n1.name, n1.pitch)\n"
      "  where n1 before n2 in note_in_chord and n2.name = 3");
  std::printf("\n%s\n", plan->ToString().c_str());

  // 5. The instance graph itself (fig 6), as Graphviz DOT.
  auto dot = db.InstanceGraphDot("note_in_chord", *chord, "pitch");
  std::printf("instance graph (fig 6):\n%s", dot->c_str());
  return 0;
}
