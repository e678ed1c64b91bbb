#include "net/connection.h"

#include <mutex>
#include <shared_mutex>
#include <utility>

#include "common/strings.h"
#include "ddl/parser.h"
#include "obs/trace.h"

namespace mdm {

namespace {

bool IsDdlScript(const std::string& script) {
  const std::string_view head = StrTrim(script);
  auto starts = [&](std::string_view kw) {
    return EqualsIgnoreCase(head.substr(0, kw.size()), kw);
  };
  return starts("define") || starts("destroy");
}

quel::ResultSet DdlSummary(const ddl::DdlResult& ddl) {
  quel::ResultSet rs;
  // "indexes" counts index DDL statements executed, defined plus
  // destroyed — schema objects the script touched either way.
  rs.columns = {"entity_types", "relationships", "orderings", "indexes"};
  size_t index_ops = ddl.indexes.size() + ddl.destroyed_indexes.size();
  rs.rows.push_back(
      {rel::Value::Int(static_cast<int64_t>(ddl.entity_types.size())),
       rel::Value::Int(static_cast<int64_t>(ddl.relationships.size())),
       rel::Value::Int(static_cast<int64_t>(ddl.orderings.size())),
       rel::Value::Int(static_cast<int64_t>(index_ops))});
  rs.affected = ddl.entity_types.size() + ddl.relationships.size() +
                ddl.orderings.size() + index_ops;
  return rs;
}

/// Dispatches one script with the exclusive db latch already held and
/// an er statement group open — the shape both the batch path and the
/// latched DDL path execute under.
Result<quel::ResultSet> RunStatementPreLocked(er::Database* db,
                                              quel::QuelSession* session,
                                              const std::string& script) {
  if (IsDdlScript(script)) {
    MDM_ASSIGN_OR_RETURN(ddl::DdlResult ddl, ddl::ExecuteDdl(script, db));
    return DdlSummary(ddl);
  }
  return session->ExecutePreLocked(script);
}

}  // namespace

Result<quel::ResultSet> RunScript(er::Database* db,
                                  quel::QuelSession* session,
                                  const std::string& script) {
  if (IsDdlScript(script)) {
    // DDL mutates schema state shared with every reader, so it takes
    // the exclusive latch and commits through a statement group exactly
    // like a QUEL write (historically it ran unlatched, racing against
    // concurrent QUEL sessions on the same database).
    Result<quel::ResultSet> rs = quel::ResultSet{};
    Result<uint64_t> lsn = 0;
    {
      std::unique_lock<std::shared_mutex> latch(db->latch());
      db->BeginStatementGroup();
      rs = RunStatementPreLocked(db, session, script);
      lsn = db->EndStatementGroup();
    }
    MDM_RETURN_IF_ERROR(rs.status());
    MDM_RETURN_IF_ERROR(lsn.status());
    MDM_RETURN_IF_ERROR(db->WaitDurable(*lsn));
    return rs;
  }
  return session->Execute(script);
}

Result<BatchResult> RunBatch(er::Database* db, quel::QuelSession* session,
                             const std::vector<std::string>& scripts) {
  BatchResult out;
  out.submitted = scripts.size();
  out.statements.reserve(scripts.size());
  Result<uint64_t> lsn = 0;
  {
    std::unique_lock<std::shared_mutex> latch(db->latch());
    db->BeginStatementGroup();
    for (const std::string& script : scripts) {
      Result<quel::ResultSet> rs =
          RunStatementPreLocked(db, session, script);
      if (!rs.ok()) {
        // Prefix-stop: earlier statements stay applied and commit with
        // the group (redo-only WAL has no statement-level undo); the
        // tail after the failure never runs.
        out.statements.push_back({rs.status(), 0});
        out.last = quel::ResultSet{};
        break;
      }
      out.statements.push_back({Status::OK(), rs->affected});
      out.last = std::move(*rs);
    }
    // The group always ends — even after a failed statement — so the
    // latch is never released with a transaction half-open.
    lsn = db->EndStatementGroup();
  }
  MDM_RETURN_IF_ERROR(lsn.status());
  // One durability wait for the whole batch, after the latch is gone:
  // the group-commit coordinator folds it into a shared fsync.
  MDM_RETURN_IF_ERROR(db->WaitDurable(*lsn));
  return out;
}

Connection Connection::Local() {
  Connection c;
  c.owned_db_ = std::make_unique<er::Database>();
  c.db_ = c.owned_db_.get();
  c.session_ = std::make_unique<quel::QuelSession>(c.db_);
  return c;
}

Connection Connection::Local(er::Database* db) {
  Connection c;
  c.db_ = db;
  c.session_ = std::make_unique<quel::QuelSession>(db);
  return c;
}

Result<Connection> Connection::Remote(const std::string& host, uint16_t port,
                                      net::ClientOptions opts) {
  MDM_ASSIGN_OR_RETURN(net::Client client,
                       net::Client::Connect(host, port, opts));
  Connection c;
  c.client_ = std::make_unique<net::Client>(std::move(client));
  return c;
}

Result<Connection> Connection::Remote(const std::string& endpoint,
                                      net::ClientOptions opts) {
  size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon + 1 == endpoint.size())
    return InvalidArgument("endpoint must be host:port, got '" + endpoint +
                           "'");
  std::string host = endpoint.substr(0, colon);
  // Accept [v6::literal]:port and unwrap the brackets for the resolver.
  if (host.size() >= 2 && host.front() == '[' && host.back() == ']')
    host = host.substr(1, host.size() - 2);
  if (host.empty())
    return InvalidArgument("empty host in endpoint '" + endpoint + "'");
  if (host.find(':') != std::string::npos && endpoint.front() != '[')
    return InvalidArgument(
        "ambiguous endpoint '" + endpoint +
        "': bracket IPv6 literals as [addr]:port");
  int port = 0;
  for (size_t i = colon + 1; i < endpoint.size(); ++i) {
    char ch = endpoint[i];
    if (ch < '0' || ch > '9')
      return InvalidArgument("bad port in endpoint '" + endpoint + "'");
    port = port * 10 + (ch - '0');
    if (port > 65535)
      return InvalidArgument("port out of range in '" + endpoint + "'");
  }
  if (port == 0)
    return InvalidArgument("port must be 1-65535 in '" + endpoint + "'");
  return Remote(host, static_cast<uint16_t>(port), opts);
}

void Connection::EnableLocalTracing(uint64_t seed) {
  if (client_ != nullptr) return;  // remote traces via ClientOptions
  local_trace_rng_ = std::make_unique<Rng>(seed);
}

uint64_t Connection::last_trace_id() const {
  if (client_ != nullptr) return client_->last_trace_id();
  return local_last_trace_id_;
}

bool Connection::last_trace_sampled() const {
  if (client_ != nullptr) return client_->last_trace_sampled();
  return local_last_trace_id_ != 0;
}

Result<quel::ResultSet> Connection::Execute(const std::string& script,
                                            const ExecOptions& opts) {
  if (client_ != nullptr) return client_->Execute(script, opts);
  if (local_trace_rng_ != nullptr &&
      opts.trace != ExecOptions::Trace::kOff) {
    // Local analog of the server's request scope: one always-sampled
    // context per Execute, published to the global ring on exit so
    // mdmsh's `\trace last` can export it.
    uint64_t id = local_trace_rng_->Next();
    if (id == 0) id = local_trace_rng_->Next() | 1;
    local_last_trace_id_ = id;
    obs::TraceContext trace_ctx(id, /*sampled=*/true);
    return RunScript(db_, session_.get(), script);
  }
  return RunScript(db_, session_.get(), script);
}

Result<BatchResult> Connection::ExecuteBatch(
    const std::vector<std::string>& scripts, const ExecOptions& opts) {
  if (client_ != nullptr) return client_->ExecuteBatch(scripts, opts);
  if (local_trace_rng_ != nullptr &&
      opts.trace != ExecOptions::Trace::kOff) {
    uint64_t id = local_trace_rng_->Next();
    if (id == 0) id = local_trace_rng_->Next() | 1;
    local_last_trace_id_ = id;
    obs::TraceContext trace_ctx(id, /*sampled=*/true);
    return RunBatch(db_, session_.get(), scripts);
  }
  return RunBatch(db_, session_.get(), scripts);
}

Status Connection::Ping() {
  if (client_ != nullptr) return client_->Ping();
  return Status::OK();
}

}  // namespace mdm
