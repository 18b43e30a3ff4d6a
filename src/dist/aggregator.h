#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/budget.h"
#include "core/delta_io.h"
#include "dist/frame.h"
#include "dist/protocol.h"
#include "engine/checkpoint.h"

namespace wmsketch::dist {

/// Configuration of a merge aggregator.
struct AggregatorOptions {
  /// Shape every worker must match (the aggregator's merge identity is
  /// derived from it); config.method must be a linear sketch (wm/awm).
  BudgetConfig config;
  LearnerOptions opts;
  /// Non-empty: checkpoint the merged model here (CheckpointMerged), and at
  /// Create() recover the newest valid checkpoint as the merged baseline —
  /// the answer served until workers resync after a restart.
  std::string checkpoint_dir;
  size_t keep_last = 3;
  /// SO_RCVTIMEO/SO_SNDTIMEO on accepted connections: a worker that dies
  /// mid-frame stalls one read, not the aggregator.
  int io_timeout_ms = 2000;
};

/// The merge aggregator daemon: accepts workers over a Unix-domain socket,
/// verifies each one's merge identity in the handshake, maintains one
/// replica of every worker's model (kept current by dirty-page deltas, with
/// full-snapshot fallback), and serves/checkpoints the exact merge of all
/// replicas. Single-threaded poll loop; every mutation of aggregator state
/// happens between two fully-validated frames, so a worker crash at any
/// protocol point leaves the replicas either at the previous sync or at the
/// new one — never in between.
///
/// Failure model:
///  * A bad frame (torn, CRC-failing, undecodable) drops that connection;
///    the worker's replica keeps its last synced state and keeps
///    contributing to the merged model ("dead worker degrades").
///  * An incompatible handshake or mismatched session/sequence is answered
///    with kError and zero state mutation.
///  * A delta is applied to a clone and swapped in only on success, so even
///    an injected mid-apply failure ("dist:merge_apply") cannot leave a
///    half-applied replica.
///
/// Merge semantics: the replicas are summed with plain `Merge`, in ascending
/// worker id. The aggregator makes a one-shot combination of models trained
/// on disjoint partitions, so the sum of the linear sketches is the exact
/// answer, and perfbench `sync` checks the merged bytes against an
/// in-process `Learner::Merge` of the same workers. ShardedLearner combines
/// with schedule-matched mixing instead (see engine/sharded_learner.h),
/// because it mixes iteratively from a shared base; the two rules serve
/// different operations and stay apart.
class Aggregator {
 public:
  static Result<Aggregator> Create(const AggregatorOptions& options);

  Aggregator(Aggregator&& other) noexcept;
  Aggregator& operator=(Aggregator&& other) noexcept;
  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;
  ~Aggregator();

  /// Binds and listens on `socket_path` (unlinking any stale socket file).
  Status Bind(const std::string& socket_path);

  /// One poll round: accepts pending connections and serves every readable
  /// one. `timeout_ms` < 0 blocks until an event.
  Status PollOnce(int timeout_ms);

  /// Serves until a kShutdown frame arrives.
  Status ServeUntilShutdown();

  /// The exact merge of all worker replicas (ascending worker id), as
  /// enveloped learner bytes; the recovered checkpoint baseline when no
  /// worker has synced yet; NotFound when neither exists.
  Result<std::string> MergedModelBytes() const;

  /// Writes the merged model as the next checkpoint. Requires a
  /// checkpoint_dir.
  Status CheckpointMerged();

  bool shutdown_requested() const { return shutdown_; }
  /// Workers that have completed at least one sync.
  size_t replica_count() const;
  /// Workers known from a handshake (synced or not).
  size_t worker_count() const { return workers_.size(); }
  uint64_t session_token() const { return session_token_; }
  /// Corrupt checkpoints skipped during Create() recovery ("file: status").
  const std::vector<std::string>& recovery_skipped() const { return recovery_skipped_; }
  /// True when a checkpoint baseline was recovered at Create().
  bool has_baseline() const { return baseline_ != nullptr; }

 private:
  struct Connection {
    int fd = -1;
    bool has_worker = false;
    uint64_t worker_id = 0;
  };
  struct WorkerState {
    // Null until the first accepted sync: a handshake alone must not add a
    // zero model to the merge.
    std::unique_ptr<BudgetedClassifier> replica;
    uint64_t acked_seq = 0;
    // The next sync must be a full snapshot (fresh registration, lost
    // session, or a rejected sync); deltas are refused until then so a
    // delta can never land on a baseline it wasn't built against.
    bool needs_full = true;
  };

  Aggregator() = default;

  void CloseAll();
  Status AcceptPending();
  // Serves one frame on `conn`; sets *close_conn when the connection must
  // drop (bad frame, rejected handshake, clean EOF).
  Status ServeConnection(Connection& conn, bool* close_conn);
  Status HandleHello(Connection& conn, const Frame& frame, bool* close_conn);
  Status HandleSync(Connection& conn, const Frame& frame, bool* close_conn);
  Result<std::unique_ptr<BudgetedClassifier>> MergedImpl() const;
  Status SendError(int fd, const Status& status);

  AggregatorOptions options_;
  MergeIdentity identity_;
  uint64_t session_token_ = 0;
  int listen_fd_ = -1;
  std::string socket_path_;
  bool shutdown_ = false;
  std::vector<Connection> conns_;
  std::map<uint64_t, WorkerState> workers_;
  std::unique_ptr<BudgetedClassifier> baseline_;
  std::optional<Checkpointer> checkpointer_;
  std::vector<std::string> recovery_skipped_;
};

}  // namespace wmsketch::dist
