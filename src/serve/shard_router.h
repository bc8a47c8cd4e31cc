// Multi-shard serving layer: N independent Server instances behind
// deterministic routing, with staged (canary) rollout and automatic
// rollback driven by the per-shard RobustnessMonitor.
//
// Each shard owns a PRIVATE ModelRegistry and Server, so a model pushed
// to one shard is invisible to the others — that isolation is what makes
// a canary a canary. publish() fans a model out to every shard;
// publish_canary() stages it on exactly one shard and diverts a
// configurable fraction of traffic there. From that point tick() runs
// the rollout state machine:
//
//   CANARY --alarm--------------------> rollback: the shard's registry is
//     |                                 republished with the saved
//     |                                 last-good snapshot (bit-identical
//     |                                 weights, new version), its
//     |                                 monitor is reset, and the shard
//     |                                 returns to SERVING. Journaled.
//     +--clean window + soak---------> promote: the canary snapshot is
//                                       republished to every other shard
//                                       and the canary returns to
//                                       SERVING. Journaled.
//
// A SERVING shard whose monitor alarms outside a rollout is EJECTED
// (removed from routing until reinstate()); DRAINING shards take no new
// traffic but keep their queues. When no shard is routable the router
// degrades to hashing over ALL shards rather than rejecting — the
// alternative turns one bad rollout into a full outage.
//
// Routing is deterministic: a request's route_key (or a round-robin
// counter when the client passes 0) is mixed through splitmix64, first
// deciding canary diversion (mix % 10000 against the traffic fraction)
// and then a weighted pick over routable shards. Identical keys always
// land on identical shards for a fixed router state, which is what the
// chaos drills pin.
//
// Every decision (publish, canary, alarm, rollback, promote, eject,
// drain, reinstate) is recorded in an in-memory history and, when
// journal_path is set, appended as a JSON line for audit.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "serve/server.h"

namespace satd::serve {

/// Per-shard health/rollout state.
enum class ShardState {
  kServing,   ///< in the routing set, stable weights
  kCanary,    ///< in the routing set at canary_fraction, staged weights
  kEjected,   ///< monitor alarmed outside a rollout; no traffic
  kDraining,  ///< operator-initiated; no new traffic
};

/// Stable textual tag ("serving", "canary", ...).
const char* to_string(ShardState s);

/// Router knobs. `server` is the per-shard template; enable_monitor is
/// forced on (the rollout state machine is built on monitor verdicts).
struct RouterConfig {
  std::size_t shards = 2;            ///< number of Server instances
  ServerConfig server;               ///< per-shard template
  double canary_fraction = 0.1;      ///< traffic share diverted to a canary
  std::size_t promote_after_probes = 32;  ///< clean probes before promote
  double min_soak = 0.0;             ///< min seconds staged before promote
  std::vector<double> weights;       ///< optional per-shard weights
  std::string journal_path;          ///< append JSONL audit here when set
};

/// One audited rollout decision.
struct RolloutEvent {
  double time = 0.0;        ///< router clock at the decision
  std::string action;       ///< publish|canary|alarm|rollback|promote|...
  std::size_t shard = 0;    ///< shard the decision concerns
  std::uint64_t version = 0;///< registry version involved (0 if n/a)
  std::string detail;       ///< human-readable context
};

/// N-shard router with canary rollout/rollback (see file comment).
class ShardRouter {
 public:
  explicit ShardRouter(RouterConfig config,
                       Clock& clock = SystemClock::instance());
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Starts every shard's server. Idempotent.
  void start();

  /// Drains every shard. Idempotent; also runs from the destructor.
  void drain();

  /// Publishes `model` to EVERY shard (the non-staged path). Returns the
  /// version assigned by shard 0 (all shards assign their own).
  std::uint64_t publish(nn::Sequential& model, const std::string& spec);

  /// Stages `model` on `shard` only and marks it CANARY. The shard's
  /// previous snapshot is saved as the rollback target and its monitor
  /// window is reset so the canary is judged on its own probes. At most
  /// one canary at a time. Returns the canary's registry version.
  std::uint64_t publish_canary(nn::Sequential& model,
                               const std::string& spec, std::size_t shard);

  /// Routes by key and submits to the chosen shard. key 0 means "don't
  /// care" and draws from a round-robin counter. `shard_out`/`id_out`
  /// (optional) receive the shard index and admission id for
  /// cancellation. Never blocks; overload yields a typed rejection.
  Ticket submit(const Tensor& image, double timeout = 0.0,
                std::uint64_t key = 0, std::uint32_t* shard_out = nullptr,
                std::uint64_t* id_out = nullptr);

  /// Cancels a queued request previously submitted (see Server::cancel).
  bool cancel(std::uint32_t shard, std::uint64_t id);

  /// The shard a key would route to right now (deterministic).
  std::size_t route(std::uint64_t key);

  /// Runs the rollout state machine once: canary alarm -> rollback,
  /// clean window + soak -> promote, serving-shard alarm -> eject.
  /// Call periodically (the network front end ticks it once per
  /// poll_interval); cheap when nothing changed.
  void tick();

  /// Returns an EJECTED or DRAINING shard to SERVING (monitor reset).
  bool reinstate(std::size_t shard);

  /// Marks a shard DRAINING (no new traffic; queue keeps draining).
  bool set_draining(std::size_t shard);

  ShardState state(std::size_t shard) const;
  std::size_t size() const { return shards_.size(); }
  Server& shard(std::size_t i) { return *shards_[i]->server; }
  ModelRegistry& registry(std::size_t i) { return *shards_[i]->registry; }

  /// Copy of the audit history (publishes, alarms, rollbacks, ...).
  std::vector<RolloutEvent> history() const;

 private:
  struct Shard {
    std::unique_ptr<ModelRegistry> registry;
    std::unique_ptr<Server> server;
    ShardState state = ShardState::kServing;
    SnapshotPtr rollback;           ///< last-good snapshot while canarying
    std::size_t probed_at_stage = 0;///< monitor probe count at staging
    double staged_at = 0.0;         ///< clock time at staging
  };

  std::size_t route_locked(std::uint64_t key);
  void record_locked(const std::string& action, std::size_t shard,
                     std::uint64_t version, const std::string& detail);

  RouterConfig config_;
  Clock& clock_;
  mutable std::mutex mutex_;  // guards states, rollback targets, history
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<RolloutEvent> history_;
  std::uint64_t rr_ = 0;      ///< round-robin source for key==0
  bool started_ = false;
};

}  // namespace satd::serve
