// Serving bench: throughput/latency of the micro-batching inference
// server (src/serve) and its SLO-aware adaptive batching window under
// closed- and open-loop load.
//
// Experiment families, all against a deterministically initialized
// cnn_small (serving cost does not depend on trained weights, so no
// training is needed and the bench starts instantly):
//
//   closed_w{W}_b{B}   — closed loop: 2*W client threads submit-and-wait
//     in lockstep over W workers, max_batch B. Measures steady-state
//     throughput, latency percentiles, jitter (mean/stddev) and achieved
//     batch coalescing. The b8 window closes as soon as the arrival and
//     service-time estimators stop predicting a goodput gain, so clients
//     blocked on the batch in flight are not made to wait out max_wait:
//     b8 must stay in b1's league (a fixed window inverted the ordering,
//     b8 near 0.15x b1).
//   open_w{W}_b8       — open loop: a FIXED, SEEDED arrival schedule
//     (exponential inter-arrival gaps at --open-loop-rps) is drawn up
//     front and replayed fire-and-forget, so every run faces
//     byte-identical offered load and latency includes queueing delay,
//     not client back-pressure.
//   deadline           — after a warm-up that measures the service time,
//     a per-request timeout below it: the feasibility horizon (expected
//     window + predicted service) rejects every request AT ADMISSION
//     (rejected_infeasible) instead of admitting work that can only
//     expire as a deadline miss after queueing.
//   overload           — fires far beyond queue capacity with no
//     consumers keeping up: typed backpressure (queue_full rejects)
//     instead of unbounded queueing.
//
// Arrivals and image selection are seeded-Rng deterministic; timing (and
// therefore the numbers, not the workload) is the only nondeterminism.
// --emit-json writes BENCH_serve.json in the same satd-bench-1 schema as
// bench_micro (baseline committed under bench/baseline/).
//
// --socket adds the multi-process points: the parent runs a 2-shard
// ShardRouter behind the SATDWIRE1 socket front end on a unix socket
// and forks P copies of THIS binary (via the runtime::ForkExecRunner
// process layer) as client processes. Each child drives the socket with
// net::Client — closed loop (submit-and-wait) or an open-loop seeded
// schedule with coordinated-omission-free latency (measured from the
// scheduled arrival, not the send) — and writes its per-request
// latencies to a file the parent merges into cross-process percentiles.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/cli.h"
#include "common/clock.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "net/client.h"
#include "net/frontend.h"
#include "nn/zoo.h"
#include "runtime/process.h"
#include "serve/server.h"
#include "serve/shard_router.h"

using namespace satd;

namespace {

/// The images the load generator draws from (deterministic).
Tensor make_pool(std::size_t n) {
  data::SyntheticConfig cfg;
  cfg.train_size = n;
  cfg.test_size = 1;
  return data::make_synthetic_digits(cfg).train.images;
}

struct PointConfig {
  std::size_t workers = 1;
  std::size_t max_batch = 8;
  double max_wait = 0.001;
  std::size_t requests = 256;
  std::size_t clients = 2;
  std::size_t queue_capacity = 1024;
  double timeout = 0.0;  ///< per-request relative deadline (0 = none)
  /// Requests served one by one before the timed loop (no deadline), so
  /// the service-time model has measured the model.
  std::size_t warmup = 0;
  bool quantized = false;  ///< serve through the int8 snapshot
};

serve::ServerConfig make_config(const PointConfig& pc) {
  serve::ServerConfig cfg;
  cfg.model_name = "bench";
  cfg.workers = pc.workers;
  cfg.queue.capacity = pc.queue_capacity;
  cfg.batch.max_batch = pc.max_batch;
  cfg.batch.max_wait = pc.max_wait;
  cfg.batch.quantized = pc.quantized;
  return cfg;
}

/// Closed-loop point: each client thread submits one request, waits for
/// the response, repeats. Returns the stats snapshot plus wall seconds.
std::pair<serve::StatsSnapshot, double> run_closed(
    serve::ModelRegistry& registry, const Tensor& pool,
    const PointConfig& pc) {
  serve::Server server(registry, make_config(pc));
  server.start();

  const std::size_t pool_size = pool.shape()[0];
  for (std::size_t i = 0; i < pc.warmup; ++i) {
    server.submit(pool.slice_row(i % pool_size)).wait();
  }
  std::atomic<std::size_t> next{0};
  const double t0 = SystemClock::instance().now();
  std::vector<std::thread> clients;
  clients.reserve(pc.clients);
  for (std::size_t c = 0; c < pc.clients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(1000 + c);
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= pc.requests) return;
        const Tensor image = pool.slice_row(rng.uniform_index(pool_size));
        server.submit(image, pc.timeout).wait();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double elapsed = SystemClock::instance().now() - t0;
  server.drain();
  return {server.stats().snapshot(), elapsed};
}

/// Open-loop point: the whole arrival schedule (exponential gaps at
/// `rps`) and image sequence are drawn from a seeded Rng BEFORE the
/// server starts, then replayed fire-and-forget against the wall clock.
/// Every run therefore faces an identical offered load, and latency
/// measures queueing + service, not client lockstep.
std::pair<serve::StatsSnapshot, double> run_open(
    serve::ModelRegistry& registry, const Tensor& pool,
    const PointConfig& pc, double rps, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> arrival(pc.requests);
  std::vector<std::size_t> which(pc.requests);
  double t = 0.0;
  for (std::size_t i = 0; i < pc.requests; ++i) {
    t += -std::log(1.0 - rng.uniform()) / rps;  // exponential gap
    arrival[i] = t;
    which[i] = rng.uniform_index(pool.shape()[0]);
  }

  serve::Server server(registry, make_config(pc));
  server.start();

  std::vector<serve::Ticket> tickets;
  tickets.reserve(pc.requests);
  SystemClock& clock = SystemClock::instance();
  const double t0 = clock.now();
  for (std::size_t i = 0; i < pc.requests; ++i) {
    const double target = t0 + arrival[i];
    const double now = clock.now();
    if (target > now) clock.sleep_for(target - now);
    tickets.push_back(server.submit(pool.slice_row(which[i]), pc.timeout));
  }
  for (serve::Ticket& tk : tickets) tk.wait();
  const double elapsed = clock.now() - t0;
  server.drain();
  return {server.stats().snapshot(), elapsed};
}

void add_row(std::vector<bench::JsonResult>& rows, const std::string& name,
             const PointConfig& pc,
             const std::pair<serve::StatsSnapshot, double>& r,
             double offered_rps = 0.0) {
  const auto& [s, elapsed] = r;
  bench::JsonResult row;
  row.name = name;
  row.numbers = {
      {"workers", static_cast<double>(pc.workers)},
      {"max_batch", static_cast<double>(pc.max_batch)},
      {"requests", static_cast<double>(pc.requests)},
      {"served", static_cast<double>(s.served)},
      {"throughput_rps", elapsed > 0 ? s.served / elapsed : 0.0},
      {"mean_batch", s.mean_batch},
      {"p50_ms", s.p50 * 1e3},
      {"p95_ms", s.p95 * 1e3},
      {"p99_ms", s.p99 * 1e3},
      {"mean_ms", s.mean * 1e3},
      {"stddev_ms", s.stddev * 1e3},
      {"deadline_misses", static_cast<double>(s.deadline_misses)},
      {"rejected_infeasible", static_cast<double>(s.rejected_infeasible)},
  };
  if (offered_rps > 0.0) {
    row.numbers.push_back({"offered_rps", offered_rps});
    row.numbers.push_back(
        {"rejected_full", static_cast<double>(s.rejected_full)});
  }
  rows.push_back(std::move(row));
  std::printf("%-22s %6zu served  %8.0f req/s  p50 %.3f ms  p99 %.3f ms  "
              "mean %.3f±%.3f ms  batch %.2f\n",
              name.c_str(), s.served, elapsed > 0 ? s.served / elapsed : 0.0,
              s.p50 * 1e3, s.p99 * 1e3, s.mean * 1e3, s.stddev * 1e3,
              s.mean_batch);
}

// ---------------------------------------------------------------------
// Multi-process socket mode
// ---------------------------------------------------------------------

/// Child half of --socket: drive one unix-socket front end with
/// net::Client and write per-request latency seconds (one per line) to
/// --child-out. Closed loop when --child-rps is 0; otherwise a seeded
/// exponential open-loop schedule, with latency measured from the
/// SCHEDULED arrival so a stalled server honestly accumulates queueing
/// delay (no coordinated omission).
int socket_child_main(const CliParser& cli) {
  const env::ListenAddress addr = env::parse_listen_address(
      cli.get_string("connect").c_str(), "--connect");
  if (!addr.valid()) {
    std::fprintf(stderr, "socket child: bad --connect\n");
    return 2;
  }
  net::ClientConfig cfg;
  cfg.endpoints = {addr};
  net::Client client(cfg);

  const auto n = static_cast<std::size_t>(cli.get_int("child-requests"));
  const double rps = cli.get_double("child-rps");
  Rng rng(static_cast<std::uint64_t>(cli.get_int("child-seed")));
  const Tensor pool = make_pool(32);
  const std::size_t pool_size = pool.shape()[0];

  std::vector<double> offset(n, 0.0);
  if (rps > 0.0) {
    double t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      t += -std::log(1.0 - rng.uniform()) / rps;
      offset[i] = t;
    }
  }

  SystemClock& clock = SystemClock::instance();
  std::vector<double> latencies;
  latencies.reserve(n);
  std::size_t failed = 0;
  const double t0 = clock.now();
  for (std::size_t i = 0; i < n; ++i) {
    double mark = clock.now();
    if (rps > 0.0) {
      const double target = t0 + offset[i];
      if (target > mark) clock.sleep_for(target - mark);
      mark = target;  // open loop: latency from the scheduled arrival
    }
    const Tensor image = pool.slice_row(rng.uniform_index(pool_size));
    const net::ClientResult r = client.request(image);
    if (!r.ok()) {
      ++failed;
      continue;
    }
    latencies.push_back(clock.now() - mark);
  }

  std::ofstream os(cli.get_string("child-out"));
  for (const double v : latencies) os << v << "\n";
  return failed == 0 && os.good() ? 0 : 1;
}

struct SocketPoint {
  std::string name;
  std::size_t shards = 2;
  std::size_t procs = 2;
  double rps = 0.0;  ///< per-child open-loop rate; 0 = closed loop
};

/// Parent half: router + front end on a unix socket, P forked client
/// processes, cross-process percentile merge.
void run_socket_point(std::vector<bench::JsonResult>& rows,
                      const std::string& spec, const SocketPoint& sp,
                      std::size_t per_child) {
  char exe[4096];
  const ssize_t exe_len = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (exe_len <= 0) {
    std::fprintf(stderr, "socket mode: cannot resolve /proc/self/exe\n");
    return;
  }
  exe[exe_len] = '\0';
  const std::string sock = "/tmp/satd_bench_" +
                           std::to_string(::getpid()) + "_" + sp.name +
                           ".sock";

  serve::RouterConfig rcfg;
  rcfg.shards = sp.shards;
  rcfg.server.model_name = "bench";
  rcfg.server.workers = 1;
  serve::ShardRouter router(rcfg);
  {
    Rng rng(42);
    nn::Sequential model = nn::zoo::build(spec, rng);
    router.publish(model, spec);
  }
  router.start();

  net::FrontEndConfig fcfg;
  fcfg.listen.kind = env::ListenAddress::Kind::kUnix;
  fcfg.listen.path = sock;
  net::FrontEndSink sink;
  sink.submit = [&router](const Tensor& image, double timeout,
                          std::uint64_t key, std::uint32_t* shard_out,
                          std::uint64_t* id_out) {
    return router.submit(image, timeout, key, shard_out, id_out);
  };
  sink.cancel = [&router](std::uint32_t shard, std::uint64_t id) {
    return router.cancel(shard, id);
  };
  sink.tick = [&router] { router.tick(); };
  net::FrontEnd frontend(fcfg, sink);
  frontend.start();

  runtime::ForkExecRunner& runner = runtime::ForkExecRunner::instance();
  std::vector<runtime::ProcessId> kids;
  std::vector<std::string> outs;
  SystemClock& clock = SystemClock::instance();
  const double t0 = clock.now();
  for (std::size_t p = 0; p < sp.procs; ++p) {
    runtime::SpawnSpec child;
    outs.push_back(sock + ".lat" + std::to_string(p));
    child.argv = {exe,
                  "--socket-child",
                  "--connect=unix:" + sock,
                  "--child-requests=" + std::to_string(per_child),
                  "--child-out=" + outs.back(),
                  "--child-seed=" + std::to_string(9000 + p),
                  "--child-rps=" + std::to_string(sp.rps)};
    kids.push_back(runner.spawn(child));
  }

  std::size_t child_failures = 0;
  for (std::size_t p = 0; p < kids.size(); ++p) {
    for (;;) {
      const runtime::ChildStatus st = runner.poll(kids[p]);
      if (!st.running) {
        if (st.signaled || st.exit_code != 0) ++child_failures;
        break;
      }
      clock.sleep_for(0.005);
    }
  }
  const double elapsed = clock.now() - t0;
  frontend.stop();
  router.drain();

  std::vector<double> lat;
  for (const std::string& path : outs) {
    std::ifstream is(path);
    double v = 0.0;
    while (is >> v) lat.push_back(v);
    ::unlink(path.c_str());
  }
  ::unlink(sock.c_str());
  std::sort(lat.begin(), lat.end());
  const auto pct = [&lat](double q) {
    if (lat.empty()) return 0.0;
    const auto i = static_cast<std::size_t>(q * static_cast<double>(
                                                    lat.size() - 1));
    return lat[i];
  };
  double mean = 0.0;
  for (const double v : lat) mean += v;
  if (!lat.empty()) mean /= static_cast<double>(lat.size());

  const net::FrontEndStats fs = frontend.stats();
  bench::JsonResult row;
  row.name = sp.name;
  row.numbers = {
      {"shards", static_cast<double>(sp.shards)},
      {"client_procs", static_cast<double>(sp.procs)},
      {"requests", static_cast<double>(per_child * sp.procs)},
      {"completed", static_cast<double>(lat.size())},
      {"child_failures", static_cast<double>(child_failures)},
      {"throughput_rps",
       elapsed > 0 ? static_cast<double>(lat.size()) / elapsed : 0.0},
      {"p50_ms", pct(0.50) * 1e3},
      {"p95_ms", pct(0.95) * 1e3},
      {"p99_ms", pct(0.99) * 1e3},
      {"mean_ms", mean * 1e3},
      {"wire_requests", static_cast<double>(fs.requests)},
      {"wire_responses", static_cast<double>(fs.responses)},
  };
  if (sp.rps > 0.0) {
    row.numbers.push_back(
        {"offered_rps", sp.rps * static_cast<double>(sp.procs)});
  }
  std::printf("%-22s %6zu done   %8.0f req/s  p50 %.3f ms  p99 %.3f ms  "
              "(%zu procs x %zu over the socket)\n",
              sp.name.c_str(), lat.size(),
              elapsed > 0 ? static_cast<double>(lat.size()) / elapsed : 0.0,
              pct(0.50) * 1e3, pct(0.99) * 1e3, sp.procs, per_child);
  rows.push_back(std::move(row));
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_serve",
                "Micro-batching inference server load bench (closed-loop "
                "sweep, seeded open-loop schedule, overload, deadline "
                "pressure).");
  cli.add_int("requests", 256, "requests per closed-loop point");
  cli.add_string("model", "cnn_small", "zoo spec to serve");
  cli.add_double("open-loop-rps", 2000.0,
                 "offered arrival rate for the open-loop points");
  cli.add_int("open-loop-seed", 7,
              "seed of the fixed open-loop arrival schedule");
  add_threads_option(cli);
  add_kernel_option(cli);
  cli.add_string("emit-json", "",
                 "write BENCH_serve.json (satd-bench-1 schema) into this "
                 "directory");
  cli.add_flag("socket",
               "add the multi-process socket points (forked net::Client "
               "processes against a 2-shard router front end)");
  cli.add_flag("socket-child", "internal: run as a forked socket client");
  cli.add_string("connect", "", "internal: child's endpoint");
  cli.add_int("child-requests", 256, "internal: child's request count");
  cli.add_string("child-out", "", "internal: child's latency output file");
  cli.add_int("child-seed", 1, "internal: child's image/schedule seed");
  cli.add_double("child-rps", 0.0,
                 "internal: child's open-loop rate (0 = closed loop)");
  if (!cli.parse(argc, argv)) return 0;
  apply_threads_option(cli);
  apply_kernel_option(cli);
  if (cli.get_flag("socket-child")) return socket_child_main(cli);

  const auto requests = static_cast<std::size_t>(cli.get_int("requests"));
  const std::string spec = cli.get_string("model");
  const double open_rps = cli.get_double("open-loop-rps");
  const auto open_seed =
      static_cast<std::uint64_t>(cli.get_int("open-loop-seed"));

  serve::ModelRegistry registry;
  {
    Rng rng(42);
    nn::Sequential model = nn::zoo::build(spec, rng);
    registry.publish("bench", model, spec);
  }
  const Tensor pool = make_pool(128);
  std::printf("bench_serve: %s, %zu requests per point, %zu hw threads\n\n",
              spec.c_str(), requests,
              static_cast<std::size_t>(std::thread::hardware_concurrency()));

  std::vector<bench::JsonResult> rows;

  // Closed-loop sweep: worker count x max_batch.
  for (std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (std::size_t max_batch : {std::size_t{1}, std::size_t{8}}) {
      PointConfig pc;
      pc.workers = workers;
      pc.max_batch = max_batch;
      pc.requests = requests;
      pc.clients = 2 * workers;
      const auto r = run_closed(registry, pool, pc);
      add_row(rows,
              "closed_w" + std::to_string(workers) + "_b" +
                  std::to_string(max_batch),
              pc, r);
    }
  }

  // Open-loop schedule replay at each worker count.
  for (std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    PointConfig pc;
    pc.workers = workers;
    pc.max_batch = 8;
    pc.requests = requests;
    const auto r = run_open(registry, pool, pc, open_rps, open_seed);
    add_row(rows, "open_w" + std::to_string(workers) + "_b8", pc, r,
            open_rps);
  }

  // Quantized closed-loop points: same policy as the float w{1,2}_b8
  // rows above, but served through the int8 snapshot (per-row dynamic
  // activation quantization, int32-accumulate GEMM). The interesting
  // comparison is throughput_rps and p50 against the float twin.
  for (std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    PointConfig pc;
    pc.workers = workers;
    pc.max_batch = 8;
    pc.requests = requests;
    pc.clients = 2 * workers;
    pc.quantized = true;
    const auto r = run_closed(registry, pool, pc);
    add_row(rows, "quantized_w" + std::to_string(workers) + "_b8", pc, r);
  }

  // Deadline pressure: once the warm-up has measured the service time,
  // a timeout of 10 us (below any batch-of-1 forward of the model) makes
  // every request infeasible at admission — the feasibility horizon
  // rejects them typed instead of letting them age in the queue and
  // expire as deadline misses.
  {
    PointConfig pc;
    pc.workers = 1;
    pc.max_batch = 16;
    pc.max_wait = 0.004;
    pc.requests = requests;
    pc.clients = 4;
    pc.timeout = 10e-6;
    pc.warmup = 16;
    const auto r = run_closed(registry, pool, pc);
    add_row(rows, "deadline", pc, r);
  }

  // Open-loop overload: typed backpressure instead of unbounded queueing.
  {
    PointConfig pc;
    pc.workers = 1;
    pc.max_batch = 8;
    pc.max_wait = 0.0005;
    pc.queue_capacity = 32;
    pc.requests = 4 * requests;
    serve::Server server(registry, make_config(pc));
    server.start();
    Rng rng(7);
    std::vector<serve::Ticket> tickets;
    tickets.reserve(pc.requests);
    for (std::size_t i = 0; i < pc.requests; ++i) {
      const Tensor image = pool.slice_row(rng.uniform_index(pool.shape()[0]));
      tickets.push_back(server.submit(image));
    }
    for (serve::Ticket& t : tickets) t.wait();
    server.drain();
    const serve::StatsSnapshot s = server.stats().snapshot();
    bench::JsonResult row;
    row.name = "overload";
    row.numbers = {
        {"submitted", static_cast<double>(pc.requests)},
        {"served", static_cast<double>(s.served)},
        {"rejected_full", static_cast<double>(s.rejected_full)},
        {"deadline_misses", static_cast<double>(s.deadline_misses)},
        {"max_queue_depth", static_cast<double>(s.max_queue_depth)},
        {"mean_batch", s.mean_batch},
    };
    std::printf("%-22s %6zu served  %zu rejected_full  depth<=%zu\n",
                "overload", s.served, s.rejected_full, s.max_queue_depth);
    rows.push_back(std::move(row));
  }

  // Multi-process socket points: real processes, real sockets, the
  // whole wire in the measured path.
  if (cli.get_flag("socket")) {
    for (const SocketPoint& sp :
         {SocketPoint{"socket_closed_s2_p2", 2, 2, 0.0},
          SocketPoint{"socket_closed_s2_p4", 2, 4, 0.0},
          SocketPoint{"socket_open_s2_p2", 2, 2, 200.0}}) {
      run_socket_point(rows, spec, sp, requests);
    }
  }

  if (const std::string dir = cli.get_string("emit-json"); !dir.empty()) {
    bench::write_bench_json(dir + "/BENCH_serve.json", "serve", 0, rows);
  }
  return 0;
}
