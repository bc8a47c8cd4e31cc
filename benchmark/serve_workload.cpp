// Serving workloads: the deployed serving stack (ShardRouter, 2 shards x 1
// worker, the default static BatchPolicy of max_batch 8 / max_wait 2 ms,
// queue capacity 256) serving cnn_small, in three phases:
//
//   overload  Poisson 24000 rps from a client that keeps at most 256
//             requests outstanding, 50% of --seconds: above the stack's
//             capacity on a typical state of the reference host (20-24k/s),
//             so every worker always finds a full batch and completions per
//             second are the goodput. The outstanding cap keeps the queues
//             from refusing and the socket client from buffering without
//             bound when the stack falls behind; the rate caps what a fast
//             state of a shared host (up to 31k/s for a minute at a time)
//             adds to the spread between runs.
//   high      open loop, Poisson 8000 rps, 25%: coalescing and the m <= 8
//             forwards dominate; the tail-latency phase.
//   low       open loop, Poisson 1000 rps, 25%: the batching window
//             dominates; the median-latency phase.
//
// Overload runs first, after an unmeasured second of it, so the latency
// phases start on busy cores: an idle virtual CPU of a shared host runs at
// a fraction of its speed for about a second of new load.
//
//   serve_inproc — one generator thread calls ShardRouter::submit.
//   serve_socket — the same phases and router behind a SATDWIRE1
//     net::FrontEnd on a unix socket; the generator thread pipelines
//     requests over 2 connections and correlates responses by request id.
//     serve_socket - serve_inproc is the cost of the net layer.
//
// Open-loop latency is measured from the SCHEDULED send time: in process it
// is the generator's lateness plus Response::latency, over the socket the
// receive time minus the scheduled time. An overload request is timed from
// when it is sent: once the outstanding cap binds, its schedule means
// nothing.
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>

#include "data/synthetic.h"
#include "metrics/evaluator.h"
#include "net/frontend.h"
#include "net/socket.h"
#include "net/wire.h"
#include "nn/loss.h"
#include "nn/zoo.h"
#include "serve/shard_router.h"
#include "trace.h"
#include "workloads.h"

namespace satd::benchmark {

namespace {

// --seed makes the inputs (request images, arrival times); the served
// model is program configuration, initialized from a fixed seed.
constexpr std::uint64_t kModelSeed = 42;
constexpr std::size_t kPoolSize = 256;  ///< distinct request images
constexpr std::size_t kWarmup = 64;
constexpr int kSetupReps = 9;
constexpr std::size_t kConnections = 2;
constexpr const char* kModelSpec = "cnn_small";
constexpr std::uint8_t kUnanswered = 0xff;
/// Most requests the overload client keeps outstanding: half the two
/// shards' queue capacity, so admission never refuses one, and 16 full
/// batches per shard.
constexpr std::size_t kInFlight = 256;
constexpr double kPreloadSeconds = 1.0;
// Socket requests are encoded once, before anything is timed: request i
// is frame i % kSlots, whose wire id is its slot + 1 and whose image is
// pool image i % kPoolSize. Encoding at send time (12-15 us a frame)
// would make the generator thread, not the stack, the bottleneck. An id is
// reused only after its previous request was answered.
constexpr std::size_t kSlots = 8192;
static_assert(kSlots % kPoolSize == 0, "a slot's image must be its requests'");
constexpr std::size_t kFree = std::numeric_limits<std::size_t>::max();
/// Unsent bytes one connection may hold before the generator waits.
constexpr std::size_t kMaxBuffered = 1u << 20;
/// Seconds a phase may take to deliver its last answers.
constexpr double kDrainSeconds = 10.0;
/// Most an open-loop phase's generator may run late, as the median over
/// kWindows of each window's lateness p99. A generator that cannot keep up
/// falls further behind with every request, by far more than this over a
/// phase; a busy shared host delays the generator's wake-ups by up to 4 ms
/// at p99, which is host noise the latency metrics already include.
constexpr double kLateLimit = 10e-3;

struct PhaseSpec {
  const char* name;
  double rps;    ///< Poisson arrival rate
  double share;  ///< of --seconds
  bool capped;   ///< at most kInFlight outstanding (else open loop)
};
constexpr PhaseSpec kPhases[] = {{"overload", 24000.0, 0.5, true},
                                 {"high", 8000.0, 0.25, false},
                                 {"low", 1000.0, 0.25, false}};
constexpr std::size_t kPhaseCount = 3;
constexpr std::size_t kOverload = 0, kHigh = 1, kLow = 2;

/// One request and everything observed about it.
struct Sample {
  double offset = 0.0;     ///< scheduled send, seconds after phase start
  double scheduled = 0.0;  ///< absolute
  double sent = 0.0;       ///< absolute: the generator got to it
  double received = 0.0;   ///< absolute, socket only
  double server = 0.0;     ///< Response::latency
  float admit = 0.0f;      ///< traced in process: the submit call
  float decode = 0.0f;     ///< traced socket: decode_response
  std::uint16_t batch = 0;
  std::uint8_t error = kUnanswered;  ///< serve::ServeError once answered
  std::uint8_t answers = 0;
  bool match = false;  ///< probabilities bit-identical to the reference
};

std::size_t image_of(std::size_t request) { return request % kPoolSize; }

/// What the generator sends, made from --seed before anything is timed.
struct Inputs {
  std::vector<Tensor> images;                 ///< [1, 28, 28] each
  std::vector<std::vector<float>> reference;  ///< expected probabilities
  std::vector<std::string> frames;            ///< socket: one per slot
  std::vector<double> encode_seconds;         ///< per encode_request call
  /// Per phase: send times, seconds after the phase starts.
  std::vector<double> arrivals[kPhaseCount];
};

/// Samples for the arrivals before `until`.
std::vector<Sample> samples_for(const std::vector<double>& arrivals,
                                double until) {
  std::vector<Sample> samples;
  for (const double t : arrivals) {
    if (t >= until) break;
    samples.emplace_back().offset = t;
  }
  return samples;
}

double phase_length(std::size_t p, const Options& options) {
  return options.smoke ? 1.0 : options.seconds * kPhases[p].share;
}

/// Request images from the synthetic digits, their reference answers
/// (metrics::predict_into on the image alone, then the same softmax the
/// microbatcher applies), the encoded socket frames, and the phases'
/// schedules: exponential gaps at each phase's rate.
Inputs make_inputs(const Options& options, bool socket) {
  Inputs in;
  data::SyntheticConfig cfg;
  cfg.train_size = kPoolSize;
  cfg.test_size = 1;
  cfg.seed = options.seed;
  const Tensor all = data::make_synthetic_digits(cfg).train.images;
  Rng model_rng(kModelSeed);
  nn::Sequential model = nn::zoo::build(kModelSpec, model_rng);
  Tensor logits, probs;
  std::vector<std::size_t> preds;
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    Tensor row = all.slice_row(i);
    const Tensor batch = row.reshaped(Shape{1, row.shape()[0], row.shape()[1],
                                            row.shape()[2]});
    metrics::predict_into(model, batch, 1, logits, preds);
    nn::softmax_into(logits, probs);
    in.reference.emplace_back(probs.raw(), probs.raw() + probs.numel());
    in.images.push_back(std::move(row));
  }
  if (socket) {
    net::RequestFrame frame;
    for (std::size_t slot = 0; slot < kSlots; ++slot) {
      frame.request_id = slot + 1;
      frame.image = in.images[image_of(slot)];
      const double t0 = now();
      in.frames.push_back(net::encode_request(frame));
      in.encode_seconds.push_back(now() - t0);
    }
  }
  Rng root(options.seed);
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    Rng rng = root.fork(500 + p);
    const double length = phase_length(p, options);
    for (double t = 0.0;;) {
      t += -std::log(1.0 - rng.uniform()) / kPhases[p].rps;
      if (t >= length) break;
      in.arrivals[p].push_back(t);
    }
  }
  return in;
}

bool matches(const std::vector<float>& got, const std::vector<float>& want) {
  return got.size() == want.size() &&
         std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) == 0;
}

/// Waits until absolute time t. `idle` runs on every turn (harvesting
/// answers, or the socket pump); `block(s)` waits at most s seconds (sleep,
/// or poll the sockets so responses are stamped when they arrive). The
/// generator blocks rather than spins: over the socket the front end and the
/// two shard workers keep three of the host's four cores busy, and a
/// spinning generator on the fourth leaves no core for anything else the
/// host runs, so that work preempts a serving thread instead.
template <typename Idle, typename Block>
void wait_until(double t, Idle&& idle, Block&& block) {
  for (;;) {
    idle();
    const double d = t - now();
    if (d <= 0.0) return;
    block(d);
  }
}

/// The serving stack of one run, torn down in reverse order of set-up.
class Stack {
 public:
  Stack(bool socket, bool traced, nn::Sequential& model)
      : socket_(socket), traced_(traced) {
    serve::RouterConfig cfg;
    cfg.shards = 2;
    cfg.server.model_name = "bench";
    cfg.server.workers = 1;
    // The router always runs each shard's robustness monitor; its probes
    // stay in the measured path. The served model is untrained, so its
    // probe robustness means nothing: a baseline above any reachable
    // fraction keeps the collapse alarm (and the ejection it would
    // trigger) disarmed, so every run serves on both shards.
    cfg.server.monitor.min_baseline = 2.0f;
    router_ = std::make_unique<serve::ShardRouter>(cfg);
    router_->publish(model, kModelSpec);
    router_->start();
    if (!socket_) return;

    owner_.assign(kSlots, kFree);
    net::FrontEndConfig fcfg;
    fcfg.listen.kind = env::ListenAddress::Kind::kUnix;
    fcfg.listen.path = "satd_bench_" + std::to_string(::getpid()) + ".sock";
    net::FrontEndSink sink;
    sink.submit = [this](const Tensor& image, double timeout,
                         std::uint64_t key, std::uint32_t* shard_out,
                         std::uint64_t* id_out) {
      if (!traced_) return router_->submit(image, timeout, key, shard_out, id_out);
      const double t0 = now();
      serve::Ticket t = router_->submit(image, timeout, key, shard_out, id_out);
      admit_.push_back(now() - t0);  // front-end thread only
      return t;
    };
    sink.cancel = [this](std::uint32_t shard, std::uint64_t id) {
      return router_->cancel(shard, id);
    };
    sink.tick = [this] { router_->tick(); };
    frontend_ = std::make_unique<net::FrontEnd>(fcfg, sink);
    frontend_->start();
    path_ = fcfg.listen.path;
    for (std::size_t c = 0; c < kConnections; ++c) {
      std::string err;
      Conn conn;
      conn.fd = net::connect_socket(fcfg.listen, 2.0, err);
      if (!conn.fd.valid()) throw std::runtime_error("connect: " + err);
      conns_.push_back(std::move(conn));
    }
  }

  ~Stack() {
    conns_.clear();
    if (frontend_) frontend_->stop();
    if (!path_.empty()) ::unlink(path_.c_str());
    router_->drain();
  }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Open loop: sends the samples on their schedule and collects every
  /// answer (or gives up after kDrainSeconds).
  void run_open(std::vector<Sample>& samples, const Inputs& in) {
    run(samples, in, false, 0.0);
  }

  /// Overload: sends each sample when it is due and fewer than kInFlight
  /// are outstanding, stops sending after `length` seconds, then collects
  /// the last answers. A sample is timed from when it is sent. Returns the
  /// number of samples sent.
  std::size_t run_capped(std::vector<Sample>& samples, double length,
                         const Inputs& in) {
    return run(samples, in, true, length);
  }

  /// Front-end-thread submit timings; read after stop().
  std::vector<double> admit_seconds() {
    if (frontend_) frontend_->stop();
    return admit_;
  }

  net::FrontEndStats frontend_stats() const {
    return frontend_ ? frontend_->stats() : net::FrontEndStats{};
  }

  serve::ShardRouter& router() { return *router_; }

  std::size_t wire_errors() const { return wire_errors_; }
  std::size_t duplicates() const { return duplicates_; }

 private:
  struct Conn {
    net::Fd fd;
    net::FrameDecoder decoder;
    std::string out;  ///< bytes the socket would not take yet
  };

  static void complete(Sample& s, const serve::Response& r,
                       const std::vector<float>& reference) {
    ++s.answers;
    s.server = r.latency;
    s.batch = static_cast<std::uint16_t>(r.batch_size);
    s.error = static_cast<std::uint8_t>(r.error);
    s.match = r.error == serve::ServeError::kNone &&
              matches(r.probabilities, reference);
  }

  serve::Ticket submit(Sample& s, std::size_t i, const Inputs& in) {
    s.sent = now();
    serve::Ticket t = router_->submit(in.images[image_of(i)]);
    if (traced_) s.admit = static_cast<float>(now() - s.sent);
    return t;
  }

  std::size_t run(std::vector<Sample>& samples, const Inputs& in, bool capped,
                  double length) {
    const double start = now() + 0.005;
    for (Sample& s : samples) s.scheduled = start + s.offset;
    const std::size_t sent = socket_
                                 ? run_socket(samples, in, capped, start, length)
                                 : run_inproc(samples, in, capped, start, length);
    if (capped) {
      for (std::size_t i = 0; i < sent; ++i) {
        samples[i].scheduled = samples[i].sent;
        samples[i].offset = samples[i].sent - start;
      }
    }
    return sent;
  }

  std::size_t run_inproc(std::vector<Sample>& samples, const Inputs& in,
                         bool capped, double start, double length) {
    std::deque<std::pair<std::size_t, serve::Ticket>> pending;
    const auto complete_front = [&] {
      const std::size_t i = pending.front().first;
      complete(samples[i], pending.front().second.wait(),
               in.reference[image_of(i)]);
      pending.pop_front();
    };
    const auto harvest = [&] {
      while (!pending.empty() && pending.front().second.ready()) {
        complete_front();
      }
    };
    const auto sleep = [](double d) {
      std::this_thread::sleep_for(std::chrono::duration<double>(d));
    };
    std::size_t next = 0;
    for (; next < samples.size(); ++next) {
      if (capped) {
        if (now() - start >= length) break;
        // Waiting on the oldest request; with 128 queued per shard both
        // workers stay busy meanwhile.
        if (pending.size() == kInFlight) complete_front();
      }
      wait_until(samples[next].scheduled, harvest, sleep);
      pending.emplace_back(next, submit(samples[next], next, in));
    }
    while (!pending.empty()) complete_front();
    return next;
  }

  /// Queues a frame on a connection; while the connection holds more than
  /// kMaxBuffered unsent bytes (the front end stopped reading), waits.
  void send(Conn& conn, const std::string& frame, std::vector<Sample>& samples,
            const Inputs& in) {
    if (conn.out.empty()) {
      const ssize_t n =
          ::send(conn.fd.get(), frame.data(), frame.size(), MSG_NOSIGNAL);
      if (n == static_cast<ssize_t>(frame.size())) return;
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
        throw std::runtime_error(std::string("send: ") + std::strerror(errno));
      }
      conn.out.append(frame, n > 0 ? static_cast<std::size_t>(n) : 0);
    } else {
      conn.out += frame;
    }
    while (conn.out.size() > kMaxBuffered) {
      poll_sockets(1e-3);
      pump(samples, in);
    }
  }

  /// Sends request i as frame i % kSlots, once that id is free.
  void send_request(std::vector<Sample>& samples, std::size_t i,
                    const Inputs& in) {
    const std::size_t slot = i % kSlots;
    if (owner_[slot] != kFree &&
        !pump_until([&] { return owner_[slot] == kFree; }, samples, in)) {
      throw std::runtime_error("request id " + std::to_string(slot + 1) +
                               " unanswered for " +
                               std::to_string(kDrainSeconds) + " s");
    }
    samples[i].sent = now();
    owner_[slot] = i;
    send(conns_[i % conns_.size()], in.frames[slot], samples, in);
  }

  /// Flushes pending output and reads every available response.
  void pump(std::vector<Sample>& samples, const Inputs& in) {
    char buf[64 * 1024];
    for (Conn& conn : conns_) {
      while (!conn.out.empty()) {
        const ssize_t n = ::send(conn.fd.get(), conn.out.data(),
                                 conn.out.size(), MSG_NOSIGNAL);
        if (n <= 0) break;
        conn.out.erase(0, static_cast<std::size_t>(n));
      }
      for (;;) {
        const ssize_t n = ::read(conn.fd.get(), buf, sizeof(buf));
        if (n == 0) throw std::runtime_error("server closed a connection");
        if (n < 0) break;  // EAGAIN: nothing more now
        const double received = now();
        conn.decoder.feed(buf, static_cast<std::size_t>(n));
        net::FrameType type;
        std::string payload;
        while (conn.decoder.next(type, payload)) {
          handle(type, payload, received, samples, in);
        }
        if (conn.decoder.error() != net::WireError::kNone) {
          throw std::runtime_error(std::string("response stream poisoned: ") +
                                   net::to_string(conn.decoder.error()));
        }
      }
    }
  }

  void handle(net::FrameType type, const std::string& payload,
              double received, std::vector<Sample>& samples,
              const Inputs& in) {
    if (type != net::FrameType::kResponse) {
      ++wire_errors_;  // a protocol reject: the server could not read us
      return;
    }
    const double t0 = now();
    net::ResponseFrame f;
    std::string err;
    if (!net::decode_response(payload, f, err)) {
      ++wire_errors_;
      return;
    }
    const double decode = now() - t0;
    if (f.request_id == 0 || f.request_id > kSlots) {
      ++wire_errors_;
      return;
    }
    std::size_t& owner = owner_[f.request_id - 1];
    if (owner == kFree) {
      ++duplicates_;  // no request with this id is outstanding
      return;
    }
    Sample& s = samples[owner];
    s.received = received;
    if (traced_) s.decode = static_cast<float>(decode);
    serve::Response r;
    r.error = static_cast<serve::ServeError>(f.serve_error);
    r.latency = f.latency;
    r.batch_size = f.batch_size;
    r.probabilities = std::move(f.probabilities);
    complete(s, r, in.reference[image_of(owner)]);
    owner = kFree;
    ++answered_;
  }

  /// Pumps until `done()` or kDrainSeconds pass; false on timeout.
  template <typename Done>
  bool pump_until(Done&& done, std::vector<Sample>& samples,
                  const Inputs& in) {
    const double deadline = now() + kDrainSeconds;
    while (!done()) {
      if (now() > deadline) return false;
      pump(samples, in);
      poll_sockets(1e-3);
    }
    return true;
  }

  /// Waits for the answers to the first `end` samples; on timeout the
  /// answered-once gate reports what is missing, and the ids are released.
  void drain(std::vector<Sample>& samples, std::size_t end, const Inputs& in) {
    std::size_t next = 0;
    const bool drained = pump_until(
        [&] {
          while (next < end && samples[next].answers > 0) ++next;
          return next == end;
        },
        samples, in);
    if (!drained) std::fill(owner_.begin(), owner_.end(), kFree);
  }

  std::size_t run_socket(std::vector<Sample>& samples, const Inputs& in,
                         bool capped, double start, double length) {
    const auto idle = [&] { pump(samples, in); };
    const auto block = [this](double d) { poll_sockets(d); };
    const std::size_t answered_before = answered_;
    std::size_t next = 0;
    const auto below_cap = [&] {
      return next - (answered_ - answered_before) < kInFlight;
    };
    for (; next < samples.size(); ++next) {
      if (capped) {
        if (now() - start >= length) break;
        if (!below_cap() && !pump_until(below_cap, samples, in)) {
          throw std::runtime_error("no answer for " +
                                   std::to_string(kDrainSeconds) + " s");
        }
      }
      // A generator behind its schedule sends without reading first.
      if (now() < samples[next].scheduled) {
        wait_until(samples[next].scheduled, idle, block);
      }
      send_request(samples, next, in);
    }
    drain(samples, next, in);
    return next;
  }

  /// Blocks until a connection is readable (or writable while output is
  /// pending), at most `seconds`.
  void poll_sockets(double seconds) {
    pollfd pfds[kConnections];
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      pfds[c] = {conns_[c].fd.get(),
                 static_cast<short>(POLLIN | (conns_[c].out.empty() ? 0 : POLLOUT)),
                 0};
    }
    const auto ns = static_cast<long>(seconds * 1e9);
    const timespec ts{ns / 1000000000L, ns % 1000000000L};
    ::ppoll(pfds, conns_.size(), &ts, nullptr);
  }

  bool socket_;
  bool traced_;
  std::unique_ptr<serve::ShardRouter> router_;
  std::vector<double> admit_;
  std::unique_ptr<net::FrontEnd> frontend_;
  std::string path_;
  std::vector<Conn> conns_;
  std::vector<std::size_t> owner_;  ///< per slot: outstanding sample or kFree
  std::size_t answered_ = 0;
  std::size_t wire_errors_ = 0;
  std::size_t duplicates_ = 0;
};

/// Sends a burst through the whole path so every shard has built its
/// model replica before anything is timed.
void warm_up(Stack& stack, const Inputs& in) {
  std::vector<Sample> warm(kWarmup);
  stack.run_open(warm, in);
  for (const Sample& s : warm) {
    if (!s.match) throw std::runtime_error("warm-up answer differs from the reference");
  }
}

/// Overloads the stack for kPreloadSeconds, unmeasured (see file comment).
void preload(Stack& stack, const Inputs& in) {
  std::vector<Sample> load = samples_for(in.arrivals[kOverload], kPreloadSeconds);
  stack.run_capped(load, kPreloadSeconds, in);
}

/// Per-request forward time of the served model at batch sizes 1..8
/// (metrics::predict_into, the microbatcher's inference path).
std::vector<double> forward_table(nn::Sequential& model, const Inputs& in) {
  std::vector<double> table(9, 0.0);
  Tensor logits;
  std::vector<std::size_t> preds;
  for (std::size_t b = 1; b <= 8; ++b) {
    Tensor batch(Shape{b, 1, nn::zoo::kImageSize, nn::zoo::kImageSize});
    for (std::size_t k = 0; k < b; ++k) batch.set_row(k, in.images[k]);
    std::vector<double> times;
    for (int rep = 0; rep < 200; ++rep) {
      const double t0 = now();
      metrics::predict_into(model, batch, b, logits, preds);
      times.push_back(now() - t0);
    }
    table[b] = median(std::move(times));
  }
  return table;
}

/// GEMM rate of each GEMM layer in the serving forward at batch 8.
void report_gflops(nn::Sequential& model, const Inputs& in, Report& report) {
  TrainTimeline timeline(model.layer_count());
  timeline.batch_stamp(now());  // one timed batch spanning every rep
  nn::Sequential view = traced_view(model, timeline);
  Tensor batch(Shape{8, 1, nn::zoo::kImageSize, nn::zoo::kImageSize});
  for (std::size_t k = 0; k < 8; ++k) batch.set_row(k, in.images[k]);
  Tensor logits;
  for (int rep = 0; rep < 500; ++rep) view.forward_into(batch, logits, false);
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    const double macs = layer_macs(
        model, i, timeline.examples(i, Phase::kAttack, Pass::kForward));
    if (macs > 0.0) {
      report.set("tensor." + layer_tag(i, model.layer(i)) + ".gflops",
                 2.0 * macs /
                     timeline.span_seconds(i, Phase::kAttack, Pass::kForward) /
                     1e9);
    }
  }
}

double client_latency(const Sample& s, bool socket) {
  return socket ? s.received - s.scheduled
                : (s.sent - s.scheduled) + s.server;
}

bool served(const Sample& s) {
  return s.error == static_cast<std::uint8_t>(serve::ServeError::kNone);
}

struct RunResult {
  std::vector<Sample> samples[kPhaseCount];  ///< the sent ones, per phase
  std::vector<double> admit;
  std::size_t wire_errors = 0;
  std::size_t duplicates = 0;
  std::size_t queue_depth_max = 0;
};

RunResult run_phases(Stack& stack, const Inputs& in, const Options& options) {
  RunResult r;
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    std::vector<Sample>& samples = r.samples[p];
    samples = samples_for(in.arrivals[p], phase_length(p, options));
    if (kPhases[p].capped) {
      samples.resize(stack.run_capped(samples, phase_length(p, options), in));
    } else {
      stack.run_open(samples, in);
    }
  }
  r.admit = stack.admit_seconds();
  r.wire_errors = stack.wire_errors() + stack.frontend_stats().wire_errors;
  r.duplicates = stack.duplicates();
  for (std::size_t i = 0; i < stack.router().size(); ++i) {
    r.queue_depth_max =
        std::max(r.queue_depth_max,
                 stack.router().shard(i).stats().snapshot().max_queue_depth);
  }
  return r;
}

struct PhaseView {
  std::vector<double> client, server, late, wire, window;
  std::size_t sent = 0, served = 0, matched = 0, refused_full = 0,
              refused_other = 0, unanswered = 0;
  double inv_batch = 0.0;
  double achieved_rps = 0.0;  ///< requests sent / their span
  double drawn_rps = 0.0;     ///< requests scheduled / their span
};

PhaseView view_phase(const RunResult& r, std::size_t p, bool socket,
                     const std::vector<double>& forward = {}) {
  PhaseView v;
  const std::vector<Sample>& samples = r.samples[p];
  if (!samples.empty()) {
    const double start = samples.front().scheduled - samples.front().offset;
    const double n = static_cast<double>(samples.size());
    const double span = samples.back().sent - start;
    v.achieved_rps = span > 0.0 ? n / span : 0.0;
    v.drawn_rps = samples.back().offset > 0.0 ? n / samples.back().offset : 0.0;
  }
  for (const Sample& s : samples) {
    ++v.sent;
    v.late.push_back(s.sent - s.scheduled);
    if (s.answers == 0) {
      ++v.unanswered;
      continue;
    }
    const auto err = static_cast<serve::ServeError>(s.error);
    if (err == serve::ServeError::kQueueFull) {
      ++v.refused_full;
      continue;
    }
    if (err != serve::ServeError::kNone) {
      ++v.refused_other;
      continue;
    }
    ++v.served;
    if (s.match) ++v.matched;
    v.client.push_back(client_latency(s, socket));
    v.server.push_back(s.server);
    if (socket) v.wire.push_back(s.received - s.sent - s.server);
    if (s.batch > 0) v.inv_batch += 1.0 / static_cast<double>(s.batch);
    if (s.batch < forward.size()) v.window.push_back(s.server - forward[s.batch]);
  }
  return v;
}

/// Goodput: responses served per second, counted by completion time in
/// kWindows equal windows of the overload phase; the median window.
double goodput(const RunResult& r, bool socket, const Options& options) {
  const double window = phase_length(kOverload, options) / kWindows;
  std::vector<double> rate(kWindows, 0.0);
  for (const Sample& s : r.samples[kOverload]) {
    if (!served(s)) continue;
    const double done = s.offset + client_latency(s, socket);
    const auto w = static_cast<std::size_t>(done / window);
    if (w < kWindows) rate[w] += 1.0 / window;
  }
  return median(std::move(rate));
}

std::string fmt(const char* format, double a, double b = 0.0, double c = 0.0) {
  char buf[200];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

/// Gates and attempted/failed counts shared by every run of the workload.
void check_run(const RunResult& r, bool socket, const std::string& tag,
               Report& report, bool count) {
  std::size_t sent = 0, mismatched = 0, unanswered = 0, failed = 0;
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    const PhaseView v = view_phase(r, p, socket);
    sent += v.sent;
    mismatched += v.served - v.matched;
    unanswered += v.unanswered;
    failed += v.sent - v.matched;  // wrong, refused or missing answers
    // The overload client is meant to fall behind its rate: that is the
    // outstanding cap at work, not an invalid phase.
    if (kPhases[p].capped) continue;
    // An open-loop phase is valid when the generator kept to the drawn
    // schedule (whose own rate is the Poisson draw's, near the target): it
    // sent at >= 95% of the schedule's rate, and ran late by at most
    // kLateLimit in most windows of the phase.
    const std::string phase = tag + "loadgen." + kPhases[p].name;
    report.gate(phase + ".offered", v.achieved_rps >= 0.95 * v.drawn_rps,
                fmt("sent at %.0f rps, schedule %.0f rps (floor 95%%), "
                    "target %.0f rps",
                    v.achieved_rps, v.drawn_rps, kPhases[p].rps));
    const double late = windowed_percentile(v.late, 0.99);
    report.gate(phase + ".on_time", late <= kLateLimit,
                fmt("lateness p99 %.3f ms (median of windows; limit %.1f ms), "
                    "whole phase %.3f ms",
                    late * 1e3, kLateLimit * 1e3,
                    percentile(v.late, 0.99) * 1e3));
  }
  report.gate(tag + "serve.bit_identical", mismatched == 0,
              fmt("%.0f served responses differ from predict_into on the "
                  "same image",
                  static_cast<double>(mismatched)));
  report.gate(tag + "serve.answered_once",
              unanswered == 0 && r.duplicates == 0 && r.wire_errors == 0,
              fmt("%.0f unanswered, %.0f answered twice, %.0f wire errors",
                  static_cast<double>(unanswered),
                  static_cast<double>(r.duplicates),
                  static_cast<double>(r.wire_errors)));
  if (count) report.count(sent, failed);
}

/// Per-layer numbers of a traced run (see README.md for the layer map).
void report_per_layer(const RunResult& base, const RunResult& traced,
                      const Inputs& in, const std::vector<double>& forward,
                      bool socket, Report& report) {
  report.set("serve.forward_ms_b1", forward[1] * 1e3);
  report.set("serve.forward_ms_b8", forward[8] * 1e3);
  std::size_t refused_full = 0, refused_other = 0;
  double offered = 1.0;
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    const PhaseView v = view_phase(traced, p, socket, forward);
    const std::string name = kPhases[p].name;
    report.set("serve.window_ms_p50." + name, percentile(v.window, 0.5) * 1e3);
    report.set("serve.batch_mean." + name,
               v.inv_batch > 0.0 ? static_cast<double>(v.served) / v.inv_batch
                                 : 0.0);
    report.set("serve.server_ms_p50." + name, percentile(v.server, 0.5) * 1e3);
    report.set("serve.server_ms_p99." + name, percentile(v.server, 0.99) * 1e3);
    report.set("net.wire_ms_p50." + name, percentile(v.wire, 0.5) * 1e3);
    report.set("net.wire_ms_p99." + name, percentile(v.wire, 0.99) * 1e3);
    report.set("loadgen.p50_ms." + name, percentile(v.client, 0.5) * 1e3);
    report.set("loadgen.p99_ms." + name, percentile(v.client, 0.99) * 1e3);
    refused_full += v.refused_full;
    refused_other += v.refused_other;
    if (!kPhases[p].capped) {
      report.set("loadgen.late_ms_p99." + name, percentile(v.late, 0.99) * 1e3);
      offered = std::min(offered, v.achieved_rps / v.drawn_rps);
    }
  }
  // Closure: lateness + server latency + wire time is the client latency,
  // with every part non-negative (the server's own latency must fit inside
  // the client's send-to-receive window).
  double closure = 0.0;
  std::size_t negative = 0;
  std::vector<double> admit, decode;
  for (const auto& samples : traced.samples) {
    for (const Sample& s : samples) {
      if (!served(s)) continue;
      const double late = s.sent - s.scheduled;
      const double wire = socket ? s.received - s.sent - s.server : 0.0;
      const double client = client_latency(s, socket);
      closure = std::max(closure, std::abs(late + s.server + wire - client) / client);
      if (late < 0.0 || wire < 0.0) ++negative;
      if (!socket) admit.push_back(s.admit);
      decode.push_back(s.decode);
    }
  }
  if (socket) admit = traced.admit;
  report.gate("trace.closure", closure <= 1e-6 && negative == 0,
              fmt("worst relative closure error %.3g, %.0f requests with a "
                  "negative part",
                  closure, static_cast<double>(negative)));
  report.set("trace.closure_error", closure);
  report.set("serve.admit_us_p50", percentile(admit, 0.5) * 1e6);
  report.set("serve.queue_depth_max", static_cast<double>(traced.queue_depth_max));
  report.set("serve.refused_full", static_cast<double>(refused_full));
  report.set("serve.refused_other", static_cast<double>(refused_other));
  if (socket) {
    report.set("net.encode_us", median(in.encode_seconds) * 1e6);
    report.set("net.decode_us", percentile(decode, 0.5) * 1e6);
  }
  report.set("net.wire_errors", static_cast<double>(traced.wire_errors));
  report.set("loadgen.offered_share", offered);
  const double base_p50 =
      percentile(view_phase(base, kLow, socket).client, 0.5);
  const double traced_p50 =
      percentile(view_phase(traced, kLow, socket).client, 0.5);
  report.set("trace.overhead_share", (traced_p50 - base_p50) / base_p50);
}

}  // namespace

void run_serve(const Options& options, Report& report) {
  // The generator thread's sleeps end on time, not up to the default 50 us
  // of timer slack late.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const bool socket = options.workload == "serve_socket";
  const Inputs in = make_inputs(options, socket);

  // Set-up: initialize the served model, start the router (and the front
  // end and the client connections), and warm every shard's replica with
  // a burst. Repeated so the median is steady; the last stack serves.
  std::vector<double> setup;
  std::unique_ptr<nn::Sequential> model;
  std::unique_ptr<Stack> stack;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack.reset();
    const double t0 = now();
    Rng rng(kModelSeed);
    model = std::make_unique<nn::Sequential>(nn::zoo::build(kModelSpec, rng));
    stack = std::make_unique<Stack>(socket, false, *model);
    warm_up(*stack, in);
    setup.push_back(now() - t0);
  }

  preload(*stack, in);
  RunResult base = run_phases(*stack, in, options);
  // Read before the analysis below allocates: the peak of serving, not of
  // the benchmark's own bookkeeping.
  const double rss = peak_rss_mb();
  stack.reset();
  check_run(base, socket, options.trace ? "untraced." : "", report,
            !options.trace);

  if (!options.trace) {
    const PhaseView low = view_phase(base, kLow, socket);
    const PhaseView high = view_phase(base, kHigh, socket);
    report.set("setup_s", median(setup));
    report.set("peak_rss_mb", rss);
    report.set("throughput_per_s", goodput(base, socket, options));
    report.set("p50_ms", fastest_window_percentile(low.client, 0.50) * 1e3);
    report.set("tail_ms", fastest_window_percentile(high.client, 0.99) * 1e3);
    report.set("correct_share", static_cast<double>(low.matched + high.matched) /
                                    static_cast<double>(low.sent + high.sent));
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      const PhaseView v = view_phase(base, p, socket);
      const std::string name = kPhases[p].name;
      report.note(name + ".offered_rps", v.achieved_rps);
      report.note(name + ".p50_ms", percentile(v.client, 0.50) * 1e3);
      report.note(name + ".p99_ms", percentile(v.client, 0.99) * 1e3);
      report.note(name + ".sent", static_cast<double>(v.sent));
      report.note(name + ".served", static_cast<double>(v.served));
    }
    return;
  }

  // Traced rerun on a fresh stack: per-request stage times, the served
  // model's forward cost per batch size, and the tracing overhead.
  const std::vector<double> forward = forward_table(*model, in);
  report_gflops(*model, in, report);
  Stack traced_stack(socket, true, *model);
  warm_up(traced_stack, in);
  preload(traced_stack, in);
  RunResult traced = run_phases(traced_stack, in, options);
  check_run(traced, socket, "", report, true);
  report_per_layer(base, traced, in, forward, socket, report);
}

}  // namespace satd::benchmark
