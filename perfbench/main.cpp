// zdr_perfbench: the repository benchmark.
//
// One process builds an in-process core::Testbed, drives one workload
// against it open loop from a single generator thread, checks every
// answer, and prints the end-to-end metrics (--trace 0) or the
// per-layer ledger (--trace 1) as the last line of stdout:
//
//   zdr_perfbench --workload api_get|bulk_body|zdr_release --seed N
//                 --seconds S --trace 0|1
//
// The generator speaks HTTP/1.1, MQTT and quicish over raw sockets
// rather than through netcore, so the process-wide ioStats() counters
// and the host loops' engine samples hold the system's own I/O only.
// Requests are paced by a timerfd on absolute due times, and each
// request's latency is counted from its due time, so a stall in the
// system also delays (and is charged to) the requests queued behind it.
#include <cpuid.h>
#include <fcntl.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <pthread.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "alloc_counter.h"
#include "core/testbed.h"
#include "http/codec.h"
#include "metrics/flight_recorder.h"
#include "metrics/metrics.h"
#include "metrics/trace.h"
#include "mqtt/codec.h"
#include "netcore/io_stats.h"
#include "quicish/packet.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace zdr;
using Ns = int64_t;

constexpr Ns kMs = 1'000'000;
constexpr Ns kSec = 1'000'000'000;

Ns monoNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<Ns>(ts.tv_sec) * kSec + ts.tv_nsec;
}

void sleepNs(Ns d) {
  if (d > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(d));
  }
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1 - frac) + v[hi] * frac;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

uint64_t fnv1a(std::string_view s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h = (h ^ c) * 1099511628211ULL;
  }
  return h;
}

std::string hex16(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// ------------------------------------------------------------ workload

enum class Workload { kApiGet, kBulkBody, kZdrRelease };

constexpr size_t kBulkBytes = 256 * 1024;
constexpr size_t kPostBytes = 64 * 1024;
constexpr size_t kUploadChunks = 20;
constexpr size_t kUploadChunkBytes = 2048;
constexpr Ns kUploadChunkGap = 25 * kMs;
constexpr Ns kRequestTimeout = 3 * kSec;
constexpr Ns kMqttEchoDeadline = 1 * kSec;
constexpr Ns kMqttPeriod = 5 * kMs;
constexpr Ns kMqttRedial = 50 * kMs;
constexpr Ns kQuicPeriod = 2 * kMs;
constexpr Ns kQuicReopenAfter = 250 * kMs;
// Bounds of the benchmark's own self-checks.
// The generator falls behind when its median arrival is late: the tail
// of its lag follows the host's wake-up stalls (p99 0.2–18 ms between
// runs of one build on a shared 4-vCPU VM) and is reported, not bounded.
constexpr double kMaxGenLagP50Ms = 1.0;
constexpr double kMaxTraceGapPct = 25.0;

enum class ReqKind : uint8_t { kGet, kBulkGet, kPost, kUpload };

struct HttpStream {
  ReqKind kind;
  double rate;  // requests per second on this connection; 0 = back to back
};

struct Plan {
  std::string name;
  uint64_t seed = 1;
  // One entry per client connection (at most 4 per workload).
  std::vector<HttpStream> http;
  bool mqtt = false;
  bool quic = false;
  bool release = false;
  bool bulkHandler = false;
  core::TestbedOptions testbed;
};

Plan makePlan(Workload w, uint64_t seed) {
  Plan p;
  p.seed = seed;
  auto& t = p.testbed;
  t.edges = 1;
  t.origins = 1;
  t.appServers = 2;
  t.httpWorkers = 1;
  // Every topology carries one broker and the MQTT VIP so the traced
  // run's release probe (see run()) can measure DCR on any workload;
  // api_get and bulk_body send no MQTT traffic in their measured window.
  t.brokers = 1;
  t.enableMqtt = true;
  switch (w) {
    case Workload::kApiGet:
      p.name = "api_get";
      for (int i = 0; i < 4; ++i) {
        p.http.push_back({ReqKind::kGet, 6000.0 / 4});
      }
      break;
    case Workload::kBulkBody:
      p.name = "bulk_body";
      p.bulkHandler = true;
      for (int i = 0; i < 2; ++i) {
        p.http.push_back({ReqKind::kBulkGet, 400.0 / 4});
        p.http.push_back({ReqKind::kPost, 400.0 / 4});
      }
      break;
    case Workload::kZdrRelease:
      p.name = "zdr_release";
      p.http.push_back({ReqKind::kGet, 500.0});
      p.http.push_back({ReqKind::kUpload, 0});
      p.mqtt = true;
      p.quic = true;
      p.release = true;
      t.enableL4 = true;
      t.enableQuic = true;
      break;
  }
  return p;
}

// Seeded request inputs shared by every connection of one run.
struct Inputs {
  std::vector<std::string> postBodies;  // 64 KiB each
  std::vector<std::string> postHashes;  // expected 16-byte answers
  std::string uploadChunks;             // kUploadChunks × 2 KiB
  std::string bulkBody;                 // the app's 256 KiB answer
  uint64_t pathSalt = 0;

  explicit Inputs(uint64_t seed) {
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 7);
    auto randomBytes = [&rng](size_t n) {
      std::string s(n, '\0');
      for (auto& c : s) {
        c = static_cast<char>('a' + rng() % 26);
      }
      return s;
    };
    for (int i = 0; i < 8; ++i) {
      postBodies.push_back(randomBytes(kPostBytes));
      postHashes.push_back(hex16(fnv1a(postBodies.back())));
    }
    uploadChunks = randomBytes(kUploadChunks * kUploadChunkBytes);
    bulkBody = randomBytes(kBulkBytes);
    pathSalt = rng() % 1000000;
  }
};

// ------------------------------------------------------------- results

struct HttpTally {
  uint64_t scheduled = 0;
  uint64_t ok = 0;
  uint64_t fail5xx = 0;
  uint64_t fail379 = 0;
  uint64_t failWrong = 0;
  uint64_t failTimeout = 0;
  uint64_t failTransport = 0;
  uint64_t failUnsent = 0;
  uint64_t uploads = 0;
  uint64_t uploadsFailed = 0;
  std::vector<double> latMs;  // successes, from due time to last byte
  std::vector<ReqKind> kinds;  // request kind of each success
  std::vector<Ns> doneNs;     // completion time of each success

  [[nodiscard]] uint64_t failed() const {
    return fail5xx + fail379 + failWrong + failTimeout + failTransport +
           failUnsent;
  }
};

struct ClientSpan {
  uint64_t traceId;
  uint64_t spanId;
  uint64_t startNs;
  uint64_t endNs;
};

struct MqttTally {
  uint64_t scheduled = 0;
  uint64_t echoed = 0;
  uint64_t badEcho = 0;
  uint64_t drops = 0;
  std::vector<double> rttMs;
};

struct QuicTally {
  uint64_t scheduled = 0;
  uint64_t acked = 0;
  uint64_t reopens = 0;
};

// Latency of successes [lo, hi): the mean over request kinds of each
// kind's p50 (or p99), so that a workload mixing two kinds reports a
// figure between their modes instead of jumping from one to the other.
// Paced uploads are left out: their latency is their own pacing.
double mixLatency(const HttpTally& t, size_t lo, size_t hi, double q) {
  std::vector<double> byKind[4];
  for (size_t i = lo; i < hi; ++i) {
    if (t.kinds[i] != ReqKind::kUpload) {
      byKind[static_cast<int>(t.kinds[i])].push_back(t.latMs[i]);
    }
  }
  double sum = 0;
  int kinds = 0;
  for (const auto& v : byKind) {
    if (!v.empty()) {
      sum += quantile(v, q);
      ++kinds;
    }
  }
  return kinds > 0 ? sum / kinds : 0.0;
}

// ------------------------------------------------------------ generator

class Generator;

int dialTcp(const SocketAddr& addr, bool& inProgress) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in sa = addr.raw();
  inProgress = false;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return -1;
    }
    inProgress = true;
  }
  return fd;
}

// Reads everything the socket holds into `in`; false on EOF or error.
bool readAvailable(int fd, Buffer& in) {
  while (true) {
    in.ensureWritable(64 * 1024);
    auto span = in.writableSpan();
    const ssize_t n = ::recv(fd, span.data(), span.size(), 0);
    if (n > 0) {
      in.commit(static_cast<size_t>(n));
      continue;
    }
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
}

struct Req {
  Ns due = 0;
  ReqKind kind = ReqKind::kGet;
  uint32_t index = 0;
  bool retried = false;
  uint64_t traceId = 0;
  uint64_t spanId = 0;
};

// One keep-alive HTTP/1.1 client connection; requests due while one is
// in flight wait in a FIFO (no pipelining).
class HttpConn {
 public:
  HttpConn(Generator& gen, SocketAddr target);
  ~HttpConn() { closeFd(); }
  HttpConn(const HttpConn&) = delete;
  HttpConn& operator=(const HttpConn&) = delete;

  void submit(const Req& r) {
    queue_.push_back(r);
    startNext();
  }
  [[nodiscard]] bool idle() const { return !cur_ && queue_.empty(); }
  void checkTimeout(Ns now);
  // End of run: whatever is still queued or in flight has failed.
  void abandon();

 private:
  void startNext();
  void writeOut();
  void onEvents(uint32_t ev);
  void onResponse();
  void onBroken();
  void sendChunk();
  void closeFd();
  void finish(bool ok, uint64_t HttpTally::*failField);

  Generator& gen_;
  SocketAddr target_;
  int fd_ = -1;
  bool connecting_ = false;
  bool wantWrite_ = false;
  bool reused_ = false;
  bool gotBytes_ = false;
  bool bodyFullySent_ = true;
  size_t chunksLeft_ = 0;
  EventLoop::TimerId chunkTimer_ = 0;
  Buffer in_;
  std::string out_;
  size_t outOff_ = 0;
  http::ResponseParser parser_;
  // Response body: kept for small answers; a 256 KiB /bulk answer is
  // compared against the expected bytes as it streams in instead.
  std::string body_;
  size_t bulkSeen_ = 0;
  bool bulkMatches_ = true;
  std::deque<Req> queue_;
  std::optional<Req> cur_;
  Ns sendNs_ = 0;
  uint64_t sendTraceNs_ = 0;
};

// MQTT device: subscribed to its own topic, publishing a sequence
// number every period through the edge → origin tunnel; re-dials
// after a drop like core::MqttFleet.
class MqttEcho {
 public:
  MqttEcho(Generator& gen, SocketAddr entry, std::string id)
      : gen_(gen), entry_(entry), id_(std::move(id)), topic_("perf/" + id_) {}
  ~MqttEcho() { closeFd(); }
  MqttEcho(const MqttEcho&) = delete;
  MqttEcho& operator=(const MqttEcho&) = delete;

  void dial();
  void publish();
  void finalize();

 private:
  void onEvents(uint32_t ev);
  void onPacket(const mqtt::Packet& p);
  void send(const mqtt::Packet& p);
  // Writes out_; waits for EPOLLOUT on a full socket, drops on error.
  void flush();
  void drop();
  void closeFd();

  Generator& gen_;
  SocketAddr entry_;
  std::string id_;
  std::string topic_;
  int fd_ = -1;
  bool connected_ = false;  // CONNACK received on the current socket
  bool up_ = false;          // SUBACK received: publishes can echo
  bool stopped_ = false;
  bool wantWrite_ = false;  // EPOLLOUT interest registered
  Buffer in_;
  Buffer out_;
  uint64_t nextSeq_ = 0;
  std::unordered_map<uint64_t, Ns> pending_;  // seq → send time
};

// quicish flow: one datagram per period; a flow with no ACK for
// kQuicReopenAfter is re-opened under a new connection ID.
class QuicFlow {
 public:
  QuicFlow(Generator& gen, SocketAddr vip, uint64_t seed)
      : gen_(gen), vip_(vip), nextConnId_(seed << 20) {}
  ~QuicFlow() { closeFd(); }
  QuicFlow(const QuicFlow&) = delete;
  QuicFlow& operator=(const QuicFlow&) = delete;

  void open();
  void sendData(Ns now);

 private:
  void onReadable();
  void sendPacket(const quicish::Packet& p);
  void closeFd();

  Generator& gen_;
  SocketAddr vip_;
  uint64_t nextConnId_;
  uint64_t connId_ = 0;
  int fd_ = -1;
  uint32_t seq_ = 0;
  Ns lastProgress_ = 0;
  std::vector<char> acked_;  // by data seq
  Buffer enc_;
};

// A paced arrival stream: fixed mean period with seeded ±50% jitter.
struct Stream {
  Ns next = 0;
  Ns period = 0;
  bool backToBack = false;  // next arrival when the previous completes
  Ns lastDue = 0;
  std::function<void(Ns due)> fire;
};

class Generator {
 public:
  Generator(core::Testbed& tb, const Plan& plan, const Inputs& inputs,
            bool traced)
      : tb_(tb), plan_(plan), inputs_(inputs), traced_(traced),
        rng_(plan.seed * 1315423911ULL + (traced ? 2 : 1)) {}
  ~Generator() {
    if (timerFd_ >= 0) {
      loop().removeFd(timerFd_);
      ::close(timerFd_);
    }
    if (sweepTimer_ != 0) {
      loop().cancelTimer(sweepTimer_);
    }
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  EventLoop& loop() { return *loop_; }
  const Inputs& inputs() const { return inputs_; }
  HttpTally& http() { return http_; }
  MqttTally& mqttTally() { return mqtt_; }
  QuicTally& quicTally() { return quic_; }
  std::vector<ClientSpan>& spans() { return spans_; }
  void noteUploadDone(bool ok) {
    ++http_.uploads;
    if (!ok) {
      ++http_.uploadsFailed;
    }
    if (uploadStream_ != nullptr && running_) {
      // The next upload starts when this one ends, but no sooner than
      // one upload's pacing after this one started: an upload refused
      // at once must not turn into a retry storm.
      uploadStream_->next =
          std::max(monoNs(), uploadStream_->lastDue + uploadStream_->period);
      arm();
    }
  }

  // Runs `fn` after `d` unless the generator has been finalized.
  void after(Duration d, std::function<void()> fn) {
    loop().runAfter(d, [alive = std::weak_ptr<int>(life_), fn = std::move(fn)] {
      if (!alive.expired()) {
        fn();
      }
    });
  }

  // Loop thread: creates the clients and schedules arrivals in [t0, t1).
  void start(EventLoop& loop, Ns t0, Ns t1);
  // Loop thread: stops scheduling.
  void stopArrivals() { running_ = false; }
  [[nodiscard]] bool httpIdle() const {
    return std::all_of(conns_.begin(), conns_.end(),
                       [](const auto& c) { return c->idle(); });
  }
  // Loop thread: fails everything left over, closes every socket.
  void finalize();
  [[nodiscard]] const std::vector<double>& lagMs() const { return lagMs_; }
  // The generator thread's CPU clock, readable from any thread.
  [[nodiscard]] clockid_t cpuClock() const { return cpuClock_; }

 private:
  void onTimer();
  void arm();

  core::Testbed& tb_;
  const Plan& plan_;
  const Inputs& inputs_;
  bool traced_;
  std::mt19937_64 rng_;
  EventLoop* loop_ = nullptr;
  clockid_t cpuClock_ = CLOCK_THREAD_CPUTIME_ID;
  int timerFd_ = -1;
  EventLoop::TimerId sweepTimer_ = 0;
  bool running_ = false;
  Ns end_ = 0;
  std::vector<Stream> streams_;
  Stream* uploadStream_ = nullptr;
  std::vector<std::unique_ptr<HttpConn>> conns_;
  std::unique_ptr<MqttEcho> mqttClient_;
  std::unique_ptr<QuicFlow> quicFlow_;
  HttpTally http_;
  MqttTally mqtt_;
  QuicTally quic_;
  std::vector<ClientSpan> spans_;
  std::vector<double> lagMs_;
  uint32_t reqIndex_ = 0;
  std::shared_ptr<int> life_ = std::make_shared<int>(0);
};

// ---------------------------------------------------------- HttpConn

HttpConn::HttpConn(Generator& gen, SocketAddr target)
    : gen_(gen), target_(target) {
  parser_.setBodyCallback([this](std::string_view fragment) {
    if (!cur_ || cur_->kind != ReqKind::kBulkGet) {
      body_.append(fragment);
      return;
    }
    const std::string& want = gen_.inputs().bulkBody;
    bulkMatches_ = bulkMatches_ &&
                   fragment.size() <= want.size() - bulkSeen_ &&
                   want.compare(bulkSeen_, fragment.size(), fragment) == 0;
    bulkSeen_ += fragment.size();
  });
}

void HttpConn::closeFd() {
  if (chunkTimer_ != 0) {
    gen_.loop().cancelTimer(chunkTimer_);
    chunkTimer_ = 0;
  }
  if (fd_ >= 0) {
    gen_.loop().removeFd(fd_);
    ::close(fd_);
    fd_ = -1;
  }
  connecting_ = false;
  wantWrite_ = false;
  reused_ = false;
  in_.clear();
  parser_.reset();
}

void HttpConn::finish(bool ok, uint64_t HttpTally::*failField) {
  const Req r = *cur_;
  cur_.reset();
  auto& t = gen_.http();
  if (ok) {
    ++t.ok;
    const Ns now = monoNs();
    t.latMs.push_back(static_cast<double>(now - r.due) / kMs);
    t.kinds.push_back(r.kind);
    t.doneNs.push_back(now);
    if (r.traceId != 0) {
      gen_.spans().push_back(
          {r.traceId, r.spanId, sendTraceNs_, trace::nowNs()});
    }
  } else {
    ++(t.*failField);
  }
  if (r.kind == ReqKind::kUpload) {
    gen_.noteUploadDone(ok);
  }
}

void HttpConn::startNext() {
  if (cur_ || queue_.empty()) {
    return;
  }
  cur_ = queue_.front();
  queue_.pop_front();
  if (fd_ < 0) {
    fd_ = dialTcp(target_, connecting_);
    if (fd_ < 0) {
      finish(false, &HttpTally::failTransport);
      // Dial again for the next queued request 1 ms later, not in a
      // spin that fails the whole queue at once.
      gen_.after(Duration{1}, [this] { startNext(); });
      return;
    }
    gen_.loop().addFd(
        fd_, EPOLLIN | EPOLLOUT, [this](uint32_t ev) { onEvents(ev); },
        "perfbench.http");
    wantWrite_ = true;
  }
  const Req& r = *cur_;
  const auto& in = gen_.inputs();
  std::string path;
  switch (r.kind) {
    case ReqKind::kGet:
      path = "/api/object/" + std::to_string(in.pathSalt + r.index % 1000);
      break;
    case ReqKind::kBulkGet:
      path = "/bulk";
      break;
    case ReqKind::kPost:
      path = "/post/" + std::to_string(r.index);
      break;
    case ReqKind::kUpload:
      path = "/upload/" + std::to_string(r.index);
      break;
  }
  out_.clear();
  outOff_ = 0;
  body_.clear();
  bulkSeen_ = 0;
  bulkMatches_ = true;
  out_ += (r.kind == ReqKind::kPost || r.kind == ReqKind::kUpload) ? "POST "
                                                                    : "GET ";
  out_ += path;
  out_ += " HTTP/1.1\r\nHost: zdr\r\n";
  if (r.traceId != 0) {
    out_ += "x-zdr-trace: ";
    out_ += trace::formatTraceHeader(r.traceId, r.spanId);
    out_ += "\r\n";
  }
  bodyFullySent_ = true;
  if (r.kind == ReqKind::kPost) {
    const auto& body = in.postBodies[r.index % in.postBodies.size()];
    out_ += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
    out_ += body;
  } else if (r.kind == ReqKind::kUpload) {
    out_ += "Transfer-Encoding: chunked\r\n\r\n";
    bodyFullySent_ = false;
    chunksLeft_ = kUploadChunks;
    sendChunk();
  } else {
    out_ += "\r\n";
  }
  sendNs_ = monoNs();
  sendTraceNs_ = trace::nowNs();
  gotBytes_ = false;
  if (!connecting_) {
    writeOut();
  }
}

void HttpConn::sendChunk() {
  chunkTimer_ = 0;
  if (!cur_ || chunksLeft_ == 0) {
    return;
  }
  const size_t i = kUploadChunks - chunksLeft_;
  char head[16];
  std::snprintf(head, sizeof head, "%zx\r\n", kUploadChunkBytes);
  out_ += head;
  out_.append(gen_.inputs().uploadChunks, i * kUploadChunkBytes,
              kUploadChunkBytes);
  out_ += "\r\n";
  if (--chunksLeft_ == 0) {
    out_ += "0\r\n\r\n";
    bodyFullySent_ = true;
  } else {
    chunkTimer_ = gen_.loop().runAfter(
        Duration{kUploadChunkGap / kMs}, [this] {
          chunkTimer_ = 0;
          sendChunk();
          if (fd_ >= 0 && !connecting_) {
            writeOut();
          }
        },
        "perfbench.chunk");
  }
}

void HttpConn::writeOut() {
  while (outOff_ < out_.size()) {
    ssize_t n = ::send(fd_, out_.data() + outOff_, out_.size() - outOff_,
                       MSG_NOSIGNAL);
    if (n > 0) {
      outOff_ += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!wantWrite_) {
        gen_.loop().modifyFd(fd_, EPOLLIN | EPOLLOUT);
        wantWrite_ = true;
      }
      return;
    }
    onBroken();
    return;
  }
  out_.clear();
  outOff_ = 0;
  if (wantWrite_) {
    gen_.loop().modifyFd(fd_, EPOLLIN);
    wantWrite_ = false;
  }
}

void HttpConn::onEvents(uint32_t ev) {
  if (connecting_ && (ev & (EPOLLOUT | EPOLLERR | EPOLLHUP)) != 0) {
    int err = 0;
    socklen_t len = sizeof err;
    ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      onBroken();
      return;
    }
    connecting_ = false;
  }
  if ((ev & EPOLLOUT) != 0 && !connecting_ && fd_ >= 0) {
    writeOut();
    if (fd_ < 0) {
      return;
    }
  }
  if ((ev & (EPOLLIN | EPOLLHUP | EPOLLERR)) == 0) {
    return;
  }
  const bool eof = !readAvailable(fd_, in_);
  if (!in_.empty()) {
    gotBytes_ = true;
    if (!cur_) {
      closeFd();  // bytes nobody asked for: the connection is unusable
      startNext();
      return;
    }
    auto st = parser_.feed(in_);
    if (st == http::ParseStatus::kError) {
      finish(false, &HttpTally::failWrong);
      closeFd();
      startNext();
      return;
    }
    if (parser_.messageComplete()) {
      onResponse();
      return;
    }
  }
  if (eof) {
    onBroken();
  }
}

void HttpConn::onResponse() {
  const http::Response& res = parser_.message();
  const Req& r = *cur_;
  const auto& in = gen_.inputs();
  uint64_t HttpTally::*fail = nullptr;
  if (res.status == http::kPartialPostStatus) {
    fail = &HttpTally::fail379;
  } else if (res.status >= 500) {
    fail = &HttpTally::fail5xx;
  } else if (res.status != 200) {
    fail = &HttpTally::failWrong;
  } else {
    bool good = false;
    switch (r.kind) {
      case ReqKind::kGet:
        good = body_ == "ok:/api/object/" +
                               std::to_string(in.pathSalt + r.index % 1000);
        break;
      case ReqKind::kBulkGet:
        good = bulkMatches_ && bulkSeen_ == kBulkBytes;
        break;
      case ReqKind::kPost:
        good = body_ == in.postHashes[r.index % in.postHashes.size()];
        break;
      case ReqKind::kUpload:
        good = body_ == "ok:/upload/" + std::to_string(r.index);
        break;
    }
    if (!good) {
      fail = &HttpTally::failWrong;
    }
  }
  bool closeAfter = !bodyFullySent_ || !in_.empty();
  if (auto c = res.headers.get("Connection")) {
    closeAfter = closeAfter || *c == "close";
  }
  finish(fail == nullptr, fail);
  parser_.reset();
  if (closeAfter) {
    closeFd();
  } else {
    reused_ = true;
    if (chunkTimer_ != 0) {
      gen_.loop().cancelTimer(chunkTimer_);
      chunkTimer_ = 0;
    }
  }
  startNext();
}

void HttpConn::onBroken() {
  if (cur_) {
    // RFC 7230 §6.3.1: a request written to a reused connection that
    // dies before any response byte is retried once on a fresh one
    // (the server may have closed the idle connection concurrently).
    if (reused_ && !gotBytes_ && !cur_->retried &&
        cur_->kind != ReqKind::kUpload) {
      cur_->retried = true;
      queue_.push_front(*cur_);
      cur_.reset();
    } else {
      finish(false, &HttpTally::failTransport);
    }
  }
  closeFd();
  startNext();
}

void HttpConn::checkTimeout(Ns now) {
  if (cur_ && now - sendNs_ > kRequestTimeout) {
    finish(false, &HttpTally::failTimeout);
    closeFd();
    startNext();
  }
}

void HttpConn::abandon() {
  if (cur_) {
    finish(false, &HttpTally::failTimeout);
  }
  while (!queue_.empty()) {
    cur_ = queue_.front();
    queue_.pop_front();
    finish(false, &HttpTally::failUnsent);
  }
  closeFd();
}

// ----------------------------------------------------------- MqttEcho

void MqttEcho::closeFd() {
  if (fd_ >= 0) {
    gen_.loop().removeFd(fd_);
    ::close(fd_);
    fd_ = -1;
  }
  up_ = false;
  connected_ = false;
  wantWrite_ = false;
  in_.clear();
  out_.clear();
}

void MqttEcho::send(const mqtt::Packet& p) {
  mqtt::encode(p, out_);
  flush();
}

void MqttEcho::flush() {
  while (!out_.empty()) {
    auto r = out_.readable();
    const ssize_t n = ::send(fd_, r.data(), r.size(), MSG_NOSIGNAL);
    if (n > 0) {
      out_.consume(static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!wantWrite_) {
        gen_.loop().modifyFd(fd_, EPOLLIN | EPOLLOUT);
        wantWrite_ = true;
      }
      return;
    }
    drop();
    return;
  }
  if (wantWrite_) {
    gen_.loop().modifyFd(fd_, EPOLLIN);
    wantWrite_ = false;
  }
}

void MqttEcho::dial() {
  if (stopped_) {
    return;
  }
  bool inProgress = false;
  fd_ = dialTcp(entry_, inProgress);
  if (fd_ < 0) {
    gen_.after(Duration{kMqttRedial / kMs}, [this] { dial(); });
    return;
  }
  // CONNECT goes out once the dial completes (EPOLLOUT).
  gen_.loop().addFd(
      fd_, EPOLLIN | EPOLLOUT, [this](uint32_t ev) { onEvents(ev); },
      "perfbench.mqtt");
  wantWrite_ = true;
  mqtt::Packet c;
  c.type = mqtt::PacketType::kConnect;
  c.clientId = id_;
  c.cleanSession = true;
  mqtt::encode(c, out_);
}

void MqttEcho::drop() {
  if (connected_) {
    ++gen_.mqttTally().drops;
  }
  closeFd();
  gen_.after(Duration{kMqttRedial / kMs}, [this] { dial(); });
}

void MqttEcho::onEvents(uint32_t ev) {
  if ((ev & EPOLLOUT) != 0) {
    flush();
    if (fd_ < 0) {
      return;
    }
  }
  if ((ev & (EPOLLIN | EPOLLHUP | EPOLLERR)) == 0) {
    return;
  }
  const bool eof = !readAvailable(fd_, in_);
  while (fd_ >= 0) {
    bool malformed = false;
    auto p = mqtt::decode(in_, malformed);
    if (malformed) {
      ++gen_.mqttTally().badEcho;
      drop();
      return;
    }
    if (!p) {
      break;
    }
    onPacket(*p);
  }
  if (eof && fd_ >= 0) {
    drop();
  }
}

void MqttEcho::onPacket(const mqtt::Packet& p) {
  switch (p.type) {
    case mqtt::PacketType::kConnack:
      if (p.returnCode != mqtt::kConnAccepted) {
        drop();
        return;
      }
      connected_ = true;
      {
        mqtt::Packet s;
        s.type = mqtt::PacketType::kSubscribe;
        s.packetId = 1;
        s.topics = {topic_};
        send(s);
      }
      break;
    case mqtt::PacketType::kSuback:
      up_ = true;
      break;
    case mqtt::PacketType::kPublish: {
      char* endp = nullptr;
      const uint64_t seq = std::strtoull(p.payload.c_str(), &endp, 10);
      auto it = pending_.find(seq);
      if (p.topic != topic_ || p.payload.empty() || *endp != '\0' ||
          it == pending_.end()) {
        ++gen_.mqttTally().badEcho;
        return;
      }
      const Ns rtt = monoNs() - it->second;
      pending_.erase(it);
      if (rtt <= kMqttEchoDeadline) {
        ++gen_.mqttTally().echoed;
        gen_.mqttTally().rttMs.push_back(static_cast<double>(rtt) / kMs);
      }
      break;
    }
    default:
      break;
  }
}

void MqttEcho::publish() {
  ++gen_.mqttTally().scheduled;
  const uint64_t seq = nextSeq_++;
  if (!up_) {
    return;  // due while disconnected: never echoed
  }
  mqtt::Packet p;
  p.type = mqtt::PacketType::kPublish;
  p.topic = topic_;
  p.payload = std::to_string(seq);
  pending_[seq] = monoNs();
  send(p);
}

void MqttEcho::finalize() {
  stopped_ = true;
  closeFd();
}

// ----------------------------------------------------------- QuicFlow

void QuicFlow::closeFd() {
  if (fd_ >= 0) {
    gen_.loop().removeFd(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

void QuicFlow::sendPacket(const quicish::Packet& p) {
  enc_.clear();
  quicish::encode(p, enc_);
  auto r = enc_.readable();
  (void)::send(fd_, r.data(), r.size(), MSG_NOSIGNAL);
}

void QuicFlow::open() {
  if (fd_ < 0) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    sockaddr_in sa = vip_.raw();
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
      closeFd();
      return;
    }
    gen_.loop().addFd(
        fd_, EPOLLIN, [this](uint32_t) { onReadable(); }, "perfbench.quic");
  }
  connId_ = ++nextConnId_;
  quicish::Packet p;
  p.type = quicish::PacketType::kInitial;
  p.connId = connId_;
  p.seq = 0x80000000u;
  sendPacket(p);
  lastProgress_ = monoNs();
}

void QuicFlow::sendData(Ns now) {
  ++gen_.quicTally().scheduled;
  if (fd_ < 0) {
    open();
    acked_.push_back(0);
    ++seq_;
    return;
  }
  if (now - lastProgress_ > kQuicReopenAfter) {
    ++gen_.quicTally().reopens;
    open();
  }
  quicish::Packet p;
  p.type = quicish::PacketType::kData;
  p.connId = connId_;
  p.seq = seq_++;
  p.payload.assign(64, 'q');
  acked_.push_back(0);
  sendPacket(p);
}

void QuicFlow::onReadable() {
  char buf[2048];
  while (true) {
    ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n <= 0) {
      return;
    }
    auto pkt = quicish::decode(
        std::as_bytes(std::span(buf, static_cast<size_t>(n))));
    if (!pkt || pkt->type != quicish::PacketType::kAck ||
        pkt->connId != connId_) {
      continue;
    }
    lastProgress_ = monoNs();
    if (pkt->seq < acked_.size() && acked_[pkt->seq] == 0) {
      acked_[pkt->seq] = 1;
      ++gen_.quicTally().acked;
    }
  }
}

// ---------------------------------------------------------- Generator

void Generator::start(EventLoop& loop, Ns t0, Ns t1) {
  loop_ = &loop;
  ::pthread_getcpuclockid(::pthread_self(), &cpuClock_);
  end_ = t1;
  running_ = true;
  timerFd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  loop.addFd(
      timerFd_, EPOLLIN,
      [this](uint32_t) {
        uint64_t expirations = 0;
        (void)::read(timerFd_, &expirations, sizeof expirations);
        onTimer();
      },
      "perfbench.pace");
  // At most 4 HTTP streams + MQTT + QUIC: reserved so uploadStream_
  // stays valid.
  streams_.reserve(8);
  std::uniform_real_distribution<double> phase(0.0, 1.0);
  for (const auto& hs : plan_.http) {
    conns_.push_back(std::make_unique<HttpConn>(*this, tb_.httpEntry()));
    HttpConn* conn = conns_.back().get();
    Stream s;
    const ReqKind kind = hs.kind;
    s.backToBack = hs.rate <= 0;
    s.period = s.backToBack ? kUploadChunkGap * kUploadChunks
                            : static_cast<Ns>(kSec / hs.rate);
    s.next = t0 + static_cast<Ns>(
                      phase(rng_) *
                      static_cast<double>(std::max<Ns>(s.period, kMs)));
    s.fire = [this, conn, kind](Ns due) {
      Req r;
      r.due = due;
      r.kind = kind;
      r.index = reqIndex_++;
      if (traced_) {
        r.traceId = trace::newId();
        r.spanId = trace::newId();
      }
      ++http_.scheduled;
      conn->submit(r);
    };
    streams_.push_back(std::move(s));
    if (kind == ReqKind::kUpload) {
      uploadStream_ = &streams_.back();
    }
  }
  if (plan_.mqtt) {
    // MQTT dials the edge's own VIP even when L4 fronts HTTP: the
    // testbed's L4 MQTT VIP health-checks its backends over HTTP, which
    // the MQTT port does not speak, so it closes every connection.
    mqttClient_ = std::make_unique<MqttEcho>(
        *this, tb_.mqttEntry(0), "perf" + std::to_string(plan_.seed));
    mqttClient_->dial();
    Stream s;
    s.period = kMqttPeriod;
    s.next = t0;
    s.fire = [this](Ns) { mqttClient_->publish(); };
    streams_.push_back(std::move(s));
  }
  if (plan_.quic) {
    quicFlow_ =
        std::make_unique<QuicFlow>(*this, tb_.edge(0).quicVip(), plan_.seed);
    quicFlow_->open();
    Stream s;
    s.period = kQuicPeriod;
    s.next = t0;
    s.fire = [this](Ns due) { quicFlow_->sendData(due); };
    streams_.push_back(std::move(s));
  }
  sweepTimer_ = loop.runEvery(
      Duration{20},
      [this] {
        const Ns now = monoNs();
        for (auto& c : conns_) {
          c->checkTimeout(now);
        }
      },
      "perfbench.sweep");
  arm();
}

void Generator::arm() {
  Ns next = INT64_MAX;
  for (const auto& s : streams_) {
    if (s.next < end_) {
      next = std::min(next, s.next);
    }
  }
  itimerspec its{};
  if (running_ && next != INT64_MAX) {
    next = std::max<Ns>(next, 1);
    its.it_value.tv_sec = next / kSec;
    its.it_value.tv_nsec = next % kSec;
  }
  ::timerfd_settime(timerFd_, TFD_TIMER_ABSTIME, &its, nullptr);
}

void Generator::onTimer() {
  if (!running_) {
    return;
  }
  const Ns now = monoNs();
  std::uniform_real_distribution<double> jitter(0.5, 1.5);
  for (auto& s : streams_) {
    while (s.next <= now && s.next < end_) {
      const Ns due = s.next;
      s.lastDue = due;
      lagMs_.push_back(static_cast<double>(now - due) / kMs);
      if (s.backToBack) {
        s.next = INT64_MAX;  // re-armed by noteUploadDone
      } else {
        s.next += static_cast<Ns>(static_cast<double>(s.period) * jitter(rng_));
      }
      s.fire(due);
    }
  }
  arm();
}

void Generator::finalize() {
  running_ = false;
  life_.reset();
  loop().cancelTimer(sweepTimer_);
  sweepTimer_ = 0;
  for (auto& c : conns_) {
    c->abandon();
  }
  if (mqttClient_) {
    mqttClient_->finalize();
  }
  mqttClient_.reset();
  quicFlow_.reset();
  conns_.clear();
}

// ------------------------------------------------------- measurements

// Resident set size; sampled every few milliseconds, so it reads into a
// stack buffer rather than allocating.
double rssMb() {
  char buf[128] = {};
  const int fd = ::open("/proc/self/statm", O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return 0;
  }
  const ssize_t n = ::read(fd, buf, sizeof buf - 1);
  ::close(fd);
  unsigned long long size = 0;
  unsigned long long resident = 0;
  if (n <= 0 || std::sscanf(buf, "%llu %llu", &size, &resident) != 2) {
    return 0;
  }
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// The VM's CPU time stolen by the hypervisor and its total CPU time,
// in clock ticks, over all CPUs (/proc/stat).
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};

CpuTicks cpuTicks() {
  char buf[256] = {};
  const int fd = ::open("/proc/stat", O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return {};
  }
  const ssize_t n = ::read(fd, buf, sizeof buf - 1);
  ::close(fd);
  unsigned long long v[8] = {};
  if (n <= 0 || std::sscanf(buf, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]) != 8) {
    return {};
  }
  CpuTicks t;
  t.steal = v[7];
  for (auto x : v) {
    t.total += x;
  }
  return t;
}

struct HostProbe {
  double edgeCpu = 0;
  double originCpu = 0;
  double appCpu = 0;
  uint64_t waits = 0;
  uint64_t timersArmed = 0;
  const char* backend = "unknown";
};

HostProbe probeHosts(core::Testbed& tb) {
  HostProbe p;
  auto addEngine = [&p](const EngineSample& s) {
    p.waits += s.io.waitSyscalls;
    p.timersArmed += s.timers.armed;
    p.backend = s.backend;
  };
  for (size_t i = 0; i < tb.edgeCount(); ++i) {
    p.edgeCpu += tb.edge(i).hostCpuSeconds();
    tb.edge(i).withActiveProxy(
        [&](proxygen::Proxy*) { addEngine(tb.edge(i).loop().engineSample()); });
  }
  for (size_t i = 0; i < tb.originCount(); ++i) {
    p.originCpu += tb.origin(i).hostCpuSeconds();
    tb.origin(i).withActiveProxy([&](proxygen::Proxy*) {
      addEngine(tb.origin(i).loop().engineSample());
    });
  }
  for (size_t i = 0; i < tb.appCount(); ++i) {
    tb.app(i).withServer([&](appserver::AppServer*) {
      p.appCpu += threadCpuSeconds();
      addEngine(tb.app(i).loop().engineSample());
    });
  }
  return p;
}

struct IoSnap {
  uint64_t reads, writes, splices, copied, spliced, udpSyscalls, udpDgrams;
};

IoSnap ioSnap() {
  const auto& s = ioStats();
  return {s.totalReadSyscalls(),
          s.totalWriteSyscalls(),
          s.spliceCalls.load(std::memory_order_relaxed),
          s.copiedBytes(),
          s.spliceBytes.load(std::memory_order_relaxed),
          s.totalUdpSyscalls(),
          s.udpDatagrams.load(std::memory_order_relaxed)};
}

double counterDelta(const std::map<std::string, double>& before,
                    const std::map<std::string, double>& after,
                    std::string_view suffix) {
  double sum = 0;
  for (const auto& [name, v] : after) {
    if (name.rfind("counter.", 0) != 0 || name.size() < suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    auto it = before.find(name);
    sum += v - (it == before.end() ? 0.0 : it->second);
  }
  return sum;
}

// ------------------------------------------------------------ release

// Drives edge Socket Takeover → origin Socket Takeover → app0 restart,
// each step starting when the previous one reports restartComplete().
class ReleaseDriver {
 public:
  // maxCycles = 0: cycle until stopped. `bulkBody` is re-installed on
  // app0 after its restart when the plan serves /bulk.
  ReleaseDriver(core::Testbed& tb, const Plan& plan,
                const std::string* bulkBody, size_t maxCycles)
      : tb_(tb), plan_(plan), bulkBody_(bulkBody), maxCycles_(maxCycles) {}

  // Advances the cycle, starting the next step only if `mayStart`;
  // returns whether a restart is in flight.
  bool step(bool mayStart) {
    release::RestartableHost* h = host(stage_);
    if (inFlight_) {
      if (!h->restartComplete()) {
        return true;
      }
      const Ns took = monoNs() - stepStart_;
      stepMs_[stage_].push_back(static_cast<double>(took) / kMs);
      if (stage_ == 0) {
        edgeCpuMs_.push_back((tb_.edge(0).hostCpuSeconds() - edgeCpu0_) * 1e3);
      }
      if (stage_ == 2 && plan_.bulkHandler) {
        installBulkHandler(tb_, 0, bulkBody_);
      }
      inFlight_ = false;
      stage_ = (stage_ + 1) % 3;
      if (stage_ == 0) {
        cycleS_.push_back(static_cast<double>(monoNs() - cycleStart_) / kSec);
      }
    }
    if (!mayStart || (maxCycles_ != 0 && cycles() >= maxCycles_)) {
      return false;
    }
    if (stage_ == 0) {
      ++cyclesStarted_;
      cycleStart_ = monoNs();
      edgeCpu0_ = tb_.edge(0).hostCpuSeconds();
    }
    stepStart_ = monoNs();
    host(stage_)->beginRestart(release::Strategy::kZeroDowntime);
    inFlight_ = true;
    return true;
  }

  [[nodiscard]] size_t cycles() const { return cycleS_.size(); }
  [[nodiscard]] size_t cyclesStarted() const { return cyclesStarted_; }
  [[nodiscard]] const std::vector<double>& cycleS() const { return cycleS_; }
  [[nodiscard]] const std::vector<double>& stepMs(int s) const {
    return stepMs_[s];
  }
  [[nodiscard]] const std::vector<double>& edgeCpuMs() const {
    return edgeCpuMs_;
  }

  static void installBulkHandler(core::Testbed& tb, size_t app,
                                 const std::string* bulk) {
    tb.app(app).withServer([bulk](appserver::AppServer* s) {
      if (s == nullptr) {
        return;
      }
      s->setHandler([bulk](const http::Request& req, http::Response& res) {
        res.status = 200;
        if (req.isPost()) {
          res.body = hex16(fnv1a(req.body));
        } else if (req.path == "/bulk") {
          res.body = *bulk;
        } else {
          res.body = "ok:" + req.path;
        }
      });
    });
  }

 private:
  release::RestartableHost* host(int stage) {
    switch (stage) {
      case 0:
        return tb_.edgeHosts().front();
      case 1:
        return tb_.originHosts().front();
      default:
        return tb_.appHosts().front();
    }
  }

  core::Testbed& tb_;
  const Plan& plan_;
  const std::string* bulkBody_;
  size_t maxCycles_;
  int stage_ = 0;
  size_t cyclesStarted_ = 0;
  bool inFlight_ = false;
  Ns stepStart_ = 0;
  Ns cycleStart_ = 0;
  double edgeCpu0_ = 0;
  std::vector<double> stepMs_[3];
  std::vector<double> edgeCpuMs_;
  std::vector<double> cycleS_;
};

// --------------------------------------------------------------- runs

struct Window {
  HttpTally http;
  MqttTally mqtt;
  QuicTally quic;
  std::vector<ClientSpan> spans;
  std::vector<double> lagMs;
  double processCpu = 0;
  double genCpu = 0;
  HostProbe hosts;  // deltas
  IoSnap io{};      // deltas
  AllocCounts alloc;
  double peakRssMb = 0;
  std::map<std::string, double> countersBefore;
  std::map<std::string, double> countersAfter;
  uint64_t frUnattributed = 0;
  size_t releaseCycles = 0;
  std::vector<double> cycleS;
  std::vector<double> stepMs[3];
  std::vector<double> edgeCpuMs;
  // Slices of the window (one second each, or one release cycle each
  // on workloads that release): system CPU per success and p50 latency
  // of the successes completed in each slice.
  std::vector<double> sliceCpuUs;
  std::vector<double> sliceP50Ms;
  std::vector<double> sliceStealPct;
  double stealPct = 0;  // over the whole window

  [[nodiscard]] double ok() const { return static_cast<double>(http.ok); }
  [[nodiscard]] double systemCpu() const { return processCpu - genCpu; }
};

struct RunOptions {
  bool traced = false;
  bool withHttp = true;
  bool release = false;
  Ns seconds = 10 * kSec;
  // Probe mode: run until one release cycle completes (bounded).
  bool untilOneCycle = false;
};

Window runWindow(core::Testbed& tb, EventLoopThread& genThread,
                 const Plan& plan, const Inputs& inputs,
                 const RunOptions& ro) {
  Window w;
  Plan p = plan;
  if (!ro.withHttp) {
    p.http.clear();
    p.mqtt = true;
  }
  auto gen = std::make_unique<Generator>(tb, p, inputs, ro.traced);
  ReleaseDriver rel(tb, p, &inputs.bulkBody, ro.untilOneCycle ? 1 : 0);

  const auto hostsBefore = probeHosts(tb);
  const auto ioBefore = ioSnap();
  w.countersBefore = tb.metrics().snapshot();
  const uint64_t frStartNs = trace::nowNs();
  double genCpu0 = 0;
  genThread.runSync([&genCpu0] { genCpu0 = threadCpuSeconds(); });
  const double cpu0 = processCpuSeconds();
  const auto alloc0 = allocCounts();
  const CpuTicks host0 = cpuTicks();

  const Ns t0 = monoNs() + 20 * kMs;
  const Ns plannedEnd = ro.untilOneCycle ? t0 + 60 * kSec : t0 + ro.seconds;
  genThread.runSync([&] { gen->start(genThread.loop(), t0, plannedEnd); });
  const clockid_t genClock = gen->cpuClock();
  auto clockSeconds = [](clockid_t c) {
    timespec ts{};
    ::clock_gettime(c, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  };
  struct SliceEdge {
    Ns at;
    double systemCpu;
    CpuTicks host;
  };
  std::vector<SliceEdge> edges;
  auto addEdge = [&] {
    edges.push_back({monoNs(), processCpuSeconds() - clockSeconds(genClock),
                     cpuTicks()});
  };
  sleepNs(t0 - monoNs());
  Ns nextSlice = ro.release ? INT64_MAX : t0 + kSec;
  if (!ro.release) {
    addEdge();
  }
  Ns t1 = plannedEnd;
  // Release steps start only inside the window; the one in flight at
  // the end finishes before the window is closed.
  while (true) {
    const Ns now = monoNs();
    w.peakRssMb = std::max(w.peakRssMb, rssMb());
    if (ro.untilOneCycle && rel.cycles() >= 1 && t1 == plannedEnd) {
      t1 = now;
      genThread.runSync([&] { gen->stopArrivals(); });
    }
    const bool inWindow = now < t1;
    if (now >= nextSlice && nextSlice <= t1) {
      addEdge();
      nextSlice += kSec;
    }
    const size_t started = rel.cyclesStarted();
    const bool releasing = ro.release && rel.step(inWindow);
    if (rel.cyclesStarted() != started) {
      addEdge();
    }
    if (!inWindow && !releasing) {
      break;
    }
    const Ns wake = std::min({monoNs() + 10 * kMs, nextSlice, t1});
    sleepNs(std::max<Ns>(wake - monoNs(), 100'000));
  }
  genThread.runSync([&] { gen->stopArrivals(); });
  // Settle: in-flight requests get up to 1 s after the window (MQTT
  // echoes are due within 1 s of their publish).
  const Ns settleEnd = std::max(monoNs(), t1) + kSec;
  while (monoNs() < settleEnd) {
    bool idle = false;
    genThread.runSync([&] { idle = gen->httpIdle(); });
    if (idle && !p.mqtt && !p.quic) {
      break;
    }
    w.peakRssMb = std::max(w.peakRssMb, rssMb());
    sleepNs(5 * kMs);
  }
  genThread.runSync([&] { gen->finalize(); });

  const auto alloc1 = allocCounts();
  const double cpu1 = processCpuSeconds();
  const CpuTicks host1 = cpuTicks();
  w.stealPct = ratio(static_cast<double>(host1.steal - host0.steal),
                     static_cast<double>(host1.total - host0.total)) *
               100;
  double genCpu1 = 0;
  genThread.runSync([&genCpu1] { genCpu1 = threadCpuSeconds(); });
  const auto hostsAfter = probeHosts(tb);
  const auto ioAfter = ioSnap();
  w.countersAfter = tb.metrics().snapshot();

  w.processCpu = cpu1 - cpu0;
  w.genCpu = genCpu1 - genCpu0;
  w.hosts.edgeCpu = hostsAfter.edgeCpu - hostsBefore.edgeCpu;
  w.hosts.originCpu = hostsAfter.originCpu - hostsBefore.originCpu;
  w.hosts.appCpu = hostsAfter.appCpu - hostsBefore.appCpu;
  w.hosts.waits = hostsAfter.waits - hostsBefore.waits;
  w.hosts.timersArmed = hostsAfter.timersArmed - hostsBefore.timersArmed;
  w.hosts.backend = hostsAfter.backend;
  w.io = {ioAfter.reads - ioBefore.reads,
          ioAfter.writes - ioBefore.writes,
          ioAfter.splices - ioBefore.splices,
          ioAfter.copied - ioBefore.copied,
          ioAfter.spliced - ioBefore.spliced,
          ioAfter.udpSyscalls - ioBefore.udpSyscalls,
          ioAfter.udpDgrams - ioBefore.udpDgrams};
  w.alloc = {alloc1.system - alloc0.system,
             alloc1.generator - alloc0.generator};
  for (const auto& e : tb.metrics().collectEvents()) {
    if (e.tNs >= frStartNs &&
        e.kind == static_cast<uint32_t>(fr::EventKind::kDisruption) &&
        fr::causeOf(e.detail) == fr::DisruptionCause::kNone) {
      ++w.frUnattributed;
    }
  }
  // Slice 0 is warm-up (connections, pools and caches filling) and is
  // left out of the slice figures.
  for (size_t k = 1; k + 1 < edges.size(); ++k) {
    const auto& d = gen->http().doneNs;
    const auto lo = std::lower_bound(d.begin(), d.end(), edges[k].at);
    const auto hi = std::lower_bound(d.begin(), d.end(), edges[k + 1].at);
    if (hi == lo) {
      continue;
    }
    w.sliceP50Ms.push_back(mixLatency(gen->http(),
                                      static_cast<size_t>(lo - d.begin()),
                                      static_cast<size_t>(hi - d.begin()),
                                      0.5));
    w.sliceCpuUs.push_back((edges[k + 1].systemCpu - edges[k].systemCpu) /
                           static_cast<double>(hi - lo) * 1e6);
    w.sliceStealPct.push_back(
        ratio(static_cast<double>(edges[k + 1].host.steal - edges[k].host.steal),
              static_cast<double>(edges[k + 1].host.total - edges[k].host.total)) *
        100);
  }
  w.http = std::move(gen->http());
  w.mqtt = std::move(gen->mqttTally());
  w.quic = gen->quicTally();
  w.spans = std::move(gen->spans());
  w.lagMs = gen->lagMs();
  w.releaseCycles = rel.cycles();
  w.cycleS = rel.cycleS();
  for (int s = 0; s < 3; ++s) {
    w.stepMs[s] = rel.stepMs(s);
  }
  w.edgeCpuMs = rel.edgeCpuMs();
  genThread.runSync([&] { gen.reset(); });
  return w;
}

// One blocking GET through the entry point: set-up ends with the first
// OK response.
bool firstResponseOk(const SocketAddr& entry, Ns deadline) {
  while (monoNs() < deadline) {
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    timeval tv{0, 200000};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    sockaddr_in sa = entry.raw();
    bool ok = false;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) == 0) {
      const std::string req =
          "GET /api/object/setup HTTP/1.1\r\nHost: zdr\r\n\r\n";
      if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) ==
          static_cast<ssize_t>(req.size())) {
        http::ResponseParser parser;
        Buffer in;
        while (true) {
          in.ensureWritable(4096);
          auto span = in.writableSpan();
          ssize_t n = ::recv(fd, span.data(), span.size(), 0);
          if (n <= 0) {
            break;
          }
          in.commit(static_cast<size_t>(n));
          parser.feed(in);
          if (parser.messageComplete() || parser.failed()) {
            ok = parser.messageComplete() &&
                 parser.message().status == 200 &&
                 parser.message().body == "ok:/api/object/setup";
            break;
          }
        }
      }
    }
    ::close(fd);
    if (ok) {
      return true;
    }
    sleepNs(10 * kMs);
  }
  return false;
}

std::unique_ptr<core::Testbed> buildTestbed(const Plan& plan,
                                            const Inputs& inputs,
                                            size_t spanCapacity) {
  core::TestbedOptions o = plan.testbed;
  o.spanSinkCapacity = spanCapacity;
  // Takeover sockets live in the build directory, inside the checkout.
  o.proxyConfigHook = [](proxygen::Proxy::Config& c) {
    c.takeoverPath = ".bench_build/tko_" + std::to_string(::getpid()) + "_" +
                     std::to_string(c.instanceId) + ".sock";
  };
  auto tb = std::make_unique<core::Testbed>(o);
  if (plan.bulkHandler) {
    for (size_t i = 0; i < tb->appCount(); ++i) {
      ReleaseDriver::installBulkHandler(*tb, i, &inputs.bulkBody);
    }
  }
  if (!firstResponseOk(tb->httpEntry(), monoNs() + 10 * kSec)) {
    return nullptr;
  }
  return tb;
}

// ------------------------------------------------------------- traces

struct LayerTimes {
  std::vector<double> client, edgeSelf, trunk, originSelf, appLink,
      appHandle;
  size_t joined = 0;
  size_t traced = 0;
};

LayerTimes joinSpans(const std::vector<ClientSpan>& clientSpans,
                     const std::vector<trace::Span>& hopSpans) {
  LayerTimes lt;
  lt.traced = clientSpans.size();
  // Indexed by SpanKind (1..13).
  constexpr uint32_t kKinds = 14;
  struct Hops {
    const trace::Span* byKind[kKinds] = {};
    int dup = 0;
  };
  std::unordered_map<uint64_t, Hops> byTrace;
  byTrace.reserve(clientSpans.size() * 2);
  for (const auto& c : clientSpans) {
    byTrace[c.traceId];
  }
  for (const auto& s : hopSpans) {
    auto it = byTrace.find(s.traceId);
    if (it == byTrace.end() || s.kind >= kKinds) {
      continue;
    }
    if (it->second.byKind[s.kind] != nullptr) {
      ++it->second.dup;
    }
    it->second.byKind[s.kind] = &s;
  }
  auto us = [](const trace::Span* s) {
    return static_cast<double>(s->endNs - s->startNs) / 1e3;
  };
  using K = trace::SpanKind;
  for (const auto& c : clientSpans) {
    const Hops& h = byTrace[c.traceId];
    const auto* er = h.byKind[static_cast<int>(K::kEdgeRequest)];
    const auto* eu = h.byKind[static_cast<int>(K::kEdgeUpstream)];
    const auto* orq = h.byKind[static_cast<int>(K::kOriginRequest)];
    const auto* oa = h.byKind[static_cast<int>(K::kOriginAppAttempt)];
    const auto* ah = h.byKind[static_cast<int>(K::kAppHandle)];
    if (h.dup != 0 || !er || !eu || !orq || !oa || !ah ||
        er->parentId != c.spanId) {
      continue;
    }
    ++lt.joined;
    const double cl = static_cast<double>(c.endNs - c.startNs) / 1e3;
    lt.client.push_back(cl - us(er));
    lt.edgeSelf.push_back(us(er) - us(eu));
    lt.trunk.push_back(us(eu) - us(orq));
    lt.originSelf.push_back(us(orq) - us(oa));
    lt.appLink.push_back(us(oa) - us(ah));
    lt.appHandle.push_back(us(ah));
  }
  return lt;
}

// --------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
  uint64_t samples;
};

std::string fmt(double v) {
  if (!std::isfinite(v)) {
    v = 0;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jsonEscape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
    }
    if (static_cast<unsigned char>(c) >= 0x20) {
      o += c;
    }
  }
  return o;
}

// CPU brand string from cpuid (no file outside the checkout is read).
std::string cpuModel() {
  std::string model = "unknown";
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[sizeof regs + 1] = {};
    std::memcpy(brand, regs, sizeof regs);
    model = brand;
    model.erase(0, model.find_first_not_of(' '));
  }
#endif
  return model;
}

// Median round trip of a wake-up between two threads over a pair of
// eventfds: the host's cross-core wake-up cost, which moves this
// benchmark's latencies when the host is contended while single-thread
// compute speed stays the same. Recorded with the host fingerprint so
// runs on a slow host can be told apart.
double wakeupRttUs() {
  constexpr int kRounds = 1000;
  constexpr uint64_t kQuit = uint64_t{1} << 62;
  const int ping = ::eventfd(0, EFD_CLOEXEC);
  const int pong = ::eventfd(0, EFD_CLOEXEC);
  if (ping < 0 || pong < 0) {
    return 0;
  }
  std::thread peer([ping, pong] {
    uint64_t v = 0;
    for (int i = 0; i < kRounds; ++i) {
      if (::read(ping, &v, sizeof v) != sizeof v || v >= kQuit ||
          ::write(pong, &v, sizeof v) != sizeof v) {
        return;
      }
    }
  });
  std::vector<double> rtt;
  rtt.reserve(kRounds);
  uint64_t v = 1;
  for (int i = 0; i < kRounds; ++i) {
    const Ns t = monoNs();
    if (::write(ping, &v, sizeof v) != sizeof v ||
        ::read(pong, &v, sizeof v) != sizeof v) {
      break;
    }
    rtt.push_back(static_cast<double>(monoNs() - t) / 1e3);
  }
  if (rtt.size() < static_cast<size_t>(kRounds)) {
    // The peer may still be blocked in read(); release it.
    (void)::write(ping, &kQuit, sizeof kQuit);
  }
  peer.join();
  ::close(ping);
  ::close(pong);
  return quantile(rtt, 0.5);
}

std::string fingerprintJson(const char* backend, double wakeupUs) {
  utsname u{};
  ::uname(&u);
  const std::string cpu = cpuModel();
  return std::string("{\"nproc\": ") +
         std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"kernel\": \"" + jsonEscape(u.release) + "\", \"cpu\": \"" +
         jsonEscape(cpu) + "\", \"build\": \"" PERFBENCH_BUILD_TYPE
         "\", \"io_backend\": \"" + backend +
         "\", \"wakeup_rtt_us\": " + fmt(wakeupUs) + "}";
}

void printResult(const Plan& plan, const std::vector<Metric>& metrics,
                 bool correct, uint64_t attempted, uint64_t failed,
                 const char* backend, double wakeupUs,
                 const std::vector<std::string>& notes) {
  // Full report (fingerprint, sample counts, notes) on one line, then
  // the result line, which is the last line of stdout.
  std::string rep = "{\"report\": {\"workload\": \"" + plan.name +
                    "\", \"seed\": " + std::to_string(plan.seed) +
                    ", \"host\": " + fingerprintJson(backend, wakeupUs) +
                    ", \"notes\": [";
  for (size_t i = 0; i < notes.size(); ++i) {
    rep += (i ? ", \"" : "\"") + jsonEscape(notes[i]) + "\"";
  }
  rep += "], \"metrics\": {";
  std::string res = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    const std::string sep = i ? ", " : "";
    rep += sep + "\"" + m.name + "\": {\"value\": " + fmt(m.value) +
           ", \"unit\": \"" + m.unit + "\", \"samples\": " +
           std::to_string(m.samples) + "}";
    res += sep + "\"" + m.name + "\": {\"value\": " + fmt(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  rep += "}}}";
  res += "}}";
  std::printf("%s\n%s\n", rep.c_str(), res.c_str());
  std::fflush(stdout);
}

// ----------------------------------------------------------------- main

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
};

bool parseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a.seconds = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else if (k == "--trace") {
      a.trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return (argc % 2) == 1 && !a.workload.empty() && a.seconds >= 1 &&
         a.seconds <= 600 && (a.trace == 0 || a.trace == 1);
}

int fail(const std::string& why) {
  std::fprintf(stderr, "zdr_perfbench: self-check failed: %s\n", why.c_str());
  return 3;
}

int run(const Args& args) {
  Workload w;
  if (args.workload == "api_get") {
    w = Workload::kApiGet;
  } else if (args.workload == "bulk_body") {
    w = Workload::kBulkBody;
  } else if (args.workload == "zdr_release") {
    w = Workload::kZdrRelease;
  } else {
    std::fprintf(stderr, "zdr_perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  // Fixed malloc thresholds: with glibc's default the mmap threshold
  // moves up the first time a large block is freed, and trimming
  // follows it, so 64–256 KiB bodies came from mmap in some runs and
  // from the heap in others, moving bulk_body's cpu_us_per_req by a
  // quarter between runs of the same code.
  ::mallopt(M_MMAP_THRESHOLD, 16 << 20);
  ::mallopt(M_TRIM_THRESHOLD, 128 << 20);
  const Plan plan = makePlan(w, args.seed);
  const Inputs inputs(args.seed);
  const double wakeupUs = wakeupRttUs();
  EventLoopThread genThread("perfbench-gen");
  genThread.runSync([] { markGeneratorThread(); });
  const bool traced = args.trace == 1;

  // Set-up is timed nine times and reported as the mean: one set-up
  // takes one of two values 20 ms apart (Testbed polls for its trunks
  // every 20 ms), so a median would flip between them from run to run.
  // The last testbed built is the one measured.
  std::vector<double> setupS;
  std::unique_ptr<core::Testbed> tb;
  const int setups = traced ? 1 : 9;
  // The traced run holds every hop span of its traced window in the
  // rings (≤ 3 spans per request per ring), so none is overwritten
  // before it is joined.
  const size_t spanCapacity = traced ? (1u << 18) : 8192;
  for (int i = 0; i < setups; ++i) {
    tb.reset();
    const Ns s0 = monoNs();
    tb = buildTestbed(plan, inputs, spanCapacity);
    if (!tb) {
      return fail("testbed never answered its first request");
    }
    setupS.push_back(static_cast<double>(monoNs() - s0) / kSec);
  }

  RunOptions ro;
  ro.seconds = static_cast<Ns>(args.seconds) * kSec;
  ro.release = plan.release;
  const Window win = runWindow(*tb, genThread, plan, inputs, ro);

  const auto& h = win.http;
  std::vector<std::string> notes = {
      "req_p99_ms is reported per layer as client.p99_ms: host stalls of "
      "10 ms and more move it by several times from run to run, beyond "
      "any bound an end-to-end metric may have",
      "zdr_release is not a BENCHMARK.json workload: the benchmark contract "
      "admits only workloads on which no operation fails, and the release "
      "faults it exists to show (502s at origin takeover, MQTT drops, QUIC "
      "datagrams unACKed after edge takeover) fail most of its operations; "
      "run it by name to measure them",
      "http scheduled=" + std::to_string(h.scheduled) +
      " ok=" + std::to_string(h.ok) + " 5xx=" + std::to_string(h.fail5xx) +
      " 379=" + std::to_string(h.fail379) +
      " wrong=" + std::to_string(h.failWrong) +
      " timeout=" + std::to_string(h.failTimeout) +
      " transport=" + std::to_string(h.failTransport) +
      " unsent=" + std::to_string(h.failUnsent) +
      " uploads=" + std::to_string(h.uploads) +
      " uploads_failed=" + std::to_string(h.uploadsFailed)};
  {
    std::string sl = "slices cpu_us/p50_ms/steal_pct:";
    for (size_t i = 0; i < win.sliceCpuUs.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, " %.0f/%.3f/%.1f", win.sliceCpuUs[i],
                    win.sliceP50Ms[i], win.sliceStealPct[i]);
      sl += buf;
    }
    notes.push_back(sl);
  }
  if (plan.mqtt || plan.quic) {
    notes.push_back("mqtt scheduled=" + std::to_string(win.mqtt.scheduled) +
                    " echoed=" + std::to_string(win.mqtt.echoed) +
                    " bad_echo=" + std::to_string(win.mqtt.badEcho) +
                    " drops=" + std::to_string(win.mqtt.drops) +
                    "; quic scheduled=" + std::to_string(win.quic.scheduled) +
                    " acked=" + std::to_string(win.quic.acked) +
                    " reopens=" + std::to_string(win.quic.reopens) +
                    "; release cycles=" + std::to_string(win.releaseCycles));
  }
  const double ok = win.ok();
  // Self-checks: a bench must exit non-zero when its claim is false.
  if (h.ok == 0) {
    return fail("workload completed no requests");
  }
  const size_t plannedCycles =
      plan.release ? std::max<size_t>(1, static_cast<size_t>(args.seconds / 3))
                   : 0;
  if (win.releaseCycles < plannedCycles) {
    return fail("completed " + std::to_string(win.releaseCycles) +
                " release cycles, planned " + std::to_string(plannedCycles));
  }
  const double lagP50 = quantile(win.lagMs, 0.5);
  if (lagP50 > kMaxGenLagP50Ms) {
    return fail("generator lag p50 " + fmt(lagP50) + " ms exceeds " +
                fmt(kMaxGenLagP50Ms) + " ms");
  }
  bool correct = h.failWrong == 0 && h.fail379 == 0 && win.mqtt.badEcho == 0;
  const uint64_t attempted = h.scheduled;
  const uint64_t failed = h.failed() + win.mqtt.badEcho;

  std::vector<Metric> m;
  const auto n = static_cast<uint64_t>(h.ok);
  if (!traced) {
    double setupSum = 0;
    for (double v : setupS) {
      setupSum += v;
    }
    m.push_back({"setup_s", setupSum / static_cast<double>(setupS.size()), "s",
                 setupS.size()});
    // Medians over slices (seconds, or release cycles), so where the
    // window cuts the release cycle does not move the figure; and over
    // the half of the slices in which the hypervisor stole the least CPU
    // time from the VM: a slice with a few percent steal showed a p50
    // up to 3.5 times its neighbours', with the same CPU per request.
    std::vector<size_t> order(win.sliceCpuUs.size());
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return win.sliceStealPct[a] < win.sliceStealPct[b];
    });
    order.resize((order.size() + 1) / 2);
    std::vector<double> p50s;
    std::vector<double> cpus;
    for (size_t i : order) {
      p50s.push_back(win.sliceP50Ms[i]);
      cpus.push_back(win.sliceCpuUs[i]);
    }
    const bool sliced = !order.empty();
    m.push_back({"req_p50_ms",
                 sliced ? quantile(p50s, 0.5)
                        : mixLatency(h, 0, h.latMs.size(), 0.5),
                 "ms", n});
    m.push_back({"req_ok_ratio", ratio(ok, static_cast<double>(h.scheduled)),
                 "ratio", h.scheduled});
    m.push_back({"cpu_us_per_req",
                 sliced ? quantile(cpus, 0.5)
                        : win.systemCpu() / ok * 1e6,
                 "us", n});
    m.push_back({"rss_mb", win.peakRssMb, "MB", 1});
    printResult(plan, m, correct, attempted, failed, win.hosts.backend,
                wakeupUs, notes);
    return 0;
  }

  // --trace 1: the per-layer ledger of the untraced window above, then a
  // traced window for hop self times, then (on workloads without
  // releases of their own) one release probe.
  RunOptions tro = ro;
  tro.traced = true;
  // Capped so the span rings (sized for 10 s of api_get) never wrap
  // over the traced window.
  tro.seconds = std::min<Ns>(ro.seconds, 10 * kSec);
  const Window tw = runWindow(*tb, genThread, plan, inputs, tro);
  const LayerTimes lt = joinSpans(tw.spans, tb->metrics().collectSpans());
  Window probe;
  const Window* rel = &win;
  if (!plan.release) {
    RunOptions pro;
    pro.withHttp = false;
    pro.release = true;
    pro.untilOneCycle = true;
    probe = runWindow(*tb, genThread, plan, inputs, pro);
    if (probe.releaseCycles < 1) {
      return fail("release probe completed no cycle");
    }
    rel = &probe;
    // The probe's MQTT faults are reported by the per-layer metrics
    // below, not counted in `failed`; a wrong echo is still incorrect.
    correct = correct && probe.mqtt.badEcho == 0;
    notes.push_back(
        "release probe: mqtt scheduled=" + std::to_string(probe.mqtt.scheduled) +
        " echoed=" + std::to_string(probe.mqtt.echoed) +
        " bad_echo=" + std::to_string(probe.mqtt.badEcho) +
        " drops=" + std::to_string(probe.mqtt.drops));
  }
  const double p50Client = quantile(lt.client, 0.5);
  const double p50EdgeSelf = quantile(lt.edgeSelf, 0.5);
  const double p50Trunk = quantile(lt.trunk, 0.5);
  const double p50OriginSelf = quantile(lt.originSelf, 0.5);
  const double p50AppLink = quantile(lt.appLink, 0.5);
  const double p50AppHandle = quantile(lt.appHandle, 0.5);
  std::vector<double> fullClient;
  for (size_t i = 0; i < lt.client.size(); ++i) {
    fullClient.push_back(lt.client[i] + lt.edgeSelf[i] + lt.trunk[i] +
                         lt.originSelf[i] + lt.appLink[i] + lt.appHandle[i]);
  }
  const double p50Full = quantile(fullClient, 0.5);
  const double layerSum = p50Client + p50EdgeSelf + p50Trunk + p50OriginSelf +
                          p50AppLink + p50AppHandle;
  const double gapPct = ratio(std::fabs(layerSum - p50Full), p50Full) * 100;
  const double joinedRatio =
      ratio(static_cast<double>(lt.joined), static_cast<double>(lt.traced));
  if (lt.joined == 0 || joinedRatio < 0.5) {
    return fail("joined " + std::to_string(lt.joined) + " of " +
                std::to_string(lt.traced) + " traced requests");
  }
  if (gapPct > kMaxTraceGapPct) {
    return fail("traced layers miss the client span by " + fmt(gapPct) + "%");
  }
  auto cd = [&](std::string_view suffix) {
    return counterDelta(win.countersBefore, win.countersAfter, suffix);
  };
  // MQTT and DCR counters come from the window that released: this
  // workload's own, or the release probe's.
  auto relCd = [&](std::string_view suffix) {
    return counterDelta(rel->countersBefore, rel->countersAfter, suffix);
  };
  // Uploads, PPR and QUIC only run on zdr_release; elsewhere these
  // metrics would read 0 by construction and are left out.
  const bool zdr = plan.release;
  const double cpuUs = win.systemCpu() / ok * 1e6;
  const double tracedCpuUs = tw.systemCpu() / tw.ok() * 1e6;
  const double dgrams = static_cast<double>(win.quic.scheduled);
  const auto nj = static_cast<uint64_t>(lt.joined);
  const auto lagN = static_cast<uint64_t>(win.lagMs.size());

  m.push_back({"netcore.syscalls_per_req",
               static_cast<double>(win.io.reads + win.io.writes +
                                   win.io.splices + win.hosts.waits) / ok,
               "count", n});
  m.push_back({"netcore.wakeups_per_req",
               static_cast<double>(win.hosts.waits) / ok, "count", n});
  m.push_back({"netcore.timers_armed_per_req",
               static_cast<double>(win.hosts.timersArmed) / ok, "count", n});
  m.push_back({"netcore.copy_kb_per_req",
               static_cast<double>(win.io.copied) / 1024.0 / ok, "KiB", n});
  m.push_back({"netcore.splice_kb_per_req",
               static_cast<double>(win.io.spliced) / 1024.0 / ok, "KiB", n});
  if (zdr) {
    m.push_back({"netcore.udp_syscalls_per_dgram",
                 ratio(static_cast<double>(win.io.udpSyscalls),
                       static_cast<double>(win.io.udpDgrams)),
                 "count", win.io.udpDgrams});
  }
  m.push_back({"alloc.per_req", static_cast<double>(win.alloc.system) / ok,
               "count", n});
  m.push_back({"alloc.gen_per_req",
               static_cast<double>(win.alloc.generator) / ok, "count", n});
  m.push_back({"edge.cpu_us_per_req", win.hosts.edgeCpu / ok * 1e6, "us", n});
  m.push_back(
      {"origin.cpu_us_per_req", win.hosts.originCpu / ok * 1e6, "us", n});
  m.push_back({"app.cpu_us_per_req", win.hosts.appCpu / ok * 1e6, "us", n});
  m.push_back({"other.cpu_us_per_req",
               (win.systemCpu() - win.hosts.edgeCpu - win.hosts.originCpu -
                win.hosts.appCpu) / ok * 1e6,
               "us", n});
  m.push_back({"gen.cpu_us_per_req", win.genCpu / ok * 1e6, "us", n});
  m.push_back({"host.steal_pct", win.stealPct, "%", 1});
  m.push_back({"gen.lag_p99_ms", quantile(win.lagMs, 0.99), "ms", lagN});
  m.push_back({"gen.lag_max_ms", quantile(win.lagMs, 1.0), "ms", lagN});
  m.push_back({"client.p99_ms", mixLatency(h, 0, h.latMs.size(), 0.99), "ms",
               n});
  m.push_back({"req_fail_ratio",
               ratio(static_cast<double>(h.failed()),
                     static_cast<double>(h.scheduled)),
               "ratio", h.scheduled});
  m.push_back({"edge.no_origin", cd("err.no_origin"), "count", 1});
  m.push_back({"edge.trunk_goaway", cd("trunk_goaway_received"), "count", 1});
  m.push_back({"edge.dispatch_retries", cd("dispatch_retries"), "count", 1});
  if (zdr) {
    m.push_back({"upload_fail_ratio",
                 ratio(static_cast<double>(h.uploadsFailed),
                       static_cast<double>(h.uploads)),
                 "ratio", h.uploads});
    m.push_back({"app.ppr_379_sent", cd("ppr_379_sent"), "count", 1});
    m.push_back({"origin.ppr_replays", cd("ppr_replays"), "count", 1});
  }
  m.push_back({"dcr.resumed", relCd("dcr_resumed"), "count", 1});
  m.push_back({"dcr.no_alternative", relCd("dcr_no_alternative"), "count", 1});
  m.push_back({"mqtt.drops", static_cast<double>(rel->mqtt.drops), "count", 1});
  m.push_back({"mqtt.tunnel_resets", relCd("mqtt_tunnel_reset"), "count", 1});
  m.push_back({"pub_fail_ratio",
               ratio(static_cast<double>(rel->mqtt.scheduled - rel->mqtt.echoed),
                     static_cast<double>(rel->mqtt.scheduled)),
               "ratio", rel->mqtt.scheduled});
  if (zdr) {
    m.push_back({"quic.forwarded", cd(".forwarded"), "count", 1});
    m.push_back({"quic.misrouted", cd(".misrouted"), "count", 1});
    m.push_back({"quic.reopens", static_cast<double>(win.quic.reopens),
                 "count", 1});
    m.push_back({"dgram_fail_ratio",
                 ratio(dgrams - static_cast<double>(win.quic.acked), dgrams),
                 "ratio", win.quic.scheduled});
  }
  m.push_back({"fr.unattributed", static_cast<double>(win.frUnattributed),
               "count", 1});
  // Release timings: from the window that released, as above.
  m.push_back({"release.cycles", static_cast<double>(rel->releaseCycles),
               "count", 1});
  m.push_back({"release_cycle_s", quantile(rel->cycleS, 0.5), "s",
               rel->cycleS.size()});
  m.push_back({"takeover.edge_ms", quantile(rel->stepMs[0], 0.5), "ms",
               rel->stepMs[0].size()});
  m.push_back({"takeover.origin_ms", quantile(rel->stepMs[1], 0.5), "ms",
               rel->stepMs[1].size()});
  m.push_back({"restart.app_ms", quantile(rel->stepMs[2], 0.5), "ms",
               rel->stepMs[2].size()});
  m.push_back({"takeover.edge_cpu_ms", quantile(rel->edgeCpuMs, 0.5), "ms",
               rel->edgeCpuMs.size()});
  m.push_back({"pub_rtt_p50_ms", quantile(rel->mqtt.rttMs, 0.5), "ms",
               rel->mqtt.rttMs.size()});
  m.push_back({"client.us_p50", p50Client, "us", nj});
  m.push_back({"edge.self_us_p50", p50EdgeSelf, "us", nj});
  m.push_back({"trunk.us_p50", p50Trunk, "us", nj});
  m.push_back({"origin.self_us_p50", p50OriginSelf, "us", nj});
  m.push_back({"app.link_us_p50", p50AppLink, "us", nj});
  m.push_back({"app.handle_us_p50", p50AppHandle, "us", nj});
  m.push_back({"trace.joined_ratio", joinedRatio, "ratio", lt.traced});
  m.push_back({"trace.sum_gap_pct", gapPct, "%", nj});
  m.push_back({"trace.overhead_pct", ratio(tracedCpuUs - cpuUs, cpuUs) * 100,
               "%", static_cast<uint64_t>(tw.http.ok)});
  printResult(plan, m, correct, attempted, failed, win.hosts.backend,
              wakeupUs, notes);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: zdr_perfbench --workload api_get|bulk_body|"
                 "zdr_release --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "zdr_perfbench: %s\n", e.what());
    return 4;
  }
}
