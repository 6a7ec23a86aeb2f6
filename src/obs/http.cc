#include "obs/http.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/logging.h"
#include "common/metrics.h"
#include "obs/prometheus.h"

namespace neptune {
namespace obs {

namespace {

// One request's worth of header is all we ever buffer; more is abuse.
constexpr size_t kMaxHeaderBytes = 8192;

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out.append(buf);
      continue;
    }
    out.push_back(c);
  }
  return out;
}

void AppendNumber(std::string* out, const char* fmt, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), fmt, v);
  out->append(buf);
}

std::string HttpResponse(int code, const char* reason,
                         const char* content_type, std::string_view body) {
  std::string out;
  out.reserve(body.size() + 128);
  out.append("HTTP/1.1 ");
  out.append(std::to_string(code));
  out.push_back(' ');
  out.append(reason);
  out.append("\r\nContent-Type: ");
  out.append(content_type);
  out.append("\r\nContent-Length: ");
  out.append(std::to_string(body.size()));
  out.append("\r\nConnection: close\r\n\r\n");
  out.append(body);
  return out;
}

}  // namespace

std::string BuildStatusz(uint64_t uptime_us, const MetricsWindow* window,
                         const std::map<std::string, std::string>& extra) {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  const int64_t role = registry.GetGauge("repl.role")->Value();
  const int64_t term = registry.GetGauge("repl.term")->Value();
  std::string out = "{\n";
  out += "  \"role\": \"";
  out += role == 1 ? "follower" : "primary";
  out += "\",\n";
  out += "  \"term\": " + std::to_string(term) + ",\n";
  out += "  \"uptime_s\": ";
  AppendNumber(&out, "%.1f", static_cast<double>(uptime_us) / 1e6);
  out += ",\n  \"repl\": {\"lag_bytes\": " +
         std::to_string(registry.GetGauge("repl.lag_bytes")->Value()) +
         ", \"follower_lag_bytes\": " +
         std::to_string(
             registry.GetGauge("repl.follower.lag_bytes")->Value()) +
         ", \"apply_lag_us\": " +
         std::to_string(registry.GetGauge("repl.apply_lag_us")->Value()) +
         "},\n";
  if (window != nullptr) {
    MetricsSnapshot delta;
    uint64_t elapsed = 0;
    uint64_t p99_10s = 0;
    if (window->Delta(10'000'000, &delta, &elapsed)) {
      auto it = delta.histograms.find("rpc.request_latency");
      if (it != delta.histograms.end()) {
        p99_10s = it->second.QuantileMicros(0.99);
      }
    }
    out += "  \"rates\": {\"rpc_requests_1s\": ";
    AppendNumber(&out, "%.1f", window->CounterRate("rpc.requests", 1'000'000));
    out += ", \"rpc_requests_10s\": ";
    AppendNumber(&out, "%.1f",
                 window->CounterRate("rpc.requests", 10'000'000));
    out += ", \"rpc_requests_60s\": ";
    AppendNumber(&out, "%.1f",
                 window->CounterRate("rpc.requests", 60'000'000));
    out += ", \"request_p99_us_10s\": " + std::to_string(p99_10s) + "},\n";
  }
  out += "  \"build\": {\"compiler\": \"" + JsonEscape(
#if defined(__VERSION__)
             __VERSION__
#else
             "unknown"
#endif
             ) +
         "\", \"cxx\": " + std::to_string(__cplusplus) + "}";
  for (const auto& [key, value] : extra) {
    out += ",\n  \"" + JsonEscape(key) + "\": \"" + JsonEscape(value) + "\"";
  }
  out += "\n}\n";
  return out;
}

// ------------------------------------------------------------- server

struct MetricsHttpServer::Conn {
  explicit Conn(int fd) : fd(fd) {}
  ~Conn() { ::close(fd); }
  const int fd;
  std::string in;
  std::string out;
  size_t out_off = 0;
  bool responded = false;
  bool want_write = false;
};

MetricsHttpServer::MetricsHttpServer(Options options)
    : options_(std::move(options)),
      time_(options_.time_source != nullptr ? options_.time_source
                                            : RealTimeSource()) {}

MetricsHttpServer::~MetricsHttpServer() { Stop(); }

Result<uint16_t> MetricsHttpServer::Start(uint16_t port) {
  if (thread_.joinable()) return port_;
  NEPTUNE_ASSIGN_OR_RETURN(listener_, rpc::Listener::Bind(port));
  NEPTUNE_RETURN_IF_ERROR(listener_->SetNonblocking());
  NEPTUNE_ASSIGN_OR_RETURN(poller_, rpc::Poller::Create());
  NEPTUNE_RETURN_IF_ERROR(poller_->Add(listener_->fd(), false));
  port_ = listener_->port();
  start_us_ = time_->NowMicros();
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { Main(); });
  NEPTUNE_LOG(Info) << "event=metrics_listening addr=127.0.0.1:" << port_;
  return port_;
}

void MetricsHttpServer::Stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  conns_.clear();
  poller_.reset();
  listener_.reset();
}

std::string MetricsHttpServer::Respond(const std::string& method,
                                       const std::string& path) {
  if (method != "GET") {
    return HttpResponse(405, "Method Not Allowed", "text/plain",
                        "GET only\n");
  }
  if (path == "/metrics") {
    return HttpResponse(
        200, "OK", "text/plain; version=0.0.4; charset=utf-8",
        RenderPrometheus(MetricsRegistry::Instance().Snapshot()));
  }
  if (path == "/statusz") {
    return HttpResponse(200, "OK", "application/json",
                        BuildStatusz(time_->NowMicros() - start_us_,
                                     options_.window, options_.statusz_extra));
  }
  if (path == "/statsz") {
    return HttpResponse(200, "OK", "application/json",
                        MetricsRegistry::Instance().Snapshot().ToJson());
  }
  return HttpResponse(404, "Not Found", "text/plain",
                      "try /metrics, /statusz or /statsz\n");
}

bool MetricsHttpServer::OnReadable(Conn* conn) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
    if (n == 0) return conn->responded && conn->out_off < conn->out.size();
    if (conn->responded) continue;  // drain anything after the request
    conn->in.append(buf, static_cast<size_t>(n));
    if (conn->in.size() > kMaxHeaderBytes) return false;
    const size_t header_end = conn->in.find("\r\n\r\n");
    if (header_end == std::string::npos) continue;
    // "GET /metrics HTTP/1.1" — method and path are all we route on.
    const size_t line_end = conn->in.find("\r\n");
    const std::string line = conn->in.substr(0, line_end);
    const size_t sp1 = line.find(' ');
    const size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                                : line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos) return false;
    std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
    const size_t query = path.find('?');
    if (query != std::string::npos) path.resize(query);
    conn->out = Respond(line.substr(0, sp1), path);
    conn->responded = true;
    conn->in.clear();
  }
}

bool MetricsHttpServer::FlushConn(Conn* conn) {
  while (conn->out_off < conn->out.size()) {
    const ssize_t n = ::send(conn->fd, conn->out.data() + conn->out_off,
                             conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!conn->want_write) {
          conn->want_write = true;
          poller_->Update(conn->fd, true);
        }
        return true;
      }
      return false;
    }
    conn->out_off += static_cast<size_t>(n);
  }
  // Response fully written: every exchange is one-shot, so drop the
  // connection rather than waiting out a keep-alive.
  return !conn->responded;
}

void MetricsHttpServer::CloseConn(int fd) {
  poller_->Remove(fd);
  conns_.erase(fd);
}

void MetricsHttpServer::Main() {
  std::vector<rpc::Poller::Event> events;
  while (!stop_.load(std::memory_order_acquire)) {
    auto waited = poller_->Wait(100, &events);
    if (!waited.ok()) continue;
    for (const rpc::Poller::Event& ev : events) {
      if (ev.fd == listener_->fd()) {
        for (;;) {
          auto accepted = listener_->AcceptFd();
          if (!accepted.ok()) break;
          auto conn = std::make_unique<Conn>(*accepted);
          if (!poller_->Add(conn->fd, false).ok()) continue;  // conn closes
          conns_[conn->fd] = std::move(conn);
        }
        continue;
      }
      auto it = conns_.find(ev.fd);
      if (it == conns_.end()) continue;
      Conn* conn = it->second.get();
      bool alive = true;
      if (ev.readable || ev.error) alive = OnReadable(conn);
      if (alive && (conn->responded || ev.writable)) alive = FlushConn(conn);
      if (!alive) CloseConn(ev.fd);
    }
  }
}

}  // namespace obs
}  // namespace neptune
