#include "src/serve/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace stedb::serve {

namespace {

constexpr size_t kMaxHeaderBytes = 16 * 1024;
constexpr size_t kMaxBodyBytes = 8 * 1024 * 1024;
/// recv timeout per wait; workers re-check the stop flag this often.
constexpr int kRecvTimeoutMs = 250;
/// A started request (bytes seen) must complete within this many waits.
constexpr int kMaxPartialWaits = 40;  // 10 s at 250 ms

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 409: return "Conflict";
    case 503: return "Service Unavailable";
    default: return "Internal Server Error";
  }
}

bool SendAll(int fd, const char* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::send(fd, data + done, size - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

bool SendResponse(int fd, const HttpResponse& resp) {
  char head[256];
  const int head_len = std::snprintf(
      head, sizeof(head),
      "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
      "Connection: keep-alive\r\n\r\n",
      resp.status, ReasonPhrase(resp.status), resp.content_type.c_str(),
      resp.body.size());
  return SendAll(fd, head, static_cast<size_t>(head_len)) &&
         SendAll(fd, resp.body.data(), resp.body.size());
}

void SetRecvTimeout(int fd, int ms) {
  struct timeval tv;
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/// Case-insensitive "does `line` start with `prefix`".
bool StartsWithNoCase(const std::string& line, const char* prefix) {
  const size_t n = std::strlen(prefix);
  if (line.size() < n) return false;
  for (size_t i = 0; i < n; ++i) {
    if (std::tolower(static_cast<unsigned char>(line[i])) !=
        std::tolower(static_cast<unsigned char>(prefix[i]))) {
      return false;
    }
  }
  return true;
}

void ParseQuery(const std::string& query,
                std::map<std::string, std::string>* params) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string pair = query.substr(pos, amp - pos);
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      if (!pair.empty()) (*params)[UrlDecode(pair)] = "";
    } else {
      (*params)[UrlDecode(pair.substr(0, eq))] =
          UrlDecode(pair.substr(eq + 1));
    }
    pos = amp + 1;
  }
}

}  // namespace

std::string UrlDecode(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    if (in[i] == '+') {
      out.push_back(' ');
    } else if (in[i] == '%' && i + 2 < in.size() &&
               std::isxdigit(static_cast<unsigned char>(in[i + 1])) &&
               std::isxdigit(static_cast<unsigned char>(in[i + 2]))) {
      const char hex[3] = {in[i + 1], in[i + 2], '\0'};
      out.push_back(
          static_cast<char>(std::strtol(hex, nullptr, 16)));
      i += 2;
    } else {
      out.push_back(in[i]);
    }
  }
  return out;
}

std::string HttpRequest::Param(const std::string& name,
                               const std::string& fallback) const {
  auto it = params.find(name);
  return it == params.end() ? fallback : it->second;
}

int64_t HttpRequest::ParamInt(const std::string& name,
                              int64_t fallback) const {
  auto it = params.find(name);
  if (it == params.end() || it->second.empty()) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  return (end != nullptr && *end == '\0') ? static_cast<int64_t>(v)
                                          : fallback;
}

// ---- HttpServer --------------------------------------------------------

void HttpServer::Handle(const std::string& path, HttpHandler handler) {
  handlers_[path] = std::move(handler);
}

Status HttpServer::Start(const std::string& host, int port, int threads) {
  if (running_.load()) return Status::FailedPrecondition("already running");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError("http: socket() failed");
  ScopedFd listener(fd);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("http: host must be a numeric IPv4 "
                                   "address, got " + host);
  }
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Status::IOError("http: cannot bind " + host + ":" +
                           std::to_string(port));
  }
  if (::listen(fd, 128) != 0) return Status::IOError("http: listen failed");

  // Resolve the ephemeral port before any client can race us to it.
  struct sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound), &len) !=
      0) {
    return Status::IOError("http: getsockname failed");
  }
  port_ = ntohs(bound.sin_port);

  listen_fd_ = std::move(listener);
  running_.store(true, std::memory_order_release);
  if (threads < 1) threads = 1;
  workers_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void HttpServer::Stop() {
  if (!running_.exchange(false)) return;
  // shutdown() unblocks a blocked accept() without touching the
  // descriptor value the accept thread is still reading; the actual
  // close must wait until that thread has joined. The queue cv unblocks
  // workers; the recv timeout unblocks any worker inside a keep-alive
  // read.
  ::shutdown(listen_fd_.get(), SHUT_RDWR);
  queue_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_.Reset();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  MutexLock lk(queue_mu_);
  for (int fd : pending_conns_) ::close(fd);
  pending_conns_.clear();
}

void HttpServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    const int conn = ::accept(listen_fd_.get(), nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed (Stop) or fatal
    }
    SetRecvTimeout(conn, kRecvTimeoutMs);
    const int one = 1;
    ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    {
      MutexLock lk(queue_mu_);
      pending_conns_.push_back(conn);
    }
    queue_cv_.notify_one();
  }
}

void HttpServer::WorkerLoop() {
  for (;;) {
    int conn = -1;
    {
      UniqueMutexLock lk(queue_mu_);
      while (pending_conns_.empty() &&
             running_.load(std::memory_order_acquire)) {
        queue_cv_.wait(lk.native());
      }
      if (pending_conns_.empty()) return;  // stopping
      conn = pending_conns_.front();
      pending_conns_.pop_front();
    }
    ServeConnection(conn);
    ::close(conn);
  }
}

void HttpServer::ServeConnection(int fd) {
  while (running_.load(std::memory_order_acquire)) {
    HttpRequest req;
    bool bad_request = false;
    if (!ReadRequest(fd, &req, &bad_request)) {
      if (bad_request) {
        SendResponse(fd, {400, "text/plain", "malformed request\n"});
      }
      return;
    }
    HttpResponse resp;
    auto it = handlers_.find(req.path);
    if (it == handlers_.end()) {
      resp = {404, "text/plain", "no handler for " + req.path + "\n"};
    } else {
      resp = it->second(req);
    }
    if (!SendResponse(fd, resp)) return;
  }
}

bool HttpServer::ReadRequest(int fd, HttpRequest* req, bool* bad_request) {
  std::string buf;
  size_t header_end = std::string::npos;
  int waits = 0;
  // Head: read until the blank line.
  while (header_end == std::string::npos) {
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Idle keep-alive connections may wait indefinitely (until the
        // server stops); a *started* request must keep moving.
        if (!running_.load(std::memory_order_acquire)) return false;
        if (!buf.empty() && ++waits > kMaxPartialWaits) {
          *bad_request = true;
          return false;
        }
        continue;
      }
      return false;
    }
    if (n == 0) return false;  // clean close between requests
    buf.append(chunk, static_cast<size_t>(n));
    if (buf.size() > kMaxHeaderBytes) {
      *bad_request = true;
      return false;
    }
    header_end = buf.find("\r\n\r\n");
  }

  // Request line: METHOD SP target SP version.
  const size_t line_end = buf.find("\r\n");
  const std::string line = buf.substr(0, line_end);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) {
    *bad_request = true;
    return false;
  }
  req->method = line.substr(0, sp1);
  const std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const size_t qmark = target.find('?');
  req->path = UrlDecode(target.substr(0, qmark));
  if (qmark != std::string::npos) {
    ParseQuery(target.substr(qmark + 1), &req->params);
  }

  // Headers: only Content-Length matters to this server.
  size_t content_length = 0;
  size_t pos = line_end + 2;
  while (pos < header_end) {
    size_t eol = buf.find("\r\n", pos);
    if (eol == std::string::npos || eol > header_end) eol = header_end;
    const std::string header = buf.substr(pos, eol - pos);
    if (StartsWithNoCase(header, "content-length:")) {
      content_length = static_cast<size_t>(
          std::strtoull(header.c_str() + 15, nullptr, 10));
    }
    pos = eol + 2;
  }
  if (content_length > kMaxBodyBytes) {
    *bad_request = true;
    return false;
  }

  // Body: whatever is already buffered past the blank line, then the rest.
  req->body = buf.substr(header_end + 4);
  waits = 0;
  while (req->body.size() < content_length) {
    char chunk[8192];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!running_.load(std::memory_order_acquire) ||
            ++waits > kMaxPartialWaits) {
          *bad_request = true;
          return false;
        }
        continue;
      }
      return false;
    }
    if (n == 0) return false;
    req->body.append(chunk, static_cast<size_t>(n));
  }
  req->body.resize(content_length);
  return true;
}

// ---- HttpClient --------------------------------------------------------

Result<HttpClient> HttpClient::Connect(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError("http client: socket() failed");
  ScopedFd sock(fd);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("http client: bad host " + host);
  }
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return Status::IOError("http client: cannot connect " + host + ":" +
                           std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return HttpClient(host, port, std::move(sock));
}

Result<HttpResponse> HttpClient::Get(const std::string& target) {
  return RoundTrip("GET " + target + " HTTP/1.1\r\nHost: " + host_ +
                   "\r\n\r\n");
}

Result<HttpResponse> HttpClient::Post(const std::string& target,
                                      const std::string& body,
                                      const std::string& content_type) {
  return RoundTrip("POST " + target + " HTTP/1.1\r\nHost: " + host_ +
                   "\r\nContent-Type: " + content_type +
                   "\r\nContent-Length: " + std::to_string(body.size()) +
                   "\r\n\r\n" + body);
}

Result<HttpResponse> HttpClient::RoundTrip(const std::string& request) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    // The server may have reaped the idle keep-alive connection between
    // requests; reconnect once before failing.
    if (!fd_.valid() || attempt > 0) {
      auto fresh = Connect(host_, port_);
      if (!fresh.ok()) return fresh.status();
      fd_ = std::move(fresh.value().fd_);
    }
    if (!SendAll(fd_.get(), request.data(), request.size())) {
      fd_.Reset();
      continue;
    }
    std::string buf;
    size_t header_end = std::string::npos;
    bool peer_closed = false;
    while (header_end == std::string::npos) {
      char chunk[8192];
      const ssize_t n = ::recv(fd_.get(), chunk, sizeof(chunk), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        peer_closed = true;
        break;
      }
      if (n == 0) {
        peer_closed = true;
        break;
      }
      buf.append(chunk, static_cast<size_t>(n));
      header_end = buf.find("\r\n\r\n");
    }
    if (peer_closed) {
      fd_.Reset();
      if (buf.empty()) continue;  // stale keep-alive; retry once
      return Status::IOError("http client: connection closed mid-response");
    }

    HttpResponse resp;
    // Status line: HTTP/1.1 SP code SP reason.
    const size_t sp = buf.find(' ');
    if (sp == std::string::npos) {
      return Status::IOError("http client: malformed status line");
    }
    resp.status = std::atoi(buf.c_str() + sp + 1);
    size_t content_length = 0;
    size_t pos = buf.find("\r\n") + 2;
    while (pos < header_end) {
      size_t eol = buf.find("\r\n", pos);
      if (eol == std::string::npos || eol > header_end) eol = header_end;
      const std::string header = buf.substr(pos, eol - pos);
      if (StartsWithNoCase(header, "content-length:")) {
        content_length = static_cast<size_t>(
            std::strtoull(header.c_str() + 15, nullptr, 10));
      } else if (StartsWithNoCase(header, "content-type:")) {
        size_t v = 13;
        while (v < header.size() && header[v] == ' ') ++v;
        resp.content_type = header.substr(v);
      }
      pos = eol + 2;
    }
    resp.body = buf.substr(header_end + 4);
    while (resp.body.size() < content_length) {
      char chunk[8192];
      const ssize_t n = ::recv(fd_.get(), chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        fd_.Reset();
        return Status::IOError("http client: connection closed mid-body");
      }
      resp.body.append(chunk, static_cast<size_t>(n));
    }
    resp.body.resize(content_length);
    return resp;
  }
  return Status::IOError("http client: request failed after reconnect");
}

}  // namespace stedb::serve
