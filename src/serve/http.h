#ifndef STEDB_SERVE_HTTP_H_
#define STEDB_SERVE_HTTP_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/common/scoped_fd.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"

namespace stedb::serve {

/// Minimal embedded HTTP/1.1 layer for stedb_serve: enough of the
/// protocol to put the serving session behind a socket — GET/POST,
/// query-string parameters, Content-Length bodies, keep-alive — with no
/// third-party dependency (the container has none to vendor; this is the
/// "minimal server" fallback the ROADMAP's cpp-httplib pointer allows).
/// Not a general web server: no TLS, no chunked encoding, no multipart;
/// request heads are capped at 16 KiB and bodies at 8 MiB.

struct HttpRequest {
  std::string method;  ///< "GET", "POST", ... (uppercase as sent)
  std::string path;    ///< decoded path, query string stripped
  std::string body;    ///< Content-Length bytes, POST/PUT only
  std::map<std::string, std::string> params;  ///< decoded query parameters

  /// The parameter's value, or `fallback` when absent.
  std::string Param(const std::string& name,
                    const std::string& fallback = std::string()) const;
  /// Integer parameter; `fallback` when absent or unparsable.
  int64_t ParamInt(const std::string& name, int64_t fallback) const;
  bool HasParam(const std::string& name) const {
    return params.count(name) > 0;
  }
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// Blocking multi-threaded HTTP server: one accept thread feeds a
/// connection queue drained by a fixed worker pool; each worker runs a
/// keep-alive read-dispatch-write loop per connection. Handlers are
/// matched by exact path and must be thread-safe — every worker calls
/// them concurrently.
class HttpServer {
 public:
  HttpServer() = default;
  ~HttpServer() { Stop(); }
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers `handler` for exact-path requests. Call before Start().
  void Handle(const std::string& path, HttpHandler handler);

  /// Binds `host:port` (numeric IPv4; port 0 picks an ephemeral port —
  /// read it back via port()) and starts the accept + worker threads.
  Status Start(const std::string& host, int port, int threads);

  /// Closes the listener, drains workers, joins threads. Idempotent.
  void Stop();

  /// The bound port (the resolved one when Start was given port 0).
  int port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

 private:
  void AcceptLoop();
  void WorkerLoop();
  /// Serves one connection's keep-alive loop.
  void ServeConnection(int fd);
  /// Reads one request off `fd`; false on EOF/error/malformed (the
  /// connection is then closed). `bad_request` distinguishes a protocol
  /// violation (answer 400) from a clean close.
  bool ReadRequest(int fd, HttpRequest* req, bool* bad_request);

  std::map<std::string, HttpHandler> handlers_;
  ScopedFd listen_fd_;
  int port_ = 0;
  std::atomic<bool> running_{false};

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  Mutex queue_mu_;
  std::condition_variable queue_cv_;
  /// Accepted fds awaiting a worker.
  std::deque<int> pending_conns_ STEDB_GUARDED_BY(queue_mu_);
};

/// Blocking keep-alive HTTP client for the load generator, the demo drill
/// and the tests. One connection per instance; not thread-safe (each load
/// generator thread owns its own client).
class HttpClient {
 public:
  static Result<HttpClient> Connect(const std::string& host, int port);

  HttpClient(HttpClient&&) = default;
  HttpClient& operator=(HttpClient&&) = default;

  Result<HttpResponse> Get(const std::string& target);
  Result<HttpResponse> Post(const std::string& target,
                            const std::string& body,
                            const std::string& content_type);

 private:
  HttpClient(std::string host, int port, ScopedFd fd)
      : host_(std::move(host)), port_(port), fd_(std::move(fd)) {}

  Result<HttpResponse> RoundTrip(const std::string& request);

  std::string host_;
  int port_ = 0;
  ScopedFd fd_;
};

/// Percent-decodes `in` ('+' becomes a space). Exposed for tests.
std::string UrlDecode(const std::string& in);

}  // namespace stedb::serve

#endif  // STEDB_SERVE_HTTP_H_
