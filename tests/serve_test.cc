// The serve layer: the minimal HTTP stack and its parsers (with a seeded
// fuzz of the two that read socket bytes), the EmbeddingService over a
// shared ServingSession, request coalescing under concurrent clients, the
// live-extension drill (trainer extends → ticker Polls → client sees the
// new fact bit-identically over the wire), event-driven tailing (an
// append or a compaction is served without waiting for a tick), Poll
// errors, and the tick-hook flusher that bounds an idle co-located
// writer's durability window.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/api/serving.h"
#include "src/common/rng.h"
#include "src/fwd/codec.h"
#include "src/fwd/forward.h"
#include "src/fwd/trainer.h"
#include "src/obs/metrics.h"
#include "src/serve/http.h"
#include "src/serve/service.h"
#include "src/store/embedding_store.h"
#include "tests/test_util.h"

namespace stedb {
namespace {

using stedb::testing::InsertC4;
using stedb::testing::MovieDatabase;

fwd::ForwardConfig SmallConfig() {
  fwd::ForwardConfig cfg;
  cfg.dim = 6;
  cfg.max_walk_len = 2;
  cfg.nsamples = 8;
  cfg.epochs = 3;
  cfg.seed = 9;
  return cfg;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Body bytes of a raw=1 response reinterpreted as doubles, compared
/// bit-for-bit against a model vector.
void ExpectRawBody(const std::string& body, const la::Vector& expected) {
  ASSERT_EQ(body.size(), expected.size() * sizeof(double));
  EXPECT_EQ(std::memcmp(body.data(), expected.data(), body.size()), 0);
}

/// A serve counter's process-wide total, as GET /metrics renders it. The
/// tests read it before and after their requests.
uint64_t ServeTotal(const std::string& name) {
  const obs::Counter* c = obs::Registry::Global().FindCounter(name);
  return c == nullptr ? 0 : c->Value();
}

serve::HttpClient ConnectOrDie(int port) {
  auto client = serve::HttpClient::Connect("127.0.0.1", port);
  EXPECT_TRUE(client.ok()) << client.status();
  return std::move(client).value();
}

/// Reads `/embed?fact=F&raw=1` until it answers 200 or `within` passes;
/// returns the last response.
serve::HttpResponse AwaitServed(serve::HttpClient& client, db::FactId fact,
                                std::chrono::milliseconds within) {
  const auto deadline = std::chrono::steady_clock::now() + within;
  serve::HttpResponse last;
  do {
    auto resp = client.Get("/embed?fact=" + std::to_string(fact) + "&raw=1");
    EXPECT_TRUE(resp.ok()) << resp.status();
    if (!resp.ok()) return last;
    last = std::move(resp).value();
    if (last.status == 200) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  } while (std::chrono::steady_clock::now() < deadline);
  return last;
}

// ---- URL decoding and fact-list parsing --------------------------------

TEST(UrlDecodeTest, DecodesPercentAndPlus) {
  EXPECT_EQ(serve::UrlDecode("a%20b"), "a b");
  EXPECT_EQ(serve::UrlDecode("a+b"), "a b");
  EXPECT_EQ(serve::UrlDecode("1%2C2%2c3"), "1,2,3");
  EXPECT_EQ(serve::UrlDecode("plain"), "plain");
  // Malformed escapes pass through rather than crash.
  EXPECT_EQ(serve::UrlDecode("bad%2"), "bad%2");
  EXPECT_EQ(serve::UrlDecode("bad%zz"), "bad%zz");
}

TEST(ParseFactListTest, AcceptsCommonShapes) {
  auto parse = [](const std::string& text, size_t max_facts) {
    auto facts = serve::ParseFactList(text, max_facts);
    EXPECT_TRUE(facts.ok()) << text << ": " << facts.status();
    return facts.ok() ? facts.value() : std::vector<db::FactId>();
  };
  const std::vector<db::FactId> expected = {1, 2, 3};
  EXPECT_EQ(parse("1,2,3", 100), expected);
  EXPECT_EQ(parse("[1, 2, 3]", 100), expected);
  EXPECT_EQ(parse("{\"facts\": [1, 2, 3]}", 100), expected);
  EXPECT_EQ(parse("1 2 3", 100), expected);
  EXPECT_EQ(parse("", 100).size(), 0u);
  EXPECT_EQ(parse("no digits here", 100).size(), 0u);
  // Negative ids parse (they just won't be found).
  EXPECT_EQ(parse("-1", 100), std::vector<db::FactId>{-1});
  // The cap bounds work: at most max_facts + 1 are extracted (the +1 lets
  // the caller detect the overflow).
  EXPECT_EQ(parse("1,2,3,4,5,6,7,8", 3).size(), 4u);
  // The ends of db::FactId's range parse; one past either end is reported,
  // not truncated into another fact's id.
  EXPECT_EQ(parse("2147483647,-2147483648", 100),
            (std::vector<db::FactId>{2147483647, -2147483647 - 1}));
  for (const char* text : {"4294967296", "1,2147483648", "-2147483649",
                           "123456789012345678901234567890"}) {
    EXPECT_EQ(serve::ParseFactList(text, 100).status().code(),
              StatusCode::kInvalidArgument)
        << text;
  }
}

/// Fuzz of the two parsers that read socket bytes: seeded random inputs
/// from an alphabet weighted toward the bytes they branch on, every
/// truncation, a trailing '%' or '-', and 30-digit numbers. Any read past
/// the input shows under the ASan build, which runs this suite.
class ParserFuzzTest : public ::testing::TestWithParam<int> {};

std::string RandomRequestBytes(Rng& rng, size_t max_len) {
  static const std::string kAlphabet = "%%%+--,, []{}0123456789aAfFzZ:\"";
  std::string out(rng.NextIndex(max_len + 1), '\0');
  for (char& c : out) {
    if (rng.NextBool(0.8)) {
      c = kAlphabet[rng.NextIndex(kAlphabet.size())];
    } else {
      c = static_cast<char>(rng.NextUint(256));
    }
  }
  return out;
}

/// The ids a lenient reading of `in` names — a token is a digit run, or
/// '-' and a digit run — as decimal text without leading zeros, up to
/// `max_facts + 1` of them. ParseFactList's ids must print back to these.
std::vector<std::string> ReferenceIds(const std::string& in,
                                      size_t max_facts) {
  auto digit = [&in](size_t i) {
    return i < in.size() && std::isdigit(static_cast<unsigned char>(in[i]));
  };
  std::vector<std::string> ids;
  for (size_t i = 0; i < in.size() && ids.size() <= max_facts;) {
    const bool negative = in[i] == '-' && digit(i + 1);
    if (!negative && !digit(i)) {
      ++i;
      continue;
    }
    if (negative) ++i;
    size_t end = i;
    while (digit(end)) ++end;
    std::string digits = in.substr(i, end - i);
    digits.erase(0, std::min(digits.find_first_not_of('0'), digits.size() - 1));
    ids.push_back(negative && digits != "0" ? "-" + digits : digits);
    i = end;
  }
  return ids;
}

bool FitsFactId(const std::string& id) {
  const size_t digits = id.size() - (id[0] == '-' ? 1 : 0);
  if (digits > 10) return false;
  const long long v = std::stoll(id);
  return v >= std::numeric_limits<db::FactId>::min() &&
         v <= std::numeric_limits<db::FactId>::max();
}

void ExpectParsersBounded(const std::string& in) {
  SCOPED_TRACE("input of " + std::to_string(in.size()) + " bytes");
  EXPECT_LE(serve::UrlDecode(in).size(), in.size());
  for (size_t max_facts : {0u, 1u, 3u, 64u}) {
    const std::vector<std::string> want = ReferenceIds(in, max_facts);
    const bool all_fit = std::all_of(want.begin(), want.end(), FitsFactId);
    auto got = serve::ParseFactList(in, max_facts);
    ASSERT_EQ(got.ok(), all_fit) << got.status();
    if (!got.ok()) continue;
    EXPECT_LE(got.value().size(), max_facts + 1);
    ASSERT_EQ(got.value().size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(std::to_string(got.value()[i]), want[i]);
    }
  }
}

TEST_P(ParserFuzzTest, OutputStaysBoundedOnHostileBytes) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919);
  const std::string thirty_digits = "123456789012345678901234567890";
  for (int iter = 0; iter < 200; ++iter) {
    const std::string in = RandomRequestBytes(rng, 48);
    for (size_t len = 0; len <= in.size(); ++len) {
      ExpectParsersBounded(in.substr(0, len));
    }
    ExpectParsersBounded(in + "%");
    ExpectParsersBounded(in + "%4");
    ExpectParsersBounded(in + "-");
    ExpectParsersBounded(in + thirty_digits);
    ExpectParsersBounded(in + "-" + thirty_digits);
  }
  // A 30-digit number is reported, not saturated into some fact's id.
  EXPECT_EQ(serve::ParseFactList(thirty_digits, 8).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_P(ParserFuzzTest, WellFormedInputsRoundTrip) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729);
  for (int iter = 0; iter < 200; ++iter) {
    // Every byte value survives percent-encoding, in either hex case.
    std::string bytes(rng.NextIndex(32), '\0');
    std::string encoded;
    for (char& c : bytes) {
      c = static_cast<char>(rng.NextUint(256));
      const char* format = rng.NextBool(0.5) ? "%%%02X" : "%%%02x";
      char hex[4];
      std::snprintf(hex, sizeof(hex), format, static_cast<unsigned char>(c));
      encoded += hex;
    }
    EXPECT_EQ(serve::UrlDecode(encoded), bytes);

    // Ids in FactId's range come back in order, whatever separates them
    // (the text is already URL-decoded when it gets here).
    static const char* const kSeparators[] = {",", ", ", " ", "],[", "\n"};
    std::vector<db::FactId> ids(rng.NextIndex(16));
    std::string list = rng.NextBool(0.5) ? "[" : "";
    for (size_t i = 0; i < ids.size(); ++i) {
      ids[i] = static_cast<db::FactId>(rng.NextUint(uint64_t{1} << 32));
      if (i > 0) list += kSeparators[rng.NextIndex(5)];
      list += std::to_string(ids[i]);
    }
    auto parsed = serve::ParseFactList(list, ids.size());
    ASSERT_TRUE(parsed.ok()) << list << ": " << parsed.status();
    EXPECT_EQ(parsed.value(), ids) << list;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest, ::testing::Range(1, 7));

// ---- HttpServer / HttpClient -------------------------------------------

TEST(HttpServerTest, ServesRegisteredPathsOverKeepAlive) {
  serve::HttpServer server;
  std::atomic<int> echoed{0};
  server.Handle("/echo", [&echoed](const serve::HttpRequest& req) {
    echoed.fetch_add(1);
    serve::HttpResponse resp;
    resp.content_type = "text/plain";
    resp.body = req.method + " " + req.Param("q", "-") + " " + req.body;
    return resp;
  });
  ASSERT_TRUE(server.Start("127.0.0.1", 0, 2).ok());
  ASSERT_GT(server.port(), 0);

  serve::HttpClient client = ConnectOrDie(server.port());
  // Two requests on one connection: keep-alive works.
  auto r1 = client.Get("/echo?q=hello%20world");
  ASSERT_TRUE(r1.ok()) << r1.status();
  EXPECT_EQ(r1.value().status, 200);
  EXPECT_EQ(r1.value().body, "GET hello world ");
  auto r2 = client.Post("/echo", "the body", "text/plain");
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(r2.value().body, "POST - the body");

  auto missing = client.Get("/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status, 404);
  EXPECT_EQ(echoed.load(), 2);
  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
}

TEST(HttpServerTest, StartFailsOnBadHostAndStopIsIdempotent) {
  serve::HttpServer server;
  EXPECT_FALSE(server.Start("not-an-ip", 0, 1).ok());
  EXPECT_FALSE(server.running());
  server.Stop();  // never started: still safe
}

// ---- EmbeddingService ---------------------------------------------------

struct ServedStore {
  db::Database database;
  std::unique_ptr<fwd::ForwardEmbedder> embedder;
  std::string dir;
};

/// Trains a small FoRWaRD model and persists it as a store directory.
ServedStore MakeServedStore(const std::string& name) {
  ServedStore s{MovieDatabase(), nullptr, ""};
  auto emb = fwd::ForwardEmbedder::TrainStatic(
      &s.database, s.database.schema().RelationIndex("COLLABORATIONS"), {},
      SmallConfig());
  EXPECT_TRUE(emb.ok()) << emb.status();
  s.embedder =
      std::make_unique<fwd::ForwardEmbedder>(std::move(emb).value());
  s.dir = FreshDir(name);
  EXPECT_TRUE(fwd::CreateForwardStore(s.dir, s.embedder->model()).ok());
  return s;
}

TEST(EmbeddingServiceTest, EndpointsServeBitIdenticalVectors) {
  ServedStore s = MakeServedStore("serve_endpoints");
  serve::ServeOptions options;
  options.http_threads = 2;
  options.poll_interval_ms = 0;  // no ticker needed here
  auto service = serve::EmbeddingService::Open(s.dir, options);
  ASSERT_TRUE(service.ok()) << service.status();
  ASSERT_TRUE(service.value()->Start("127.0.0.1", 0).ok());
  serve::HttpClient client = ConnectOrDie(service.value()->port());
  const uint64_t embeds = ServeTotal("stedb_serve_embeds_total");
  const uint64_t batches = ServeTotal("stedb_serve_embed_batches_total");
  const uint64_t topks = ServeTotal("stedb_serve_topk_queries_total");

  // Every trained vector over the wire, bit-identical via raw mode.
  for (const auto& [f, v] : s.embedder->model().all_phi()) {
    auto resp =
        client.Get("/embed?fact=" + std::to_string(f) + "&raw=1");
    ASSERT_TRUE(resp.ok()) << resp.status();
    ASSERT_EQ(resp.value().status, 200);
    ExpectRawBody(resp.value().body, v);
  }

  // Batch: two facts, raw mode concatenates rows in request order.
  auto it = s.embedder->model().all_phi().begin();
  const db::FactId f1 = it->first;
  const la::Vector v1 = it->second;
  ++it;
  const db::FactId f2 = it->first;
  const la::Vector v2 = it->second;
  auto batch = client.Get("/embed_batch?facts=" + std::to_string(f1) +
                          "%2C" + std::to_string(f2) + "&raw=1");
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch.value().status, 200);
  la::Vector both = v1;
  both.insert(both.end(), v2.begin(), v2.end());
  ExpectRawBody(batch.value().body, both);

  // /topk agrees with the session-level scorer (which the serving tests
  // pin to the trainer kernel bit-for-bit).
  auto reference = api::ServingSession::Open(s.dir);
  ASSERT_TRUE(reference.ok());
  auto expected = reference.value().TopK(f1, 3, 0);
  ASSERT_TRUE(expected.ok());
  auto top = client.Get("/topk?fact=" + std::to_string(f1) + "&k=3");
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top.value().status, 200);
  // The top-ranked fact id appears first in the results array.
  const std::string lead =
      "\"results\":[{\"fact\":" + std::to_string(expected.value()[0].fact);
  EXPECT_NE(top.value().body.find(lead), std::string::npos)
      << top.value().body;

  // Error mapping: NotFound → 404, missing parameter → 400, ψ index out
  // of range → 400, unknown path → 404.
  EXPECT_EQ(client.Get("/embed?fact=987654").value().status, 404);
  EXPECT_EQ(client.Get("/embed").value().status, 400);
  EXPECT_EQ(client.Get("/topk?fact=" + std::to_string(f1) + "&target=99")
                .value()
                .status,
            400);
  EXPECT_EQ(client.Get("/unknown").value().status, 404);
  EXPECT_EQ(client.Get("/healthz").value().status, 200);
  auto stats = client.Get("/stats");
  ASSERT_EQ(stats.value().status, 200);
  // Shape only: the counters live in /metrics.
  EXPECT_NE(stats.value().body.find("\"dim\":6"), std::string::npos);
  EXPECT_EQ(stats.value().body.find("embeds"), std::string::npos);

  EXPECT_GT(ServeTotal("stedb_serve_embeds_total"), embeds);
  EXPECT_EQ(ServeTotal("stedb_serve_embed_batches_total"), batches + 1);
  EXPECT_EQ(ServeTotal("stedb_serve_topk_queries_total"), topks + 1);
  service.value()->Stop();
}

TEST(EmbeddingServiceTest, OutOfRangeFactIdsAreRejectedOnEveryEndpoint) {
  ServedStore s = MakeServedStore("serve_fact_range");
  serve::ServeOptions options;
  options.http_threads = 1;
  options.poll_interval_ms = 0;
  auto service = serve::EmbeddingService::Open(s.dir, options);
  ASSERT_TRUE(service.ok()) << service.status();
  ASSERT_TRUE(service.value()->Start("127.0.0.1", 0).ok());
  serve::HttpClient client = ConnectOrDie(service.value()->port());

  // 2^32 would alias fact 0 and -2^31-1 fact 2^31-1 under a narrowing
  // cast; the 30-digit id saturates strtoll. Each is a bad request.
  for (const std::string id : {"4294967296", "-2147483649",
                               "123456789012345678901234567890"}) {
    for (const std::string endpoint :
         {"/embed?fact=", "/embed_batch?facts=", "/topk?fact=",
          "/similar?fact="}) {
      auto resp = client.Get(endpoint + id);
      ASSERT_TRUE(resp.ok()) << resp.status();
      EXPECT_EQ(resp.value().status, 400)
          << endpoint << id << " -> " << resp.value().body;
    }
  }
  // The last id in range is a well-formed id that is not served.
  EXPECT_EQ(client.Get("/embed?fact=2147483647").value().status, 404);
  service.value()->Stop();
}

TEST(EmbeddingServiceTest, CoalescesConcurrentSingleFactLookups) {
  ServedStore s = MakeServedStore("serve_coalesce");
  serve::ServeOptions options;
  options.http_threads = 4;
  options.poll_interval_ms = 0;
  auto service = serve::EmbeddingService::Open(s.dir, options);
  ASSERT_TRUE(service.ok()) << service.status();
  ASSERT_TRUE(service.value()->Start("127.0.0.1", 0).ok());
  const int port = service.value()->port();
  const uint64_t embeds = ServeTotal("stedb_serve_embeds_total");
  const uint64_t rounds = ServeTotal("stedb_serve_coalesce_rounds_total");

  std::vector<std::pair<db::FactId, la::Vector>> facts(
      s.embedder->model().all_phi().begin(),
      s.embedder->model().all_phi().end());
  constexpr int kThreads = 4;
  constexpr int kLookupsPerThread = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      auto conn = serve::HttpClient::Connect("127.0.0.1", port);
      if (!conn.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kLookupsPerThread; ++i) {
        const auto& [fact, phi] = facts[(t + i) % facts.size()];
        auto resp = conn.value().Get("/embed?fact=" +
                                     std::to_string(fact) + "&raw=1");
        if (!resp.ok() || resp.value().status != 200 ||
            resp.value().body.size() != phi.size() * sizeof(double) ||
            std::memcmp(resp.value().body.data(), phi.data(),
                        resp.value().body.size()) != 0) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& th : clients) th.join();
  ASSERT_EQ(failures.load(), 0);

  const uint64_t served = ServeTotal("stedb_serve_embeds_total") - embeds;
  EXPECT_EQ(served, static_cast<uint64_t>(kThreads * kLookupsPerThread));
  // Every lookup went through the coalescer; rounds can never exceed
  // lookups, and each round served at least one.
  const uint64_t coalesced =
      ServeTotal("stedb_serve_coalesce_rounds_total") - rounds;
  EXPECT_GT(coalesced, 0u);
  EXPECT_LE(coalesced, served);
  const obs::Gauge* max_coalesced = obs::Registry::Global().FindGauge(
      "stedb_serve_max_coalesced_records");
  ASSERT_NE(max_coalesced, nullptr);
  EXPECT_GE(max_coalesced->Value(), 1.0);
  service.value()->Stop();
}

TEST(EmbeddingServiceTest, PollTickerServesLiveExtensionsBitIdentically) {
  // The serve drill: trainer extends the store while the service runs; the
  // ticker Polls the WAL; a client sees the new fact over the wire with
  // the exact bytes the trainer computed.
  ServedStore s = MakeServedStore("serve_drill");
  auto created = store::EmbeddingStore::Open(s.dir);
  ASSERT_TRUE(created.ok());
  store::EmbeddingStore store = std::move(created).value();
  s.embedder->set_extension_sink(store.MakeSink());

  serve::ServeOptions options;
  options.http_threads = 2;
  options.poll_interval_ms = 5;
  const uint64_t polls = ServeTotal("stedb_serve_polls_total");
  const uint64_t applied = ServeTotal("stedb_serve_wal_records_applied_total");
  auto service = serve::EmbeddingService::Open(s.dir, options);
  ASSERT_TRUE(service.ok()) << service.status();
  ASSERT_TRUE(service.value()->Start("127.0.0.1", 0).ok());
  serve::HttpClient client = ConnectOrDie(service.value()->port());

  db::FactId c4 = InsertC4(s.database);
  EXPECT_EQ(client.Get("/embed?fact=" + std::to_string(c4)).value().status,
            404);
  ASSERT_TRUE(s.embedder->ExtendToFacts({c4}).ok());
  ASSERT_TRUE(store.Sync().ok());

  // Within a few ticks the fact appears; bound the wait generously.
  const serve::HttpResponse last =
      AwaitServed(client, c4, std::chrono::seconds(10));
  ASSERT_EQ(last.status, 200) << "extension never became visible";
  ExpectRawBody(last.body, s.embedder->model().phi(c4));

  EXPECT_GT(ServeTotal("stedb_serve_polls_total"), polls);
  EXPECT_GE(ServeTotal("stedb_serve_wal_records_applied_total"), applied + 1);
  service.value()->Stop();
}

/// A vector no trained fact has, so a served copy can only come from the
/// journal record it was appended as.
la::Vector AppendedVector(size_t dim, double base) {
  la::Vector phi(dim);
  for (size_t i = 0; i < dim; ++i) {
    phi[i] = base + 0.125 * static_cast<double>(i);
  }
  return phi;
}

TEST(EmbeddingServiceTest, DirectoryEventsServeAppendsWithoutATick) {
  // A tick a minute away: only the directory watch can make an append
  // visible within the bound, before and after a compaction replaces both
  // files by rename.
#if !defined(__linux__)
  GTEST_SKIP() << "no inotify: the ticker runs on ticks alone";
#endif
  ServedStore s = MakeServedStore("serve_events");
  auto opened = store::EmbeddingStore::Open(s.dir);
  ASSERT_TRUE(opened.ok()) << opened.status();
  store::EmbeddingStore store = std::move(opened).value();
  serve::ServeOptions options;
  options.http_threads = 1;
  options.poll_interval_ms = 60000;
  auto service = serve::EmbeddingService::Open(s.dir, options);
  ASSERT_TRUE(service.ok()) << service.status();
  ASSERT_TRUE(service.value()->tailing_by_events())
      << "no inotify watch on " << s.dir;
  ASSERT_TRUE(service.value()->Start("127.0.0.1", 0).ok());
  constexpr std::chrono::seconds kBound(2);
  {
    serve::HttpClient client = ConnectOrDie(service.value()->port());
    const la::Vector first = AppendedVector(s.embedder->dim(), 0.5);
    ASSERT_TRUE(store.Append(92000, first).ok());
    serve::HttpResponse served = AwaitServed(client, 92000, kBound);
    ASSERT_EQ(served.status, 200) << "append not served within 2 s";
    ExpectRawBody(served.body, first);

    ASSERT_TRUE(store.Compact().ok());  // snapshot rename + journal reset
    const la::Vector second = AppendedVector(s.embedder->dim(), -3.0);
    ASSERT_TRUE(store.Append(92001, second).ok());
    served = AwaitServed(client, 92001, kBound);
    ASSERT_EQ(served.status, 200) << "append after Compact not served";
    ExpectRawBody(served.body, second);
    served = AwaitServed(client, 92000, kBound);
    ASSERT_EQ(served.status, 200);
    ExpectRawBody(served.body, first);
  }
  // Stop wakes the ticker's wait instead of sitting out the minute.
  const auto stop_start = std::chrono::steady_clock::now();
  service.value()->Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - stop_start,
            std::chrono::seconds(1));
  EXPECT_FALSE(service.value()->tailing_by_events());
}

TEST(EmbeddingServiceTest, NoTickerServesAnAppendOnlyAfterPollNow) {
  ServedStore s = MakeServedStore("serve_no_ticker");
  auto opened = store::EmbeddingStore::Open(s.dir);
  ASSERT_TRUE(opened.ok()) << opened.status();
  store::EmbeddingStore store = std::move(opened).value();
  serve::ServeOptions options;
  options.http_threads = 1;
  options.poll_interval_ms = 0;  // no ticker and no watch
  auto service = serve::EmbeddingService::Open(s.dir, options);
  ASSERT_TRUE(service.ok()) << service.status();
  EXPECT_FALSE(service.value()->tailing_by_events());
  ASSERT_TRUE(service.value()->Start("127.0.0.1", 0).ok());
  serve::HttpClient client = ConnectOrDie(service.value()->port());

  const la::Vector phi = AppendedVector(s.embedder->dim(), 7.0);
  ASSERT_TRUE(store.Append(92100, phi).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(client.Get("/embed?fact=92100").value().status, 404);
  auto polled = service.value()->PollNow();
  ASSERT_TRUE(polled.ok()) << polled.status();
  EXPECT_EQ(polled.value(), 1u);
  const serve::HttpResponse served =
      AwaitServed(client, 92100, std::chrono::milliseconds(0));
  ASSERT_EQ(served.status, 200);
  ExpectRawBody(served.body, phi);
  // Nothing pending: a second PollNow applies nothing.
  EXPECT_EQ(service.value()->PollNow().value(), 0u);
  service.value()->Stop();
}

TEST(EmbeddingServiceTest, PollErrorsAreCountedWhileServedVectorsStay) {
  ServedStore s = MakeServedStore("serve_poll_errors");
  serve::ServeOptions options;
  options.http_threads = 1;
  options.poll_interval_ms = 2;
  auto service = serve::EmbeddingService::Open(s.dir, options);
  ASSERT_TRUE(service.ok()) << service.status();
  ASSERT_TRUE(service.value()->Start("127.0.0.1", 0).ok());
  serve::HttpClient client = ConnectOrDie(service.value()->port());

  const std::string snap = store::EmbeddingStore::SnapshotPath(s.dir);
  const std::string aside = snap + ".aside";
  std::filesystem::copy_file(snap, aside);
  const uint64_t errors = ServeTotal("stedb_serve_poll_errors_total");
  // No ASSERT until the capture ends: a failed one would leave it on.
  ::testing::internal::CaptureStderr();
  EXPECT_TRUE(std::filesystem::remove(snap));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ServeTotal("stedb_serve_poll_errors_total") < errors + 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(ServeTotal("stedb_serve_poll_errors_total"), errors + 3);
  EXPECT_FALSE(service.value()->PollNow().ok());

  // The mapping outlives the path: every trained vector is still served.
  for (const auto& [f, v] : s.embedder->model().all_phi()) {
    const serve::HttpResponse served =
        AwaitServed(client, f, std::chrono::milliseconds(0));
    EXPECT_EQ(served.status, 200) << "fact " << f;
    ExpectRawBody(served.body, v);
  }

  // The snapshot comes back (a new inode): Poll reopens and succeeds.
  std::filesystem::rename(aside, snap);
  EXPECT_TRUE(service.value()->PollNow().ok());
  service.value()->Stop();  // joins the ticker: its log lines are written
  const std::string log = ::testing::internal::GetCapturedStderr();
  const auto count = [&log](const std::string& needle) {
    size_t n = 0;
    for (size_t at = log.find(needle); at != std::string::npos;
         at = log.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  // One WARN line for the whole streak, one line when it ends.
  EXPECT_EQ(count("Poll of " + s.dir + " failed"), 1u) << log;
  EXPECT_EQ(count("Poll of " + s.dir + " succeeds again"), 1u) << log;
}

TEST(EmbeddingServiceTest, TickHookFlushesIdleCoLocatedWriter) {
  // Satellite drill for store::EmbeddingStore::SyncIfDue: a co-located
  // writer appends once and goes idle; the serve ticker's hook makes the
  // tail durable within the group-commit window, no further Append needed.
  ServedStore s = MakeServedStore("serve_tick_hook");
  store::StoreOptions store_options;
  store_options.sync_every_append = true;
  store_options.group_commit_bytes = 1 << 30;
  store_options.group_commit_usec = 1000;  // 1ms
  auto created = store::EmbeddingStore::Open(s.dir, store_options);
  ASSERT_TRUE(created.ok());
  store::EmbeddingStore store = std::move(created).value();

  std::mutex store_mu;
  serve::ServeOptions options;
  options.http_threads = 1;
  options.poll_interval_ms = 2;
  options.tick_hook = [&store, &store_mu] {
    std::lock_guard<std::mutex> lk(store_mu);
    ASSERT_TRUE(store.SyncIfDue().ok());
  };
  auto service = serve::EmbeddingService::Open(s.dir, options);
  ASSERT_TRUE(service.ok()) << service.status();
  ASSERT_TRUE(service.value()->Start("127.0.0.1", 0).ok());

  uint64_t base;
  {
    std::lock_guard<std::mutex> lk(store_mu);
    base = store.fsync_count();
    la::Vector phi(s.embedder->dim(), 0.25);
    ASSERT_TRUE(store.Append(91000, phi).ok());
    ASSERT_EQ(store.fsync_count(), base);  // window open, unsynced
  }
  // The ONLY thing that can flush now is the ticker's hook.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool flushed = false;
  while (std::chrono::steady_clock::now() < deadline) {
    {
      std::lock_guard<std::mutex> lk(store_mu);
      flushed = store.fsync_count() > base;
    }
    if (flushed) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(flushed)
      << "idle writer's tail never became durable via the tick hook";
  service.value()->Stop();
}

TEST(EmbeddingServiceTest, OpenFailsOnMissingStore) {
  const std::string dir = FreshDir("serve_missing");
  EXPECT_FALSE(serve::EmbeddingService::Open(dir).ok());
}

}  // namespace
}  // namespace stedb
