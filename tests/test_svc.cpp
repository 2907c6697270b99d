// The persistent desyn server (svc/server.h): the desyn-svc-v1 protocol,
// typed error responses, socket round trips, and concurrent clients.
#include "svc/server.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "base/json.h"
#include "netlist/builder.h"
#include "netlist/writer.h"
#include "svc/client.h"

namespace desyn::svc {
namespace {

using cell::Kind;
using cell::Tech;
using cell::V;
using nl::Builder;
using nl::Netlist;
using nl::NetId;

Netlist pipeline3() {
  Netlist nl("pipe3");
  Builder b(nl);
  NetId clk = b.input("clk");
  NetId d0 = b.input("din0");
  NetId d1 = b.input("din1");
  NetId q0a = b.dff(d0, clk, V::V0, "s0.a");
  NetId q0b = b.dff(d1, clk, V::V0, "s0.b");
  NetId q1 = b.dff(b.xor_(q0a, q0b), clk, V::V0, "s1.a");
  NetId q2 = b.dff(b.inv(q1), clk, V::V0, "s2.a");
  b.output(q2);
  return nl;
}

Netlist counter4() {
  Netlist nl("counter4");
  Builder b(nl);
  NetId clk = b.input("clk");
  NetId en = b.input("en");
  std::vector<NetId> qnets(4);
  for (int i = 0; i < 4; ++i) qnets[i] = nl.add_net(cat("cnt.q", i));
  NetId carry = en;
  for (int i = 0; i < 4; ++i) {
    NetId sum = b.xor_(qnets[i], carry);
    carry = b.and_({qnets[i], carry});
    nl.add_cell(Kind::Dff, cat("cnt.r", i), {sum, clk}, {qnets[i]}, V::V0);
  }
  b.output(qnets[3]);
  return nl;
}

/// Two flip-flops on different clocks: the flow rejects this.
Netlist multi_clock() {
  Netlist nl("mc");
  Builder b(nl);
  NetId c1 = b.input("clk_a");
  NetId c2 = b.input("clk_b");
  NetId d = b.input("d");
  NetId q1 = b.dff(d, c1, V::V0, "r1");
  NetId q2 = b.dff(q1, c2, V::V0, "r2");
  b.output(q2);
  return nl;
}

bool has_error_kind(const std::string& response, const char* kind) {
  return response.find(cat("\"error\": {\"kind\": \"", kind, "\"")) !=
         std::string::npos;
}

/// A short socket path (AF_UNIX paths are ~100 bytes) unique per test.
std::string fresh_socket(const char* tag) {
  std::string p = cat("/tmp/desyn_svc_", tag, "_", ::getpid(), ".sock");
  ::unlink(p.c_str());
  return p;
}

ServerOptions options(const std::string& socket_path, int threads = 2) {
  ServerOptions o;
  o.socket_path = socket_path;
  o.threads = threads;
  return o;
}

// ---------------------------------------------------------------------------
// handle_request: the protocol without a socket
// ---------------------------------------------------------------------------

TEST(SvcProtocol, SuccessResponseAndResultCache) {
  Server server(Tech::generic90(), options(fresh_socket("proto")));
  std::string req =
      make_request(nl::to_verilog(pipeline3()), "clk", "prefix", 1.1, "pulse");

  std::string cold = server.handle_request(req);
  EXPECT_NE(cold.find("\"schema\": \"desyn-svc-v1\""), std::string::npos);
  EXPECT_NE(cold.find("\"cached\": false"), std::string::npos);
  EXPECT_NE(cold.find("\"predicted_period_ps\""), std::string::npos);

  std::string warm = server.handle_request(req);
  EXPECT_NE(warm.find("\"cached\": true"), std::string::npos);
  // The result object is byte-identical across cold and cached service.
  EXPECT_EQ(extract_result(cold), extract_result(warm));
}

TEST(SvcProtocol, LintRequestEmbedsReport) {
  Server server(Tech::generic90(), options(fresh_socket("lint")));
  std::string req =
      make_request(nl::to_verilog(pipeline3()), "clk", "prefix", 1.1, "pulse");
  ASSERT_EQ(req.back(), '}');
  std::string lint_req = req.substr(0, req.size() - 1) + ", \"lint\": true}";

  std::string resp = server.handle_request(lint_req);
  json::Value v = json::parse(resp);
  const json::Value* result = v.get("result");
  ASSERT_NE(result, nullptr);
  const json::Value* lint = result->get("lint");
  ASSERT_NE(lint, nullptr) << resp.substr(0, 200);
  EXPECT_TRUE(lint->get_bool("clean", false));
  EXPECT_EQ(lint->get_number("errors", -1), 0);
  EXPECT_EQ(lint->get_string("protocol"), "pulse");

  // Without the field the result object is unchanged (byte-compat).
  std::string plain = server.handle_request(req);
  EXPECT_EQ(plain.find("\"lint\""), std::string::npos);
}

TEST(SvcProtocol, SimJobsIsAcceptedAndIgnored) {
  // v1 requests may still carry "sim_jobs": it is validated, then has no
  // effect — the same coordinates without it are a result-cache hit with
  // byte-identical result bytes.
  Server server(Tech::generic90(), options(fresh_socket("simjobs")));
  std::string req =
      make_request(nl::to_verilog(pipeline3()), "clk", "prefix", 1.1, "pulse");
  ASSERT_EQ(req.back(), '}');
  auto with_jobs = [&req](const char* v) {
    return req.substr(0, req.size() - 1) + ", \"sim_jobs\": " + v + "}";
  };

  std::string cold = server.handle_request(with_jobs("4"));
  EXPECT_NE(cold.find("\"cached\": false"), std::string::npos) << cold;
  std::string plain = server.handle_request(req);
  EXPECT_NE(plain.find("\"cached\": true"), std::string::npos) << plain;
  EXPECT_EQ(extract_result(cold), extract_result(plain));

  for (const char* bad : {"0", "1025", "2.5"}) {
    std::string resp = server.handle_request(with_jobs(bad));
    EXPECT_TRUE(has_error_kind(resp, "request")) << bad << " -> " << resp;
    EXPECT_NE(resp.find("sim_jobs must be an integer in [1, 1024]"),
              std::string::npos)
        << resp;
  }
}

TEST(SvcProtocol, MalformedJsonIsTypedParseError) {
  Server server(Tech::generic90(), options(fresh_socket("parse")));
  for (const char* line : {"", "not json", "{\"verilog\": ", "[1,2,", "}"}) {
    std::string resp = server.handle_request(line);
    EXPECT_TRUE(has_error_kind(resp, "parse")) << line << " -> " << resp;
  }
}

TEST(SvcProtocol, InvalidFieldsAreTypedRequestErrors) {
  Server server(Tech::generic90(), options(fresh_socket("fields")));
  std::string v = nl::to_verilog(pipeline3());
  struct Bad {
    const char* what;
    std::string line;
  };
  std::vector<Bad> cases = {
      {"not an object", "42"},
      {"missing verilog", "{\"clock\": \"clk\"}"},
      {"unreadable circuit",
       make_request("module \\m ( broken", "clk", "prefix", 1.1, "pulse")},
      {"unknown clock", make_request(v, "no_such_net", "prefix", 1.1, "pulse")},
      {"bad strategy", make_request(v, "clk", "bogus:9", 1.1, "pulse")},
      {"bad protocol", make_request(v, "clk", "prefix", 1.1, "morse")},
      {"margin out of range", make_request(v, "clk", "prefix", -2.0, "pulse")},
  };
  for (const Bad& c : cases) {
    std::string resp = server.handle_request(c.line);
    EXPECT_TRUE(has_error_kind(resp, "request")) << c.what << " -> " << resp;
  }
}

TEST(SvcProtocol, FlowRejectionIsTypedFlowError) {
  Server server(Tech::generic90(), options(fresh_socket("flowerr")));
  std::string req = make_request(nl::to_verilog(multi_clock()), "clk_a",
                                 "prefix", 1.1, "pulse");
  std::string resp = server.handle_request(req);
  EXPECT_TRUE(has_error_kind(resp, "flow")) << resp;
  EXPECT_NE(resp.find("clk_b"), std::string::npos) << resp;
}

// ---------------------------------------------------------------------------
// Socket round trips
// ---------------------------------------------------------------------------

TEST(SvcServer, StartServeStopRoundTrip) {
  std::string path = fresh_socket("basic");
  Server server(Tech::generic90(), options(path));
  EXPECT_FALSE(server.running());
  server.start();
  EXPECT_TRUE(server.running());

  std::string req =
      make_request(nl::to_verilog(counter4()), "clk", "prefix", 1.1, "pulse");
  std::string oracle = server.handle_request(req);  // cold, in-process
  {
    Client client(path);
    std::string resp = client.roundtrip(req);
    // The socket serves the exact bytes the handler produces (modulo the
    // cached flag, which flipped after the oracle's cold run).
    EXPECT_NE(resp.find("\"cached\": true"), std::string::npos);
    EXPECT_EQ(extract_result(resp), extract_result(oracle));
  }
  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_FALSE(std::filesystem::exists(path));  // socket file unlinked
  server.stop();                                // idempotent
}

TEST(SvcServer, ConnectionSurvivesGarbageThenServes) {
  std::string path = fresh_socket("garbage");
  Server server(Tech::generic90(), options(path));
  server.start();
  Client client(path);
  EXPECT_TRUE(has_error_kind(client.roundtrip("!! not json !!"), "parse"));
  // Same connection, same server: a valid request still succeeds.
  std::string resp = client.roundtrip(
      make_request(nl::to_verilog(pipeline3()), "clk", "prefix", 1.1, "pulse"));
  EXPECT_NE(resp.find("\"result\""), std::string::npos) << resp;
  server.stop();
}

TEST(SvcServer, StructurallyBrokenVerilogIsTypedThenServes) {
  // Netlists that would reach a DESYN_ASSERT past the reader abort the
  // whole server; the reader must answer them as request errors.
  std::string path = fresh_socket("broken");
  Server server(Tech::generic90(), options(path));
  server.start();
  Client client(path);
  auto module = [](const char* body) {
    return cat("module \\m (\n  input \\clk ,\n  input \\a ,\n",
               "  output \\y \n);\n", body, "\nendmodule\n");
  };
  for (const char* body : {
           // Two cells drive one net.
           "INV \\u ( .A(\\a ), .Y(\\y ) );\nINV \\v ( .A(\\a ), .Y(\\y ) );",
           // A cell drives a primary input.
           "INV \\u ( .A(\\y ), .Y(\\a ) );",
           // A variable-arity kind without its arity suffix.
           "AND \\u ( .A0(\\a ), .A1(\\a ), .Y(\\y ) );"}) {
    std::string resp = client.roundtrip(
        make_request(module(body), "clk", "prefix", 1.1, "pulse"));
    EXPECT_TRUE(has_error_kind(resp, "request")) << body << " -> " << resp;
  }
  std::string resp = client.roundtrip(
      make_request(nl::to_verilog(pipeline3()), "clk", "prefix", 1.1, "pulse"));
  EXPECT_NE(resp.find("\"result\""), std::string::npos) << resp;
  server.stop();
}

TEST(SvcServer, ConcurrentClientsGetByteIdenticalResults) {
  std::string path = fresh_socket("stress");
  Server server(Tech::generic90(), options(path, 4));
  server.start();

  const std::string reqs[2] = {
      make_request(nl::to_verilog(pipeline3()), "clk", "prefix", 1.1, "pulse"),
      make_request(nl::to_verilog(counter4()), "clk", "perff", 1.2,
                   "fully-decoupled"),
  };
  constexpr int kThreads = 8;
  constexpr int kReps = 6;
  std::vector<std::string> results[2];
  std::mutex mu;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        Client client(path);
        for (int r = 0; r < kReps; ++r) {
          int which = (t + r) % 2;
          std::string body = extract_result(client.roundtrip(reqs[which]));
          std::lock_guard<std::mutex> lock(mu);
          results[which].push_back(std::move(body));
        }
      } catch (const Error&) {
        ++failures;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  server.stop();

  EXPECT_EQ(failures.load(), 0);
  for (int which = 0; which < 2; ++which) {
    ASSERT_EQ(results[which].size(), kThreads * kReps / 2u);
    for (const std::string& r : results[which]) {
      EXPECT_EQ(r, results[which][0]);
    }
  }
  // The engine served most submissions from its result cache. Racing
  // misses are benign double computation by the engine contract, so in
  // the worst case every thread's first touch of each distinct request
  // computes cold (visible under sanitizer slowdowns).
  EXPECT_GE(server.engine().counters().result_hits,
            kThreads * kReps - 2u * kThreads);
}

}  // namespace
}  // namespace desyn::svc
