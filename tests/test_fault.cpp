// The robustness layer: deterministic fault injection (base/fault.h),
// deadlines + cooperative cancellation (base/cancel.h), the crash-safe
// disk tier, and the hardened server/client pair.
//
// The heart of the file is the fault-sweep property: for every registered
// fault site and several firing offsets, an injected single fault yields
// either a byte-identical result (after retry/recovery) or a typed error —
// never a corrupt artifact, a hung worker, or a wrong answer — and a
// fresh engine over the same cache directory afterwards self-heals to the
// fault-free bytes.
#include "base/fault.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>

#include "base/cancel.h"
#include "circuits/circuits.h"
#include "core/desynchronizer.h"
#include "flow/engine.h"
#include "netlist/builder.h"
#include "netlist/writer.h"
#include "pn/mcr.h"
#include "svc/client.h"
#include "svc/server.h"

namespace desyn {
namespace {

namespace fs = std::filesystem;
using cell::Tech;
using cell::V;
using nl::Builder;
using nl::Netlist;
using nl::NetId;

Netlist pipeline3(NetId* clock_out) {
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
  *clock_out = clk;
  return nl;
}

std::string fresh_dir(const std::string& tag) {
  fs::path p = fs::path(::testing::TempDir()) /
               cat("desyn_fault_", tag, "_", ::getpid());
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

std::string fresh_socket(const char* tag) {
  std::string p = cat("/tmp/desyn_fault_", tag, "_", ::getpid(), ".sock");
  ::unlink(p.c_str());
  return p;
}

/// RAII disarm so a failing assertion cannot leak an armed spec into the
/// next test.
struct ArmedSpec {
  explicit ArmedSpec(const fault::Spec& s) { fault::arm(s); }
  ~ArmedSpec() { fault::disarm(); }
};

/// The fault-free oracle: one flow run in a throwaway dir.
std::string reference_verilog(const Netlist& ff, NetId clk) {
  flow::Engine engine(Tech::generic90());
  return *engine.run(ff, clk, flow::DesyncOptions()).verilog;
}

// ---------------------------------------------------------------------------
// Spec parsing + firing determinism
// ---------------------------------------------------------------------------

TEST(FaultSpec, ParseRoundTrip) {
  struct Case {
    const char* text;
    const char* canonical;
  };
  for (const Case& c : std::initializer_list<Case>{
           {"site=svc.read", "site=svc.read"},
           {"site=svc.read,hit=3,count=2", "site=svc.read,hit=3,count=2"},
           {"site=artifact.disk.*,count=0", "site=artifact.disk.*,count=0"},
           {"site=engine.stage.mcr,action=kill",
            "site=engine.stage.mcr,action=kill"},
           {"site=svc.write,p=0.5,seed=7", "site=svc.write,p=0.5,seed=7"},
       }) {
    fault::Spec s = fault::Spec::parse(c.text);
    EXPECT_EQ(s.to_string(), c.canonical) << c.text;
    // to_string() -> parse() is the identity on the canonical form.
    EXPECT_EQ(fault::Spec::parse(s.to_string()).to_string(), c.canonical);
  }
  EXPECT_THROW(fault::Spec::parse(""), Error);
  EXPECT_THROW(fault::Spec::parse("hit=1"), Error);           // no site
  EXPECT_THROW(fault::Spec::parse("site=x,hit=abc"), Error);  // bad value
  EXPECT_THROW(fault::Spec::parse("site=x,p=1.5"), Error);    // p > 1
  EXPECT_THROW(fault::Spec::parse("site=x,bogus=1"), Error);  // unknown key
  EXPECT_THROW(fault::Spec::parse("site=x,action=maybe"), Error);
}

TEST(FaultSpec, ArmRejectsUnknownSites) {
  fault::Spec s;
  s.site = "no.such.site";
  EXPECT_THROW(fault::arm(s), Error);
  s.site = "no.such.prefix.*";
  EXPECT_THROW(fault::arm(s), Error);
  EXPECT_FALSE(fault::armed());
  // Prefix matching any catalog entry is accepted.
  s.site = "artifact.*";
  fault::arm(s);
  EXPECT_TRUE(fault::armed());
  fault::disarm();
  EXPECT_FALSE(fault::armed());
}

TEST(FaultSpec, WindowFiringIsPure) {
  fault::Spec s;
  s.site = "svc.read";
  s.hit = 2;
  s.count = 3;
  for (uint64_t k = 0; k < 10; ++k) {
    EXPECT_EQ(s.fires("svc.read", k), k >= 2 && k < 5) << k;
    EXPECT_FALSE(s.fires("svc.write", k));
  }
  s.count = 0;  // unlimited
  EXPECT_TRUE(s.fires("svc.read", 1u << 20));
  EXPECT_FALSE(s.fires("svc.read", 1));
}

TEST(FaultSpec, ProbabilisticFiringIsDeterministicPerSeed) {
  fault::Spec s;
  s.site = "svc.*";
  s.p = 0.5;
  s.seed = 42;
  uint64_t fired = 0;
  for (uint64_t k = 0; k < 1000; ++k) {
    bool f = s.fires("svc.read", k);
    EXPECT_EQ(f, s.fires("svc.read", k));  // pure: same (spec, site, k)
    fired += f;
  }
  EXPECT_GT(fired, 350u);  // roughly p=0.5 of 1000
  EXPECT_LT(fired, 650u);
  // Different site or seed: a different (deterministic) stream.
  fault::Spec s2 = s;
  s2.seed = 43;
  bool any_differ = false;
  for (uint64_t k = 0; k < 64; ++k) {
    any_differ |= s.fires("svc.read", k) != s2.fires("svc.read", k);
    any_differ |= s.fires("svc.read", k) != s.fires("svc.write", k);
  }
  EXPECT_TRUE(any_differ);
}

TEST(FaultProbe, DisarmedIsNoopAndArmedCounts) {
  EXPECT_FALSE(fault::armed());
  EXPECT_FALSE(fault::should_fail("svc.read"));
  EXPECT_NO_THROW(fault::maybe_throw("engine.stage.synth"));

  fault::Spec s;
  s.site = "svc.read";
  s.hit = 1;  // second arrival
  ArmedSpec armed(s);
  EXPECT_FALSE(fault::should_fail("svc.read"));  // hit 0: in window? no
  EXPECT_TRUE(fault::should_fail("svc.read"));   // hit 1: fires
  EXPECT_FALSE(fault::should_fail("svc.read"));  // hit 2: window passed
  EXPECT_FALSE(fault::should_fail("svc.write")); // other sites count alone
  fault::SiteStats st = fault::stats("svc.read");
  EXPECT_EQ(st.hits, 3u);
  EXPECT_EQ(st.fired, 1u);
  EXPECT_EQ(fault::stats("svc.write").hits, 1u);
  // The firing window [1, 2) has passed: maybe_throw is a counted no-op.
  EXPECT_NO_THROW(fault::maybe_throw("svc.read"));
  EXPECT_EQ(fault::stats("svc.read").hits, 4u);
  EXPECT_EQ(fault::stats("svc.read").fired, 1u);
}

TEST(FaultProbe, MaybeThrowCarriesTheSite) {
  fault::Spec s;
  s.site = "engine.stage.*";
  ArmedSpec armed(s);
  try {
    fault::maybe_throw("engine.stage.synth");
    FAIL() << "probe did not fire";
  } catch (const fault::InjectedFault& e) {
    EXPECT_EQ(e.site(), "engine.stage.synth");
  }
}

// ---------------------------------------------------------------------------
// Cancellation + deadlines
// ---------------------------------------------------------------------------

TEST(Cancel, TokenTripsCancelPoints) {
  EXPECT_NO_THROW(cancel_point());  // no scope installed: free
  CancelToken t;
  CancelScope scope(&t);
  EXPECT_NO_THROW(cancel_point());
  t.cancel();
  EXPECT_THROW(cancel_point(), CancelledError);
}

TEST(Cancel, ExpiredDeadlineThrowsDeadlineError) {
  CancelToken t;
  t.set_deadline_after_ms(1);
  CancelScope scope(&t);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_THROW(cancel_point(), DeadlineError);
}

TEST(Cancel, CancelledTokenAbortsEngineRun) {
  NetId clk;
  Netlist ff = pipeline3(&clk);
  flow::Engine engine(Tech::generic90());
  CancelToken t;
  t.cancel();
  CancelScope scope(&t);
  EXPECT_THROW(engine.run(ff, clk, flow::DesyncOptions()), CancelledError);
}

flow::DesyncOptions parallel_auto() {
  flow::DesyncOptions opt;
  opt.strategy = flow::PartitionSpec::parse("auto:1.05");
  opt.opt_jobs = 4;
  return opt;
}

TEST(Cancel, ExpiredDeadlineAbortsParallelPartitionRun) {
  circuits::Circuit mesh = circuits::register_mesh(6, 6, 2);
  flow::Engine engine(Tech::generic90());
  CancelToken t;
  t.set_deadline_after_ms(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  CancelScope scope(&t);
  EXPECT_THROW(engine.run(mesh.netlist, mesh.clock, parallel_auto()),
               DeadlineError);
}

// A tripped token aborts a cold max-cycle-ratio solve with the typed error
// (the solve polls before it relaxes and once per relaxation pass).
TEST(Cancel, CancelledTokenAbortsCycleRatioSolve) {
  const circuits::Circuit mesh = circuits::register_mesh(16, 16, 1);
  const Tech& tech = Tech::generic90();
  const pn::MarkedGraph mg = flow::timed_control_model(
      flow::desynchronize(mesh.netlist, mesh.clock, tech), tech);
  ASSERT_GT(pn::max_cycle_ratio(mg).ratio, 0.0);
  CancelToken t;
  t.cancel();
  CancelScope scope(&t);
  EXPECT_THROW(pn::max_cycle_ratio(mg), CancelledError);
}

// A request deadline reaches the Monte-Carlo batch solver's worker threads:
// an expired scope aborts a four-worker solve_all with the typed error.
TEST(Cancel, ExpiredDeadlineAbortsBatchSolve) {
  pn::MarkedGraph ring("ring");
  const pn::TransId a = ring.add_transition("a");
  const pn::TransId b = ring.add_transition("b");
  ring.add_arc(a, b, 1, 100);
  ring.add_arc(b, a, 0, 50);
  const pn::McrFlat flat = pn::flatten(ring);
  const pn::McrBatch batch(flat.view());
  const size_t samples = 4 * pn::McrBatch::kBlock;  // a block per worker
  std::vector<Ps> rows;
  for (size_t s = 0; s < samples; ++s) {
    rows.insert(rows.end(), flat.delay.begin(), flat.delay.end());
  }
  ASSERT_EQ(batch.solve_all(rows, samples, 4).size(), samples);
  CancelToken t;
  t.set_deadline_after_ms(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  CancelScope scope(&t);
  EXPECT_THROW(batch.solve_all(rows, samples, 4), DeadlineError);
}

// A throw inside a candidate probe of the partition optimizer reaches the
// caller as the typed error. Swept over every probe of the search, so the
// fault lands on each candidate in turn.
TEST(Cancel, ProbeThrowReachesCaller) {
  circuits::Circuit c = circuits::pipeline(4, 8, 2);
  const Tech& tech = Tech::generic90();
  flow::PartitionOptOptions po;
  po.jobs = 4;
  uint64_t probes = 0;
  {
    // Armed far past the end: counts probes, never fires.
    ArmedSpec armed(fault::Spec::parse("site=partition.probe,hit=1000000"));
    const flow::PartitionOptResult r =
        flow::optimize_partition(c.netlist, c.clock, tech, po);
    probes = fault::stats("partition.probe").hits;
    // One hit per merge candidate that reached the certificate.
    ASSERT_GT(probes, 0u);
    ASSERT_EQ(probes, r.stats.candidates - r.stats.pruned);
  }
  for (uint64_t hit = 0; hit < probes; ++hit) {
    SCOPED_TRACE(cat("hit=", hit));
    ArmedSpec armed(fault::Spec::parse(cat("site=partition.probe,hit=", hit)));
    EXPECT_THROW(flow::optimize_partition(c.netlist, c.clock, tech, po),
                 fault::InjectedFault);
  }
}

// ---------------------------------------------------------------------------
// The fault-sweep property
// ---------------------------------------------------------------------------

/// Every disk + engine fault site, several firing offsets: one injected
/// fault must produce either a typed error or a byte-identical success;
/// the retried run and a fresh engine over the same (possibly faulted)
/// cache dir must both reproduce the fault-free bytes; and the directory
/// must scrub clean afterwards.
TEST(FaultSweep, EveryDiskAndEngineSiteRecoversByteIdentical) {
  NetId clk;
  Netlist ff = pipeline3(&clk);
  const std::string want = reference_verilog(ff, clk);
  const flow::DesyncOptions opt;

  size_t case_idx = 0;
  for (const std::string& site : fault::all_sites()) {
    if (starts_with(site, "svc.")) continue;  // socket sites: next test
    for (uint64_t hit : {uint64_t{0}, uint64_t{1}}) {
      SCOPED_TRACE(cat(site, " hit=", hit));
      const std::string dir = fresh_dir(cat("sweep", case_idx++));
      fault::Spec spec;
      spec.site = site;
      spec.hit = hit;
      spec.count = 1;

      {
        ArmedSpec armed(spec);
        flow::Engine engine(Tech::generic90(), flow::EngineOptions{96, dir});
        // First submission: success (disk faults degrade gracefully) or a
        // typed InjectedFault (engine-stage sites) — anything else fails.
        try {
          flow::FlowOutcome out = engine.run(ff, clk, opt);
          EXPECT_EQ(*out.verilog, want);
        } catch (const fault::InjectedFault& e) {
          EXPECT_EQ(e.site(), site);
        }
        // Retry on the same engine: the single-shot window has passed, so
        // the resubmission must succeed byte-identically.
        flow::FlowOutcome redo = engine.run(ff, clk, opt);
        EXPECT_EQ(*redo.verilog, want);
      }

      // Recovery: a fresh engine over the same directory (scrub-on-open)
      // self-heals and serves the fault-free bytes.
      flow::Engine fresh(Tech::generic90(), flow::EngineOptions{96, dir});
      flow::FlowOutcome healed = fresh.run(ff, clk, opt);
      EXPECT_EQ(*healed.verilog, want);

      // No corruption survives: every entry still on disk verifies.
      flow::CacheScan scan = flow::scan_cache_dir(dir, /*verify=*/true);
      EXPECT_EQ(scan.corrupt, 0u);
      EXPECT_EQ(scan.tmp_orphans, 0u);
      fs::remove_all(dir);
    }
  }
}

// ---------------------------------------------------------------------------
// kill -9 mid-write crash recovery
// ---------------------------------------------------------------------------

/// A writer killed (for real, SIGKILL via action=kill) at the fsync probe
/// leaves an orphan tmp file; a fresh engine over the directory reaps it,
/// recomputes, and serves bytes identical to the fault-free run.
TEST(CrashRecovery, KillNineMidWriteSelfHeals) {
  NetId clk;
  Netlist ff = pipeline3(&clk);
  const std::string want = reference_verilog(ff, clk);
  const std::string dir = fresh_dir("crash");

  pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: die by SIGKILL at the first disk-entry fsync, leaving the
    // tmp file behind. _exit codes signal a miswired test, not a failure
    // of the property.
    try {
      fault::arm(fault::Spec::parse(
          "site=artifact.disk.write.fsync,action=kill"));
      flow::Engine engine(Tech::generic90(), flow::EngineOptions{96, dir});
      engine.run(ff, clk, flow::DesyncOptions());
      ::_exit(42);  // survived a run that must have been killed
    } catch (...) {
      ::_exit(43);
    }
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited with " << status;
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  // The crash left an orphan tmp from the (now dead) child pid.
  flow::CacheScan scan = flow::scan_cache_dir(dir, /*verify=*/true);
  EXPECT_GE(scan.tmp_total, 1u);
  EXPECT_EQ(scan.tmp_orphans, scan.tmp_total);
  EXPECT_EQ(scan.corrupt, 0u);  // atomic publish: no visible torn entry

  // A fresh engine reaps the orphan on open and self-heals byte-for-byte.
  flow::Engine engine(Tech::generic90(), flow::EngineOptions{96, dir});
  EXPECT_GE(engine.store_stats().tmp_reaped, 1u);
  flow::FlowOutcome healed = engine.run(ff, clk, flow::DesyncOptions());
  EXPECT_EQ(*healed.verilog, want);
  flow::CacheScan after = flow::scan_cache_dir(dir, /*verify=*/true);
  EXPECT_EQ(after.tmp_total, 0u);
  EXPECT_EQ(after.corrupt, 0u);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Crash-safe store mechanics
// ---------------------------------------------------------------------------

TEST(ArtifactScrub, OrphanTmpReapedAliveWriterKept) {
  const std::string dir = fresh_dir("tmps");
  // A dead writer's tmp: fork a child that exits immediately; its pid is
  // definitely dead (and reaped) when we scan.
  pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) ::_exit(0);
  ASSERT_EQ(::waitpid(child, nullptr, 0), child);
  std::ofstream(cat(dir, "/result-abc.art.tmp.", child, ".0")) << "torn";
  // A live writer's tmp (our own pid): must be left alone.
  std::ofstream(cat(dir, "/result-def.art.tmp.", ::getpid(), ".1")) << "wip";

  flow::CacheScan scan = flow::scan_cache_dir(dir, /*verify=*/false);
  EXPECT_EQ(scan.tmp_total, 2u);
  EXPECT_EQ(scan.tmp_orphans, 1u);

  flow::ArtifactStore store(
      flow::ArtifactStore::Options{4, dir});
  EXPECT_EQ(store.stats().tmp_reaped, 1u);
  EXPECT_FALSE(fs::exists(cat(dir, "/result-abc.art.tmp.", child, ".0")));
  EXPECT_TRUE(fs::exists(cat(dir, "/result-def.art.tmp.", ::getpid(), ".1")));
  fs::remove_all(dir);
}

TEST(ArtifactScrub, ScrubOnOpenCountsAndDiscardsCorruptEntries) {
  const std::string dir = fresh_dir("scrub");
  struct Blob : flow::Artifact {
    std::string text;
  };
  Hash256 key = sha256("scrub-me");
  {
    flow::ArtifactStore store(flow::ArtifactStore::Options{4, dir});
    auto b = std::make_shared<Blob>();
    b->text = "payload";
    store.put("result", key, b, "payload");
  }
  // Vandalize the entry on disk.
  flow::CacheScan scan = flow::scan_cache_dir(dir, /*verify=*/true);
  ASSERT_EQ(scan.entries, 1u);
  ASSERT_EQ(scan.corrupt, 0u);
  std::string path;
  for (const auto& de : fs::directory_iterator(dir)) path = de.path().string();
  std::ofstream(path, std::ios::app) << "garbage";
  EXPECT_EQ(flow::scan_cache_dir(dir, true).corrupt, 1u);

  // Scrub-on-open discards it and counts it as a corrupt disk entry.
  flow::ArtifactStore store(flow::ArtifactStore::Options{4, dir});
  EXPECT_EQ(store.stats().disk_corrupt, 1u);
  EXPECT_EQ(flow::scan_cache_dir(dir, true).entries, 0u);

  // scrub_cache_dir is the offline equivalent (desyn_cli cache scrub).
  std::ofstream(cat(dir, "/result-feed.art")) << "not even a header";
  flow::ScrubResult r = flow::scrub_cache_dir(dir);
  EXPECT_EQ(r.corrupt_removed, 1u);
  EXPECT_EQ(flow::scan_cache_dir(dir, true).corrupt, 0u);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Server robustness: socket faults + retry, deadlines, shed, caps
// ---------------------------------------------------------------------------

svc::ServerOptions server_options(const std::string& path, int threads = 2) {
  svc::ServerOptions o;
  o.socket_path = path;
  o.threads = threads;
  return o;
}

svc::RetryOptions fast_retry(int retries) {
  svc::RetryOptions r;
  r.retries = retries;
  r.base_delay_ms = 5;
  return r;
}

/// Each svc socket fault site, injected once: a submit with retry still
/// lands the byte-identical result.
TEST(SvcFaults, SocketFaultsRetryToByteIdenticalResults) {
  NetId clk;
  Netlist ff = pipeline3(&clk);
  std::string req =
      svc::make_request(nl::to_verilog(ff), "clk", "prefix", 1.1, "pulse");

  for (const char* site : {"svc.accept", "svc.read", "svc.write"}) {
    SCOPED_TRACE(site);
    std::string path = fresh_socket("fault");
    svc::Server server(Tech::generic90(), server_options(path));
    server.start();
    std::string oracle =
        svc::extract_result(server.handle_request(req));  // fault-free

    fault::Spec spec;
    spec.site = site;
    spec.count = 1;
    ArmedSpec armed(spec);
    std::string resp = svc::submit_with_retry(path, req, fast_retry(3));
    EXPECT_EQ(svc::extract_result(resp), oracle);
    EXPECT_GE(fault::stats(site).fired, 1u);
    server.stop();
  }
}

TEST(SvcFaults, InjectedEngineFaultIsTypedInternalAndRetryable) {
  NetId clk;
  Netlist ff = pipeline3(&clk);
  std::string req =
      svc::make_request(nl::to_verilog(ff), "clk", "prefix", 1.1, "pulse");
  std::string path = fresh_socket("internal");
  svc::Server server(Tech::generic90(), server_options(path));
  server.start();

  // The oracle must come AFTER the faulted attempts: a cached result never
  // reaches the mcr stage, so precomputing it would defuse the probe.
  fault::Spec spec;
  spec.site = "engine.stage.mcr";
  spec.count = 1;
  ArmedSpec armed(spec);
  // Without retry: the injected fault surfaces as a typed internal error
  // (retryable — stages publish atomically, so nothing is half-done).
  {
    svc::Client client(path);
    std::string resp = client.roundtrip(req);
    EXPECT_NE(resp.find("\"kind\": \"internal\""), std::string::npos) << resp;
  }
  EXPECT_EQ(fault::stats("engine.stage.mcr").fired, 1u);
  // A resubmission is past the single-shot window and succeeds; the
  // in-process rerun then serves the identical bytes from the cache.
  std::string resp = svc::submit_with_retry(path, req, fast_retry(3));
  std::string oracle = svc::extract_result(server.handle_request(req));
  EXPECT_EQ(svc::extract_result(resp), oracle);
  server.stop();
}

TEST(SvcDeadline, TimeoutProducesTypedDeadlineError) {
  // A circuit whose auto-partitioned flow takes well over a millisecond,
  // so a 1 ms deadline reliably trips a cancel point mid-flow.
  // A 16x16 mesh keeps the auto:1.05 flow at ~10 ms on a current core:
  // long against the cancel loop's period. (A 6x6 mesh runs in ~1.5 ms,
  // which one 1 ms sleep could miss entirely.)
  circuits::Circuit mesh = circuits::register_mesh(16, 16, 2);
  std::string req = svc::make_request(nl::to_verilog(mesh.netlist),
                                      mesh.netlist.net(mesh.clock).name,
                                      "auto:1.05", 1.1, "pulse",
                                      /*timeout_ms=*/1);
  svc::Server server(Tech::generic90(),
                     server_options(fresh_socket("deadline")));
  std::string resp = server.handle_request(req);
  EXPECT_NE(resp.find("\"kind\": \"deadline\""), std::string::npos) << resp;

  // Bad timeout values are typed request errors.
  std::string bad = svc::make_request(nl::to_verilog(mesh.netlist),
                                      mesh.netlist.net(mesh.clock).name,
                                      "prefix", 1.1, "pulse");
  bad = bad.substr(0, bad.size() - 1) + ", \"timeout_ms\": -5}";
  EXPECT_NE(server.handle_request(bad).find("\"kind\": \"request\""),
            std::string::npos);
}

TEST(SvcShed, QueueFullGetsTypedBusyResponse) {
  std::string path = fresh_socket("busy");
  svc::ServerOptions opt = server_options(path, /*threads=*/1);
  opt.max_pending = 1;
  svc::Server server(Tech::generic90(), opt);
  server.start();

  // Occupy the single worker: an answered round trip proves a worker took
  // `held`, and it stays parked on the open connection.
  svc::Client held(path);
  held.roundtrip("{}");
  // Fill the one pending slot, and wait until the acceptor has admitted it.
  svc::Client queued(path);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.pending() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.pending(), 1u);

  // The next admission must be shed with a typed, retryable busy error.
  svc::Client shed(path);
  std::string resp = shed.roundtrip("{}");
  EXPECT_NE(resp.find("\"kind\": \"busy\""), std::string::npos) << resp;
  server.stop();
}

TEST(SvcLimits, OversizedRequestIsTypedLimitError) {
  std::string path = fresh_socket("limit");
  svc::ServerOptions opt = server_options(path);
  opt.max_request_bytes = 1024;
  svc::Server server(Tech::generic90(), opt);
  server.start();
  svc::Client client(path);
  std::string huge = cat("{\"verilog\": \"", std::string(4096, 'x'), "\"}");
  std::string resp = client.roundtrip(huge);
  EXPECT_NE(resp.find("\"kind\": \"limit\""), std::string::npos) << resp;
  server.stop();
}

TEST(SvcLimits, IdleConnectionIsDroppedAtIoDeadline) {
  std::string path = fresh_socket("idle");
  svc::ServerOptions opt = server_options(path);
  opt.io_timeout_ms = 100;
  svc::Server server(Tech::generic90(), opt);
  server.start();
  svc::Client client(path);
  // A blank line is a keep-alive no-op: the server reads it, answers
  // nothing, and its next read hits SO_RCVTIMEO 100 ms later — the idle
  // connection is dropped, and the waiting client sees the hangup.
  EXPECT_THROW(client.roundtrip(""), svc::TransientError);
  server.stop();
}

TEST(SvcCancel, CancelInflightAnswersTyped) {
  // A 16x16 mesh keeps the auto:1.05 flow at ~10 ms on a current core:
  // long against the cancel loop's period. (A 6x6 mesh runs in ~1.5 ms,
  // which one 1 ms sleep could miss entirely.)
  circuits::Circuit mesh = circuits::register_mesh(16, 16, 2);
  std::string req = svc::make_request(nl::to_verilog(mesh.netlist),
                                      mesh.netlist.net(mesh.clock).name,
                                      "auto:1.05", 1.1, "pulse");
  std::string path = fresh_socket("cancel");
  svc::Server server(Tech::generic90(), server_options(path));
  server.start();
  std::string resp;
  std::atomic<bool> done{false};
  std::thread submitter([&] {
    svc::Client client(path);
    resp = client.roundtrip(req);
    done.store(true);
  });
  // Hammer cancel_inflight until the round trip completes: the request's
  // token is registered before the flow starts, so some cancel lands
  // within ~0.1 ms of registration and the next cancel point trips it.
  while (!done.load()) {
    server.cancel_inflight();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  submitter.join();
  EXPECT_NE(resp.find("\"kind\": \"cancelled\""), std::string::npos) << resp;
  server.stop();
}

}  // namespace
}  // namespace desyn
