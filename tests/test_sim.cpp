#include "sim/sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string_view>
#include <thread>
#include <tuple>

#include "circuits/circuits.h"
#include "core/desynchronizer.h"
#include "netlist/builder.h"
#include "sim/power.h"
#include "sim/vcd.h"
#include "verif/flow_equivalence.h"
#include "verif/testbench.h"

namespace desyn::sim {
namespace {

using cell::Kind;
using cell::Tech;
using nl::Builder;
using nl::Netlist;
using nl::NetId;

TEST(Sim, CombinationalPropagationTiming) {
  Netlist nl("t");
  Builder b(nl);
  const Tech& t = Tech::generic90();
  NetId a = b.input("a");
  NetId c = b.input("c");
  NetId y = b.and_({a, c}, "y");
  b.output(y);

  Simulator sim(nl, t);
  std::vector<std::pair<Ps, V>> changes;
  sim.watch(y, [&](Ps at, V v) { changes.emplace_back(at, v); });
  sim.set_input(a, V::V1, 0);
  sim.set_input(c, V::V0, 0);
  sim.run_until(1000);
  EXPECT_EQ(sim.value(y), V::V0);
  sim.set_input(c, V::V1, 1000);
  sim.run_until(2000);
  EXPECT_EQ(sim.value(y), V::V1);
  Ps d_and = t.delay(Kind::And, 2, 0);
  ASSERT_FALSE(changes.empty());
  EXPECT_EQ(changes.back().first, 1000 + d_and);
  EXPECT_EQ(changes.back().second, V::V1);
}

TEST(Sim, InertialGlitchSwallowed) {
  Netlist nl("t");
  Builder b(nl);
  const Tech& t = Tech::generic90();
  NetId a = b.input("a");
  NetId y = b.buf(a, "y");
  b.output(y);

  Simulator sim(nl, t);
  int y_changes = 0;
  sim.watch(y, [&](Ps, V) { ++y_changes; });
  sim.set_input(a, V::V0, 0);
  sim.run_until(500);
  // Pulse narrower than the buffer delay: swallowed.
  Ps d = t.delay(Kind::Buf, 1, 0);
  ASSERT_GT(d, 2);
  sim.set_input(a, V::V1, 1000);
  sim.set_input(a, V::V0, 1000 + d / 2);
  sim.run_until(3000);
  EXPECT_EQ(sim.value(y), V::V0);
  // Only the initial X->0 settle may have fired; no 0->1->0 pair.
  EXPECT_LE(y_changes, 1);
}

TEST(Sim, DffShiftRegister) {
  Netlist nl("t");
  Builder b(nl);
  NetId d = b.input("d");
  NetId ck = b.input("ck");
  NetId q0 = b.dff(d, ck, V::V0, "q0");
  NetId q1 = b.dff(q0, ck, V::V0, "q1");
  NetId q2 = b.dff(q1, ck, V::V0, "q2");
  b.output(q2);

  Simulator sim(nl, Tech::generic90());
  sim.set_input(d, V::V1, 0);
  sim.add_clock(ck, 1000, 500);  // edges at 500, 1500, 2500, ...
  sim.run_until(400);
  EXPECT_EQ(sim.value(q2), V::V0);
  sim.run_until(1400);  // after 1st edge
  EXPECT_EQ(sim.value(q0), V::V1);
  EXPECT_EQ(sim.value(q2), V::V0);
  sim.run_until(3400);  // after 3rd edge
  EXPECT_EQ(sim.value(q2), V::V1);
  EXPECT_EQ(sim.setup_violation_count(), 0u);
}

TEST(Sim, ClockGeneratorTogglesAtPeriod) {
  Netlist nl("t");
  Builder b(nl);
  NetId ck = b.input("ck");
  b.output(b.buf(ck));
  Simulator sim(nl, Tech::generic90());
  std::vector<Ps> rises;
  sim.watch(ck, [&](Ps at, V v) {
    if (v == V::V1) rises.push_back(at);
  });
  sim.add_clock(ck, 2000, 1000);
  sim.run_until(9999);
  ASSERT_EQ(rises.size(), 5u);  // 1000, 3000, 5000, 7000, 9000
  EXPECT_EQ(rises[0], 1000);
  EXPECT_EQ(rises[4], 9000);
}

TEST(Sim, LatchTransparency) {
  Netlist nl("t");
  Builder b(nl);
  NetId d = b.input("d");
  NetId en = b.input("en");
  NetId q = b.latch(d, en, V::V0, "q");
  b.output(q);

  Simulator sim(nl, Tech::generic90());
  sim.set_input(en, V::V0, 0);
  sim.set_input(d, V::V0, 0);
  sim.run_until(1000);
  // Opaque: D changes do not pass.
  sim.set_input(d, V::V1, 1000);
  sim.run_until(2000);
  EXPECT_EQ(sim.value(q), V::V0);
  // Transparent: Q follows D.
  sim.set_input(en, V::V1, 2000);
  sim.run_until(3000);
  EXPECT_EQ(sim.value(q), V::V1);
  sim.set_input(d, V::V0, 3000);
  sim.run_until(4000);
  EXPECT_EQ(sim.value(q), V::V0);
  // Close, then change D: Q holds.
  sim.set_input(en, V::V0, 4000);
  sim.set_input(d, V::V1, 5000);
  sim.run_until(6000);
  EXPECT_EQ(sim.value(q), V::V0);
}

TEST(Sim, LatchNOppositePolarity) {
  Netlist nl("t");
  Builder b(nl);
  NetId d = b.input("d");
  NetId en = b.input("en");
  NetId q = b.latchn(d, en, V::V0, "q");
  b.output(q);
  Simulator sim(nl, Tech::generic90());
  sim.set_input(en, V::V1, 0);  // opaque for LatchN
  sim.set_input(d, V::V1, 0);
  sim.run_until(1000);
  EXPECT_EQ(sim.value(q), V::V0);
  sim.set_input(en, V::V0, 1000);  // transparent
  sim.run_until(2000);
  EXPECT_EQ(sim.value(q), V::V1);
}

TEST(Sim, LatchInitiallyTransparentFollowsAtReset) {
  Netlist nl("t");
  Builder b(nl);
  // EN tied high, D tied high, but init = 0: the settle kick must bring Q
  // to 1 shortly after t=0 (models reset release into a transparent latch).
  NetId q = b.latch(b.hi(), b.hi(), V::V0, "q");
  b.output(q);
  Simulator sim(nl, Tech::generic90());
  EXPECT_EQ(sim.value(q), V::V0);
  sim.run_until(1000);
  EXPECT_EQ(sim.value(q), V::V1);
}

TEST(Sim, RomRead) {
  Netlist nl("t");
  Builder b(nl);
  std::vector<NetId> addr = {b.input("a0"), b.input("a1")};
  auto data = b.rom(addr, 8, {0x11, 0x22, 0x33, 0x44}, "rom");
  for (NetId n : data) b.output(n);
  Simulator sim(nl, Tech::generic90());
  auto read_byte = [&] {
    uint64_t v = 0;
    for (size_t i = 0; i < data.size(); ++i) {
      if (sim.value(data[i]) == V::V1) v |= (1ull << i);
    }
    return v;
  };
  sim.set_input(addr[0], V::V0, 0);
  sim.set_input(addr[1], V::V1, 0);
  sim.run_until(1000);
  EXPECT_EQ(read_byte(), 0x33u);  // address 2
  sim.set_input(addr[0], V::V1, 1000);
  sim.run_until(2000);
  EXPECT_EQ(read_byte(), 0x44u);  // address 3
}

TEST(Sim, RamWriteThenRead) {
  Netlist nl("t");
  Builder b(nl);
  NetId ck = b.input("ck");
  NetId we = b.input("we");
  std::vector<NetId> wa = {b.input("wa0"), b.input("wa1")};
  std::vector<NetId> wd;
  for (int i = 0; i < 4; ++i) wd.push_back(b.input(cat("wd", i)));
  std::vector<NetId> ra = {b.input("ra0"), b.input("ra1")};
  auto rd = b.ram(ck, we, wa, wd, ra, 4, "m");
  for (NetId n : rd) b.output(n);

  Simulator sim(nl, Tech::generic90());
  nl::CellId ram = nl.find_cell("m");
  // Write 0b1010 to address 1.
  sim.set_input(ck, V::V0, 0);
  sim.set_input(we, V::V1, 0);
  sim.set_input(wa[0], V::V1, 0);
  sim.set_input(wa[1], V::V0, 0);
  for (int i = 0; i < 4; ++i) {
    sim.set_input(wd[i], (i % 2) ? V::V1 : V::V0, 0);
  }
  sim.set_input(ra[0], V::V1, 0);
  sim.set_input(ra[1], V::V0, 0);
  sim.run_until(500);
  sim.set_input(ck, V::V1, 1000);
  sim.run_until(2000);
  EXPECT_EQ(sim.ram_word(ram, 1), 0b1010u);
  // Write-through: read address == write address updates outputs.
  uint64_t out = 0;
  for (size_t i = 0; i < rd.size(); ++i) {
    if (sim.value(rd[i]) == V::V1) out |= (1ull << i);
  }
  EXPECT_EQ(out, 0b1010u);
  // WE low: no write.
  sim.set_input(we, V::V0, 2000);
  sim.set_input(wd[0], V::V1, 2000);
  sim.set_input(ck, V::V0, 2500);
  sim.set_input(ck, V::V1, 3000);
  sim.run_until(4000);
  EXPECT_EQ(sim.ram_word(ram, 1), 0b1010u);
}

TEST(Sim, CElemRendezvous) {
  Netlist nl("t");
  Builder b(nl);
  NetId a = b.input("a");
  NetId c = b.input("c");
  NetId y = b.celem({a, c}, V::V0, "y");
  b.output(y);
  Simulator sim(nl, Tech::generic90());
  sim.set_input(a, V::V0, 0);
  sim.set_input(c, V::V0, 0);
  sim.run_until(100);
  sim.set_input(a, V::V1, 100);
  sim.run_until(1000);
  EXPECT_EQ(sim.value(y), V::V0);  // only one input high: hold
  sim.set_input(c, V::V1, 1000);
  sim.run_until(2000);
  EXPECT_EQ(sim.value(y), V::V1);  // both high: rise
  sim.set_input(a, V::V0, 2000);
  sim.run_until(3000);
  EXPECT_EQ(sim.value(y), V::V1);  // hold
  sim.set_input(c, V::V0, 3000);
  sim.run_until(4000);
  EXPECT_EQ(sim.value(y), V::V0);  // both low: fall
}

TEST(Sim, GcSetResetOverTime) {
  Netlist nl("t");
  Builder b(nl);
  NetId s = b.input("s");
  NetId r = b.input("r");
  NetId y = b.gc(s, r, V::V0, "y");
  b.output(y);
  Simulator sim(nl, Tech::generic90());
  sim.set_input(s, V::V0, 0);
  sim.set_input(r, V::V0, 0);
  sim.run_until(100);
  sim.set_input(s, V::V1, 100);
  sim.run_until(1000);
  EXPECT_EQ(sim.value(y), V::V1);
  sim.set_input(s, V::V0, 1000);
  sim.run_until(2000);
  EXPECT_EQ(sim.value(y), V::V1);  // hold
  sim.set_input(r, V::V1, 2000);
  sim.run_until(3000);
  EXPECT_EQ(sim.value(y), V::V0);
}

TEST(Sim, LatchOscillatorRuns) {
  Netlist nl("t");
  Builder b(nl);
  NetId q = nl.add_net("q");
  NetId nq = b.inv(q, "nq");
  NetId en = b.hi();
  nl.add_cell(Kind::Latch, "l", {nq, en}, {q});
  b.output(q);

  Simulator sim(nl, Tech::generic90());
  int toggles_seen = 0;
  sim.watch(q, [&](Ps, V) { ++toggles_seen; });
  bool quiet = sim.run_until_quiet(20000);
  EXPECT_FALSE(quiet);  // oscillators never quiesce
  EXPECT_GT(toggles_seen, 10);
  EXPECT_GT(sim.toggles(q), 10u);
}

TEST(Sim, SetupViolationDetected) {
  Netlist nl("t");
  Builder b(nl);
  const Tech& t = Tech::generic90();
  NetId d = b.input("d");
  NetId ck = b.input("ck");
  NetId q = b.dff(d, ck, V::V0, "q");
  b.output(q);
  Simulator sim(nl, t);
  sim.set_input(d, V::V0, 0);
  sim.set_input(ck, V::V0, 0);
  sim.run_until(500);
  // D changes 10ps before the capture edge: violates the 45ps setup.
  sim.set_input(d, V::V1, 990);
  sim.set_input(ck, V::V1, 1000);
  sim.run_until(2000);
  ASSERT_EQ(sim.setup_violation_count(), 1u);
  EXPECT_EQ(sim.setup_violations()[0].data_net, d);
  EXPECT_EQ(sim.setup_violations()[0].slack, (1000 - 990) - t.dff_setup());
}

TEST(Sim, PowerEstimation) {
  Netlist nl("t");
  Builder b(nl);
  NetId a = b.input("a");
  NetId y = b.buf(a, "y");
  b.output(y);
  Simulator sim(nl, Tech::generic90());
  sim.set_input(a, V::V0, 0);
  sim.run_until(100);
  sim.clear_activity();
  for (int i = 1; i <= 10; ++i) {
    sim.set_input(a, i % 2 ? V::V1 : V::V0, 100 + i * 1000);
  }
  sim.run_until(20100);
  PowerReport rep = estimate_power(sim, Tech::generic90());
  EXPECT_GT(rep.total_mw, 0.0);
  EXPECT_GT(rep.net_switching_mw, 0.0);
  EXPECT_GT(rep.cell_internal_mw, 0.0);
  EXPECT_EQ(rep.window, 20000);
  EXPECT_DOUBLE_EQ(rep.clock_network_mw, 0.0);
  NetId clk_like[] = {a};
  PowerReport rep2 = estimate_power(sim, Tech::generic90(), clk_like);
  EXPECT_GT(rep2.clock_network_mw, 0.0);
  EXPECT_LT(rep2.clock_network_mw, rep2.total_mw);
}

TEST(Sim, VcdOutputWellFormed) {
  Netlist nl("t");
  Builder b(nl);
  NetId a = b.input("a");
  NetId y = b.inv(a, "y");
  b.output(y);
  Simulator sim(nl, Tech::generic90());
  std::ostringstream os;
  VcdWriter vcd(sim, os, {a, y});
  sim.set_input(a, V::V0, 0);
  sim.set_input(a, V::V1, 1000);
  sim.run_until(2000);
  vcd.finish();
  std::string s = os.str();
  EXPECT_NE(s.find("$timescale 1ps"), std::string::npos);
  EXPECT_NE(s.find("$var wire 1 ! a"), std::string::npos);
  EXPECT_NE(s.find("#1000"), std::string::npos);
  EXPECT_NE(s.find("1!"), std::string::npos);
}

TEST(Sim, ActivityWindowReset) {
  Netlist nl("t");
  Builder b(nl);
  NetId a = b.input("a");
  b.output(b.buf(a));
  Simulator sim(nl, Tech::generic90());
  sim.set_input(a, V::V0, 0);
  sim.set_input(a, V::V1, 100);
  sim.set_input(a, V::V0, 200);
  sim.run_until(300);
  EXPECT_EQ(sim.toggles(a), 2u);
  sim.clear_activity();
  EXPECT_EQ(sim.toggles(a), 0u);
  EXPECT_EQ(sim.activity_window_start(), 300);
}

// ---------------------------------------------------------------------------
// Determinism: the event queue breaks time ties FIFO by sequence number, so
// a simulation is a pure function of (netlist, stimulus). These tests guard
// that property against queue rearchitectures.
// ---------------------------------------------------------------------------

struct SimTrace {
  std::vector<uint64_t> toggles;
  std::vector<V> values;
  uint64_t events = 0;
  uint64_t violations = 0;

  static SimTrace of(const Simulator& sim) {
    SimTrace t;
    const nl::Netlist& netl = sim.netlist();
    for (uint32_t n = 0; n < netl.num_nets(); ++n) {
      t.toggles.push_back(sim.toggles(NetId(n)));
      t.values.push_back(sim.value(NetId(n)));
    }
    t.events = sim.events_processed();
    t.violations = sim.setup_violation_count();
    return t;
  }

  friend bool operator==(const SimTrace& a, const SimTrace& b) {
    return a.toggles == b.toggles && a.values == b.values &&
           a.events == b.events && a.violations == b.violations;
  }
};

TEST(Sim, DeterministicReplaySelfTimed) {
  // A desynchronized circuit is the hardest case: no global clock, the
  // controllers self-oscillate, and many events share timestamps.
  circuits::Circuit c = circuits::pipeline(4, 8, 2);
  const cell::Tech& t = cell::Tech::generic90();
  flow::DesyncResult dr = flow::desynchronize(c.netlist, c.clock, t);

  auto run = [&] {
    Simulator sim(dr.netlist, t);
    poke_word(sim, dr.netlist.inputs(), 0x5a, 0);
    sim.run_until(50000);
    return SimTrace::of(sim);
  };
  SimTrace first = run();
  EXPECT_GT(first.events, 100u);  // the circuit actually ran
  EXPECT_TRUE(first == run());
}

TEST(Sim, ChunkedRunMatchesOneShot) {
  // run_until() in odd-sized increments must be indistinguishable from one
  // call — the queue cursor may rest at any intermediate time. Stimulus is
  // scheduled far ahead so events also cross the calendar-queue horizon.
  const cell::Tech& t = cell::Tech::generic90();
  auto stimulate = [&](Simulator& sim, const circuits::Circuit& c) {
    sim.add_clock(c.clock, 2000, 1000);
    uint64_t word = 0x13;
    for (Ps at = 0; at < 30000; at += 7600) {
      poke_word(sim, sim.netlist().inputs(), word, at);
      word = word * 2862933555777941757ull + 3037000493ull;
    }
  };

  circuits::Circuit c = circuits::pipeline(3, 8, 2);
  Simulator oneshot(c.netlist, t);
  stimulate(oneshot, c);
  oneshot.run_until(40000);

  Simulator chunked(c.netlist, t);
  stimulate(chunked, c);
  for (Ps at = 137; at < 40000; at += 137) chunked.run_until(at);
  chunked.run_until(40000);

  EXPECT_GT(oneshot.events_processed(), 100u);
  EXPECT_TRUE(SimTrace::of(oneshot) == SimTrace::of(chunked));
}

TEST(Sim, StimulusAcrossRunsKeepsFifoOrder) {
  // Two stimulus events on the same net at the same picosecond must apply
  // in scheduling order even when the first is queued beyond the calendar
  // horizon and a bounded run_until() rests the cursor in between (the
  // second push then lands inside the wheel window directly).
  Netlist netl("fifo");
  Builder b(netl);
  NetId a = b.input("a");
  b.output(b.buf(a, "y"));
  const cell::Tech& t = cell::Tech::generic90();

  Simulator sim(netl, t);
  sim.set_input(a, V::V1, 5000);  // far beyond the wheel window
  sim.run_until(4000);            // cursor rests just short of the event
  sim.set_input(a, V::V0, 5000);  // same instant, scheduled later
  sim.run_until(10000);
  EXPECT_EQ(sim.value(a), V::V0);  // later-scheduled value wins the tie
}

TEST(Sim, RunUntilQuietMatchesBoundedRun) {
  // Quiescing via run_until_quiet must leave the same state as running past
  // the quiesce point with run_until.
  Netlist netl("q");
  Builder b(netl);
  NetId a = b.input("a");
  NetId y = a;
  for (int i = 0; i < 8; ++i) y = b.inv(y, cat("n", i));
  b.output(y);
  const cell::Tech& t = cell::Tech::generic90();

  Simulator s1(netl, t);
  s1.set_input(a, V::V1, 10);
  EXPECT_TRUE(s1.run_until_quiet(100000));

  Simulator s2(netl, t);
  s2.set_input(a, V::V1, 10);
  s2.run_until(100000);
  EXPECT_EQ(s1.value(y), s2.value(y));
  EXPECT_EQ(s1.events_processed(), s2.events_processed());
}

TEST(Sim, SameTimestampBurstsKeepFifoOrder) {
  // Equal-timestamp stimulus bursts on two inputs, including several
  // changes of one net at the same instant: the last-scheduled value wins,
  // and outputs caused in the same step commit (and notify watchers) in
  // the order their causes were scheduled.
  Netlist netl("t");
  Builder b(netl);
  NetId a = b.input("a");
  NetId c = b.input("c");
  NetId ya = b.buf(a, "ya");
  NetId yc = b.buf(c, "yc");
  NetId both = b.and_({ya, yc}, "both");
  b.output(both);

  Simulator sim(netl, Tech::generic90());
  std::vector<std::tuple<Ps, uint32_t, char>> log;
  for (NetId n : {ya, yc, both}) {
    sim.watch(n, [&log, n](Ps at, V v) {
      log.emplace_back(at, n.value(), cell::to_char(v));
    });
  }
  for (Ps t : {Ps{0}, Ps{1'000}, Ps{1'000}, Ps{2'500}}) {
    sim.set_input(a, V::V1, t);
    sim.set_input(c, V::V1, t);
    sim.set_input(a, V::V0, t);
    sim.set_input(c, V::V0, t + 1);
    sim.set_input(a, V::V1, t + 1);
  }
  sim.run_until(10'000);
  // At t=1 c's change precedes a's, so yc settles before ya at t=31; the
  // t=0 outputs were superseded (inertial) before they matured.
  const std::vector<std::tuple<Ps, uint32_t, char>> expected = {
      {31, yc.value(), '0'}, {31, ya.value(), '1'}, {66, both.value(), '0'}};
  EXPECT_EQ(log, expected);
  EXPECT_EQ(sim.value(a), V::V1);
  EXPECT_EQ(sim.value(c), V::V0);
  EXPECT_EQ(sim.events_processed(), 37u);
}

TEST(Sim, CaptureCoincidentWithDataChangeSeesCommittedData) {
  // A DFF clock rise landing on the same picosecond as its D change. Every
  // commit of a step precedes evaluation, so the flop captures the new
  // data regardless of which event was scheduled first (here the clock
  // was), and the setup check sees a zero-length window.
  Netlist netl("t");
  Builder b(netl);
  NetId d = b.input("d");
  NetId ck = b.input("ck");
  NetId x = b.buf(d, "x");
  NetId q = b.dff(x, ck, V::V0, "q");
  b.output(q);
  const Tech& t = Tech::generic90();

  // When x settles after a d poke at t=1000.
  Ps x_change = -1;
  {
    Simulator probe(netl, t);
    probe.watch(x, [&](Ps at, V v) {
      if (v == V::V1) x_change = at;
    });
    probe.set_input(d, V::V0, 0);
    probe.set_input(ck, V::V0, 0);
    probe.set_input(d, V::V1, 1'000);
    probe.run_until(5'000);
    ASSERT_EQ(x_change, 1'030);
  }

  Simulator sim(netl, t);
  std::vector<std::tuple<Ps, uint32_t, char>> log;
  for (NetId n : {x, ck, q}) {
    sim.watch(n, [&log, n](Ps at, V v) {
      log.emplace_back(at, n.value(), cell::to_char(v));
    });
  }
  sim.set_input(d, V::V0, 0);
  sim.set_input(ck, V::V0, 0);
  sim.set_input(d, V::V1, 1'000);
  sim.set_input(ck, V::V1, x_change);  // rise exactly at the data commit
  sim.run_until(10'000);

  const std::vector<std::tuple<Ps, uint32_t, char>> expected = {
      {0, ck.value(), '0'},
      {30, x.value(), '0'},
      {1'030, ck.value(), '1'},
      {1'030, x.value(), '1'},
      {1'125, q.value(), '1'}};
  EXPECT_EQ(log, expected);
  EXPECT_EQ(sim.value(q), V::V1);
  ASSERT_EQ(sim.setup_violation_count(), 1u);
  const SetupViolation& v = sim.setup_violations().front();
  EXPECT_EQ(v.at, x_change);
  EXPECT_EQ(v.cell, netl.find_cell("q"));
  EXPECT_EQ(v.data_net, x);
  EXPECT_EQ(v.slack, -t.dff_setup());
  EXPECT_EQ(sim.events_processed(), 7u);
}

// ---------------------------------------------------------------------------
// Golden trajectory. For every scaling-suite circuit x protocol: the
// flow-equivalence figures, and the event count and final state of a
// fixed-horizon run of the desynchronized circuit. Recorded from the
// previous, domain-sharded engine at one job; doubles are exact (%.17g
// round-trips), so any change to tie order, inertial resolution or the
// commit/evaluate staging of a step shows up here.
// ---------------------------------------------------------------------------

struct GoldenRow {
  const char* circuit;
  ctl::Protocol protocol;
  double desync_period;
  uint64_t sync_setup_violations, desync_setup_violations;
  size_t captures_compared;
  double sync_power_mw, desync_power_mw, sync_clock_power_mw,
      desync_ctl_power_mw;
  uint64_t events;      ///< fixed-horizon desync run
  uint64_t state_hash;  ///< state_hash() at the end of that run
};

using P = ctl::Protocol;
constexpr GoldenRow kGolden[] = {
    {"pipe4x8", P::Lockstep, 935.25, 0, 0, 384,
     2.2779404761904765, 1.4691770186335398, 1.2097142857142857,
     1.0749749973681442, 4927, 0x1a731bd3f93a1de2},
    {"pipe4x8", P::SemiDecoupled, 802.25, 0, 0, 384,
     2.2779404761904765, 1.5008631713554974, 1.2097142857142857,
     1.0418082450371453, 4781, 0x8e27a5ee8d4522c7},
    {"pipe4x8", P::FullyDecoupled, 637, 0, 0, 384,
     2.2779404761904765, 1.8470762256031945, 1.2097142857142857,
     1.2679422160749967, 5816, 0x5dd5cb1d8eef8f60},
    {"pipe4x8", P::Pulse, 458.1875, 0, 0, 384,
     2.2779404761904765, 2.270424201009249, 1.2097142857142857,
     1.473436185870479, 6399, 0xc5a7cd63a1006f43},
    {"pipe8x16", P::Lockstep, 1389, 0, 0, 1536,
     7.0622695852534578, 3.1091107794007864, 3.9343317972350222,
     2.0725645946618338, 8763, 0x76c14c17c1580a80},
    {"pipe8x16", P::SemiDecoupled, 1256, 0, 0, 1536,
     7.0622695852534578, 3.1964995083579133, 3.9343317972350222,
     2.0500176991150445, 8544, 0x26256c3c6650db9b},
    {"pipe8x16", P::FullyDecoupled, 997, 0, 0, 1536,
     7.0622695852534578, 3.9817442609945894, 3.9343317972350222,
     2.5329218106995892, 10233, 0x6ad88ff745d70c98},
    {"pipe8x16", P::Pulse, 701, 0, 0, 1536,
     7.0622695852534578, 5.1743248857499085, 3.9343317972350222,
     3.1559548538983502, 11659, 0x65b14b5e4e3eace3},
    {"pipe16x32", P::Lockstep, 1539, 0, 0, 6144,
     22.787548262548185, 9.2736914068783332, 13.185328185328197,
     5.7576472669948284, 20100, 0x98b76f82a263ec06},
    {"pipe16x32", P::SemiDecoupled, 1406, 0, 0, 6144,
     22.787548262548185, 9.7631850071570998, 13.185328185328197,
     5.9028920069980844, 19879, 0xdc8a2a1ffab38f57},
    {"pipe16x32", P::FullyDecoupled, 1117, 0, 0, 6144,
     22.787548262548185, 12.085621358798013, 13.185328185328197,
     7.2752978667484074, 23276, 0x2624c80c1f5c8d38},
    {"pipe16x32", P::Pulse, 836, 0, 0, 6144,
     22.787548262548185, 15.467143725399273, 13.185328185328197,
     9.0620788955776845, 25935, 0x5395f6055b9be823},
    {"lfsr16", P::Lockstep, 1390, 0, 0, 192,
     0.83629976580796261, 0.37741990152704441, 0.7436768149882903,
     0.33766322962751538, 1693, 0xf740968bd9c62bc0},
    {"lfsr16", P::SemiDecoupled, 1234, 0, 0, 192,
     0.83629976580796261, 0.36948697853870272, 0.7436768149882903,
     0.32470360099670437, 1684, 0xc1949ee3dd38f826},
    {"lfsr16", P::FullyDecoupled, 945, 0, 0, 192,
     0.83629976580796261, 0.47414618908788003, 0.7436768149882903,
     0.41613390254060789, 2296, 0x3d2772499fe3737d},
    {"lfsr16", P::Pulse, 639, 0, 0, 192,
     0.83629976580796261, 0.60607295156868746, 0.7436768149882903,
     0.52121915930551344, 3024, 0x4ccd5df2d30e5d5a},
    {"lfsr64", P::Lockstep, 1390, 0, 0, 768,
     3.0673302107728335, 0.77877747252747254, 2.9747072599531617,
     0.75900438846867413, 2153, 0x6a7f091f81a349c6},
    {"lfsr64", P::SemiDecoupled, 1234, 0, 0, 768,
     3.0673302107728335, 0.82159090909090893, 2.9747072599531617,
     0.79931777992122821, 2180, 0x99c3a26859735a60},
    {"lfsr64", P::FullyDecoupled, 945, 0, 0, 768,
     3.0673302107728335, 1.0636193252811332, 2.9747072599531617,
     1.0347667638483966, 2858, 0xa2b10f6734c4237f},
    {"lfsr64", P::Pulse, 639, 0, 0, 768,
     3.0673302107728335, 1.4794585744745654, 2.9747072599531617,
     1.4372563204386226, 3708, 0xf727b5d88f285d5e},
    {"counters4x8", P::Lockstep, 1542, 0, 0, 384,
     0.71662661584355303, 0.96413933131083274, 0.42101425256877695,
     0.8169408102641893, 5259, 0x464035b2454dd5e4},
    {"counters4x8", P::SemiDecoupled, 1415, 0, 0, 384,
     0.71662661584355303, 0.90879010238907842, 0.42101425256877695,
     0.7497713310580203, 5266, 0xf0e2720d65fe9194},
    {"counters4x8", P::FullyDecoupled, 1179, 0, 0, 384,
     0.71662661584355303, 0.97127016129032229, 0.42101425256877695,
     0.77760759545753799, 5687, 0x301df72d01a59512},
    {"counters4x8", P::Pulse, 1057, 0, 0, 384,
     0.71662661584355303, 0.97787527492668547, 0.42101425256877695,
     0.77134347507331313, 5829, 0x8ad94ff2939fb45f},
    {"crc32", P::Lockstep, 1542, 0, 0, 384,
     1.6936084494773522, 0.6453821451509314, 1.1064459930313588,
     0.44458413615928066, 1647, 0xde8efc069fdce004},
    {"crc32", P::SemiDecoupled, 1415, 0, 0, 384,
     1.6936084494773522, 0.65565498990180371, 1.1064459930313588,
     0.43585469043805281, 1623, 0x4e65f6c4bc7fc983},
    {"crc32", P::FullyDecoupled, 1033, 0, 0, 384,
     1.6936084494773522, 0.87357445693597569, 1.1064459930313588,
     0.57566215701219503, 2108, 0xd2092da2ac4f5fbc},
    {"crc32", P::Pulse, 817, 0, 0, 384,
     1.6936084494773522, 1.0426743016098481, 1.1064459930313588,
     0.66509676846590926, 2502, 0xd041077a8fff8a04},
    {"fir8x12", P::Lockstep, 3018, 0, 0, 1680,
     2.8550143204304801, 2.3871221756078249, 0.97838482902273882,
     1.3136264534883717, 6882, 0x416a25a06a98a62b},
    {"fir8x12", P::SemiDecoupled, 2818, 0, 0, 1680,
     2.8550143204304801, 2.426291842847069, 0.97838482902273882,
     1.2800158562367872, 6838, 0xd4bcacf6e0efeaa4},
    {"fir8x12", P::FullyDecoupled, 2476, 0, 0, 1680,
     2.8550143204304801, 2.6432956437291764, 0.97838482902273882,
     1.2699143808466802, 6483, 0x7e2232658c63a662},
    {"fir8x12", P::Pulse, 2170, 0, 0, 1680,
     2.8550143204304801, 2.782233442667132, 0.97838482902273882,
     1.3199114845434958, 6387, 0xe7cb7a52d6b99ac5},
    {"fir16x16", P::Lockstep, 3446, 0, 0, 4032,
     6.4432258177243433, 5.2552970594978756, 1.8823071009225614,
     2.5537766536741948, 14287, 0xb915fbc425f6e2a4},
    {"fir16x16", P::SemiDecoupled, 3212, 0, 0, 4032,
     6.4432258177243433, 5.4454403600785106, 1.8823071009225614,
     2.5499091369157165, 14587, 0xd9af2e088fc86728},
    {"fir16x16", P::FullyDecoupled, 2915, 0, 0, 4032,
     6.4432258177243433, 5.8586372046085318, 1.8823071009225614,
     2.4247165923807947, 13702, 0xe69111f3ff1bcda4},
    {"fir16x16", P::Pulse, 2564, 0, 0, 4032,
     6.4432258177243433, 6.2147925299151598, 1.8823071009225614,
     2.5789577121171106, 14010, 0xf3c237330ec6a84f},
    {"rpipe32x8", P::Lockstep, 1180, 0, 0, 3072,
     17.714473164956605, 9.935463265477166, 8.0860299921073366,
     6.5943673033425831, 46247, 0xd5244a7742bf7e02},
    {"rpipe32x8", P::SemiDecoupled, 974, 0, 0, 3072,
     17.714473164956605, 10.643504715546142, 8.0860299921073366,
     6.6843664435655645, 50702, 0xbb3fcd287ccb11a7},
    {"rpipe32x8", P::FullyDecoupled, 735, 0, 0, 3072,
     17.714473164956605, 13.072414592161111, 8.0860299921073366,
     8.1497815148305364, 62990, 0x83e2bb840ac0c74a},
    {"rpipe32x8", P::Pulse, 603, 0, 0, 3072,
     17.714473164956605, 15.071317545572812, 8.0860299921073366,
     8.8221089680989468, 70934, 0xade9660493672727},
    {"mesh6x6x2", P::Lockstep, 1212, 0, 0, 864,
     5.0262844611528807, 6.9464374598587622, 2.426159147869674,
     6.1219442437380112, 38728, 0xe57bbc3956a34a16},
    {"mesh6x6x2", P::SemiDecoupled, 997, 0, 0, 864,
     5.0262844611528807, 6.3476425492309572, 2.426159147869674,
     5.3691988341334556, 39156, 0x56b53d14bfb785f3},
    {"mesh6x6x2", P::FullyDecoupled, 732, 0, 0, 864,
     5.0262844611528807, 7.6643736758474903, 2.426159147869674,
     6.3483083951271277, 47905, 0x765ce6eb1f195fd0},
    {"mesh6x6x2", P::Pulse, 616, 0, 0, 864,
     5.0262844611528807, 7.9050507812500692, 2.426159147869674,
     6.3364824218750471, 53493, 0xa971bf23d433b601},
};

/// FNV-1a over every net's (value, toggle count).
uint64_t state_hash(const Simulator& sim) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (uint32_t n = 0; n < sim.netlist().num_nets(); ++n) {
    mix(static_cast<uint64_t>(sim.value(NetId(n))));
    mix(sim.toggles(NetId(n)));
  }
  return h;
}

TEST(Sim, TrajectoryMatchesGoldenTable) {
  const Tech& tech = Tech::generic90();
  size_t row = 0;
  for (const circuits::Suite& s : circuits::scaling_suite()) {
    for (ctl::Protocol p : ctl::kAllProtocols) {
      ASSERT_LT(row, std::size(kGolden));
      const GoldenRow& g = kGolden[row++];
      ASSERT_EQ(s.name, g.circuit);
      ASSERT_EQ(p, g.protocol);
      SCOPED_TRACE(cat(s.name, " / ", ctl::protocol_name(p)));

      verif::FlowEqOptions opt;
      opt.rounds = 12;
      opt.desync.protocol = p;
      const verif::FlowEqResult r = verif::check_flow_equivalence(
          s.circuit.netlist, s.circuit.clock, verif::random_stimulus(17),
          tech, opt);
      EXPECT_TRUE(r.equivalent) << r.mismatch;
      EXPECT_EQ(r.desync_period, g.desync_period);
      EXPECT_EQ(r.sync_setup_violations, g.sync_setup_violations);
      EXPECT_EQ(r.desync_setup_violations, g.desync_setup_violations);
      EXPECT_EQ(r.captures_compared, g.captures_compared);
      EXPECT_EQ(r.sync_power_mw, g.sync_power_mw);
      EXPECT_EQ(r.desync_power_mw, g.desync_power_mw);
      EXPECT_EQ(r.sync_clock_power_mw, g.sync_clock_power_mw);
      EXPECT_EQ(r.desync_ctl_power_mw, g.desync_ctl_power_mw);

      flow::DesyncOptions dopt;
      dopt.protocol = p;
      const flow::DesyncResult dr = flow::desynchronize(
          s.circuit.netlist, s.circuit.clock, tech, dopt);
      Simulator sim(dr.netlist, tech);
      poke_word(sim, dr.netlist.inputs(), 0x5a, 0);
      sim.run_until(30'000);
      EXPECT_EQ(sim.events_processed(), g.events);
      EXPECT_EQ(state_hash(sim), g.state_hash);
    }
  }
  EXPECT_EQ(row, std::size(kGolden));
}

// ---------------------------------------------------------------------------
// Scattered stimulus: seeded pseudo-random pokes on every non-clock input,
// spread over the run, so input changes land mid-handshake and on the same
// picosecond as internal events. A RunRecord holds everything a run shows:
// the VCD bytes, final state, event count, setup violations, RAM words.
// ---------------------------------------------------------------------------

struct Poke {
  NetId net;
  V v;
  Ps at;
};

std::vector<Poke> scattered_pokes(const Netlist& netl, NetId skip,
                                  uint64_t seed, Ps horizon, int per_input) {
  uint64_t s = seed * 0x9E3779B97F4A7C15ull + 1;
  auto next = [&s] {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 0x2545F4914F6CDD1Dull;
  };
  std::vector<Poke> pokes;
  for (NetId in : netl.inputs()) {
    if (in == skip) continue;
    for (int k = 0; k < per_input; ++k) {
      const Ps at = static_cast<Ps>(next() % static_cast<uint64_t>(horizon));
      pokes.push_back({in, (next() & 1) ? V::V1 : V::V0, at});
    }
  }
  std::stable_sort(pokes.begin(), pokes.end(),
                   [](const Poke& a, const Poke& b) { return a.at < b.at; });
  return pokes;
}

struct RunRecord {
  std::string vcd;
  uint64_t state = 0;  ///< state_hash() at the end of the run
  uint64_t events = 0;
  uint64_t violation_count = 0;
  std::vector<std::tuple<Ps, uint32_t, uint32_t, Ps>> violations;
  std::vector<uint64_t> ram_words;  ///< every RAM's words, in cell order

  friend bool operator==(const RunRecord&, const RunRecord&) = default;
};

/// FNV-1a over a byte string.
uint64_t fnv(std::string_view bytes) {
  uint64_t h = 1469598103934665603ull;
  for (char ch : bytes) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ull;
  }
  return h;
}

/// Apply `pokes`, free-run `clock` (if valid) at `period`, and run to
/// `horizon` in one call or, with `chunk` > 0, in chunk-sized steps. The
/// simulator is built from `image` when one is given, else from `netl`.
RunRecord run_scattered(const Netlist& netl, const Tech& tech,
                        const std::vector<Poke>& pokes, Ps horizon,
                        Ps chunk = 0, NetId clock = {}, Ps period = 0,
                        std::shared_ptr<const Compiled> image = {}) {
  Simulator sim = image ? Simulator(std::move(image)) : Simulator(netl, tech);
  std::vector<NetId> vcd_nets;  // a strided subset bounds the stream size
  const size_t stride = std::max<size_t>(1, netl.num_nets() / 256);
  for (size_t i = 0; i < netl.num_nets(); i += stride) {
    vcd_nets.push_back(NetId(static_cast<uint32_t>(i)));
  }
  std::ostringstream vcd;
  VcdWriter writer(sim, vcd, vcd_nets);

  if (clock.valid()) sim.add_clock(clock, period, period / 2);
  for (const Poke& p : pokes) sim.set_input(p.net, p.v, p.at);
  if (chunk > 0) {
    for (Ps t = chunk; t < horizon; t += chunk) sim.run_until(t);
  }
  sim.run_until(horizon);
  writer.finish();

  RunRecord r;
  r.vcd = vcd.str();
  r.state = state_hash(sim);
  r.events = sim.events_processed();
  r.violation_count = sim.setup_violation_count();
  for (const SetupViolation& v : sim.setup_violations()) {
    r.violations.emplace_back(v.at, v.cell.value(), v.data_net.value(),
                              v.slack);
  }
  for (nl::CellId c : netl.cells()) {
    if (netl.cell(c).kind != Kind::Ram) continue;
    for (uint64_t a = 0; a < (1ull << netl.cell(c).p0); ++a) {
      r.ram_words.push_back(sim.ram_word(c, a));
    }
  }
  return r;
}

/// FNV-1a over the recorded violations (time, cell, data net, slack).
uint64_t violations_hash(const RunRecord& r) {
  std::string bytes;
  for (const auto& [at, cellid, net, slack] : r.violations) {
    bytes += cat(at, ",", cellid, ",", net, ",", slack, ";");
  }
  return fnv(bytes);
}

/// Two RAMs sharing clock, write port and read address.
Netlist two_ram_netlist() {
  Netlist netl("rams");
  Builder b(netl);
  NetId ck = b.input("ck");
  NetId we = b.input("we");
  std::vector<NetId> wa = {b.input("wa0"), b.input("wa1")};
  std::vector<NetId> wd;
  for (int i = 0; i < 4; ++i) wd.push_back(b.input(cat("wd", i)));
  std::vector<NetId> ra = {b.input("ra0"), b.input("ra1")};
  for (NetId n : b.ram(ck, we, wa, wd, ra, 4, "m0")) b.output(n);
  for (NetId n : b.ram(ck, we, wa, wd, ra, 4, "m1")) b.output(n);
  return netl;
}

// Scattered stimulus on every scaling-suite circuit x protocol, recorded
// from the previous, domain-sharded engine at one job: the event count,
// violation count, final state and VCD bytes of a 30 000 ps desync run.
struct ScatterRow {
  const char* circuit;
  ctl::Protocol protocol;
  uint64_t events, violations;
  uint64_t state_hash, vcd_hash;
};

constexpr ScatterRow kScatterGolden[] = {
    {"pipe4x8", P::Lockstep, 6217, 4,
     0x8b04768e47934a80, 0x38216135e388d096},
    {"pipe4x8", P::SemiDecoupled, 6066, 0,
     0x9df525e63dabf745, 0x49c1ec900f09df9b},
    {"pipe4x8", P::FullyDecoupled, 7127, 0,
     0x9266c61fac3ea920, 0x7e9d63080976e0e4},
    {"pipe4x8", P::Pulse, 7794, 2,
     0xfc1c7e9961a28a09, 0x5a095633bad5c791},
    {"pipe8x16", P::Lockstep, 13832, 1,
     0x01054cc826cc8182, 0x64f519e53a6a245e},
    {"pipe8x16", P::SemiDecoupled, 14122, 1,
     0x78893f23d3348596, 0xb3a58b0cba39d61d},
    {"pipe8x16", P::FullyDecoupled, 16219, 0,
     0x2d93432aee1c63fb, 0x0b7bfed455c051f7},
    {"pipe8x16", P::Pulse, 18066, 4,
     0x2595b1bfcebb35e4, 0x3479074eaa5f31ec},
    {"pipe16x32", P::Lockstep, 36038, 1,
     0xa730f3cab2602ceb, 0x62ab74e66285ef2e},
    {"pipe16x32", P::SemiDecoupled, 37956, 0,
     0xd647ff38aa458bdd, 0x8e8fc59d697eace5},
    {"pipe16x32", P::FullyDecoupled, 44612, 4,
     0x5741217281ee04dc, 0xdd9e16f355c127b9},
    {"pipe16x32", P::Pulse, 49552, 5,
     0x5bce36bfb0e97b00, 0xcc4abbd9445edb07},
    {"lfsr16", P::Lockstep, 1692, 0,
     0x7c6c90d48285e5c2, 0xdef5147a0e383cb2},
    {"lfsr16", P::SemiDecoupled, 1683, 0,
     0x92eddbce39866fa4, 0xe8261158a3e3208c},
    {"lfsr16", P::FullyDecoupled, 2295, 0,
     0x091fe5be33c99aff, 0xa45c25a1a40ca054},
    {"lfsr16", P::Pulse, 3023, 0,
     0xf5d11f7c035ff7d8, 0x8c0051399ed7aab7},
    {"lfsr64", P::Lockstep, 2152, 0,
     0x147997b352792744, 0x29d86ff3b8b2bee2},
    {"lfsr64", P::SemiDecoupled, 2179, 0,
     0x0ac977dd777b5762, 0x1cdd6d0a445a0395},
    {"lfsr64", P::FullyDecoupled, 2857, 0,
     0x29d48094e5009e7d, 0xeeb2fe495286a87b},
    {"lfsr64", P::Pulse, 3707, 0,
     0xc808105faf9f37dc, 0x13eacb8f9d19eb0b},
    {"counters4x8", P::Lockstep, 4256, 2,
     0x2eecd9966d7b7e22, 0x1f9966c2360e6f70},
    {"counters4x8", P::SemiDecoupled, 4124, 0,
     0x8933a353370c98f2, 0xec369c409238da29},
    {"counters4x8", P::FullyDecoupled, 4067, 0,
     0xd884ad5986a1c37c, 0xf4974666b4291e9f},
    {"counters4x8", P::Pulse, 4153, 0,
     0xb68c8c6921be7486, 0x8ca64c85d671e93b},
    {"crc32", P::Lockstep, 1672, 0,
     0x535fad29294454c0, 0xd6d926a628075610},
    {"crc32", P::SemiDecoupled, 1640, 0,
     0xa2821b273e499d47, 0x125ed669ba4662c8},
    {"crc32", P::FullyDecoupled, 2050, 0,
     0x59efa1640de23d58, 0x384bebbbf032a689},
    {"crc32", P::Pulse, 2198, 0,
     0x8c4f91ca166d1221, 0x736a1f8684195e1a},
    {"fir8x12", P::Lockstep, 8751, 0,
     0x9470fe93acd2062b, 0xf1f2b8a18dcdbbfc},
    {"fir8x12", P::SemiDecoupled, 8836, 1,
     0x423168ea1a09c001, 0x628d223901506087},
    {"fir8x12", P::FullyDecoupled, 9045, 1,
     0xb1759eaf03584b2a, 0x380b02994ef322c3},
    {"fir8x12", P::Pulse, 9120, 0,
     0x7655aa9fc9d29d4a, 0x75eeae828a68cccf},
    {"fir16x16", P::Lockstep, 16710, 0,
     0xa4c858c50d4175ad, 0x150dc52bb533c19e},
    {"fir16x16", P::SemiDecoupled, 17242, 0,
     0x499d2106c098b3e5, 0x41554f9dbd0cadaf},
    {"fir16x16", P::FullyDecoupled, 16600, 3,
     0x5342ff6b8e99b6ea, 0x29c6345b07c39046},
    {"fir16x16", P::Pulse, 16849, 1,
     0x2eccd09c57912aad, 0x88f03386ad51ac42},
    {"rpipe32x8", P::Lockstep, 32361, 1,
     0x4556bbc4f8219e64, 0xdd1a29adf7f325a7},
    {"rpipe32x8", P::SemiDecoupled, 33756, 1,
     0x9a0b5231f1c5732b, 0x4599f0f190443453},
    {"rpipe32x8", P::FullyDecoupled, 39667, 3,
     0xb384d5fcbf94062f, 0xd27d4a4421d92140},
    {"rpipe32x8", P::Pulse, 42720, 3,
     0x5f04c5f6ca6bc50f, 0x9b8eecb5dcdbce4e},
    {"mesh6x6x2", P::Lockstep, 35946, 0,
     0x2bca20bd1791b721, 0x4e2e5b0bd4d0dfc3},
    {"mesh6x6x2", P::SemiDecoupled, 35586, 0,
     0x0d539e34325c984c, 0x94536e7a345ef4a8},
    {"mesh6x6x2", P::FullyDecoupled, 43169, 0,
     0x92a3a92396810dd3, 0xa119b86977aa6b25},
    {"mesh6x6x2", P::Pulse, 47408, 0,
     0xfb2c32f5683898b7, 0xb54aae5a78020a51},
};

TEST(Sim, ScatteredStimulusMatchesGoldenTable) {
  const Tech& tech = Tech::generic90();
  constexpr Ps kHorizon = 30'000;
  size_t row = 0;
  for (const circuits::Suite& s : circuits::scaling_suite()) {
    for (ctl::Protocol p : ctl::kAllProtocols) {
      ASSERT_LT(row, std::size(kScatterGolden));
      const ScatterRow& g = kScatterGolden[row++];
      ASSERT_EQ(s.name, g.circuit);
      ASSERT_EQ(p, g.protocol);
      SCOPED_TRACE(cat(s.name, " / ", ctl::protocol_name(p)));

      flow::DesyncOptions opt;
      opt.protocol = p;
      const flow::DesyncResult dr =
          flow::desynchronize(s.circuit.netlist, s.circuit.clock, tech, opt);
      const RunRecord r = run_scattered(
          dr.netlist, tech,
          scattered_pokes(dr.netlist, s.circuit.clock, 17, kHorizon, 6),
          kHorizon);
      EXPECT_EQ(r.events, g.events);
      EXPECT_EQ(r.violation_count, g.violations);
      EXPECT_EQ(r.violations.size(), g.violations);
      EXPECT_EQ(r.state, g.state_hash);
      EXPECT_EQ(fnv(r.vcd), g.vcd_hash);
    }
  }
  EXPECT_EQ(row, std::size(kScatterGolden));
}

TEST(Sim, ClockedScatteredStimulusMatchesGoldenTable) {
  // The synchronous side of a flow-equivalence proof: a free-running
  // clock with input changes scattered across its edges, so some land
  // inside a setup window. Recorded like kScatterGolden.
  struct Row {
    const char* circuit;
    uint64_t events, violations;
    uint64_t violations_hash, state_hash, vcd_hash;
  };
  constexpr Row kRows[] = {
      {"crc32", 139, 0,
       0x14650fb0739d0383, 0x6b8dd9eb3b169f0b, 0x7ea20bd0d9dd0404},
      {"pipe8x16", 5227, 1,
       0x43427def14c24eb8, 0x9e5fc51a05d51064, 0x50e4db62df950343},
  };
  const Tech& tech = Tech::generic90();
  constexpr Ps kHorizon = 40'000;
  for (const Row& g : kRows) {
    SCOPED_TRACE(g.circuit);
    const circuits::Circuit c = std::string_view(g.circuit) == "crc32"
                                    ? circuits::crc32()
                                    : circuits::pipeline(8, 16, 3);
    const RunRecord r = run_scattered(
        c.netlist, tech, scattered_pokes(c.netlist, c.clock, 23, kHorizon, 8),
        kHorizon, 0, c.clock, 2'000);
    EXPECT_EQ(r.events, g.events);
    EXPECT_EQ(r.violation_count, g.violations);
    EXPECT_EQ(violations_hash(r), g.violations_hash);
    EXPECT_EQ(r.state, g.state_hash);
    EXPECT_EQ(fnv(r.vcd), g.vcd_hash);
  }
}

TEST(Sim, ScatteredStimulusReplayAndChunkingAreDeterministic) {
  // Two runs of a handshake circuit agree event for event, and run_until
  // in chunks that do not divide the horizon (so run boundaries fall in
  // the middle of handshakes) matches one call, VCD bytes included.
  const Tech& tech = Tech::generic90();
  constexpr Ps kHorizon = 30'000;
  const circuits::Circuit c = circuits::pipeline(4, 8, 2);
  const flow::DesyncResult dr =
      flow::desynchronize(c.netlist, c.clock, tech, flow::DesyncOptions{});
  const std::vector<Poke> pokes =
      scattered_pokes(dr.netlist, c.clock, 29, kHorizon, 6);

  const RunRecord once = run_scattered(dr.netlist, tech, pokes, kHorizon);
  EXPECT_GT(once.events, 1'000u);
  EXPECT_TRUE(once == run_scattered(dr.netlist, tech, pokes, kHorizon));
  for (Ps chunk : {Ps{997}, Ps{7'001}}) {
    SCOPED_TRACE(cat("chunk=", chunk));
    EXPECT_TRUE(once ==
                run_scattered(dr.netlist, tech, pokes, kHorizon, chunk));
  }
}

TEST(Sim, RamStateMatchesAcrossChunkedRuns) {
  // RAM words are simulator state outside the net values: two RAMs
  // written under scattered stimulus end with the same words whether the
  // run is one call or chunked, and with the words the previous engine
  // produced.
  const Netlist netl = two_ram_netlist();
  const NetId ck = netl.find_net("ck");
  const Tech& tech = Tech::generic90();
  constexpr Ps kHorizon = 50'000;
  const std::vector<Poke> pokes = scattered_pokes(netl, ck, 31, kHorizon, 10);

  const RunRecord once =
      run_scattered(netl, tech, pokes, kHorizon, 0, ck, 4'000);
  const std::vector<uint64_t> words = {0, 12, 0, 15, 0, 12, 0, 15};
  EXPECT_EQ(once.ram_words, words);  // 2 RAMs x 4 words
  EXPECT_EQ(once.events, 136u);
  EXPECT_EQ(once.state, 0x1e956eb81549871aull);
  EXPECT_TRUE(once ==
              run_scattered(netl, tech, pokes, kHorizon, 997, ck, 4'000));
}

TEST(Sim, SharedCompiledImageRunsLikeTheNetlist) {
  // Simulators built from one compiled image, one after the other and on
  // two threads at once, run exactly like one built from the netlist: the
  // image is immutable and all run state is each simulator's own. A
  // self-timed circuit (reset kicks), a clocked one (a setup violation)
  // and two RAMs (per-simulator contents).
  const Tech& tech = Tech::generic90();
  const circuits::Circuit pipe = circuits::pipeline(4, 8, 2);
  const flow::DesyncResult dr =
      flow::desynchronize(pipe.netlist, pipe.clock, tech, {});
  const circuits::Circuit clocked = circuits::pipeline(8, 16, 3);
  const Netlist rams = two_ram_netlist();
  const NetId ck = rams.find_net("ck");
  struct Case {
    const char* name;
    const Netlist& netl;
    std::vector<Poke> pokes;
    Ps horizon;
    NetId clock;
    Ps period;
  };
  const Case cases[] = {
      {"desync pipe4x8", dr.netlist,
       scattered_pokes(dr.netlist, pipe.clock, 29, 30'000, 6), 30'000, {}, 0},
      {"clocked pipe8x16", clocked.netlist,
       scattered_pokes(clocked.netlist, clocked.clock, 23, 40'000, 8), 40'000,
       clocked.clock, 2'000},
      {"two RAMs", rams, scattered_pokes(rams, ck, 31, 50'000, 10), 50'000, ck,
       4'000},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto run = [&c, &tech](std::shared_ptr<const Compiled> image) {
      return run_scattered(c.netl, tech, c.pokes, c.horizon, 0, c.clock,
                           c.period, std::move(image));
    };
    const RunRecord ref = run(nullptr);
    EXPECT_GT(ref.events, 100u);
    const std::shared_ptr<const Compiled> image = compile(c.netl, tech);
    EXPECT_TRUE(run(image) == ref);
    EXPECT_TRUE(run(image) == ref);
    RunRecord a, b;
    std::thread ta([&] { a = run(image); });
    std::thread tb([&] { b = run(image); });
    ta.join();
    tb.join();
    EXPECT_TRUE(a == ref);
    EXPECT_TRUE(b == ref);
  }
}

}  // namespace
}  // namespace desyn::sim

namespace desyn::sim {
namespace {

TEST(Power, StorageClockPinsBurnInternalEnergy) {
  // Two identical circuits, one with the FF clocked, one with the clock
  // held still: the clocked one must burn the DFF's clock energy even
  // though D (and hence Q) never toggles.
  nl::Netlist netl("t");
  nl::Builder b(netl);
  nl::NetId d = b.input("d");
  nl::NetId ck = b.input("ck");
  b.output(b.dff(d, ck, V::V0, "r"));

  const cell::Tech& t = cell::Tech::generic90();
  Simulator sim(netl, t);
  sim.set_input(d, V::V0, 0);
  sim.add_clock(ck, 2000, 1000);
  sim.run_until(100);
  sim.clear_activity();
  sim.run_until(20100);
  PowerReport with_clock = estimate_power(sim, t);
  EXPECT_GT(with_clock.cell_internal_mw, 0.0);

  // Global wire factor raises the switching share when the net is global.
  nl::NetId globals[] = {ck};
  PowerReport global = estimate_power(sim, t, {}, globals);
  EXPECT_GT(global.net_switching_mw, with_clock.net_switching_mw);
}

}  // namespace
}  // namespace desyn::sim
