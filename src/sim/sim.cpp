#include "sim/sim.h"

#include <algorithm>
#include <bit>

#include "netlist/query.h"

namespace desyn::sim {

using cell::Kind;
using nl::CellId;
using nl::NetId;
using nl::Pin;

void Simulator::EventQueue::push(const Event& ev) {
  // The cursor never passes an undrained time and never exceeds the
  // simulation's `now_`, so a (time >= now) push is always reachable.
  DESYN_ASSERT(ev.time >= cursor_, "event scheduled in the past");
  if (ev.time >= cursor_ + static_cast<Ps>(kWheelSize)) {
    overflow_.push(ev);
  } else {
    const uint64_t idx = static_cast<uint64_t>(ev.time) & (kWheelSize - 1);
    occupied_[idx >> 6] |= uint64_t{1} << (idx & 63);
    wheel_[idx].push_back(ev);
    ++wheel_size_;
  }
}

bool Simulator::EventQueue::pop_now(Event* out) {
  std::vector<Event>& b = bucket(cursor_);
  if (drain_pos_ == b.size()) return false;
  *out = b[drain_pos_++];
  --wheel_size_;
  return true;
}

void Simulator::EventQueue::migrate() {
  const Ps horizon = cursor_ + static_cast<Ps>(kWheelSize);
  while (!overflow_.empty() && overflow_.top().time < horizon) {
    Event ev = overflow_.top();
    overflow_.pop();
    const uint64_t idx = static_cast<uint64_t>(ev.time) & (kWheelSize - 1);
    occupied_[idx >> 6] |= uint64_t{1} << (idx & 63);
    wheel_[idx].push_back(ev);
    ++wheel_size_;
  }
}

Ps Simulator::EventQueue::next_occupied_after(Ps t) const {
  const uint64_t start = (static_cast<uint64_t>(t) + 1) & (kWheelSize - 1);
  uint64_t w = start >> 6;
  uint64_t word = occupied_[w] & (~uint64_t{0} << (start & 63));
  // <= kWords iterations: the wrapped-around first word re-checks only the
  // bits below `start`, which map to the far end of the window.
  for (size_t i = 0; i <= kWords; ++i) {
    if (word != 0) {
      const uint64_t idx = (w << 6) + static_cast<uint64_t>(
                                          std::countr_zero(word));
      const uint64_t off = (idx - static_cast<uint64_t>(t)) & (kWheelSize - 1);
      return t + static_cast<Ps>(off);
    }
    w = (w + 1) & (kWords - 1);
    word = occupied_[w];
  }
  return -1;
}

bool Simulator::EventQueue::pop_next(Ps limit, Event* out) {
  for (;;) {
    std::vector<Event>& b = bucket(cursor_);
    if (drain_pos_ < b.size()) {
      if (cursor_ > limit) return false;
      *out = b[drain_pos_++];
      --wheel_size_;
      return true;
    }
    if (!b.empty()) {
      b.clear();
      const uint64_t idx = static_cast<uint64_t>(cursor_) & (kWheelSize - 1);
      occupied_[idx >> 6] &= ~(uint64_t{1} << (idx & 63));
    }
    drain_pos_ = 0;
    // Jump the cursor straight to the next event: the nearest occupied
    // wheel bucket, or the overflow head once the wheel is drained (the
    // overflow never holds anything earlier than the wheel).
    Ps next;
    if (wheel_size_ > 0) {
      next = next_occupied_after(cursor_);
      DESYN_ASSERT(next >= 0);
    } else if (!overflow_.empty()) {
      next = overflow_.top().time;
    } else {
      return false;
    }
    if (next > limit) {
      if (cursor_ < limit) {
        cursor_ = limit;
        // The clamp grew the horizon: pull newly covered overflow events
        // onto the wheel NOW, before any between-runs push at the same
        // picosecond could slip in ahead of them and break FIFO seq order.
        migrate();
      }
      return false;
    }
    cursor_ = next;
    migrate();
  }
}

namespace {

/// Decodes an address from bit nets (index 0 = LSB). Returns false on X.
bool decode_addr(const std::vector<V>& val, const std::vector<NetId>& ins,
                 size_t begin, size_t bits, uint64_t* addr) {
  uint64_t a = 0;
  for (size_t i = 0; i < bits; ++i) {
    V v = val[ins[begin + i].value()];
    if (v == V::VX) return false;
    if (v == V::V1) a |= (1ull << i);
  }
  *addr = a;
  return true;
}

}  // namespace

Compiled::Compiled(const nl::Netlist& nl, const cell::Tech& tech)
    : nl_(nl), dff_setup_(tech.dff_setup()), latch_setup_(tech.latch_setup()) {
  delay_.resize(nl_.num_cells(), 0);
  for (CellId c : nl_.cells()) {
    delay_[c.value()] = nl::cell_delay(nl_, c, tech);
    if (nl_.cell(c).kind == Kind::Ram) rams_.push_back(c);
  }
  // Flatten each net's fanout into the DFF-clock fast path + the rest.
  ff_ck_off_.reserve(nl_.num_nets() + 1);
  fan_off_.reserve(nl_.num_nets() + 1);
  for (uint32_t n = 0; n < nl_.num_nets(); ++n) {
    ff_ck_off_.push_back(static_cast<uint32_t>(ff_ck_.size()));
    fan_off_.push_back(static_cast<uint32_t>(fan_pins_.size()));
    for (const Pin& p : nl_.net(NetId(n)).fanout) {
      const nl::CellData& cd = nl_.cell(p.cell);
      if (cd.kind == Kind::Dff && p.index == 1) {
        ff_ck_.push_back(
            FfCkPin{cd.ins[0], cd.outs[0], p.cell, delay_[p.cell.value()]});
      } else {
        fan_pins_.push_back(p);
      }
    }
  }
  ff_ck_off_.push_back(static_cast<uint32_t>(ff_ck_.size()));
  fan_off_.push_back(static_cast<uint32_t>(fan_pins_.size()));
  // Flatten each cell's pins (tombstoned cells included: ids stay dense).
  flat_.reserve(nl_.num_cells());
  in_.reserve(ff_ck_.size() + fan_pins_.size());  // every live input pin
  for (uint32_t c = 0; c < nl_.num_cells(); ++c) {
    const nl::CellData& cd = nl_.cell(CellId(c));
    flat_.push_back(FlatCell{static_cast<uint32_t>(in_.size()),
                             cd.outs.empty() ? NetId::invalid() : cd.outs[0],
                             static_cast<uint16_t>(cd.ins.size()), cd.kind});
    in_.insert(in_.end(), cd.ins.begin(), cd.ins.end());
  }
  settle();
}

void Compiled::settle() {
  // Reset state: storage and state-holding outputs take their init value;
  // RAM contents are their payload (each simulator copies it).
  reset_.assign(nl_.num_nets(), V::VX);
  for (CellId c : nl_.cells()) {
    const nl::CellData& cd = nl_.cell(c);
    if (cd.kind == Kind::Ram) continue;
    if (cell::is_storage(cd.kind) || cell::is_state_holding(cd.kind)) {
      for (NetId o : cd.outs) reset_[o.value()] = cd.init;
    }
  }
  // Input i of cell c, read in place.
  auto input = [this](uint32_t c) {
    return [this, in = in_.data() + flat_[c].in](size_t i) {
      return reset_[in[i].value()];
    };
  };
  auto arity = [this](uint32_t c) { return size_t{flat_[c].n_in}; };
  // Combinational settle in topological order (zero time).
  for (CellId c : nl::topo_order(nl_)) {
    const nl::CellData& cd = nl_.cell(c);
    if (cell::is_combinational(cd.kind) && cd.kind != Kind::Rom) {
      reset_[cd.outs[0].value()] =
          cell::eval_comb(cd.kind, arity(c.value()), input(c.value()));
    } else if (cd.kind == Kind::Rom || cd.kind == Kind::Ram) {
      size_t ra_begin = cd.kind == Kind::Rom ? 0 : size_t{2} + cd.p0 + cd.p1;
      uint64_t addr = 0;
      bool known = decode_addr(reset_, cd.ins, ra_begin, cd.p0, &addr);
      const auto& mem = nl_.payload(cd.payload);
      for (size_t b = 0; b < cd.outs.size(); ++b) {
        reset_[cd.outs[b].value()] =
            known ? cell::from_bool((mem[addr] >> b) & 1) : V::VX;
      }
    }
  }
  // Kick state elements whose settled inputs already disagree with their
  // reset output (transparent latches, enabled C-elements). This models the
  // release of reset: the circuit starts moving on its own.
  for (CellId c : nl_.cells()) {
    const nl::CellData& cd = nl_.cell(c);
    if (cell::is_latch(cd.kind)) {
      V t = cd.kind == Kind::Latch ? V::V1 : V::V0;
      if (reset_[cd.ins[1].value()] == t) {
        V d = reset_[cd.ins[0].value()];
        if (d != reset_[cd.outs[0].value()]) {
          kicks_.push_back({cd.outs[0], d, delay_[c.value()]});
        }
      }
    } else if (cell::is_state_holding(cd.kind)) {
      V nv = cell::eval_state_holding(cd.kind, arity(c.value()),
                                      input(c.value()),
                                      reset_[cd.outs[0].value()]);
      if (nv != reset_[cd.outs[0].value()]) {
        kicks_.push_back({cd.outs[0], nv, delay_[c.value()]});
      }
    }
  }
}

std::shared_ptr<const Compiled> compile(const nl::Netlist& nl,
                                        const cell::Tech& tech) {
  return std::make_shared<const Compiled>(nl, tech);
}

Simulator::Simulator(const nl::Netlist& nl, const cell::Tech& tech)
    : Simulator(compile(nl, tech)) {}

Simulator::Simulator(std::shared_ptr<const Compiled> image)
    : img_(std::move(image)),
      nl_(img_->nl_),
      delay_(img_->delay_),
      ff_ck_(img_->ff_ck_),
      ff_ck_off_(img_->ff_ck_off_),
      fan_pins_(img_->fan_pins_),
      fan_off_(img_->fan_off_),
      flat_(img_->flat_),
      in_(img_->in_),
      dff_setup_(img_->dff_setup_),
      latch_setup_(img_->latch_setup_),
      val_(img_->reset_) {
  const size_t nets = nl_.num_nets();
  last_change_.assign(nets, -1);
  toggles_.assign(nets, 0);
  version_.assign(nets, 0);
  pending_.assign(nets, 0);
  watchers_.resize(nets);
  clock_half_period_.assign(nets, 0);
  ram_state_.reserve(img_->rams_.size());
  for (CellId c : img_->rams_) {
    ram_state_.push_back(nl_.payload(nl_.cell(c).payload));
  }
  for (const Compiled::Kick& k : img_->kicks_) schedule(k.net, k.value, k.at);
}

size_t Simulator::ram_slot(CellId c) const {
  const std::vector<CellId>& rams = img_->rams_;
  return static_cast<size_t>(std::lower_bound(rams.begin(), rams.end(), c) -
                             rams.begin());
}

void Simulator::schedule(NetId net, V v, Ps at) {
  // No-op evaluations with nothing in flight need no event.
  if (v == val_[net.value()] && !pending_[net.value()]) return;
  // Inertial: a newer decision for the same net supersedes pending ones.
  ++version_[net.value()];
  pending_[net.value()] = 1;
  queue_.push(Event{at, seq_++, net, v, version_[net.value()]});
}

void Simulator::set_input(NetId net, V v, Ps at) {
  DESYN_ASSERT(nl_.is_primary_input(net), "set_input on non-input net ",
               nl_.net(net).name);
  DESYN_ASSERT(at >= now_);
  // Transport semantics: stimulus events do not cancel each other, so a
  // whole waveform can be scheduled up front. The event carries the version
  // current at *application* time; stimulus nets are never cell-driven, so
  // their version never advances.
  queue_.push(Event{at, seq_++, net, v, version_[net.value()]});
}

void Simulator::add_clock(NetId net, Ps period, Ps first_rise) {
  DESYN_ASSERT(period > 0 && period % 2 == 0, "clock period must be even");
  DESYN_ASSERT(nl_.is_primary_input(net));
  set_input(net, V::V0, now_);
  set_input(net, V::V1, first_rise);
  clock_half_period_[net.value()] = period / 2;
}

void Simulator::watch(NetId net, Watcher w) {
  watchers_[net.value()].push_back(std::move(w));
}

void Simulator::clear_activity() {
  std::fill(toggles_.begin(), toggles_.end(), 0);
  window_start_ = now_;
}

uint64_t Simulator::ram_word(CellId ram, uint64_t addr) const {
  const auto& mem = ram_state_[ram_slot(ram)];
  DESYN_ASSERT(addr < mem.size());
  return mem[addr];
}

void Simulator::run_until(Ps t) {
  Event ev;
  while (queue_.pop_next(t, &ev)) {
    DESYN_ASSERT(ev.time >= now_);
    now_ = ev.time;
    step(ev);
  }
  now_ = std::max(now_, t);
}

bool Simulator::run_until_quiet(Ps max_t) {
  Event ev;
  while (queue_.pop_next(max_t, &ev)) {
    now_ = ev.time;
    step(ev);
  }
  if (queue_.empty()) return true;
  now_ = max_t;
  return false;
}

void Simulator::step(const Event& first) {
  // Commit everything due now before any fanout reads a value, so the
  // outcome of a step does not depend on the order its events were
  // scheduled in (beyond FIFO last-wins on the same net).
  commit(first);
  Event ev;
  while (queue_.pop_now(&ev)) commit(ev);
  for (const Change& ch : changes_) {
    for (const Watcher& w : watchers_[ch.net.value()]) w(now_, ch.newv);
  }
  for (const Change& ch : changes_) evaluate_fanout(ch);
  changes_.clear();
}

void Simulator::commit(const Event& ev) {
  ++events_processed_;
  const uint32_t ni = ev.net.value();
  if (ev.version != version_[ni]) return;  // superseded
  pending_[ni] = 0;
  const V oldv = val_[ni];
  if (ev.value == oldv) return;
  val_[ni] = ev.value;
  last_change_[ni] = ev.time;
  if (oldv != V::VX && ev.value != V::VX) ++toggles_[ni];

  // Self-sustaining clocks reschedule their own next toggle. The initial
  // X->0 reset assignment does not count as an edge.
  if (Ps hp = clock_half_period_[ni];
      hp > 0 && ev.value != V::VX && oldv != V::VX) {
    V nxt = ev.value == V::V1 ? V::V0 : V::V1;
    queue_.push(Event{ev.time + hp, seq_++, ev.net, nxt, version_[ni]});
  }
  changes_.push_back(Change{ev.net, oldv, ev.value});
}

void Simulator::evaluate_fanout(const Change& ch) {
  const uint32_t ni = ch.net.value();
  // Rising edge: clocked flip-flops capture D (setup-checked) — the
  // flattened fast path. Falling edges skip the whole flip-flop fanout.
  if (ch.oldv == V::V0 && ch.newv == V::V1) {
    const uint32_t end = ff_ck_off_[ni + 1];
    for (uint32_t i = ff_ck_off_[ni]; i < end; ++i) {
      const Compiled::FfCkPin& ff = ff_ck_[i];
      const Ps lc = last_change_[ff.d.value()];
      if (lc >= 0) {
        const Ps slack = (now_ - lc) - dff_setup_;
        if (slack < 0) {
          record_violation(SetupViolation{now_, ff.cell, ff.d, slack});
        }
      }
      schedule(ff.q, val_[ff.d.value()], now_ + ff.delay);
    }
  }
  const uint32_t end = fan_off_[ni + 1];
  for (uint32_t i = fan_off_[ni]; i < end; ++i) {
    evaluate_pin(fan_pins_[i], ch.oldv);
  }
}

void Simulator::record_violation(const SetupViolation& v) {
  ++violation_count_;
  if (violations_.size() < kMaxRecordedViolations) violations_.push_back(v);
}

void Simulator::check_setup(CellId c, NetId data, Ps setup) {
  const Ps lc = last_change_[data.value()];
  if (lc < 0) return;
  const Ps slack = (now_ - lc) - setup;
  if (slack < 0) record_violation(SetupViolation{now_, c, data, slack});
}

void Simulator::evaluate_pin(Pin p, V oldv) {
  const uint32_t c = p.cell.value();
  const Compiled::FlatCell& fc = flat_[c];
  const Kind kind = fc.kind;
  const NetId* in = in_.data() + fc.in;
  const NetId out = fc.out;
  const Ps d = delay_[c];
  auto input = [this, in](size_t i) { return val_[in[i].value()]; };
  switch (kind) {
    case Kind::Dff:
      // Only the D pin (index 0) is routed here, and D changes alone never
      // act; clock pins take the flattened ff_ck_ fast path in
      // evaluate_fanout().
      return;
    case Kind::Latch:
    case Kind::LatchN: {
      const V t = kind == Kind::Latch ? V::V1 : V::V0;
      const V en = val_[in[1].value()];
      if (p.index == 1) {  // EN edge
        if (en == t) {
          schedule(out, val_[in[0].value()], now_ + d);
        } else if (oldv == t) {
          check_setup(p.cell, in[0], latch_setup_);  // closing edge captures
        }
      } else if (p.index == 0 && en == t) {  // D moves while transparent
        schedule(out, val_[in[0].value()], now_ + d);
      }
      return;
    }
    case Kind::Ram: {
      const nl::CellData& cd = nl_.cell(p.cell);
      const size_t ra_begin = size_t{2} + cd.p0 + cd.p1;
      bool read_dirty = p.index >= ra_begin;
      if (p.index == 0) {  // CK
        V nv = val_[cd.ins[0].value()];
        if (oldv == V::V0 && nv == V::V1) {
          // WE, write address and write data are setup-checked.
          for (size_t i = 1; i < ra_begin; ++i) {
            check_setup(p.cell, cd.ins[i], dff_setup_);
          }
          if (val_[cd.ins[1].value()] == V::V1) {  // WE
            uint64_t wa = 0;
            if (decode_addr(val_, cd.ins, 2, cd.p0, &wa)) {
              uint64_t word = 0;
              bool known = true;
              for (size_t b = 0; b < cd.p1; ++b) {
                V v = val_[cd.ins[2 + cd.p0 + b].value()];
                if (v == V::VX) known = false;
                if (v == V::V1) word |= (1ull << b);
              }
              if (known) {
                ram_state_[ram_slot(p.cell)][wa] = word;
                read_dirty = true;  // write-through visibility
              }
            }
          }
        }
      }
      if (read_dirty) {
        uint64_t ra = 0;
        bool known = decode_addr(val_, cd.ins, ra_begin, cd.p0, &ra);
        const auto& mem = ram_state_[ram_slot(p.cell)];
        for (size_t b = 0; b < cd.outs.size(); ++b) {
          V v = known ? cell::from_bool((mem[ra] >> b) & 1) : V::VX;
          schedule(cd.outs[b], v, now_ + d);
        }
      }
      return;
    }
    case Kind::Rom: {
      const nl::CellData& cd = nl_.cell(p.cell);
      uint64_t a = 0;
      bool known = decode_addr(val_, cd.ins, 0, cd.p0, &a);
      const auto& mem = nl_.payload(cd.payload);
      for (size_t b = 0; b < cd.outs.size(); ++b) {
        V v = known ? cell::from_bool((mem[a] >> b) & 1) : V::VX;
        schedule(cd.outs[b], v, now_ + d);
      }
      return;
    }
    case Kind::CElem:
    case Kind::Gc:
      schedule(out, cell::eval_state_holding(kind, fc.n_in, input,
                                             val_[out.value()]),
               now_ + d);
      return;
    default:
      schedule(out, cell::eval_comb(kind, fc.n_in, input), now_ + d);
      return;
  }
}

}  // namespace desyn::sim

namespace desyn::sim {

uint64_t read_word(const Simulator& sim, std::span<const nl::NetId> bus,
                   bool* has_x) {
  uint64_t v = 0;
  bool x = false;
  for (size_t i = 0; i < bus.size(); ++i) {
    V bit = sim.value(bus[i]);
    if (bit == V::V1) v |= (1ull << i);
    if (bit == V::VX) x = true;
  }
  if (has_x) *has_x = x;
  return v;
}

void poke_word(Simulator& sim, std::span<const nl::NetId> bus, uint64_t value,
               Ps at) {
  for (size_t i = 0; i < bus.size(); ++i) {
    sim.set_input(bus[i], (value >> i) & 1 ? V::V1 : V::V0, at);
  }
}

}  // namespace desyn::sim
