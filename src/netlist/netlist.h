// Flat gate-level netlist: cells, nets, primary ports.
//
// Storage is arena-style (vectors indexed by 32-bit strong ids); cells are
// tombstoned on removal so ids stay stable across flow transformations
// (FF->latch conversion, clock-tree removal, controller insertion).
//
// A netlist memoizes its canonical hashes (nl::content_hash and
// nl::census_hash, netlist/hash.h): the first call computes, later calls
// on unchanged content return the stored digest, and every mutator clears
// the memo. A copy or a move starts with an empty memo, so no netlist can
// return another's.
#pragma once

#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/sha256.h"
#include "cell/cells.h"

namespace desyn::nl {

struct NetTag {};
struct CellTag {};
using NetId = Id<NetTag>;
using CellId = Id<CellTag>;

/// An input pin: (cell, input index).
struct Pin {
  CellId cell;
  uint16_t index = 0;
  friend bool operator==(const Pin& a, const Pin& b) {
    return a.cell == b.cell && a.index == b.index;
  }
};

struct NetData {
  std::string name;
  CellId driver;            ///< invalid for primary inputs / undriven nets
  uint16_t driver_pin = 0;  ///< output index on the driver cell
  std::vector<Pin> fanout;  ///< input pins reading this net
};

struct CellData {
  cell::Kind kind = cell::Kind::Buf;
  std::string name;
  std::vector<NetId> ins;
  std::vector<NetId> outs;
  cell::V init = cell::V::V0;  ///< initial state (storage / state-holding)
  int32_t payload = -1;        ///< ROM/RAM contents (index into payload table)
  uint16_t p0 = 0;             ///< macro parameter: address bits
  uint16_t p1 = 0;             ///< macro parameter: data width
  int32_t group = -1;          ///< flow annotation (latch-bank id, ...)
  bool dead = false;           ///< tombstone set by remove_cell()
};

class Netlist {
 public:
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // ---- construction -------------------------------------------------------

  /// Add an internal net. Empty name -> auto-generated; duplicate names are
  /// uniquified by suffixing.
  NetId add_net(std::string name = "");
  /// Add a primary input (a net with no driver, listed in inputs()).
  NetId add_input(std::string name);
  /// Mark an existing net as a primary output.
  void mark_output(NetId net);

  /// Add a cell. `ins`/`outs` nets must already exist; output nets must be
  /// undriven. Fanout/driver links are maintained automatically.
  CellId add_cell(cell::Kind kind, std::string name, std::vector<NetId> ins,
                  std::vector<NetId> outs, cell::V init = cell::V::V0,
                  int32_t payload = -1, uint16_t p0 = 0, uint16_t p1 = 0);

  /// Register ROM/RAM contents; returns the payload index.
  int32_t add_payload(std::vector<uint64_t> words);

  // ---- editing (used by the desynchronization flow) -----------------------

  /// Re-point input pin `index` of `c` from its current net to `to`.
  void rewire_input(CellId c, uint16_t index, NetId to);
  /// Remove a cell: detaches all pins, leaves its output nets undriven and
  /// tombstones the cell. Output nets with remaining fanout must be re-driven
  /// by the caller before the netlist is used again.
  void remove_cell(CellId c);

  void set_group(CellId c, int32_t g) { cell_mut(c).group = g; }
  void set_init(CellId c, cell::V v) { cell_mut(c).init = v; }
  /// Replace the contents of payload slot `idx` (ROM/RAM ECO). The word
  /// count must match: payload shape is structure, contents are data.
  void replace_payload(int32_t idx, std::vector<uint64_t> words) {
    DESYN_ASSERT(idx >= 0 && static_cast<size_t>(idx) < payloads_.size());
    DESYN_ASSERT(payloads_[static_cast<size_t>(idx)].size() == words.size());
    memo_.clear();
    payloads_[static_cast<size_t>(idx)] = std::move(words);
  }
  /// Swap the cell kind for another with identical pin structure (used by
  /// the flow to flip latch polarity when enables move to pulse control).
  void set_kind(CellId c, cell::Kind k) {
    CellData& cd = cell_mut(c);
    DESYN_ASSERT(cell::num_inputs(k, static_cast<int>(cd.ins.size()), cd.p0,
                                  cd.p1) == static_cast<int>(cd.ins.size()));
    DESYN_ASSERT(cell::num_outputs(k, cd.p0, cd.p1) ==
                 static_cast<int>(cd.outs.size()));
    cd.kind = k;
  }

  // ---- access -------------------------------------------------------------

  size_t num_nets() const { return nets_.size(); }
  size_t num_cells() const { return cells_.size(); }
  /// Number of non-tombstoned cells.
  size_t num_live_cells() const { return live_cells_; }

  const NetData& net(NetId id) const {
    DESYN_ASSERT(id.value() < nets_.size());
    return nets_[id.value()];
  }
  const CellData& cell(CellId id) const {
    DESYN_ASSERT(id.value() < cells_.size());
    return cells_[id.value()];
  }
  bool is_live(CellId id) const { return !cell(id).dead; }

  const std::vector<NetId>& inputs() const { return inputs_; }
  const std::vector<NetId>& outputs() const { return outputs_; }
  const std::vector<uint64_t>& payload(int32_t idx) const {
    DESYN_ASSERT(idx >= 0 && static_cast<size_t>(idx) < payloads_.size());
    return payloads_[static_cast<size_t>(idx)];
  }

  /// Name lookup; returns invalid id if absent.
  NetId find_net(std::string_view name) const;
  CellId find_cell(std::string_view name) const;

  /// True if `net` is a primary input.
  bool is_primary_input(NetId net) const;

  /// Iterate live cells: for (CellId c : nl.cells()) ...
  class CellRange;
  CellRange cells() const;

  /// Structural integrity validation (asserts on corruption). Called by
  /// tests and at flow boundaries.
  void check() const;

  /// Arity of a cell (number of input pins) — convenience.
  int arity(CellId c) const { return static_cast<int>(cell(c).ins.size()); }

 private:
  friend class Builder;
  friend Hash256 content_hash(const Netlist& nl);
  friend Hash256 census_hash(const Netlist& nl);

  /// The hash memo (see the file comment). Hashing one const netlist from
  /// several threads at once is safe: the slots are read and filled under
  /// `mu`.
  struct HashMemo {
    mutable std::mutex mu;
    std::optional<Hash256> content, census;
    HashMemo() = default;
    HashMemo(const HashMemo&) noexcept {}
    HashMemo& operator=(const HashMemo&) noexcept {
      clear();
      return *this;
    }
    void clear() {
      content.reset();
      census.reset();
    }
    /// Slot `slot`, filled by `compute` on first use. The digest is
    /// computed outside the lock; two threads racing on an empty slot
    /// both compute the same value.
    template <class Compute>
    Hash256 get(std::optional<Hash256> HashMemo::*slot, Compute compute) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (const std::optional<Hash256>& h = this->*slot) return *h;
      }
      const Hash256 h = compute();
      std::lock_guard<std::mutex> lock(mu);
      this->*slot = h;
      return h;
    }
  };

  // Every non-const path to a cell or net goes through these two, so each
  // edit clears the memo.
  CellData& cell_mut(CellId id) {
    DESYN_ASSERT(id.value() < cells_.size());
    memo_.clear();
    return cells_[id.value()];
  }
  NetData& net_mut(NetId id) {
    DESYN_ASSERT(id.value() < nets_.size());
    memo_.clear();
    return nets_[id.value()];
  }
  std::string unique_net_name(std::string base);
  std::string unique_cell_name(std::string base);

  std::string name_;
  std::vector<NetData> nets_;
  std::vector<CellData> cells_;
  std::vector<NetId> inputs_;
  std::vector<NetId> outputs_;
  std::vector<std::vector<uint64_t>> payloads_;
  std::unordered_map<std::string, uint32_t> net_by_name_;
  std::unordered_map<std::string, uint32_t> cell_by_name_;
  size_t live_cells_ = 0;
  uint64_t auto_name_counter_ = 0;
  mutable HashMemo memo_;
};

class Netlist::CellRange {
 public:
  class Iterator {
   public:
    Iterator(const Netlist* nl, uint32_t i) : nl_(nl), i_(i) { skip_dead(); }
    CellId operator*() const { return CellId(i_); }
    Iterator& operator++() {
      ++i_;
      skip_dead();
      return *this;
    }
    friend bool operator!=(const Iterator& a, const Iterator& b) {
      return a.i_ != b.i_;
    }

   private:
    void skip_dead() {
      while (i_ < nl_->num_cells() && nl_->cell(CellId(i_)).dead) ++i_;
    }
    const Netlist* nl_;
    uint32_t i_;
  };
  explicit CellRange(const Netlist* nl) : nl_(nl) {}
  Iterator begin() const { return Iterator(nl_, 0); }
  Iterator end() const {
    return Iterator(nl_, static_cast<uint32_t>(nl_->num_cells()));
  }

 private:
  const Netlist* nl_;
};

inline Netlist::CellRange Netlist::cells() const { return CellRange(this); }

}  // namespace desyn::nl
