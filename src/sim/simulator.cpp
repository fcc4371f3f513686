#include "sim/simulator.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "sim/event_queue.h"

namespace sunmap::sim {

const char* to_string(RunStatus status) {
  switch (status) {
    case RunStatus::kDrained:
      return "drained";
    case RunStatus::kSaturatedThroughput:
      return "saturated-throughput";
    case RunStatus::kUndelivered:
      return "undelivered";
    case RunStatus::kStalled:
      return "stalled";
  }
  return "?";
}

const char* to_string(SimEngine engine) {
  switch (engine) {
    case SimEngine::kEventDriven:
      return "event";
    case SimEngine::kCycleStepped:
      return "cycle";
  }
  return "?";
}

std::shared_ptr<const NetworkLayout> make_network_layout(
    const topo::Topology& topology) {
  auto layout = std::make_shared<NetworkLayout>();
  const auto& g = topology.switch_graph();
  layout->routers.resize(static_cast<std::size_t>(g.num_nodes()));
  layout->out_port_of_edge.assign(static_cast<std::size_t>(g.num_edges()),
                                  -1);
  layout->in_port_of_edge.assign(static_cast<std::size_t>(g.num_edges()), -1);
  layout->inject_port_of_slot.assign(
      static_cast<std::size_t>(topology.num_slots()), -1);
  layout->sink_port_of_slot.assign(
      static_cast<std::size_t>(topology.num_slots()), -1);

  // Network input/output ports follow edge order, then core attachments.
  for (graph::NodeId r = 0; r < g.num_nodes(); ++r) {
    auto& shape = layout->routers[static_cast<std::size_t>(r)];
    for (graph::EdgeId e : g.in_edges(r)) {
      layout->in_port_of_edge[static_cast<std::size_t>(e)] =
          static_cast<int>(shape.input_is_source.size());
      shape.input_is_source.push_back(0);
    }
    for (graph::EdgeId e : g.out_edges(r)) {
      layout->out_port_of_edge[static_cast<std::size_t>(e)] =
          static_cast<int>(shape.outputs.size());
      shape.outputs.emplace_back();
    }
  }
  for (int s = 0; s < topology.num_slots(); ++s) {
    auto& in_shape = layout->routers[static_cast<std::size_t>(
        topology.ingress_switch(s))];
    layout->inject_port_of_slot[static_cast<std::size_t>(s)] =
        static_cast<int>(in_shape.input_is_source.size());
    in_shape.input_is_source.push_back(1);

    auto& out_shape = layout->routers[static_cast<std::size_t>(
        topology.egress_switch(s))];
    NetworkLayout::Output sink;
    sink.is_sink = true;
    sink.sink_slot = s;
    layout->sink_port_of_slot[static_cast<std::size_t>(s)] =
        static_cast<int>(out_shape.outputs.size());
    out_shape.outputs.push_back(sink);
  }
  // Wire up link destinations.
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& edge = g.edge(e);
    auto& out = layout->routers[static_cast<std::size_t>(edge.src)]
                    .outputs[static_cast<std::size_t>(
                        layout->out_port_of_edge[static_cast<std::size_t>(e)])];
    out.dst_router = edge.dst;
    out.dst_in_port = layout->in_port_of_edge[static_cast<std::size_t>(e)];
  }
  return layout;
}

namespace {

constexpr std::uint64_t kNeverPopped =
    std::numeric_limits<std::uint64_t>::max();

/// Cycles a run draws ahead when it reaches the end of its schedule: long
/// enough to amortize the traffic model's virtual call, short enough that a
/// single-use schedule wastes little past the cycle its run ends on.
constexpr std::uint64_t kScheduleBlockCycles = 64;

/// A packet in flight, stored in the simulator's pooled packet arena and
/// referenced by index from flits. Slots are recycled when the tail flit
/// ejects, so steady state allocates nothing per packet.
struct Packet {
  int src = 0;
  int dst = 0;
  const graph::Path* path = nullptr;  // owned by the route table
  std::uint64_t gen_cycle = 0;
  bool measured = false;
};

/// An 8-byte value flit: the packet arena index plus head/tail flags and
/// the hop the flit currently sits at. Flits live in flat ring buffers
/// (FlitRing), not node-based containers.
struct Flit {
  std::int32_t packet = -1;
  std::uint16_t hop = 0;
  std::uint8_t head = 0;
  std::uint8_t tail = 0;
};

/// One in-flight flit on a link, keyed by its arrival cycle.
struct InFlightRec {
  std::uint64_t arrival = 0;
  Flit flit;
};

/// Growable power-of-two ring buffer of value elements. Grows to its
/// high-water mark once (geometric, re-linearized on grow) and then
/// recycles slots; clear() keeps the storage. The FIFO primitive behind the
/// per-VC flit queues and per-input link queues — the std::deque
/// replacement that removes per-flit chunk churn from the hot path.
template <typename T>
class Ring {
 public:
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] const T& front() const { return buf_[head_]; }

  void push_back(const T& value) {
    if (count_ == buf_.size()) grow();
    buf_[(head_ + count_) & mask_] = value;
    ++count_;
  }
  void pop_front() {
    head_ = (head_ + 1) & mask_;
    --count_;
  }
  void clear() {
    head_ = 0;
    count_ = 0;
  }

 private:
  void grow() {
    const std::size_t cap = buf_.empty() ? 8 : buf_.size() * 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < count_; ++i) {
      next[i] = buf_[(head_ + i) & mask_];
    }
    buf_ = std::move(next);
    head_ = 0;
    mask_ = cap - 1;
  }

  std::vector<T> buf_;
  std::size_t mask_ = 0;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

using FlitRing = Ring<Flit>;
using LinkRing = Ring<InFlightRec>;

/// Per-router state in flat SoA form: all per-(input, VC) and
/// per-(output, VC) quantities are flat arrays indexed input*num_vcs + vc
/// (resp. output*num_vcs + vc) instead of nested vectors of structs, so
/// allocation happens per router at build time and the allocator walks
/// contiguous memory.
struct RouterState {
  int num_inputs = 0;
  int num_outputs = 0;

  // Per (input, VC), flat: the visible FIFO and the credit count of flits
  // in flight toward it.
  std::vector<FlitRing> queues;
  std::vector<int> pending;

  // Per input.
  std::vector<int> capacity;  ///< Per VC; INT_MAX for source queues.
  std::vector<std::uint64_t> popped_cycle;  ///< Cycle of the last pop.
  std::vector<LinkRing> in_flight;          ///< On the upstream link, FIFO.

  // Per (output, VC), flat: wormhole lock owner (packet arena index, -1
  // free), the input it drains from, and the round-robin cursor.
  std::vector<std::int32_t> locked;
  std::vector<std::int32_t> locked_in;
  std::vector<std::int32_t> rr_next;

  // Per output: round-robin over VCs for the physical link.
  std::vector<std::int32_t> vc_rr;

  /// Flits sitting in this router's input queues (any port, any VC). The
  /// event engine's wakeup predicate: a router with zero queued flits can
  /// neither move a flit nor mutate allocator state, so it is skipped.
  int queued_flits = 0;
};

}  // namespace

struct Simulator::Impl {
  const topo::Topology& topology;
  const RouteTable* routes;
  SimConfig config;
  std::shared_ptr<const NetworkLayout> layout;
  std::vector<int> identity_slots;  // slot_of for schedules drawn in slots

  std::vector<RouterState> routers;

  // Pooled packet arena: slots are recycled through the free list when a
  // tail flit ejects (every flit of the packet has passed every router by
  // then), so a long run touches a bounded working set instead of an
  // ever-growing deque.
  std::vector<Packet> packets;
  std::vector<std::int32_t> free_packets;

  // Event-driven engine state: link-arrival wakeups plus the sorted set of
  // routers holding queued flits (scanned each cycle until they drain).
  EventQueue arrivals;
  std::vector<char> armed;
  std::vector<int> armed_ids;  // ascending — allocation order must match
                               // the cycle-stepped router sweep

  std::vector<std::int32_t> head_out_;  // allocator scratch, see build_state

  std::uint64_t now = 0;
  std::uint64_t flits_in_network = 0;
  std::uint64_t delivered_flits_since_warmup = 0;
  std::uint64_t injected_flits_since_warmup = 0;
  std::uint64_t total_flit_events = 0;

  // Measurement accumulators.
  std::uint64_t measured_generated = 0;
  std::uint64_t measured_delivered = 0;
  double latency_sum = 0.0;
  double latency_max = 0.0;
  std::vector<double> latencies;  // per measured packet, for percentiles

  int num_vcs = 0;  // 0 = router state not built yet

  Impl(const topo::Topology& topo, const RouteTable& table, SimConfig cfg,
       std::shared_ptr<const NetworkLayout> net)
      : topology(topo), routes(&table), config(cfg) {
    if (cfg.flits_per_packet < 1 || cfg.buffer_depth_flits < 1 ||
        cfg.link_latency_cycles < 1) {
      throw std::invalid_argument("SimConfig: invalid parameters");
    }
    layout = net != nullptr ? std::move(net) : make_network_layout(topo);
    identity_slots.resize(static_cast<std::size_t>(topo.num_slots()));
    std::iota(identity_slots.begin(), identity_slots.end(), 0);
  }

  /// VC a queued flit occupies: its hop index under distance-class VCs.
  [[nodiscard]] int vc_of(const Flit& flit) const {
    return num_vcs == 1 ? 0
                        : std::min(static_cast<int>(flit.hop), num_vcs - 1);
  }

  /// Sizes per-router state from the layout (only when the VC count
  /// changes; otherwise reset() clears in place).
  void build_state() {
    routers.assign(layout->routers.size(), RouterState{});
    const auto vcs = static_cast<std::size_t>(num_vcs);
    for (std::size_t r = 0; r < routers.size(); ++r) {
      const auto& shape = layout->routers[r];
      auto& router = routers[r];
      router.num_inputs = static_cast<int>(shape.input_is_source.size());
      router.num_outputs = static_cast<int>(shape.outputs.size());
      const auto ni = static_cast<std::size_t>(router.num_inputs);
      const auto no = static_cast<std::size_t>(router.num_outputs);
      router.queues.assign(ni * vcs, FlitRing{});
      router.pending.assign(ni * vcs, 0);
      router.capacity.resize(ni);
      for (std::size_t i = 0; i < ni; ++i) {
        router.capacity[i] = shape.input_is_source[i]
                                 ? std::numeric_limits<int>::max()
                                 : config.buffer_depth_flits;
      }
      router.popped_cycle.assign(ni, kNeverPopped);
      router.in_flight.assign(ni, LinkRing{});
      router.locked.assign(no * vcs, -1);
      router.locked_in.assign(no * vcs, -1);
      router.rr_next.assign(no * vcs, 0);
      router.vc_rr.assign(no, 0);
    }
    // Shared allocator scratch: the hoisted head-flit output per input VC
    // (allocate_router rewrites its router's slots on entry).
    std::size_t max_slots = 0;
    for (const auto& router : routers) {
      max_slots = std::max(
          max_slots, static_cast<std::size_t>(router.num_inputs) * vcs);
    }
    head_out_.assign(max_slots, -1);
  }

  /// Clears dynamic state so run() starts from cycle 0. Keeps every ring
  /// and flat array allocated: repeated runs over the same binding pay no
  /// construction and — past each ring's high-water mark — no allocation.
  void reset() {
    const int vcs =
        config.distance_class_vcs ? std::max(1, routes->max_path_switches())
                                  : 1;
    if (vcs != num_vcs) {
      num_vcs = vcs;
      build_state();
    } else {
      for (auto& router : routers) {
        for (auto& q : router.queues) q.clear();
        std::fill(router.pending.begin(), router.pending.end(), 0);
        for (auto& link : router.in_flight) link.clear();
        std::fill(router.popped_cycle.begin(), router.popped_cycle.end(),
                  kNeverPopped);
        std::fill(router.locked.begin(), router.locked.end(), -1);
        std::fill(router.locked_in.begin(), router.locked_in.end(), -1);
        std::fill(router.rr_next.begin(), router.rr_next.end(), 0);
        std::fill(router.vc_rr.begin(), router.vc_rr.end(), 0);
        router.queued_flits = 0;
      }
    }
    packets.clear();
    free_packets.clear();
    arrivals.clear();
    armed.assign(routers.size(), 0);
    armed_ids.clear();
    now = 0;
    flits_in_network = 0;
    delivered_flits_since_warmup = 0;
    injected_flits_since_warmup = 0;
    total_flit_events = 0;
    measured_generated = 0;
    measured_delivered = 0;
    latency_sum = 0.0;
    latency_max = 0.0;
    latencies.clear();
  }

  /// Marks a router as holding queued flits; keeps armed_ids ascending.
  void arm(int r) {
    if (armed[static_cast<std::size_t>(r)]) return;
    armed[static_cast<std::size_t>(r)] = 1;
    armed_ids.insert(std::lower_bound(armed_ids.begin(), armed_ids.end(), r),
                     r);
  }

  /// Picks a new packet's weighted path with its pre-drawn uniform `r`.
  const graph::Path* sample_path(int src, int dst, double r) const {
    const auto& set = routes->at(src, dst);
    for (const auto& wp : set.paths) {
      r -= wp.fraction;
      if (r <= 0.0) return &wp.path;
    }
    return &set.paths.back().path;
  }

  std::int32_t alloc_packet(int src, int dst, const graph::Path* path,
                            bool measured) {
    if (!free_packets.empty()) {
      const std::int32_t id = free_packets.back();
      free_packets.pop_back();
      packets[static_cast<std::size_t>(id)] =
          Packet{src, dst, path, now, measured};
      return id;
    }
    packets.push_back(Packet{src, dst, path, now, measured});
    return static_cast<std::int32_t>(packets.size() - 1);
  }

  void inject(int src, int dst, double path_draw, bool measured) {
    const std::int32_t pkt = alloc_packet(
        src, dst, sample_path(src, dst, path_draw), measured);
    if (measured) ++measured_generated;
    const int r = topology.ingress_switch(src);
    auto& router = routers[static_cast<std::size_t>(r)];
    // Injected flits sit at hop 0, so always VC 0 of the source queue.
    auto& queue = router.queues[static_cast<std::size_t>(
        layout->inject_port_of_slot[static_cast<std::size_t>(src)] *
        num_vcs)];
    for (int f = 0; f < config.flits_per_packet; ++f) {
      Flit flit;
      flit.packet = pkt;
      flit.head = f == 0;
      flit.tail = f == config.flits_per_packet - 1;
      queue.push_back(flit);
      ++flits_in_network;
      ++router.queued_flits;
      if (now >= config.warmup_cycles) ++injected_flits_since_warmup;
    }
    arm(r);
  }

  /// Link arrivals at router `r` become visible input-queue flits.
  void promote_arrivals(int r) {
    auto& router = routers[static_cast<std::size_t>(r)];
    bool promoted = false;
    for (int i = 0; i < router.num_inputs; ++i) {
      auto& link = router.in_flight[static_cast<std::size_t>(i)];
      while (!link.empty() && link.front().arrival <= now) {
        const Flit flit = link.front().flit;
        const int vc = vc_of(flit);
        router.queues[static_cast<std::size_t>(i * num_vcs + vc)].push_back(
            flit);
        --router.pending[static_cast<std::size_t>(i * num_vcs + vc)];
        link.pop_front();
        ++router.queued_flits;
        promoted = true;
      }
    }
    if (promoted) arm(r);
  }

  /// Output port a flit at router `r` wants next (head flits only).
  int output_for(const Flit& flit) const {
    const Packet& pkt = packets[static_cast<std::size_t>(flit.packet)];
    const auto& path = *pkt.path;
    if (flit.hop + 1 < static_cast<int>(path.nodes.size())) {
      const graph::EdgeId e =
          path.edges[static_cast<std::size_t>(flit.hop)];
      return layout->out_port_of_edge[static_cast<std::size_t>(e)];
    }
    // Last switch: eject to the destination slot's precomputed sink port.
    return layout->sink_port_of_slot[static_cast<std::size_t>(pkt.dst)];
  }

  void deliver(const Flit& flit) {
    --flits_in_network;
    if (now >= config.warmup_cycles) ++delivered_flits_since_warmup;
    if (!flit.tail) return;
    // Tail ejection: every flit of the packet has cleared the network (they
    // traverse in order behind the head), so the arena slot is recyclable.
    const Packet& pkt = packets[static_cast<std::size_t>(flit.packet)];
    if (pkt.measured) {
      const double latency =
          static_cast<double>(now + 1 - pkt.gen_cycle);
      ++measured_delivered;
      latency_sum += latency;
      latency_max = std::max(latency_max, latency);
      latencies.push_back(latency);
    }
    free_packets.push_back(flit.packet);
  }

  /// Switch allocation and traversal for one router: each output port
  /// (physical link) moves at most one flit per cycle, round-robining over
  /// its virtual channels, each of which holds its own wormhole lock.
  /// Shared verbatim by both engines — a router with no queued flits makes
  /// no grants and mutates nothing, which is what lets the event engine
  /// skip it.
  int allocate_router(std::size_t r) {
    int moved = 0;
    auto& router = routers[r];
    const auto& shape = layout->routers[r];

    // Hoisted routing: the output a head flit requests is a pure function
    // of the flit, and a queue front only changes when its input pops — an
    // input that popped is skipped for the rest of the cycle — so one pass
    // per input VC replaces the per-(output, VC, input) output_for() chase
    // in the scan below with an integer compare. -1 marks "no head flit
    // fronting this VC" (empty queue or a body/tail flit, which only moves
    // through its wormhole lock).
    for (int i = 0; i < router.num_inputs; ++i) {
      if (router.popped_cycle[static_cast<std::size_t>(i)] == now) continue;
      for (int vc = 0; vc < num_vcs; ++vc) {
        const auto slot = static_cast<std::size_t>(i * num_vcs + vc);
        const auto& queue = router.queues[slot];
        head_out_[slot] = !queue.empty() && queue.front().head
                              ? output_for(queue.front())
                              : -1;
      }
    }

    for (int o = 0; o < router.num_outputs; ++o) {
      const auto& out_shape = shape.outputs[static_cast<std::size_t>(o)];
      bool granted = false;
      int vc = router.vc_rr[static_cast<std::size_t>(o)];
      for (int kv = 0; kv < num_vcs && !granted;
           ++kv, vc = vc + 1 < num_vcs ? vc + 1 : 0) {
        const auto ovc = static_cast<std::size_t>(o * num_vcs + vc);

        int grant_in = -1;
        if (router.locked[ovc] >= 0) {
          // Wormhole: the owning packet keeps this output VC until tail.
          const int li = router.locked_in[ovc];
          const auto& queue =
              router.queues[static_cast<std::size_t>(li * num_vcs + vc)];
          if (router.popped_cycle[static_cast<std::size_t>(li)] != now &&
              !queue.empty() && queue.front().packet == router.locked[ovc]) {
            grant_in = li;
          }
        } else {
          // Round-robin over head flits in this VC requesting this output.
          const int n = router.num_inputs;
          int i = router.rr_next[ovc];
          for (int k = 0; k < n; ++k, i = i + 1 < n ? i + 1 : 0) {
            if (router.popped_cycle[static_cast<std::size_t>(i)] == now) {
              continue;
            }
            if (head_out_[static_cast<std::size_t>(i * num_vcs + vc)] != o) {
              continue;
            }
            grant_in = i;
            router.rr_next[ovc] = i + 1 < n ? i + 1 : 0;
            break;
          }
        }
        if (grant_in < 0) continue;

        auto& queue = router.queues[static_cast<std::size_t>(
            grant_in * num_vcs + vc)];
        const Flit& head = queue.front();

        // Flow control: space in the downstream VC this flit will occupy
        // (its hop increments across the link); sinks always accept.
        if (!out_shape.is_sink) {
          Flit next = head;
          ++next.hop;
          const int nvc = vc_of(next);
          const auto& dst =
              routers[static_cast<std::size_t>(out_shape.dst_router)];
          const auto slot = static_cast<std::size_t>(
              out_shape.dst_in_port * num_vcs + nvc);
          if (static_cast<int>(dst.queues[slot].size()) +
                  dst.pending[slot] >=
              dst.capacity[static_cast<std::size_t>(out_shape.dst_in_port)]) {
            continue;
          }
        }

        Flit flit = head;
        queue.pop_front();
        router.popped_cycle[static_cast<std::size_t>(grant_in)] = now;
        --router.queued_flits;
        ++moved;
        granted = true;
        router.vc_rr[static_cast<std::size_t>(o)] = (vc + 1) % num_vcs;

        if (flit.head && !flit.tail) {
          router.locked[ovc] = flit.packet;
          router.locked_in[ovc] = grant_in;
        }
        if (flit.tail) {
          router.locked[ovc] = -1;
          router.locked_in[ovc] = -1;
        }

        if (out_shape.is_sink) {
          deliver(flit);
        } else {
          Flit next = flit;
          ++next.hop;
          auto& dst =
              routers[static_cast<std::size_t>(out_shape.dst_router)];
          ++dst.pending[static_cast<std::size_t>(
              out_shape.dst_in_port * num_vcs + vc_of(next))];
          const std::uint64_t when =
              now + static_cast<std::uint64_t>(config.link_latency_cycles);
          dst.in_flight[static_cast<std::size_t>(out_shape.dst_in_port)]
              .push_back(InFlightRec{when, next});
          arrivals.schedule(when, out_shape.dst_router);
        }
      }
    }
    return moved;
  }

  SimStats run(InjectionSchedule& schedule, std::span<const int> slot_of) {
    if (slot_of.empty()) slot_of = identity_slots;
    for (const int slot : slot_of) {
      if (slot < 0 || slot >= topology.num_slots()) {
        throw std::out_of_range("Simulator: slot_of names slot " +
                                std::to_string(slot) + " outside the " +
                                std::to_string(topology.num_slots()) +
                                "-slot topology");
      }
    }
    reset();
    SimStats stats;
    const bool event_driven = config.engine == SimEngine::kEventDriven;
    const std::uint64_t measure_end =
        config.warmup_cycles + config.measure_cycles;
    const std::uint64_t hard_end = measure_end + config.drain_cycles;
    std::uint64_t stall = 0;

    // Both engines execute the identical per-cycle phase order — arrivals,
    // injections, allocation — and share all state-mutating code; the event
    // engine differs only in visiting the routers that can act instead of
    // all of them. Injections come from the schedule, which holds every
    // random draw of the run, so a quiescent cycle costs one schedule read
    // and no router work at all.
    while (now < hard_end) {
      const bool measure_window =
          now >= config.warmup_cycles && now < measure_end;

      // 1. Link arrivals become visible.
      if (event_driven) {
        while (arrivals.due(now)) {
          promote_arrivals(arrivals.front().payload);
          arrivals.pop();
        }
      } else {
        for (std::size_t r = 0; r < routers.size(); ++r) {
          promote_arrivals(static_cast<int>(r));
        }
      }

      // 2. New packets, drawn ahead in blocks but never past hard_end.
      if (now == schedule.drawn()) {
        schedule.extend_to(std::min(now + kScheduleBlockCycles, hard_end));
      }
      for (const auto& injection : schedule.at(now)) {
        const auto src = static_cast<std::size_t>(injection.src);
        const auto dst = static_cast<std::size_t>(injection.dst);
        if (src >= slot_of.size() || dst >= slot_of.size()) {
          throw std::out_of_range(
              "Simulator: injection endpoint has no slot");
        }
        if (slot_of[src] == slot_of[dst]) continue;
        inject(slot_of[src], slot_of[dst], injection.path_draw,
               measure_window);
      }

      // 3. Switch allocation and traversal.
      int moved = 0;
      if (event_driven) {
        // Routers never join armed_ids mid-allocation (grants only park
        // flits on links, to surface at now + link_latency), so iterating
        // the ascending list reproduces the full router sweep exactly.
        for (std::size_t idx = 0; idx < armed_ids.size(); ++idx) {
          moved += allocate_router(
              static_cast<std::size_t>(armed_ids[idx]));
        }
        std::size_t w = 0;
        for (const int id : armed_ids) {
          if (routers[static_cast<std::size_t>(id)].queued_flits > 0) {
            armed_ids[w++] = id;
          } else {
            armed[static_cast<std::size_t>(id)] = 0;
          }
        }
        armed_ids.resize(w);
      } else {
        for (std::size_t r = 0; r < routers.size(); ++r) {
          moved += allocate_router(r);
        }
      }
      total_flit_events += static_cast<std::uint64_t>(moved);

      if (moved == 0 && flits_in_network > 0) {
        ++stats.stalled_cycles;
        if (++stall >= config.stall_limit_cycles) {
          stats.saturated = true;
          stats.status = RunStatus::kStalled;
          break;
        }
      } else {
        stall = 0;
      }
      ++now;
      if (now >= measure_end && measured_delivered == measured_generated) {
        break;  // fully drained
      }
    }

    stats.cycles = now;
    stats.packets_generated = measured_generated;
    stats.packets_delivered = measured_delivered;
    stats.flit_events = total_flit_events;
    if (measured_delivered > 0) {
      stats.avg_latency_cycles =
          latency_sum / static_cast<double>(measured_delivered);
      stats.max_latency_cycles = latency_max;
      std::sort(latencies.begin(), latencies.end());
      auto percentile = [&](double p) {
        const auto rank = static_cast<std::size_t>(
            p * static_cast<double>(latencies.size() - 1));
        return latencies[rank];
      };
      stats.p50_latency_cycles = percentile(0.50);
      stats.p95_latency_cycles = percentile(0.95);
      stats.p99_latency_cycles = percentile(0.99);
    }
    stats.undelivered_packets = measured_generated - measured_delivered;
    if (measured_delivered < measured_generated) {
      stats.saturated = true;
      if (stats.status == RunStatus::kDrained) {
        stats.status = RunStatus::kUndelivered;
      }
    }
    const std::uint64_t span = now > config.warmup_cycles
                                   ? now - config.warmup_cycles
                                   : 1;
    stats.throughput_flits_per_cycle_per_slot =
        static_cast<double>(delivered_flits_since_warmup) /
        static_cast<double>(span) /
        static_cast<double>(topology.num_slots());
    stats.offered_flits_per_cycle_per_slot =
        static_cast<double>(injected_flits_since_warmup) /
        static_cast<double>(span) /
        static_cast<double>(topology.num_slots());
    // Acceptance meaningfully below the offered rate means the network is
    // past its saturation throughput even if the measured packets drained.
    if (stats.offered_flits_per_cycle_per_slot > 0.0 &&
        stats.throughput_flits_per_cycle_per_slot <
            0.9 * stats.offered_flits_per_cycle_per_slot) {
      stats.saturated = true;
      if (stats.status == RunStatus::kDrained) {
        stats.status = RunStatus::kSaturatedThroughput;
      }
    }
    return stats;
  }
};

Simulator::Simulator(const topo::Topology& topology, const RouteTable& routes,
                     SimConfig config,
                     std::shared_ptr<const NetworkLayout> layout)
    : impl_(std::make_unique<Impl>(topology, routes, config,
                                   std::move(layout))) {}

Simulator::~Simulator() = default;

void Simulator::bind(const RouteTable& routes) { impl_->routes = &routes; }

SimStats Simulator::run(TrafficModel& traffic) {
  InjectionSchedule schedule(traffic, impl_->config.seed);
  return impl_->run(schedule, {});
}

SimStats Simulator::run(InjectionSchedule& schedule,
                        std::span<const int> slot_of) {
  return impl_->run(schedule, slot_of);
}

SimStats simulate_pattern(const topo::Topology& topology,
                          const RouteTable& routes, Pattern pattern,
                          double injection_rate, const SimConfig& config,
                          std::shared_ptr<const NetworkLayout> layout) {
  PatternTraffic traffic(topology.num_slots(), pattern, injection_rate,
                         config.flits_per_packet);
  Simulator simulator(topology, routes, config, std::move(layout));
  return simulator.run(traffic);
}

}  // namespace sunmap::sim
