// lint: hot-path — per-packet code; no per-packet allocation or type erasure.
#include "net/link.h"

#include <stdexcept>
#include <utility>

#include "audit/auditor.h"
#include "telemetry/track.h"

namespace halfback::net {

Link::Link(sim::Simulator& simulator, sim::DataRate rate, sim::Time delay,
           std::unique_ptr<PacketQueue> queue, PacketPool& pool, Node& dst_node,
           LossRate random_loss_rate)
    : simulator_{simulator},
      rate_{rate},
      delay_{delay},
      queue_{std::move(queue)},
      random_loss_rate_{random_loss_rate},
      loss_rng_{simulator.random().fork(0x11bbULL)},
      pool_{pool},
      dst_node_{dst_node} {
  if (rate_.is_zero()) throw std::invalid_argument{"Link rate must be positive"};
  if (!queue_) throw std::invalid_argument{"Link requires a queue"};
}

void Link::send(Packet p) {
  HALFBACK_AUDIT_HOOK(simulator_.auditor(), on_link_offered(*this, p));
  if (transmitting_) {
    queue_->enqueue(std::move(p), simulator_.now());
    return;
  }
  begin_transmission(std::move(p));
}

void Link::begin_transmission(Packet p) {
  transmitting_ = true;
  const sim::Time tx = rate_.transmission_time(p.size_bytes);
  stats_.busy_time += tx;
  tx_packet_ = std::move(p);
  simulator_.schedule_event(tx, tx_done_);
}

void Link::on_serialization_done() {
  // Serialization done: launch the packet into the propagation pipe.
  // Multiple packets can be in flight in the pipe simultaneously, so each
  // launch takes a pooled node; the single tx_done_ event is free to be
  // re-armed for the next packet in on_transmission_complete().
  const bool corrupted = !random_loss_rate_.is_zero() &&
                         loss_rng_.bernoulli(random_loss_rate_.value());
  if (corrupted) {
    ++stats_.corrupted_packets;
    HALFBACK_AUDIT_HOOK(simulator_.auditor(), on_link_corrupted(*this, tx_packet_));
  } else if (fault_hook_ == nullptr) {
    launch(std::move(tx_packet_), delay_);
  } else {
    apply_faults();
  }
  on_transmission_complete();
}

void Link::launch(Packet p, sim::Time pipe_delay) {
  PacketEvent& node = pool_.acquire(&Link::deliver_trampoline, this);
  node.packet = std::move(p);
  simulator_.schedule_event(pipe_delay, node);
}

void Link::apply_faults() {
  // Out of line so the fault-free fast path in on_serialization_done stays
  // a single null test. The hook decides; the link executes.
  FaultDecision decision = fault_hook_->on_transmit(tx_packet_, simulator_.now());
  if (decision.drop) {
    ++stats_.fault_dropped_packets;
    HALFBACK_AUDIT_HOOK(simulator_.auditor(),
                        on_link_fault_dropped(*this, tx_packet_));
    if (track_ != nullptr) {
      track_->fault_hit(telemetry::FaultKind::drop, tx_packet_);
    }
    return;
  }
  if (decision.corrupt && !tx_packet_.corrupted) {
    tx_packet_.corrupted = true;
    ++stats_.fault_corrupted_packets;
    HALFBACK_AUDIT_HOOK(simulator_.auditor(),
                        on_link_fault_corrupted(*this, tx_packet_));
    if (track_ != nullptr) {
      track_->fault_hit(telemetry::FaultKind::corrupt, tx_packet_);
    }
  }
  if (decision.extra_delay < sim::Time::zero() ||
      decision.duplicate_spacing < sim::Time::zero()) {
    // lint: hot-ok(hook-contract guard; unreachable for well-formed fault hooks)
    throw std::logic_error{"FaultHook returned a negative delay"};
  }
  if (!decision.extra_delay.is_zero()) {
    ++stats_.fault_delayed_packets;
    if (track_ != nullptr) {
      track_->fault_hit(telemetry::FaultKind::delay, tx_packet_);
    }
  }
  const sim::Time pipe = delay_ + decision.extra_delay;
  if (decision.duplicates == 0) {
    launch(std::move(tx_packet_), pipe);
    return;
  }
  // Launch the original first so that with zero spacing the copies still
  // trail it in same-timestamp FIFO order.
  Packet original = tx_packet_;
  launch(std::move(tx_packet_), pipe);
  sim::Time copy_at = pipe;
  for (std::uint32_t i = 0; i < decision.duplicates; ++i) {
    ++stats_.fault_duplicated_packets;
    HALFBACK_AUDIT_HOOK(simulator_.auditor(),
                        on_link_fault_duplicated(*this, original));
    if (track_ != nullptr) {
      track_->fault_hit(telemetry::FaultKind::duplicate, original);
    }
    copy_at += decision.duplicate_spacing;
    launch(original, copy_at);
  }
}

void Link::deliver_trampoline(void* context, PacketEvent& node) {
  static_cast<Link*>(context)->deliver(node);
}

void Link::deliver(PacketEvent& node) {
  Packet p = std::move(node.packet);
  pool_.release(node);
  ++stats_.delivered_packets;
  stats_.delivered_bytes += p.size_bytes;
  HALFBACK_AUDIT_HOOK(simulator_.auditor(), on_link_delivered(*this, p));
  dst_node_.handle(std::move(p));
}

void Link::on_transmission_complete() {
  if (auto next = queue_->dequeue(simulator_.now())) {
    begin_transmission(std::move(*next));
  } else {
    transmitting_ = false;
  }
}

}  // namespace halfback::net
