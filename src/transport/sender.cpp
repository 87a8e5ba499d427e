#include "transport/sender.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "audit/auditor.h"
#include "telemetry/hub.h"

namespace halfback::transport {

namespace {
/// SYN retry: the first retry waits 1 s and each later one doubles, up to
/// an RFC 6298-style 60 s ceiling so a long blackout never schedules an
/// absurd timer (the data-path RTO has the matching cap,
/// RttEstimator::kMaxRto). After 8 retries the sender gives up silently.
constexpr auto kSynTimeout = sim::Time::seconds(1);
constexpr auto kMaxSynTimeout = sim::Time::seconds(60);
constexpr int kMaxSynRetries = 8;
}  // namespace

std::uint32_t segments_for_bytes(std::uint64_t bytes) {
  if (bytes == 0) return 1;  // a zero-byte request still occupies one segment
  return static_cast<std::uint32_t>((bytes + net::kSegmentPayloadBytes - 1) /
                                    net::kSegmentPayloadBytes);
}

SenderBase::SenderBase(sim::Simulator& simulator, net::Node& local_node,
                       net::NodeId peer, net::FlowId flow, sim::Bytes flow_bytes,
                       SenderConfig config, std::string scheme_name)
    : simulator_{simulator},
      node_{local_node},
      peer_{peer},
      scoreboard_{segments_for_bytes(flow_bytes)},
      rtt_{config.rtt},
      config_{config} {
  record_.flow = flow;
  record_.scheme = std::move(scheme_name);
  record_.flow_bytes = flow_bytes;
  record_.total_segments = scoreboard_.total_segments();
  // rto_timer_ is bound by Sender<Policy>'s constructor: its callback runs
  // the scheme's statically-dispatched on_timeout, which this base cannot
  // name. Nothing can arm it before that constructor body runs.
  syn_timer_.bind(simulator_,
                  sim::FunctionRef<void()>::from<&SenderBase::on_syn_timeout>(
                      *this));
}

// Timer members cancel themselves on destruction.
SenderBase::~SenderBase() = default;

void SenderBase::start() {
  record_.start_time = simulator_.now();
  if (telemetry::Hub* hub = simulator_.telemetry()) {
    track_ = &hub->flow_track(simulator_, record_.flow, record_.scheme);
    track_->start(record_.flow_bytes);
  }
  send_syn();
}

void SenderBase::send_syn() {
  net::Packet syn;
  syn.flow = record_.flow;
  syn.type = net::PacketType::syn;
  syn.src = node_.id();
  syn.dst = peer_;
  syn.size_bytes = net::kControlWireBytes;
  syn.total_segments = record_.total_segments;
  syn.uid = next_uid();
  syn.sent_at = simulator_.now();
  syn_last_sent_ = simulator_.now();
  ++syn_tries_;
  if (syn_tries_ > 1) ++record_.syn_retx;
  if (track_ != nullptr) {
    track_->syn_sent(static_cast<std::uint32_t>(syn_tries_));
  }
  node_.send(std::move(syn));

  sim::Time timeout = kSynTimeout;
  for (int i = 1; i < syn_tries_ && timeout < kMaxSynTimeout; ++i) {
    timeout = timeout * 2.0;
  }
  timeout = std::min(timeout, kMaxSynTimeout);
  syn_timer_.schedule_after(timeout);
}

void SenderBase::on_syn_timeout() {
  if (established_) return;
  if (syn_tries_ > kMaxSynRetries) return;  // give up silently
  send_syn();
}

bool SenderBase::begin_established() {
  if (established_) return false;  // duplicate SYN-ACK
  established_ = true;
  syn_timer_.cancel();
  record_.established_time = simulator_.now();
  // The handshake provides the first RTT sample (Karn-valid only if the SYN
  // was not retransmitted).
  sim::Time sample = simulator_.now() - syn_last_sent_;
  if (syn_tries_ == 1) rtt_.add_sample(sample);
  record_.handshake_rtt = sample;
  // Enters the generic transfer phase; schemes with finer structure (paced
  // start, ROPR) refine it from on_established().
  if (track_ != nullptr) track_->established(sample, syn_tries_ == 1);
  return true;
}

AckUpdate SenderBase::apply_ack(const net::Packet& packet) {
  ++record_.acks_received;
  take_rtt_sample(packet);
  AckUpdate update = scoreboard_.apply_ack(packet.cum_ack, packet.sacks);
  HALFBACK_AUDIT_HOOK(simulator_.auditor(),
                      on_ack_applied(scoreboard_, record_.flow, packet, update));
  if (track_ != nullptr) {
    // newly_cum_acked already excludes segments credited at SACK time.
    track_->ack_received(packet.cum_ack, update.newly_cum_acked,
                         static_cast<std::uint32_t>(update.newly_sacked.size()),
                         update.advanced());
  }
  if (update.advanced()) {
    rtt_.reset_backoff();
    if (!scoreboard_.complete()) arm_rto();
  }
  return update;
}

void SenderBase::take_rtt_sample(const net::Packet& ack) {
  SegmentState* s = scoreboard_.mutable_state(ack.seq);
  if (s == nullptr) return;
  // Karn's algorithm: only sample segments transmitted exactly once, and
  // only when the ACK echoes that transmission. At most one sample per
  // transmission: under injected duplication the same echo can arrive
  // repeatedly (a duplicated ACK, or a re-ACK of duplicated data), and the
  // later copies carry an RTT inflated by the duplication spacing.
  if (s->times_sent == 1 && s->last_uid == ack.echo_uid && !s->rtt_sampled) {
    s->rtt_sampled = true;
    const sim::Time sample = simulator_.now() - s->last_sent;
    rtt_.add_sample(sample);
    if (track_ != nullptr) track_->rtt_sample(sample);
  } else if (track_ != nullptr) {
    track_->karn_discard(ack.seq);
  }
}

void SenderBase::transmit_segment(std::uint32_t seq, bool proactive) {
  if (seq >= record_.total_segments) {
    throw std::logic_error{"send_segment beyond flow length"};
  }
  const SegmentState* existing = scoreboard_.state(seq);
  const bool retx = existing != nullptr && existing->times_sent > 0;

  net::Packet p;
  p.flow = record_.flow;
  p.type = net::PacketType::data;
  p.src = node_.id();
  p.dst = peer_;
  p.seq = seq;
  p.total_segments = record_.total_segments;
  const std::uint64_t offset =
      static_cast<std::uint64_t>(seq) * net::kSegmentPayloadBytes;
  const std::uint64_t payload =
      std::min<std::uint64_t>(net::kSegmentPayloadBytes,
                              std::max<std::uint64_t>(record_.flow_bytes - std::min<std::uint64_t>(record_.flow_bytes, offset), 1));
  p.size_bytes = static_cast<std::uint32_t>(payload) + net::kHeaderBytes;
  p.is_retx = retx;
  p.is_proactive = proactive;
  p.uid = next_uid();
  p.sent_at = simulator_.now();

  scoreboard_.on_sent(seq, p.uid, simulator_.now(), proactive);
  HALFBACK_AUDIT_HOOK(simulator_.auditor(),
                      on_segment_sent(scoreboard_, record_.flow, record_.scheme,
                                      seq, proactive, p.uid));
  ++record_.data_packets_sent;
  if (retx) {
    if (proactive) {
      ++record_.proactive_retx;
    } else {
      ++record_.normal_retx;
    }
  } else if (proactive) {
    // First transmission flagged proactive (Proactive TCP sends the copy
    // first in some orderings); count it as proactive overhead.
    ++record_.proactive_retx;
  }
  if (track_ != nullptr) track_->segment_sent(seq, retx, proactive);
  node_.send(std::move(p));
}

void SenderBase::arm_rto() { rto_timer_.schedule_after(rtt_.rto()); }

bool SenderBase::note_timeout() {
  if (record_.completed) return false;
  ++record_.timeouts;
  rtt_.backoff();
  if (track_ != nullptr) track_->rto_fired(record_.timeouts);
  return true;
}

void SenderBase::cancel_rto() { rto_timer_.cancel(); }

sim::Time SenderBase::smoothed_rtt() const {
  if (rtt_.has_sample()) return rtt_.srtt();
  if (!record_.handshake_rtt.is_zero()) return record_.handshake_rtt;
  return sim::Time::milliseconds(100);
}

bool SenderBase::finish_transfer() {
  if (record_.completed || !scoreboard_.complete()) return false;
  record_.completed = true;
  record_.completion_time = simulator_.now();
  cancel_rto();
  syn_timer_.cancel();
  if (track_ != nullptr) track_->complete(record_.fct());
  return true;
}

void SenderBase::notify_complete() {
  if (on_complete_) on_complete_(record_);
}

}  // namespace halfback::transport
