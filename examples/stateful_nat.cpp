// Stateful verification (paper §3, "Element Verification"): NAT and
// NetFlow keep mutable private state, the hard case for symbolic
// execution. This example runs a NAT+NetFlow chain on live flows, then
// shows the key/value bad-value analysis at work: the safe NAT is proven
// crash-free, the overflowing variant is refuted with a note that the
// violation needs state built by a prior packet sequence.
#include <cstdio>

#include "elements/registry.hpp"
#include "elements/stateful.hpp"
#include "net/headers.hpp"
#include "pipeline/pipeline.hpp"
#include "verify/decomposed.hpp"

using namespace vsd;

int main() {
  // --- concrete NAT behaviour --------------------------------------------
  pipeline::Pipeline pl = elements::parse_pipeline(
      "CheckIPHeader(nochecksum) -> NAT(192.168.1.1, 10000, 4096) -> NetFlow");
  std::printf("pipeline: CheckIPHeader -> NAT -> NetFlow\n\n");

  for (int flow = 0; flow < 3; ++flow) {
    net::PacketSpec spec;
    spec.ip_src = net::parse_ipv4("10.0.0." + std::to_string(10 + flow));
    spec.src_port = static_cast<uint16_t>(40000 + flow);
    spec.ip_dst = net::parse_ipv4("93.184.216.34");
    for (int i = 0; i < 2; ++i) {
      net::Packet p = net::make_packet(spec);
      p.pull_front(net::kEtherHeaderSize);
      const pipeline::PipelineResult r = pl.process(p);
      std::printf("flow %d pkt %d: src rewritten to %s:%llu (%s)\n", flow, i,
                  net::format_ipv4(static_cast<uint32_t>(p.load_be(12, 4)))
                      .c_str(),
                  static_cast<unsigned long long>(p.load_be(20, 2)),
                  r.action == pipeline::FinalAction::Delivered ? "delivered"
                                                               : "dropped");
    }
  }
  std::printf("NAT mappings held: %zu; NetFlow flows seen: %zu\n",
              pl.element(1).kv().entry_count(0),
              pl.element(2).kv().entry_count(0));

  // --- proofs over private state -----------------------------------------
  verify::DecomposedConfig cfg;
  cfg.packet_len = 48;
  verify::DecomposedVerifier verifier(cfg);

  {
    pipeline::Pipeline safe;
    safe.add("nat", elements::make_nat());
    const verify::CrashFreedomReport r = verifier.verify_crash_freedom(safe);
    std::printf("\nsafe NAT (modulo port allocation): %s in %.2f s\n",
                verify::verdict_name(r.verdict), r.seconds);
  }
  {
    pipeline::Pipeline buggy;
    elements::NatConfig nc;
    nc.buggy = true;
    buggy.add("nat", elements::make_nat(nc));
    const verify::CrashFreedomReport r = verifier.verify_crash_freedom(buggy);
    std::printf("\nbuggy NAT (no wraparound): %s\n",
                verify::verdict_name(r.verdict));
    if (!r.counterexamples.empty()) {
      const verify::Counterexample& ce = r.counterexamples.front();
      std::printf("  trap: %s\n  trigger packet: %s\n", ir::trap_name(*ce.trap),
                  ce.packet.hex(24).c_str());
      if (!ce.state_note.empty()) {
        std::printf("  %s\n", ce.state_note.c_str());
      }
    }
  }
  {
    pipeline::Pipeline strict;
    elements::NetFlowConfig nf;
    nf.strict = true;
    strict.add("netflow", elements::make_netflow(nf));
    const verify::CrashFreedomReport r = verifier.verify_crash_freedom(strict);
    std::printf("\nstrict NetFlow (counter overflow assert): %s\n",
                verify::verdict_name(r.verdict));
    if (!r.counterexamples.empty() &&
        !r.counterexamples.front().state_note.empty()) {
      std::printf("  %s\n", r.counterexamples.front().state_note.c_str());
    }
  }
  return 0;
}
