// Quickstart: build a pipeline from a config string, push packets through
// it, and prove a property about it — the three things this library does.
//
//   $ ./quickstart
//
// Walks through: (1) assembling a pipeline, (2) concrete forwarding,
// (3) proving crash freedom, (4) getting a counterexample packet when the
// proof fails.
#include <cstdio>

#include "elements/registry.hpp"
#include "net/headers.hpp"
#include "pipeline/pipeline.hpp"
#include "verify/decomposed.hpp"

using namespace vsd;

int main() {
  // 1. A pipeline, Click style: classify, strip the MAC header, validate
  //    the IP header, decrement TTL.
  pipeline::Pipeline pl = elements::parse_pipeline(
      "Classifier -> EthDecap -> CheckIPHeader -> DecIPTTL");
  std::printf("pipeline has %zu elements\n", pl.size());

  // 2. Concrete execution: a well-formed UDP packet flows through.
  net::PacketSpec spec;
  spec.ip_dst = net::parse_ipv4("10.0.0.2");
  spec.ttl = 9;
  net::Packet pkt = net::make_packet(spec);
  const pipeline::PipelineResult res = pl.process(pkt);
  std::printf("packet disposition: %s after %zu elements, %llu instructions\n",
              res.action == pipeline::FinalAction::Delivered ? "delivered"
              : res.action == pipeline::FinalAction::Dropped ? "dropped"
                                                             : "TRAPPED",
              res.trace.size(),
              static_cast<unsigned long long>(res.instructions));
  // EthDecap stripped the MAC header, so the IP TTL now sits at offset 8.
  std::printf("TTL after forwarding: %u (was 9)\n", pkt[8]);

  // 3. Verification: prove that NO packet — not just this one — can crash
  //    the pipeline.
  verify::DecomposedConfig cfg;
  cfg.packet_len = 64;
  verify::DecomposedVerifier verifier(cfg);
  const verify::CrashFreedomReport proof = verifier.verify_crash_freedom(pl);
  std::printf("\ncrash-freedom: %s (%.2f s, %llu suspects eliminated)\n",
              verify::verdict_name(proof.verdict), proof.seconds,
              static_cast<unsigned long long>(proof.stats.suspects_eliminated));

  // 4. Now break it: an unguarded Strip crashes on runt packets. The
  //    verifier finds the violation and hands back the packet that does it.
  pipeline::Pipeline bad =
      elements::parse_pipeline("UnsafeStrip(14) -> CheckIPHeader");
  verify::DecomposedConfig cfg2;
  cfg2.packet_len = 8;
  verify::DecomposedVerifier verifier2(cfg2);
  const verify::CrashFreedomReport broken = verifier2.verify_crash_freedom(bad);
  std::printf("\nUnsafeStrip pipeline: %s\n",
              verify::verdict_name(broken.verdict));
  if (!broken.counterexamples.empty()) {
    const verify::Counterexample& ce = broken.counterexamples.front();
    // A crash counterexample always carries its trap kind.
    std::printf("counterexample (%s): %s\n", ir::trap_name(*ce.trap),
                ce.packet.hex().c_str());
    // Replay it to confirm: this very packet crashes the pipeline.
    net::Packet replay = ce.packet;
    const pipeline::PipelineResult rr = bad.process(replay);
    std::printf("replay: %s\n",
                rr.action == pipeline::FinalAction::Trapped
                    ? "confirmed crash"
                    : "did not crash (bug!)");
  }
  return 0;
}
