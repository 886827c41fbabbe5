// The app-market use case (paper §2): an operator "goes shopping" for
// packet-processing elements; the market formally certifies each candidate
// against the operator's running pipeline before it may be dropped in —
// crash freedom plus the maximum latency (instruction) increase.
#include <cstdio>
#include <string>
#include <vector>

#include "verify/certify.hpp"
#include "verify/decomposed.hpp"

using namespace vsd;

int main() {
  const std::string operator_pipeline =
      "CheckIPHeader(nochecksum) -> IPLookup(10.0.0.0/8 0) -> DecIPTTL";
  std::printf("operator pipeline: %s\n", operator_pipeline.c_str());
  std::printf("candidates are inserted after stage 0 (CheckIPHeader)\n\n");

  verify::DecomposedConfig cfg;
  cfg.packet_len = 48;
  verify::DecomposedVerifier verifier(cfg);

  const std::vector<std::string> store_shelf = {
      "NetFlow",            // well-behaved statistics app
      "Paint(3)",           // trivial annotation app
      "IPOptions",          // options processor with a loop
      "NAT",                // stateful rewriter, safe allocation
      "NetFlow(strict)",    // counter that can overflow -> must be rejected
      // UnsafeStrip crashes on runt packets in isolation, yet it is
      // CERTIFIED here: the upstream CheckIPHeader guarantees >= 20 bytes,
      // so the pull can never underflow in THIS pipeline. This is the
      // paper's compositional reasoning paying off — the same element is
      // rejected when certified against a pipeline that lets runts reach
      // it (see tab6 and the quickstart).
      "UnsafeStrip(14)",
      "NAT(192.168.1.1, 10000, 4096, buggy)",  // overflowing allocator
  };

  size_t accepted = 0;
  for (const std::string& candidate : store_shelf) {
    const verify::CertificationReport r =
        verify::certify_element(verifier, operator_pipeline, candidate, 0);
    std::printf("---------------------------------------------------------\n");
    std::printf("%s\n", r.summary.c_str());
    if (!r.crash.counterexamples.empty()) {
      const verify::Counterexample& ce = r.crash.counterexamples.front();
      std::printf("  crash witness (%s): %s\n", ir::trap_name(*ce.trap),
                  ce.packet.hex(24).c_str());
      if (!ce.state_note.empty()) {
        std::printf("  note: %s\n", ce.state_note.c_str());
      }
    }
    if (r.certified) ++accepted;
  }
  std::printf("---------------------------------------------------------\n");
  std::printf("certified %zu/%zu candidates\n", accepted, store_shelf.size());
  return 0;
}
