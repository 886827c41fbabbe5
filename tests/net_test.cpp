// Tests for the packet substrate: buffers, headers, checksums, workloads.
#include <gtest/gtest.h>

#include "net/headers.hpp"
#include "net/packet.hpp"
#include "net/workload.hpp"

namespace vsd::net {
namespace {

TEST(Packet, LoadStoreBigEndian) {
  Packet p = Packet::of_size(8);
  p.store_be(0, 4, 0x01020304);
  EXPECT_EQ(p[0], 0x01);
  EXPECT_EQ(p[3], 0x04);
  EXPECT_EQ(p.load_be(0, 4), 0x01020304u);
  EXPECT_EQ(p.load_be(1, 2), 0x0203u);
}

TEST(Packet, PushPullFront) {
  Packet p = Packet::of_size(10, 0x55);
  p.push_front(14);
  EXPECT_EQ(p.size(), 24u);
  EXPECT_EQ(p[0], 0);
  EXPECT_EQ(p[14], 0x55);
  p.pull_front(14);
  EXPECT_EQ(p.size(), 10u);
  EXPECT_EQ(p[0], 0x55);
}

TEST(Packet, PushBeyondHeadroomGrows) {
  Packet p = Packet::of_size(4, 0xaa);
  p.push_front(200);  // exceeds the 64-byte headroom
  EXPECT_EQ(p.size(), 204u);
  EXPECT_EQ(p[200], 0xaa);
}

TEST(Packet, MetaSlots) {
  Packet p;
  p.set_meta(kMetaPaint, 7);
  EXPECT_EQ(p.meta(kMetaPaint), 7u);
  EXPECT_EQ(p.meta(kMetaFlowHint), 0u);
}

TEST(Packet, TruncateAndAppend) {
  Packet p = Packet::of_size(10, 1);
  p.append(5);
  EXPECT_EQ(p.size(), 15u);
  EXPECT_EQ(p[14], 0);
  p.truncate(3);
  EXPECT_EQ(p.size(), 3u);
}

TEST(Ipv4, ParseFormatRoundTrip) {
  EXPECT_EQ(parse_ipv4("10.0.0.1"), 0x0a000001u);
  EXPECT_EQ(parse_ipv4("255.255.255.255"), 0xffffffffu);
  EXPECT_EQ(format_ipv4(0xc0a80105), "192.168.1.5");
  EXPECT_THROW(parse_ipv4("10.0.0"), std::invalid_argument);
  EXPECT_THROW(parse_ipv4("10.0.0.256"), std::invalid_argument);
  EXPECT_THROW(parse_ipv4("10.0.0.1.2"), std::invalid_argument);
  // Octets are plain digits: no whitespace, no sign, nothing that overflows.
  for (const char* bad : {" 1.2.3.4", "+1.2.3.4", "1.2.3.4 ", "-1.0.0.0",
                          "99999999999.0.0.0", "1. 2.3.4", "1.2.3.+4", "",
                          "1..2.3", "1.2.3.0004"}) {
    EXPECT_THROW(parse_ipv4(bad), std::invalid_argument) << '"' << bad << '"';
  }
}

TEST(Ipv4, MakePacketIsWellFormed) {
  PacketSpec spec;
  spec.ip_src = parse_ipv4("10.0.0.1");
  spec.ip_dst = parse_ipv4("10.0.0.2");
  Packet p = make_packet(spec);
  EtherView eth(p);
  EXPECT_EQ(eth.ether_type(), kEtherTypeIpv4);
  Ipv4View ip(p, kEtherHeaderSize);
  EXPECT_EQ(ip.version(), 4);
  EXPECT_EQ(ip.ihl(), 5);
  EXPECT_EQ(ip.ttl(), 64);
  EXPECT_EQ(ip.src(), spec.ip_src);
  EXPECT_EQ(ip.dst(), spec.ip_dst);
  EXPECT_TRUE(ip.checksum_ok());
  EXPECT_EQ(ip.total_len() + kEtherHeaderSize, p.size());
}

TEST(Ipv4, ChecksumDetectsCorruption) {
  Packet p = make_packet(PacketSpec{});
  Ipv4View ip(p, kEtherHeaderSize);
  ASSERT_TRUE(ip.checksum_ok());
  p[kEtherHeaderSize + 8] ^= 0xff;  // flip TTL bits
  EXPECT_FALSE(ip.checksum_ok());
  ip.update_checksum();
  EXPECT_TRUE(ip.checksum_ok());
}

TEST(Ipv4, OptionsArePaddedAndCounted) {
  PacketSpec spec;
  spec.ip_options = {kIpOptNop, kIpOptNop, kIpOptEnd};  // padded to 4
  Packet p = make_packet(spec);
  Ipv4View ip(p, kEtherHeaderSize);
  EXPECT_EQ(ip.ihl(), 6);
  EXPECT_TRUE(ip.checksum_ok());
}

TEST(Ipv4, RejectsOversizedOptions) {
  PacketSpec spec;
  spec.ip_options.assign(44, kIpOptNop);
  EXPECT_THROW(make_packet(spec), std::invalid_argument);
}

TEST(Checksum, KnownVector) {
  // RFC 1071 style check on a fixed header.
  Packet p = make_packet(PacketSpec{});
  const uint16_t stored =
      static_cast<uint16_t>(p.load_be(kEtherHeaderSize + 10, 2));
  p.store_be(kEtherHeaderSize + 10, 2, 0);
  EXPECT_EQ(ones_complement_checksum(p, kEtherHeaderSize, 20), stored);
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BelowBound) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
}

TEST(Workload, WellFormedClassParses) {
  WorkloadConfig cfg;
  cfg.traffic = TrafficClass::WellFormed;
  cfg.count = 50;
  cfg.dst_pool = {parse_ipv4("10.1.2.3")};
  const auto pkts = generate_workload(cfg);
  ASSERT_EQ(pkts.size(), 50u);
  for (const Packet& p : pkts) {
    Packet q = p;
    Ipv4View ip(q, kEtherHeaderSize);
    EXPECT_EQ(ip.version(), 4);
    EXPECT_TRUE(ip.checksum_ok());
    EXPECT_EQ(ip.dst(), parse_ipv4("10.1.2.3"));
  }
}

TEST(Workload, OptionsClassHasOptions) {
  WorkloadConfig cfg;
  cfg.traffic = TrafficClass::WithIpOptions;
  cfg.count = 20;
  const auto pkts = generate_workload(cfg);
  for (const Packet& p : pkts) {
    Packet q = p;
    Ipv4View ip(q, kEtherHeaderSize);
    EXPECT_GT(ip.ihl(), 5);
    EXPECT_TRUE(ip.checksum_ok());
  }
}

TEST(Workload, Deterministic) {
  WorkloadConfig cfg;
  cfg.traffic = TrafficClass::RandomBytes;
  cfg.count = 10;
  cfg.seed = 99;
  const auto a = generate_workload(cfg);
  const auto b = generate_workload(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size());
    for (size_t j = 0; j < a[i].size(); ++j) EXPECT_EQ(a[i][j], b[i][j]);
  }
}

TEST(Workload, TinyPacketsAreTiny) {
  WorkloadConfig cfg;
  cfg.traffic = TrafficClass::TinyPackets;
  cfg.count = 30;
  for (const Packet& p : generate_workload(cfg)) {
    EXPECT_LT(p.size(), 20u);
  }
}

TEST(Workload, IpOptionsPacketHelper) {
  Packet p = make_ip_options_packet({kIpOptNop, kIpOptNop, kIpOptNop,
                                     kIpOptEnd});
  Ipv4View ip(p, kEtherHeaderSize);
  EXPECT_EQ(ip.ihl(), 6);
  EXPECT_TRUE(ip.checksum_ok());
}

}  // namespace
}  // namespace vsd::net
